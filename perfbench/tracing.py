"""In-memory spans recorded at layer boundaries, and self time per layer.

Spans are recorded from the benchmark's own code, around the calls it makes
into each layer: an Airfoil step (``op2``), the pipeline stages inside it
(``core``, from the stage observer), the engine calls inside those
(``engines``); a service request, its admission, queue wait, run and
completion.  They stay in memory until :meth:`SpanRecorder.write`.

A span's *self time* is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional


class SpanRecorder:
    """Append-only span store; a span is ``(id, parent, layer, name, start, end, group)``.

    ``group`` ties the spans of one step or one request together (the
    variant or tenant name); ``parent`` is the id of the enclosing span or
    ``-1``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float, str]] = []

    def add(
        self,
        layer: str,
        name: str,
        start: float,
        end: float,
        *,
        parent: int = -1,
        group: str = "",
    ) -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, parent, layer, name, start, end, group))
        return span_id

    def reparent_by_containment(self, child_layer: str, parent_layer: str) -> None:
        """Move each ``child_layer`` span under the ``parent_layer`` span that
        shares its parent and contains it in time.

        Pipeline stages report themselves only when they end, so engine calls
        made inside a stage are first recorded under the step; this nests
        them under the stage they ran in.
        """
        by_parent: dict[int, list[tuple[float, float, int]]] = {}
        for span_id, parent, layer, _name, start, end, _group in self.spans:
            if layer == parent_layer:
                by_parent.setdefault(parent, []).append((start, end, span_id))
        for index, (span_id, parent, layer, name, start, end, group) in enumerate(self.spans):
            if layer != child_layer:
                continue
            for p_start, p_end, p_id in by_parent.get(parent, ()):
                if p_start <= start and end <= p_end:
                    self.spans[index] = (span_id, p_id, layer, name, start, end, group)
                    break

    def self_seconds(self, group_filter: Optional[str] = None) -> dict[str, float]:
        """Total self time per layer (seconds), optionally for one group."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _id, parent, _layer, _name, start, end, group in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, _parent, layer, _name, start, end, group in self.spans:
            if group_filter is not None and group != group_filter:
                continue
            covered = _union_length(children.get(span_id, ()), start, end)
            totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "layer", "name", "start", "end", "group"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
