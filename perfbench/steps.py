"""The step phase: Airfoil time steps under every variant, interleaved.

Each variant owns a mesh, a :class:`~repro.session.Session` (its warm
engine) and a long-lived execution context.  Variants run in *rounds*: one
block of a few steps per variant, the order reversed every
other round, with a host-speed probe between consecutive blocks.  A host
slow spell therefore lands on every variant alike, and each block can be
taken to reference speed by its two adjacent probes.

A context accumulates per-step state (task graph, loop records, engine trace
events), so one that lived for the whole run would make memory and step time
depend on how many steps the host managed.  Every :data:`CONTEXT_STEPS`
steps each context is therefore finished (the timed ``core.finish_ms``) and
replaced by a fresh one on the same warm session, followed by one untimed
step.  Every variant runs the same steps, so at the end the serial variant's
``q`` is the reference for all the others.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.airfoil.mesh import renumber_mesh
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.session import Session

from hostspeed import QUIET_QUANTILE, ProbeGuard, speed_factor
from tracing import SpanRecorder

#: serial baseline, the fork/join baseline, then the HPX context on every engine
VARIANTS = ("serial", "openmp", "simulate", "threads", "processes", "compiled", "sharded")
#: variants whose loops go through the dataflow or fork/join pipeline stages
PIPELINE_VARIANTS = VARIANTS[1:]
#: variants that submit chunks to an engine (``simulate`` runs loops eagerly)
ENGINE_VARIANTS = ("openmp", "threads", "processes", "compiled", "sharded")
NUM_THREADS = 2
RK_STEPS = 2
WARMUP_STEPS = 1
CONTEXT_STEPS = 20

#: Airfoil's residual scatter has two increment streams whose commit order
#: differs from unchunked execution, so engines match serial to ~1e-15
Q_RTOL = 1e-15
Q_ATOL = 1e-15


@dataclass(frozen=True)
class MeshSpec:
    nx: int
    ny: int
    shuffle: bool


def build_mesh(spec: MeshSpec, seed: int):
    mesh = generate_mesh(spec.nx, spec.ny)
    if spec.shuffle:
        mesh = renumber_mesh(mesh, method="shuffle", seed=seed)
    return mesh


def make_context(variant: str, session: Session):
    if variant == "serial":
        return serial_context(session=session)
    if variant == "openmp":
        return openmp_context(engine="threads", num_threads=NUM_THREADS, session=session)
    return hpx_context(engine=variant, num_threads=NUM_THREADS, session=session)


@contextlib.contextmanager
def activated(ctx):
    """Make ``ctx`` the active context without finishing it on the way out.

    ``with ctx:`` would call ``finish()`` (drain plus DAG simulation) on
    exit; a long-lived context is only activated around each block.
    """
    with ctx.session.use():
        ctx.session.push_context(ctx)
        try:
            yield ctx
        finally:
            ctx.session.pop_context(ctx)


def q_matches(q: np.ndarray, reference: np.ndarray) -> bool:
    return q.shape == reference.shape and bool(
        np.allclose(q, reference, rtol=Q_RTOL, atol=Q_ATOL)
    )


class Variant:
    """One variant's mesh, session and current context."""

    def __init__(self, name: str, spec: MeshSpec, seed: int) -> None:
        self.name = name
        self.mesh = build_mesh(spec, seed)
        self.session = Session(name=f"bench-{name}")
        with self.session.use():
            self.mesh.declare()
        self.ctx = make_context(name, self.session)
        self.ctx_steps = 0
        self.steps = 0
        self.q: Optional[np.ndarray] = None
        self.tracer: Optional["StepTracer"] = None
        #: seconds of every context finish (drain plus DAG simulation)
        self.finish_seconds: list[float] = []

    @property
    def engine(self):
        return self.ctx.executor if self.name in ENGINE_VARIANTS else None

    def run_steps(self, count: int, times: Optional[list[float]] = None) -> None:
        tracer = self.tracer
        with activated(self.ctx):
            for _ in range(count):
                if tracer is not None:
                    tracer.begin_step(self)
                started = time.perf_counter()
                result = run_airfoil(self.mesh, niter=1, rk_steps=RK_STEPS)
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.end_step(self, started, started + elapsed)
                if times is not None:
                    times.append(elapsed)
        self.ctx_steps += count
        self.steps += count
        self.q = result.q

    def finish_context(self) -> float:
        """Finish the current context (drain + DAG simulation); returns seconds."""
        with activated(self.ctx):
            started = time.perf_counter()
            self.ctx.finish()
            seconds = time.perf_counter() - started
        self.finish_seconds.append(seconds)
        return seconds

    def rotate(self) -> None:
        self.finish_context()
        self.ctx = make_context(self.name, self.session)
        self.ctx_steps = 0
        if self.tracer is not None:
            self.tracer.observe(self)

    def close(self) -> None:
        try:
            self.finish_context()
        finally:
            self.session.close()


def setup_variants(spec: MeshSpec, seed: int) -> list[Variant]:
    """Mesh generation, renumbering, declaration, engine spin-up and warm-up."""
    variants: list[Variant] = []
    try:
        for name in VARIANTS:
            variants.append(Variant(name, spec, seed))
            variants[-1].run_steps(WARMUP_STEPS)
    except BaseException:
        close_variants(variants)
        raise
    return variants


def close_variants(variants: list[Variant]) -> None:
    first: Optional[BaseException] = None
    for variant in variants:
        try:
            variant.close()
        except BaseException as exc:  # noqa: BLE001 - re-raised after all closed
            first = first or exc
    if first is not None:
        raise first


class StepPhase:
    """Timings of one pass of rounds: per variant, raw step seconds and the
    speed factor of the block each step ran in.  ``blocks`` keeps every
    block as ``(variant, step seconds, probe before, probe after, round,
    index of the after probe)`` for the details file."""

    def __init__(self) -> None:
        self.steps: dict[str, list[tuple[float, float]]] = {v: [] for v in VARIANTS}
        self.blocks: list = []
        self.rounds = 0

    def step_ms(self, variant: str, corrected: bool) -> float:
        """Step time at :data:`~hostspeed.QUIET_QUANTILE` over the run's steps."""
        values = [raw * (factor if corrected else 1.0) for raw, factor in self.steps[variant]]
        return float(np.percentile(values, QUIET_QUANTILE)) * 1e3


def run_rounds(
    variants: list[Variant],
    guard: ProbeGuard,
    seconds: float,
    block_steps: int,
    phase: StepPhase,
    *,
    on_round=None,
) -> None:
    """Whole rounds for about ``seconds``, appended to ``phase``: the last
    round is the one that ends nearest the deadline."""
    deadline = time.perf_counter() + seconds
    before = guard.probe()
    while True:
        round_started = time.perf_counter()
        order = variants if phase.rounds % 2 == 0 else variants[::-1]
        for variant in order:
            times: list[float] = []
            variant.run_steps(block_steps, times)
            after = guard.probe()
            factor = speed_factor(before, after)
            phase.steps[variant.name].extend((t, factor) for t in times)
            phase.blocks.append(
                (variant.name, times, before, after, phase.rounds, len(guard.readings) - 1)
            )
            before = after
        phase.rounds += 1
        if on_round is not None:
            on_round()
        if variants[0].ctx_steps >= CONTEXT_STEPS:
            for variant in variants:
                variant.rotate()
            for variant in variants:
                variant.run_steps(1)
            before = guard.probe()
        now = time.perf_counter()
        if now + (now - round_started) / 2 >= deadline:
            return


def check_results(variants: list[Variant]) -> dict[str, bool]:
    """Each variant's final ``q`` against the serial variant's."""
    reference = variants[0]
    assert reference.name == "serial" and reference.q is not None
    return {
        v.name: v.steps == reference.steps and v.q is not None and q_matches(v.q, reference.q)
        for v in variants
    }


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------
_ENGINE_CALLS = {"submit": 1, "submit_chunk": 2, "submit_loop_chunk": 2, "wait_all": 0}


class StepTracer:
    """Spans and counters for the traced pass, read from outside the program:
    stage observers on each context's pipeline, wrappers on each engine
    instance's public submission and drain calls, and growth of the
    pipeline's and engine's public state."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.main_thread = threading.get_ident()
        self._in_call = False
        self.current_step = -1
        self.stage_seconds: dict[tuple[str, str], float] = {}
        self.stage_count: dict[tuple[str, str], int] = {}
        self.submit_seconds: dict[str, float] = {}
        self.submit_calls: dict[str, int] = {}
        self.tasks: dict[str, int] = {}
        self.wait_seconds: dict[str, float] = {}
        self.chunks: dict[str, int] = {}
        self.dep_edges: dict[str, int] = {}
        self.records: dict[str, int] = {}
        self.sim_tasks: dict[str, int] = {}
        self.steps: dict[str, int] = {}
        self.loop_bytes = 0
        self.loops = 0
        self._mark: dict[str, tuple[int, int]] = {}
        self._wrapped: list[tuple[object, str]] = []
        self._engine_start: dict[str, tuple[int, Optional[dict]]] = {}
        self._observers: dict[str, object] = {}

    # -- attach / detach ---------------------------------------------------------
    def attach(self, variants: list[Variant]) -> None:
        for variant in variants:
            variant.tracer = self
            self.observe(variant)
            engine = variant.engine
            if engine is not None:
                self._wrap_engine(variant.name, engine)
                events = engine.trace_events
                halo = engine.halo_stats() if hasattr(engine, "halo_stats") else None
                self._engine_start[variant.name] = (len(events or ()), halo)

    def detach(self, variants: list[Variant]) -> dict[str, dict]:
        """Stop tracing; returns per-engine growth of trace events and halo stats."""
        growth: dict[str, dict] = {}
        for variant in variants:
            variant.tracer = None
            variant.ctx.pipeline.remove_observer(self._observers.pop(variant.name))
            engine = variant.engine
            if engine is not None and variant.name in self._engine_start:
                events0, halo0 = self._engine_start[variant.name]
                growth[variant.name] = {"trace_events": len(engine.trace_events or ()) - events0}
                if halo0 is not None:
                    halo1 = engine.halo_stats()
                    growth[variant.name].update(
                        {key: halo1[key] - halo0[key] for key in halo1}
                    )
        for engine, name in self._wrapped:
            delattr(engine, name)
        self._wrapped.clear()
        return growth

    def observe(self, variant: Variant) -> None:
        name = variant.name

        def observer(event) -> None:
            self.on_stage(name, event)

        self._observers[name] = variant.ctx.pipeline.add_observer(observer)

    def _wrap_engine(self, variant: str, engine) -> None:
        for method, tasks in _ENGINE_CALLS.items():
            original = getattr(engine, method, None)
            if original is None:
                continue
            setattr(engine, method, self._wrapper(variant, method, tasks, original))
            self._wrapped.append((engine, method))

    def _wrapper(self, variant: str, method: str, tasks: int, original):
        def wrapper(*args, **kwargs):
            # Only the outermost call on the submitting thread counts: an
            # engine's submit_chunk may call its own submit.
            if threading.get_ident() != self.main_thread or self._in_call:
                return original(*args, **kwargs)
            self._in_call = True
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                self._in_call = False
                self.recorder.add(
                    "engines", method, started, ended, parent=self.current_step, group=variant
                )
                if method == "wait_all":
                    self.wait_seconds[variant] = self.wait_seconds.get(variant, 0.0) + (
                        ended - started
                    )
                else:
                    self.submit_seconds[variant] = self.submit_seconds.get(variant, 0.0) + (
                        ended - started
                    )
                    self.submit_calls[variant] = self.submit_calls.get(variant, 0) + 1
                    self.tasks[variant] = self.tasks.get(variant, 0) + tasks

        return wrapper

    # -- events ------------------------------------------------------------------
    def on_stage(self, variant: str, event) -> None:
        ended = time.perf_counter()
        self.recorder.add(
            "core", event.stage, ended - event.seconds, ended,
            parent=self.current_step, group=variant,
        )
        key = (variant, event.stage)
        self.stage_seconds[key] = self.stage_seconds.get(key, 0.0) + event.seconds
        self.stage_count[key] = self.stage_count.get(key, 0) + 1
        if variant == "serial" and event.stage == "lower":
            loop = event.artifact.loop
            per_iteration = sum(
                arg.bytes_per_iteration for arg in loop.args if not arg.is_global
            )
            self.loop_bytes += loop.iterset.size * per_iteration
            self.loops += 1

    def begin_step(self, variant: Variant) -> None:
        # The step span is created first so its children can name it; its
        # times are filled in by end_step.
        self.current_step = self.recorder.add("op2", "step", 0.0, 0.0, group=variant.name)
        pipeline = variant.ctx.pipeline
        graph = pipeline.task_graph
        self._mark[variant.name] = (len(pipeline.records), len(graph) if graph is not None else 0)

    def end_step(self, variant: Variant, started: float, ended: float) -> None:
        name = variant.name
        span_id = self.current_step
        self.recorder.spans[span_id] = (span_id, -1, "op2", "step", started, ended, name)
        self.current_step = -1
        pipeline = variant.ctx.pipeline
        records0, tasks0 = self._mark.pop(name)
        new_records = pipeline.records[records0:]
        graph = pipeline.task_graph
        self.records[name] = self.records.get(name, 0) + len(new_records)
        self.chunks[name] = self.chunks.get(name, 0) + sum(r.num_chunks for r in new_records)
        self.dep_edges[name] = self.dep_edges.get(name, 0) + sum(
            r.dependency_count for r in new_records
        )
        self.sim_tasks[name] = self.sim_tasks.get(name, 0) + (
            (len(graph) if graph is not None else 0) - tasks0
        )
        self.steps[name] = self.steps.get(name, 0) + 1
