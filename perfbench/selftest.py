"""Tests of the benchmark itself, on short smoke runs.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from hostspeed import ProbeGuard, ProbeGuardError  # noqa: E402
from steps import MeshSpec, Variant, check_results, close_variants  # noqa: E402

SMOKE_SECONDS = 2.5


def _declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_appears_with_its_unit(trace, kind):
    result, details = run.run_workload(
        "airfoil-tiny", seed=5, seconds=SMOKE_SECONDS, trace=trace, setup_repeats=1
    )
    assert result["correct"], details
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared_metrics(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_correctness_gate_trips_on_perturbed_q():
    spec = MeshSpec(12, 8, False)
    variants = [Variant("serial", spec, 0), Variant("threads", spec, 0)]
    try:
        for variant in variants:
            variant.run_steps(2)
        assert check_results(variants) == {"serial": True, "threads": True}
        # A last-digit-sized error is tolerated only up to 1e-15; this is not.
        variants[1].q = variants[1].q.copy()
        variants[1].q[3, 1] += 1e-12
        assert check_results(variants) == {"serial": True, "threads": False}
        # So is a variant that ran a different number of steps.
        variants[1].run_steps(1)
        assert not check_results(variants)["threads"]
    finally:
        close_variants(variants)


def _probe_many(guard: ProbeGuard, count: int) -> None:
    for _ in range(count):
        guard.probe()


def test_probe_guard_passes_when_idle():
    guard = ProbeGuard()
    _probe_many(guard, 40)
    guard.check()


def test_probe_guard_trips_on_busy_thread():
    stop = threading.Event()

    def spin() -> None:
        # NumPy sorts release the interpreter lock, so the thread burns a core
        # without slowing the probe thread down.
        values = np.random.default_rng(0).random(1_000_000)
        while not stop.is_set():
            np.sort(values)

    guard = ProbeGuard()
    busy = threading.Thread(target=spin)
    busy.start()
    try:
        _probe_many(guard, 20)
    finally:
        stop.set()
        busy.join(10.0)
    assert not busy.is_alive()
    with pytest.raises(ProbeGuardError):
        guard.check()
