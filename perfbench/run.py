"""Layered benchmark of the OP2/HPX reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload airfoil-tiny --seed 1 --seconds 45 --trace 0

Every run has two phases, so every workload reports every end-to-end metric:

* the *step phase* times Airfoil steps under seven variants -- ``serial``,
  ``openmp`` (fork/join on the ``threads`` engine) and the HPX context on
  each registered engine -- each in its own long-lived context, interleaved
  in rounds (see ``steps.py``);
* the *service phase* runs two closed-loop tenants on one ``ServiceRuntime``
  (see ``service_mix.py``).

The phases alternate in :data:`SLICES` slices, so both sample the host over
the whole run.  The workloads differ in the step-phase mesh and in how the
run's seconds are split between the phases.  Set-up (mesh generation and
renumbering, declaration, engine spin-up, warm-up steps, the service runtime
and its serial references) is done :data:`SETUP_REPEATS` times and reported
as the median.  Every variant's final state and every service result is
checked against the serial backend.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an untraced
pass and then a traced pass (half the seconds each) and prints the per-layer
metrics, read from outside the program: pipeline stage observers, wrappers
on each engine's public calls, public counters and request time stamps.
Spans are written to ``.perfbench_out/``, next to a JSON file with every
number of the run, raw and at reference speed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: step and service slices per pass, alternated so that both phases sample
#: the host over the whole pass rather than one part of it each
SLICES = 5

#: Timings are gated at the probe's reference speed ("corrected") -- each
#: timed block divided by the host-speed probes around it -- rather than
#: raw.  The same rule holds for every timing metric; raw values are kept
#: as ``host.raw.*``.  NOTES.md records the runs that chose it.
CORRECTED = True


@dataclass(frozen=True)
class Workload:
    nx: int
    ny: int
    shuffle: bool
    #: share of the measured seconds given to the step phase
    step_share: float
    #: steps per variant between two probes
    block_steps: int


WORKLOADS = {
    # 600 cells in natural order: kernels take microseconds, so a step is
    # almost all fixed cost per loop -- core stages, sim bookkeeping, engine
    # RPC and drain latency.  Parent-side optimisations show here.
    "airfoil-tiny": Workload(30, 20, False, 0.5, 2),
    # 9,600 cells shuffle-renumbered from the seed: gather/scatter kernels,
    # merges, fragmented interval sets and sharded halo traffic dominate and
    # per-loop overhead is a small share.  Kernel, tracker and halo work
    # shows here.
    "airfoil-large": Workload(120, 80, True, 0.7, 1),
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[dict, dict]:
    """One run; returns ``(result, details)``: ``result`` is the JSON object
    printed as the last line, ``details`` holds every number of the run."""
    from hostspeed import ProbeGuard, ProbeGuardError, host_facts, speed_factor, tree_pss_mb
    from service_mix import TENANTS, ServiceMix, ServicePhase, record_spans
    from steps import (
        ENGINE_VARIANTS,
        PIPELINE_VARIANTS,
        VARIANTS,
        MeshSpec,
        StepPhase,
        StepTracer,
        check_results,
        close_variants,
        run_rounds,
        setup_variants,
    )
    from tracing import SpanRecorder

    workload = WORKLOADS[name]
    spec = MeshSpec(workload.nx, workload.ny, workload.shuffle)
    guard = ProbeGuard()
    peak_rss = [0.0]

    def sample_rss() -> None:
        peak_rss[0] = max(peak_rss[0], tree_pss_mb(guard.pids))

    variants: list = []
    service: Optional[ServiceMix] = None
    setups: list[tuple[float, float]] = []
    passes: dict[str, tuple] = {}
    recorder = SpanRecorder() if trace else None
    tracer = None
    growth: dict = {}
    try:
        for _ in range(setup_repeats):
            if variants or service is not None:
                close_variants(variants)
                service.close()
                variants, service = [], None
                guard.refresh()
            before = guard.probe()
            started = time.perf_counter()
            variants = setup_variants(spec, seed)
            service = ServiceMix(seed)
            elapsed = time.perf_counter() - started
            guard.refresh()
            sample_rss()
            setups.append((elapsed, speed_factor(before, guard.probe())))

        plan = [("untraced", seconds)] if not trace else [
            ("untraced", seconds / 2), ("traced", seconds / 2)
        ]
        for label, pass_seconds in plan:
            if label == "traced":
                tracer = StepTracer(recorder)
                tracer.attach(variants)
            step_phase, service_phase = StepPhase(), ServicePhase()
            step_seconds = pass_seconds * workload.step_share / SLICES
            for _ in range(SLICES):
                run_rounds(
                    variants, guard, step_seconds, workload.block_steps, step_phase,
                    on_round=sample_rss,
                )
                service.run(guard, pass_seconds / SLICES - step_seconds, service_phase)
                sample_rss()
            if tracer is not None:
                growth = tracer.detach(variants)
                record_spans(recorder, service_phase.requests)
            passes[label] = (step_phase, service_phase)
        step_ok = check_results(variants)
        step_counts = {v.name: v.steps for v in variants}
        session_stats = {v.name: v.session.stats() for v in variants}
    finally:
        try:
            close_variants(variants)
        finally:
            if service is not None:
                service.close()
    finish_seconds = {v.name: v.finish_seconds for v in variants}

    # -- correctness and operation counts ---------------------------------------------
    services = [svc for _steps, svc in passes.values()]
    attempted = sum(step_counts.values()) + sum(s.attempted for s in services)
    failed = sum(n for v, n in step_counts.items() if not step_ok[v]) + sum(
        s.failed for s in services
    )
    guard_error = None
    try:
        guard.check()
    except ProbeGuardError as exc:
        guard_error = str(exc)
    correct = failed == 0 and guard_error is None

    # -- end-to-end metrics (untraced pass) -------------------------------------------
    def end_to_end(corrected: bool) -> dict[str, tuple[float, str]]:
        steps, svc = passes["untraced"]
        metrics = {f"step_ms.{v}": (steps.step_ms(v, corrected), "ms") for v in VARIANTS}
        metrics["setup_s"] = (
            statistics.median(s * (f if corrected else 1.0) for s, f in setups), "s"
        )
        metrics["req_p50_ms"] = (svc.latency_ms("light", 50, corrected), "ms")
        metrics["req_p90_ms"] = (svc.latency_ms("light", 90, corrected), "ms")
        metrics["heavy_req_p50_ms"] = (svc.latency_ms("heavy", 50, corrected), "ms")
        metrics["req_per_s"] = (svc.requests_per_second(corrected), "1/s")
        return metrics

    gated = end_to_end(CORRECTED)
    gated["peak_rss_mb"] = (peak_rss[0], "MiB")
    raw = end_to_end(False)

    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "gate_rule": "corrected" if CORRECTED else "raw",
        "host": host_facts(ROOT),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "step_results_match_serial": step_ok,
        "probe_guard": {
            "error": guard_error,
            "other_share": guard.other_share,
            "window_seconds": guard.window_seconds,
            "probes": len(guard.readings),
        },
        "setups": setups,
        "rounds": {label: p[0].rounds for label, p in passes.items()},
        "step_samples": passes["untraced"][0].steps,
        "step_blocks": passes["untraced"][0].blocks,
        "service_samples": [
            [r.tenant, r.window, r.resolved - r.dispatched, r.ok]
            for r in passes["untraced"][1].requests
        ],
        "service_windows": passes["untraced"][1].windows,
        "probe_readings": guard.readings,
        "light_requests": {
            label: len(p[1].latencies_ms("light")) for label, p in passes.items()
        },
        "end_to_end": {k: v[0] for k, v in gated.items()},
        "end_to_end_raw": {k: v[0] for k, v in raw.items()},
        "end_to_end_corrected": {k: v[0] for k, v in end_to_end(True).items()},
    }

    if not trace:
        metrics = gated
    else:
        metrics = _per_layer(
            passes, tracer, recorder, growth, session_stats, finish_seconds, guard, raw,
            VARIANTS, PIPELINE_VARIANTS, ENGINE_VARIANTS, TENANTS,
        )
        recorder.write(OUT_DIR / f"spans-{name}-seed{seed}.json")
    details["metrics"] = {k: v[0] for k, v in metrics.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, details


def _per_layer(
    passes, tracer, recorder, growth, session_stats, finish_seconds, guard, raw,
    variants, pipeline_variants, engine_variants, tenants,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced pass (plus the untraced pass for
    ``trace.overhead_frac`` and the raw host timings)."""
    metrics: dict[str, tuple[float, str]] = {}
    steps_of = tracer.steps

    def per_step(counter: dict, variant: str) -> float:
        return counter.get(variant, 0) / max(1, steps_of.get(variant, 0))

    for v in pipeline_variants:
        for stage in ("lower", "analyze", "schedule", "submit"):
            key = (v, stage)
            metrics[f"core.{stage}_us.{v}"] = (
                tracer.stage_seconds.get(key, 0.0) / max(1, tracer.stage_count.get(key, 0))
                * 1e6, "us",
            )
        metrics[f"core.chunks_per_step.{v}"] = (per_step(tracer.chunks, v), "count")
        metrics[f"core.dep_edges_per_step.{v}"] = (per_step(tracer.dep_edges, v), "count")
        metrics[f"core.records_per_step.{v}"] = (per_step(tracer.records, v), "count")
        metrics[f"core.finish_ms.{v}"] = (statistics.median(finish_seconds[v]) * 1e3, "ms")
        metrics[f"sim.tasks_per_step.{v}"] = (per_step(tracer.sim_tasks, v), "count")
    for v in engine_variants:
        metrics[f"engines.tasks_per_step.{v}"] = (per_step(tracer.tasks, v), "count")
        metrics[f"engines.submit_us.{v}"] = (
            tracer.submit_seconds.get(v, 0.0) / max(1, tracer.submit_calls.get(v, 0)) * 1e6,
            "us",
        )
        metrics[f"engines.wait_ms_per_step.{v}"] = (per_step(tracer.wait_seconds, v) * 1e3, "ms")
        metrics[f"runtime.trace_events_per_step.{v}"] = (
            growth.get(v, {}).get("trace_events", 0) / max(1, steps_of.get(v, 0)), "count"
        )
    halo = growth.get("sharded", {})
    sharded_steps = max(1, steps_of.get("sharded", 0))
    metrics["runtime.halo_bytes_per_step.sharded"] = (
        halo.get("halo_bytes", 0) / sharded_steps, "bytes"
    )
    metrics["runtime.halo_fetches_per_step.sharded"] = (
        halo.get("halo_fetches", 0) / sharded_steps, "count"
    )
    metrics["runtime.halo_ratio.sharded"] = (
        halo.get("halo_bytes", 0) / max(1, halo.get("whole_dat_bytes", 0)), "ratio"
    )
    # Only the fork/join colouring plans go through the session plan cache.
    plans = session_stats["openmp"]["plan_cache"]
    lookups = plans.get("hits", 0) + plans.get("misses", 0)
    metrics["session.plan_cache_hit_ratio.openmp"] = (
        plans.get("hits", 0) / max(1, lookups), "ratio"
    )
    artifacts = session_stats["compiled"]["artifact_cache"]
    lookups = artifacts.get("hits", 0) + artifacts.get("misses", 0)
    metrics["session.artifact_cache_hit_ratio.compiled"] = (
        artifacts.get("hits", 0) / max(1, lookups), "ratio"
    )
    serial_steps = max(1, steps_of.get("serial", 0))
    metrics["op2.loops_per_step"] = (tracer.loops / serial_steps, "count")
    metrics["op2.bytes_per_step"] = (tracer.loop_bytes / serial_steps, "bytes")

    svc = passes["traced"][1]
    for tenant in tenants:
        metrics[f"service.admit_us.{tenant}"] = (svc.stage_p50(tenant, "admit") * 1e6, "us")
        for stage in ("queue", "run", "complete"):
            metrics[f"service.{stage}_ms.{tenant}"] = (
                svc.stage_p50(tenant, stage) * 1e3, "ms"
            )
    metrics["service.refused"] = (
        sum(p[1].refused for p in passes.values()), "count"
    )
    metrics["service.failed"] = (sum(p[1].failed for p in passes.values()), "count")

    metrics["host.probe_ms"] = (statistics.median(guard.readings), "ms")
    metrics["host.probe_guard_share"] = (guard.other_share, "ratio")
    for key, (value, unit) in raw.items():
        metrics[f"host.raw.{key}"] = (value, unit)

    # Self time per layer: per round (one step of every variant) and per
    # request.  The tracing overhead compares the traced pass's step times
    # with the untraced pass's.
    recorder.reparent_by_containment("engines", "core")
    step_self = {"op2": 0.0, "core": 0.0, "engines": 0.0}
    for v in variants:
        for layer, seconds in recorder.self_seconds(group_filter=v).items():
            step_self[layer] += seconds
    for layer, seconds in step_self.items():
        metrics[f"trace.self_ms_per_round.{layer}"] = (seconds / serial_steps * 1e3, "ms")
    request_self = {"service": 0.0, "op2": 0.0}
    request_ids = {span[0] for span in recorder.spans if span[3] == "request"}
    for _id, parent, layer, _name, start, end, _group in recorder.spans:
        if parent in request_ids:
            request_self[layer] += end - start
    for layer, seconds in request_self.items():
        metrics[f"trace.self_ms_per_req.{layer}"] = (
            seconds / max(1, len(request_ids)) * 1e3, "ms"
        )
    traced = sum(passes["traced"][0].step_ms(v, CORRECTED) for v in variants)
    untraced = sum(passes["untraced"][0].step_ms(v, CORRECTED) for v in variants)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, sort_keys=True))
    print("host: " + " ".join(f"{k}={v}" for k, v in details["host"].items()))
    width = max(len(k) for k in result["metrics"])
    for key, metric in result["metrics"].items():
        print(f"{key:<{width}}  {metric['value']:14.6g} {metric['unit']}")
    print(
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {result['correct']}  details {out.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    _stop_resource_tracker()
    return 0


def _stop_resource_tracker() -> None:
    """Stop the process ``multiprocessing`` starts to track shared-memory
    segments, and wait for it, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
