"""The service phase: two closed-loop tenants on one ``ServiceRuntime``.

``light`` submits Jacobi ring chains, ``heavy`` submits Airfoil chains; each
tenant is a client thread that waits for its reply before sending the next
request (a closed loop, two clients, no think time).  Every request is its
own context, so context finish, DAG simulation, admission, pool leases and
chunk-level weighted round-robin all sit on the latency path.

The phase runs in *windows*.  Between windows both clients pause after their
current request, so the host-speed probe runs with the service idle; each
request is then taken to reference speed by the probes around its window.

The seed picks the request inputs (Jacobi values, a perturbation of the
Airfoil free stream) and which of them each request carries; the program
receives only the generated inputs.  Every result is compared with the
serial backend's on the same input.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
import time
from typing import Callable, Optional

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.airfoil.kernels import GAS_CONSTANTS
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.errors import AdmissionError
from repro.op2.backends.serial import serial_context
from repro.service import ServiceConfig, ServiceRuntime
from repro.session import Session

from hostspeed import QUIET_QUANTILE, ProbeGuard, speed_factor
from steps import q_matches
from tracing import SpanRecorder

LIGHT_NODES = 300
LIGHT_ITERATIONS = 5
HEAVY_MESH = (48, 32)
HEAVY_STEPS = 4
#: distinct inputs per tenant; each request carries one, picked by the seed
INPUTS_PER_TENANT = 3
NUM_THREADS = 2
DISPATCHERS = 2
WINDOW_SECONDS = 1.0
RESULT_TIMEOUT = 120.0
TENANTS = ("light", "heavy")


@dataclasses.dataclass
class Request:
    tenant: str
    window: int
    dispatched: float = 0.0  # before dispatch()
    admitted: float = 0.0  # dispatch() returned
    started: float = 0.0  # callable body started
    ended: float = 0.0  # callable body ended
    resolved: float = 0.0  # future resolved, seen by the client
    ok: bool = False
    refused: bool = False


class ServiceMix:
    """Inputs, serial references and the runtime of the service phase."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.light_seeds = [int(s) for s in rng.integers(0, 2**31, INPUTS_PER_TENANT)]
        self.heavy_mesh = generate_mesh(*HEAVY_MESH)
        cells = self.heavy_mesh.num_cells
        qinf = np.tile(GAS_CONSTANTS.qinf, (cells, 1))
        self.heavy_q0 = [
            qinf * (1.0 + 1e-3 * rng.standard_normal((cells, 4)))
            for _ in range(INPUTS_PER_TENANT)
        ]
        #: per tenant, the generator picking each request's input
        self.choices = {
            tenant: np.random.default_rng([seed, 2, salt]) for salt, tenant in enumerate(TENANTS)
        }
        self.references = {
            tenant: [_run_serial(self._body(tenant, i)) for i in range(INPUTS_PER_TENANT)]
            for tenant in TENANTS
        }
        self.runtime = ServiceRuntime(
            ServiceConfig(engine="threads", num_threads=NUM_THREADS, dispatchers=DISPATCHERS)
        )
        for tenant in TENANTS:  # warm-up: tenant sessions, engine, plans
            body = self._body(tenant, 0)
            self.runtime.submit_sync(tenant, body, timeout=RESULT_TIMEOUT)

    # -- request bodies ------------------------------------------------------------
    def _body(self, tenant: str, index: int) -> Callable[[], np.ndarray]:
        """The request body of ``tenant`` on input ``index``."""
        if tenant == "light":
            seed = self.light_seeds[index]

            def light() -> np.ndarray:
                problem = build_ring_problem(LIGHT_NODES, seed=seed)
                return run_jacobi(problem, iterations=LIGHT_ITERATIONS).u

            return light
        template, q0 = self.heavy_mesh, self.heavy_q0[index]

        def heavy() -> np.ndarray:
            mesh = dataclasses.replace(template).declare(initial_q=q0.copy())
            return run_airfoil(mesh, niter=HEAVY_STEPS).q

        return heavy

    def matches(self, tenant: str, index: int, value: np.ndarray) -> bool:
        reference = self.references[tenant][index]
        if tenant == "light":  # one scatter stream: bit-identical to serial
            return bool(np.array_equal(value, reference))
        return q_matches(value, reference)

    def close(self) -> None:
        self.runtime.close()

    # -- the measured phase ---------------------------------------------------------
    def run(self, guard: ProbeGuard, seconds: float, phase: "ServicePhase") -> None:
        """Windows of closed-loop traffic for about ``seconds``, appended to
        ``phase``: the last window is the one that ends nearest the deadline."""
        state = {"running": False, "finished": False, "window": len(phase.windows)}
        release = threading.Barrier(3)
        quiesce = threading.Barrier(3)
        errors: list[BaseException] = []

        def client(tenant: str) -> None:
            choices = self.choices[tenant]
            try:
                while True:
                    release.wait()
                    if state["finished"]:
                        return
                    while state["running"]:
                        index = int(choices.integers(0, INPUTS_PER_TENANT))
                        phase.requests.append(self._one(tenant, index, state["window"]))
                    quiesce.wait()
            except threading.BrokenBarrierError:
                return
            except BaseException as exc:  # noqa: BLE001 - re-raised by the main thread
                errors.append(exc)
                release.abort()
                quiesce.abort()

        threads = [
            threading.Thread(target=client, args=(tenant,), name=f"client-{tenant}")
            for tenant in TENANTS
        ]
        for thread in threads:
            thread.start()
        try:
            deadline = time.perf_counter() + seconds
            before = guard.probe()
            while True:
                state["running"] = True
                started = time.perf_counter()
                release.wait()
                time.sleep(WINDOW_SECONDS)
                state["running"] = False
                quiesce.wait()
                active = time.perf_counter() - started
                after = guard.probe()
                phase.windows.append(
                    (active, speed_factor(before, after), before, after, len(guard.readings) - 1)
                )
                before = after
                state["window"] += 1
                if time.perf_counter() + active / 2 >= deadline:
                    break
            state["finished"] = True
            release.wait()
        except threading.BrokenBarrierError:
            if not errors:
                raise
        finally:
            # Wakes clients still waiting if the main thread is the one failing.
            state["finished"] = True
            release.abort()
            quiesce.abort()
            for thread in threads:
                thread.join(RESULT_TIMEOUT)
        if errors:
            raise errors[0]

    def _one(self, tenant: str, index: int, window: int) -> Request:
        request = Request(tenant=tenant, window=window)
        body = self._body(tenant, index)

        def stamped() -> np.ndarray:
            request.started = time.perf_counter()
            try:
                return body()
            finally:
                request.ended = time.perf_counter()

        request.dispatched = time.perf_counter()
        try:
            future = self.runtime.dispatch(tenant, stamped)
            request.admitted = time.perf_counter()
            value = future.result(RESULT_TIMEOUT)
            request.resolved = time.perf_counter()
        except AdmissionError:
            request.refused = True
            request.resolved = time.perf_counter()
            return request
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            request.resolved = time.perf_counter()
            return request
        request.ok = self.matches(tenant, index, value)
        return request


def _run_serial(body: Callable[[], np.ndarray]) -> np.ndarray:
    """The serial backend's result of one request body (the reference)."""
    session = Session(name="bench-reference")
    try:
        with serial_context(session=session):
            return body()
    finally:
        session.close()


def record_spans(recorder: SpanRecorder, requests: list[Request]) -> None:
    """Spans of every request that ran: the request and its four stages."""
    for r in requests:
        if r.refused or not r.started:
            continue
        root = recorder.add("service", "request", r.dispatched, r.resolved, group=r.tenant)
        for layer, name, start, end in (
            ("service", "admit", r.dispatched, r.admitted),
            ("service", "queue", r.admitted, r.started),
            ("op2", "run", r.started, r.ended),
            ("service", "complete", r.ended, r.resolved),
        ):
            recorder.add(layer, name, start, end, parent=root, group=r.tenant)


class ServicePhase:
    """Requests and windows of one pass; latencies raw or at reference speed.

    The end-to-end service metrics are computed per window, each window
    taken to reference speed by the probes around it, and read at
    :data:`~hostspeed.QUIET_QUANTILE` over the windows.
    """

    def __init__(self) -> None:
        self.requests: list[Request] = []
        #: (active seconds, speed factor, probe before, probe after, after index)
        self.windows: list[tuple[float, float, float, float, int]] = []

    def _factor(self, window: int, corrected: bool) -> float:
        return self.windows[window][1] if corrected else 1.0

    def latencies_ms(self, tenant: str, window: Optional[int] = None) -> list[float]:
        """Raw latencies of ``tenant``'s correct requests (of one window)."""
        return [
            (r.resolved - r.dispatched) * 1e3
            for r in self.requests
            if r.tenant == tenant and r.ok and (window is None or r.window == window)
        ]

    def latency_ms(self, tenant: str, percentile: float, corrected: bool) -> float:
        """Each window's ``percentile`` latency, at the quiet quantile over windows."""
        per_window = []
        for window in range(len(self.windows)):
            latencies = self.latencies_ms(tenant, window)
            if latencies:
                per_window.append(
                    float(np.percentile(latencies, percentile)) * self._factor(window, corrected)
                )
        return float(np.percentile(per_window, QUIET_QUANTILE))

    def requests_per_second(self, corrected: bool) -> float:
        """Each window's correct requests per second, at the quiet quantile
        over windows (the upper one: more requests is faster)."""
        completed = [0] * len(self.windows)
        for r in self.requests:
            completed[r.window] += r.ok
        rates = [
            n / (active * self._factor(window, corrected))
            for window, (n, (active, *_rest)) in enumerate(zip(completed, self.windows))
        ]
        return float(np.percentile(rates, 100 - QUIET_QUANTILE))

    def stage_p50(self, tenant: str, stage: str) -> float:
        """Median of one stage of the request path (raw seconds)."""
        pick = {
            "admit": lambda r: r.admitted - r.dispatched,
            "queue": lambda r: r.started - r.admitted,
            "run": lambda r: r.ended - r.started,
            "complete": lambda r: r.resolved - r.ended,
        }[stage]
        return statistics.median(pick(r) for r in self.requests if r.tenant == tenant and r.ok)

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def refused(self) -> int:
        return sum(1 for r in self.requests if r.refused)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.ok)
