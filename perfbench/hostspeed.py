"""Host-speed probe, probe guard, process-tree memory and host facts.

The host shares two cores with other tenants and has *slow spells*: the same
serial step runs about 1.4x slower for anything from half a second to
minutes.  A short fixed probe timed right before and right after every timed
block measures how fast the host is at that moment; dividing the block by
its adjacent probes gives a timing at the probe's reference speed.

The probe is only honest while nothing else of ours runs during it -- a
change that left engine workers spinning would slow the probe and so shrink
every corrected timing.  :class:`ProbeGuard` therefore reads the CPU time of
every thread of the whole process tree from ``/proc`` around each probe
window and reports how much of the window anything other than the probe
thread used.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np

#: probe time (ms) of the median probe on the reference host in a fast spell;
#: corrected timings are reported as if every block ran at this speed
PROBE_REF_MS = 1.5

#: Step and request times do not slow down in proportion to the probe: over
#: the blocks of the steadiness runs, log step time against log probe time
#: has slopes of 0.4 to 1.0 across variants.  Blocks are therefore taken to
#: reference speed with this exponent on the probe ratio; of 0.5, 0.7, 0.85
#: and 1.0 it gave the smallest worst-case spread over two ten-run sets
#: (NOTES.md).
PROBE_ELASTICITY = 0.85

#: Every timing is read at this quantile of its samples -- a variant's step
#: times over the run's steps, a service window's latency percentile over
#: the run's windows (rates at ``100 - QUIET_QUANTILE``) -- not the median.
#: The probe runs on one thread, so it misses spells in which something
#: else on the host takes one of our two cores: it keeps the other one and
#: reads as fast, while multi-threaded variants and the service (which run
#: on both) slow by up to 2x.  Such spells came every few seconds for
#: minutes and covered more than half of some runs, moving the median by
#: 20 % (NOTES.md).  Contention only ever adds time, so the quiet quartile
#: is what the host gives while nothing takes a core from us.
QUIET_QUANTILE = 25

#: sub-probes per probe; the probe reads their median, so one interrupt or
#: page-fault burst inside a single sub-probe does not move it
PROBE_REPEATS = 5

#: the guard fails a run when threads other than the probe thread used more
#: than this share of the summed probe windows (ticks are 10 ms, coarser
#: than one window, so the guard sums windows instead of judging each one)
GUARD_MAX_OTHER_SHARE = 0.10

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class _Counter:
    def __init__(self, start: int) -> None:
        self.value = start

    def bump(self, step: int) -> int:
        return self.value + step


def _sub_probe() -> float:
    # Pure Python: method calls, attribute reads and dict inserts -- the
    # per-loop overhead the tiny-mesh steps are made of.
    acc = 0.0
    counters = [_Counter(i) for i in range(300)]
    for _ in range(8):
        for counter in counters:
            acc += counter.bump(1)
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        table[(i, i & 7)] = i
    acc += len(table)
    # NumPy gathers, arithmetic and scatters, arrays allocated fresh at
    # several sizes: the many small array operations of a kernel chunk and
    # a few large ones, each with its allocator and page-fault cost.
    for size, rounds in ((64, 12), (600, 12), (4800, 12), (32768, 1)):
        a = np.arange(size, dtype=np.float64)
        idx = (np.arange(size) * 7919) % size
        for _ in range(rounds):
            b = a[idx] * 1.5 + a
            np.add.at(b, idx[: size // 8], 1.0)
            acc += float(b.sum())
    return acc


def probe_ms() -> float:
    """One probe reading: the median of :data:`PROBE_REPEATS` sub-probes, in ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        _sub_probe()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# process tree
# ---------------------------------------------------------------------------
def _read_stat(path: str) -> list[str]:
    with open(path, "rb") as handle:
        raw = handle.read().decode()
    # the command name may contain spaces and parentheses: split after it
    return raw[raw.rindex(")") + 2:].split()


def tree_pids() -> list[int]:
    """This process and all its descendants."""
    root = os.getpid()
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_read_stat(f"/proc/{entry}/stat")[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def thread_ticks(pids: list[int]) -> dict[tuple[int, int], int]:
    """CPU ticks (user + system) of every thread of ``pids``."""
    ticks: dict[tuple[int, int], int] = {}
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                fields = _read_stat(f"/proc/{pid}/task/{tid}/stat")
            except OSError:
                continue
            ticks[(pid, int(tid))] = int(fields[11]) + int(fields[12])
    return ticks


def tree_pss_mb(pids: list[int]) -> float:
    """Proportional resident memory of ``pids`` in MiB (shared pages split)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class ProbeGuard:
    """Times probes and checks that nothing else ran during them.

    Call :meth:`refresh` whenever the process tree may have changed (engine
    spin-up), outside probe windows; :meth:`probe` then reads only the known
    threads, so the window stays short.
    """

    def __init__(self) -> None:
        self.pids = tree_pids()
        self.other_ticks = 0
        self.window_seconds = 0.0
        self.readings: list[float] = []

    def refresh(self) -> None:
        self.pids = tree_pids()

    def probe(self) -> float:
        """Run one probe inside a guarded window; returns its time in ms."""
        me = (os.getpid(), threading.get_native_id())
        before = thread_ticks(self.pids)
        started = time.perf_counter()
        reading = probe_ms()
        after = thread_ticks(self.pids)
        self.window_seconds += time.perf_counter() - started
        for key, value in after.items():
            if key != me:
                self.other_ticks += value - before.get(key, value)
        self.readings.append(reading)
        return reading

    @property
    def other_share(self) -> float:
        """CPU used by other threads as a share of the summed windows."""
        if self.window_seconds <= 0.0:
            return 0.0
        return self.other_ticks / _CLK_TCK / self.window_seconds

    def check(self) -> None:
        """Raise if other threads used CPU during the probe windows."""
        if self.other_share > GUARD_MAX_OTHER_SHARE:
            raise ProbeGuardError(
                f"threads other than the probe used {self.other_share:.0%} of the "
                f"probe windows ({self.other_ticks} ticks over "
                f"{self.window_seconds:.2f} s); something spins while idle"
            )


class ProbeGuardError(RuntimeError):
    """Something other than the probe thread used CPU during probe windows."""


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier taking a block timed between two probes to reference speed."""
    return (PROBE_REF_MS / ((before_ms + after_ms) / 2.0)) ** PROBE_ELASTICITY


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------
def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_facts(root: Path) -> dict:
    import multiprocessing

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cores": os.cpu_count(),
        "numba": has_numba,
        "start_method": multiprocessing.get_start_method(allow_none=False),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "cpu": platform.processor() or platform.machine(),
    }
