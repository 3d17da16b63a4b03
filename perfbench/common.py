"""Shared plumbing for the benchmark workloads.

Every workload module exposes ``run(ctx) -> Outcome``; this module holds
what they share: the pinned process environment, the host record, the
calibration kernel that scales timings to the reference host's speed,
the CPU-steal reading, percentile helpers, peak-RSS readers and the
result line.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: BLAS thread count pinned in this process and every process it starts.
#: One thread keeps training and decoding bit-reproducible from run to
#: run and keeps the BLAS pool from competing with the server's threads
#: on a two-vCPU host.
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}


def pin_blas_threads() -> None:
    """Pin BLAS threads; must run before numpy is imported."""
    os.environ.update(BLAS_ENV)


def child_env(root: Path) -> Dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's
    ``src`` on the path and the same pinned BLAS thread count."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Context:
    """What a workload gets from the command line and the runner."""

    workload: str
    root: Path          # the checkout being measured
    work: Path          # fresh scratch directory inside the checkout
    seed: int
    seconds: int
    trace: bool
    calibration: "Calibration" = field(default_factory=lambda: Calibration())

    def log(self, message: str) -> None:
        print(message, flush=True)


@dataclass
class Outcome:
    """A workload's verdict: checks, operation counts and metrics."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: unscaled values of metrics reported at the reference host speed
    raw: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Record a correctness check; a failed one makes the run incorrect."""
        if not ok:
            self.problems.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str,
               raw: Optional[float] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if raw is not None:
            self.raw[name] = float(raw)

    @property
    def correct(self) -> bool:
        return not self.problems


def emit(outcome: Outcome) -> None:
    """Print the problems found, then the result object as the last line."""
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}", flush=True)
    if len(outcome.problems) > 20:
        print(f"... and {len(outcome.problems) - 20} more failed checks")
    if outcome.raw:
        print(f"unscaled: {json.dumps(outcome.raw)}", flush=True)
    line = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(line), flush=True)


# ----- host record ---------------------------------------------------------


def host_record() -> Dict[str, object]:
    """What the numbers of a run depend on besides the code."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "mem_available_mb": _meminfo_mb("MemAvailable"),
    }


def _meminfo_mb(key: str) -> Optional[int]:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1]) // 1024
    except OSError:
        return None
    return None


def cpu_steal_seconds() -> float:
    """Machine-wide CPU steal so far, from ``/proc/stat`` (0 if absent)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


#: Mean time (ms) of one calibration-kernel run on the reference host
#: (two vCPUs, little CPU steal).  Timing metrics are scaled to it.
CAL_REF_MS = 0.65
#: While timed work runs, an interval timer interrupts it this often to
#: time one kernel run; short phases are topped up to CAL_MIN_RUNS runs
#: right after they end.
CAL_PERIOD_S = 0.05
CAL_MIN_RUNS = 10


def _calibration_kernel(iterations: int = 2_000) -> int:
    # Fixed pure-Python work (integer arithmetic, a dict, a sort), the
    # kind of interpreter work the program's hot paths consist of.
    acc = 0
    table: Dict[int, int] = {}
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc + sum(sorted(table.values())[:10])


class Calibration:
    """A fixed calibration kernel, timed inside every timed piece of work.

    An interval timer interrupts the work every ``CAL_PERIOD_S`` and the
    signal handler times one kernel run, in the same thread of the same
    process, so the kernel runs under the same CPU steal, the same busy
    neighbours and the same clock speed as the work around it.  Scaling
    the work's time by ``CAL_REF_MS / mean kernel time`` reports it at
    the reference host's speed; the kernel's own time is not counted as
    the work's.  The mean, not the median: steal comes in bursts that
    stretch a minority of the runs, and only the mean grows with the
    share of time stolen.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._runs: List[float] = []

    def _run(self, *_signal) -> None:
        start = time.perf_counter()
        _calibration_kernel()
        self._runs.append((time.perf_counter() - start) * 1000.0)

    def measure(self, runs: int) -> List[float]:
        """Time *runs* kernel runs now (ms each)."""
        self._runs = []
        for _ in range(runs):
            self._run()
        self.times.extend(self._runs)
        return self._runs

    def timed(self, work):
        """``(result, seconds, factor)`` of ``work()``; a time times
        *factor* (a rate divided by it) is at reference speed.

        Garbage is collected first, so every timed piece starts from a
        comparable heap.  Must run in the main thread (signals).
        """
        gc.collect()
        self._runs = []
        previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        start = time.perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start - sum(self._runs) / 1000.0
        while len(self._runs) < CAL_MIN_RUNS:
            self._run()
        self.times.extend(self._runs)
        return result, seconds, CAL_REF_MS / statistics.fmean(self._runs)

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.times) if self.times else 0.0


def at_reference(timings: Iterable[Sequence[float]]) -> float:
    """Median of ``seconds * factor`` over ``(seconds, factor)`` pairs."""
    return statistics.median(seconds * factor for seconds, factor in timings)


class HostWatch:
    """CPU steal over the measured phase (a context manager)."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.steal_s = 0.0
        self.wall_s = 0.0

    def __enter__(self) -> "HostWatch":
        self._steal = cpu_steal_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.steal_s = cpu_steal_seconds() - self._steal
        self.wall_s = time.perf_counter() - self._start

    def report(self, outcome: Outcome) -> None:
        calibration = self.ctx.calibration.mean_ms
        self.ctx.log(
            f"host: steal {self.steal_s:.2f} s over a {self.wall_s:.1f} s "
            f"phase ({self.steal_s / (self.wall_s * (os.cpu_count() or 1)):.1%}"
            f" of CPU time); calibration kernel mean {calibration:.3f} ms "
            f"(reference {CAL_REF_MS} ms)"
        )
        if self.ctx.trace:
            outcome.metric("host.steal_s", self.steal_s, "s")
            outcome.metric("host.calibration_ms", calibration, "ms")


# ----- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_pct(count: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it;
    ``None`` below forty samples, where no such tail exists."""
    if count < 40:
        return None
    return int(100 * (1 - 10 / count))


def describe_latency(name: str, values_ms: Sequence[float]) -> str:
    """``name: n=K p50 X ms pNN Y ms`` for the human-readable log."""
    line = f"{name}: n={len(values_ms)}"
    if not values_ms:
        return line + " (no samples)"
    line += f" p50 {statistics.median(values_ms):.3f} ms"
    tail = tail_pct(len(values_ms))
    if tail is not None:
        line += f" p{tail} {percentile(values_ms, tail):.3f} ms"
    return line


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----- memory ------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of *pid*, from ``/proc/<pid>/task/*/children``."""
    children: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(token) for token in text.split())
    return sorted(set(children))


# ----- set-up probes ---------------------------------------------------------


def import_probe_s(ctx: Context, modules: Sequence[str], repeats: int = 3) -> float:
    """Median wall time for a fresh interpreter to import *modules*.

    This is the part of a command's set-up that precedes its first call
    into the program; it is measured in new processes because a process
    imports a module only once.  One untimed import goes first, so that
    every timed one finds the bytecode cache written and the files in
    the page cache.  No timeout is passed: with one, ``subprocess``
    polls for the child's exit with sleeps of up to 50 ms, and the
    times came out in 50 ms steps.
    """
    code = "; ".join(f"import {module}" for module in modules)
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ctx.work, env=child_env(ctx.root), check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])
