"""Shared helpers: percentiles, host fingerprint, child processes, memory."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Everything a run writes lives under here (cache roots, spans, results).
WORK = ROOT / ".bench_work"

#: Samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10

#: CPUs this run may use.  Each of the program's processes is pinned to
#: one of them: on a shared 2-vCPU virtual machine, unpinned lockstep
#: hand-offs between rank threads on different vCPUs made the classroom
#: rate swing between 55 and 300 runs/s from one run to the next; pinned,
#: it stays within about 10%.
CPUS = sorted(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for the program's processes: sources from this checkout,
    caches inside it, and no inherited cache or job overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    return env


def percentile(values: list[float], q: float) -> tuple[float, float, int]:
    """Nearest-rank ``q`` percentile, lowered until ``TAIL_SAMPLES`` remain
    beyond it.  Returns ``(value, percentile used, sample count)``."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    idx = max(0, math.ceil(q * n) - 1)
    if q > 0.5:
        idx = max(0, min(idx, n - 1 - TAIL_SAMPLES))
    return xs[idx], (idx + 1) / n, n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host identity -------------------------------------------------------------


#: Host speed, in calibration-loop M iterations/s, at which the classroom,
#: sweep and set-up times are stated (the reference host reads 7.5-13.7,
#: see README.md).
REFERENCE_MIPS = 10.0


def calibration_mips(iterations: int) -> float:
    """One pass of the fixed pure-Python loop, in M iterations per second
    of this thread's CPU time, so time spent preempted does not count."""
    t0 = time.thread_time()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return iterations / max(time.thread_time() - t0, 1e-9) / 1e6


def host_speed(cpu: int, iterations: int = 60_000) -> float:
    """Calibration-loop reading on ``cpu`` over ``REFERENCE_MIPS``: how
    much faster than the reference speed the host runs there just now."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return calibration_mips(iterations) / REFERENCE_MIPS
    finally:
        os.sched_setaffinity(0, before)


class SpeedSampler:
    """Reads ``host_speed`` in a background thread while a block runs.

    Every ``PERIOD`` seconds it runs ``ITERATIONS`` of the loop (about a
    millisecond) on the next of ``cpus`` in turn.  The readings are CPU
    time, so they hold while the program keeps every CPU busy.
    """

    PERIOD = 0.04
    ITERATIONS = 10_000

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.readings: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        turn = 0
        while not self._stop.wait(self.PERIOD):
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
            turn += 1
            self.readings.append(calibration_mips(self.ITERATIONS) / REFERENCE_MIPS)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        """Mean reading over ``REFERENCE_MIPS`` (1.0 when none was taken)."""
        return statistics.fmean(self.readings) if self.readings else 1.0


def _calibration_score() -> float:
    """Best of 15 passes of 200k iterations."""
    return round(max(calibration_mips(200_000) for _ in range(15)), 3)


def host_fingerprint() -> dict[str, Any]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count() or 0,
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "calibration_mips": _calibration_score(),
    }


#: Fields of the fingerprint that must match exactly.
HOST_IDENTITY = ("cpus", "cpu_model", "python")
#: Largest relative gap between the median calibration scores of two
#: result sets from one host.  On the reference VM single scores range
#: over 7.5-13.7; a host of another speed class lies outside.
CALIBRATION_TOLERANCE = 0.35


def same_host(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> bool:
    """Whether two sets of host fingerprints describe one host."""
    if len({tuple(h.get(k) for k in HOST_IDENTITY) for h in a + b}) != 1:
        return False
    ca = statistics.median(h.get("calibration_mips", 0.0) for h in a)
    cb = statistics.median(h.get("calibration_mips", 0.0) for h in b)
    return ca > 0 and cb > 0 and abs(ca - cb) / max(ca, cb) <= CALIBRATION_TOLERANCE


# -- processes and memory --------------------------------------------------------


def peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def child_pids() -> list[int]:
    """Live direct children of this process (the batch pool's workers)."""
    me = os.getpid()
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me and fields[0] != "Z":
            out.append(int(entry.name))
    return out


def pin(pid: int, cpus: list[int]) -> None:
    """Restrict a process (0 = this one) to ``cpus``."""
    os.sched_setaffinity(pid, set(cpus))


def pin_forked_children() -> None:
    """Pin every process this one forks (the batch pool's workers) to its
    own CPU, round robin, starting from the last one."""
    forks = [0]

    def child() -> None:
        os.sched_setaffinity(0, {CPUS[-1 - forks[0] % len(CPUS)]})

    def parent() -> None:
        forks[0] += 1

    os.register_at_fork(after_in_child=child, after_in_parent=parent)


_SPIN = ("import os\n"
         "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "while True:\n"
         "    pass\n")


@contextlib.contextmanager
def awake(cpus: list[int]) -> Iterator[None]:
    """Keep ``cpus`` from going idle while the block runs.

    One busy loop per CPU at ``SCHED_IDLE`` priority yields to every other
    thread at once, but the virtual CPU never halts.  On the reference VM
    a halted vCPU added a host-dependent delay to each wake-up, which made
    the serve latency and the warm sweep rate of back-to-back runs differ
    by up to 2.5x and 1.6x.  Only phases that wait on hand-offs between
    processes use it.
    """
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL)
             for _ in cpus]
    try:
        for proc, cpu in zip(procs, cpus):
            pin(proc.pid, [cpu])
        yield
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """SIGTERM a child, wait for it, SIGKILL it if it will not go."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


def reap_pool() -> None:
    """Shut the batch pool down and wait until its workers have exited."""
    import multiprocessing

    from repro.batch.pool import shutdown_pool

    shutdown_pool()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        multiprocessing.active_children()  # joins finished workers
        if not child_pids():
            return
        time.sleep(0.01)


def emit(doc: dict[str, Any]) -> None:
    print(json.dumps(doc, sort_keys=True), flush=True)


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)
