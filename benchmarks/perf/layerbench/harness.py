"""Process plumbing shared by every workload: pinning, forked passes, limits.

Closed loop, one client, one job in flight. The driver pins itself to one
allowed CPU before anything heavy is imported (the engine hands one OS thread
to the next per block, so an unpinned run measures the Linux scheduler: the
same 64-rank Jacobi job took 1.05-5.22 s unpinned and 0.98-1.48 s pinned while
this benchmark was sized). Each pass runs in a freshly forked child of the
warmed driver - the ``WorkerPool`` model: imports are paid once, and no
process-level state is carried from one pass to the next.
"""

from __future__ import annotations

import os
import pickle
import resource
import select
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

__all__ = ["BenchError", "REPO_ROOT", "SRC_DIR", "CALIBRATION_REF_S",
           "calibration_seconds", "pin_to_one_cpu", "unpinned", "run_forked",
           "timed_passes", "temp_dir", "program_env", "summarize"]

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_DIR = REPO_ROOT / "src"

#: A pass that runs this long is killed and recorded as failed. The contract
#: gives a whole run 180 s, so one stuck pass must leave room to report.
PASS_TIMEOUT_S = 45.0


#: What the calibration loop takes on the box the benchmark was sized on when
#: nothing else contends for it. Times are reported "at reference speed":
#: measured seconds x CALIBRATION_REF_S / the run's median calibration seconds.
CALIBRATION_REF_S = 0.07


class BenchError(RuntimeError):
    """The harness refuses to measure (bad environment or bad arguments)."""


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it forks or spawns) to one CPU.

    Picks the highest allowed CPU: CPU 0 usually also serves interrupts.
    """
    if not hasattr(os, "sched_setaffinity"):
        raise BenchError("os.sched_setaffinity is unavailable on this platform; "
                         "unpinned host times measure the OS scheduler, not the "
                         "program, so the benchmark refuses to run")
    allowed = sorted(os.sched_getaffinity(0))
    if not allowed:
        raise BenchError("the allowed CPU set is empty; cannot pin")
    cpu = allowed[-1]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        raise BenchError(f"cannot pin to CPU {cpu}: {exc}") from exc
    return cpu


def calibration_seconds() -> float:
    """Wall seconds of a fixed loop of the three things the workloads spend
    host time on: OS-thread handoffs, interpreter bytecode, numpy copies.

    The shared box drifts: the same pinned pass read 1.05 s and, minutes
    later, 1.3-3.2 s, with CPU time rising in step (the host gives the vCPU
    fewer cycles; nothing in the guest competes). This loop, timed between
    the measurements of a run, tracks that drift: dividing a run's median
    pass by its median calibration brought the run-to-run spread of a Jacobi
    pass from 23 % to 3 %. The loop uses the standard library and numpy only
    - nothing from ``src/`` - so no change to the program can speed up its
    own yardstick.
    """
    import numpy as np

    t0 = time.perf_counter()
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()
    handoffs = 6000

    def partner() -> None:
        for _ in range(handoffs):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=partner)
    thread.start()
    for _ in range(handoffs):
        ping.release()
        pong.acquire()
    thread.join()
    acc, table = 0, {}
    for i in range(280000):
        acc += i * i % 7
        table[i & 1023] = acc
    src = np.ones(1 << 20, np.float64)
    dst = np.empty_like(src)
    for _ in range(8):
        dst[:] = src
    return time.perf_counter() - t0


@contextmanager
def unpinned(cpus) -> Iterator[None]:
    """Widen this process to ``cpus`` for one differential measurement
    (``sim.unpinned_ratio``, ``serve.pool_speedup``)."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def program_env() -> Dict[str, str]:
    """Environment for ``python -m repro ...`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
    return env


def temp_dir() -> tempfile.TemporaryDirectory:
    """Scratch space for stores and trace files: inside the checkout (the
    benchmark may write nowhere else) and removed when the run ends."""
    root = REPO_ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=root)


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def run_forked(fn: Callable[[], Dict[str, Any]],
               timeout: float = PASS_TIMEOUT_S) -> Dict[str, Any]:
    """Run ``fn`` in a forked child; return its dict plus ``host_s``/``rss_mb``.

    ``host_s`` is the child's wall time around ``fn`` unless ``fn`` reports a
    narrower ``host_s`` of its own (the job list without the output checks).
    A child that raises, dies or overruns ``timeout`` yields ``{"error": ...}``
    so the caller counts a failed pass and never hangs.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            t0 = time.perf_counter()
            try:
                out = fn()
                out.setdefault("host_s", time.perf_counter() - t0)
                code = 0
            except BaseException:  # noqa: BLE001 - report, then exit the child
                out = {"error": traceback.format_exc()}
            out["rss_mb"] = _rss_mb()
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(out, fh)
        finally:
            # Skip atexit/finalizers: the temp directory belongs to the parent.
            os._exit(code)
    os.close(write_fd)
    chunks: List[bytes] = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"pass exceeded the {timeout:g}s wall limit and was killed"}
    try:
        return pickle.loads(b"".join(chunks))
    except (pickle.UnpicklingError, EOFError) as exc:
        return {"error": f"pass child died without a result ({exc})"}


def timed_passes(one_pass: Callable[[], Dict[str, Any]], seconds: float,
                 calibration: List[float], min_passes: int = 3,
                 max_passes: int = 64) -> List[Dict[str, Any]]:
    """Repeat forked passes for about ``seconds``; at least ``min_passes``.

    One calibration sample is appended to ``calibration`` after every pass.
    A failed pass ends the loop: its twin would fail or hang the same way.
    """
    results: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(results) < max_passes:
        results.append(run_forked(one_pass))
        calibration.append(calibration_seconds())
        if "error" in results[-1]:
            break
        used = time.perf_counter() - start
        if len(results) >= min_passes and used + used / len(results) > seconds:
            break
    return results


def summarize(values: List[float]) -> Dict[str, float]:
    """Median with min, max and n beside it (few passes: no percentile has
    ten samples beyond it)."""
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}
