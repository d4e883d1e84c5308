"""A crash-isolating multiprocessing worker pool with timeouts and retry.

The pool is generic: it fans a list of picklable payloads across ``jobs``
worker processes running one module-level ``worker_fn(payload)`` each,
and returns per-job :class:`JobOutcome` records in submission order. The
``repro.serve`` service uses it with JobSpec payloads; the benchmark
harnesses reuse it directly for their scenario grids (``--jobs``).

Failure semantics (docs/SERVE.md):

- **crash isolation** — a worker that dies mid-job (segfault, ``os._exit``,
  kill) fails only that job; the pool respawns a fresh worker and keeps
  draining the queue;
- **timeouts** — a job running past ``timeout`` wall seconds gets its
  worker terminated (the only way to preempt arbitrary user code) and is
  failed with ``kind="timeout"``; the pool respawns and continues;
- **bounded retry** — failed jobs are re-enqueued up to ``retries`` times
  before the failure is final; every attempt is counted;
- **no shared locks** — each worker owns a private duplex pipe, so a
  ``SIGKILL`` can never leave a queue mutex held (the classic
  ``multiprocessing.Pool`` poison-pool failure mode).

Progress events stream to the ``events`` callback as dicts::

    {"event": "queued"|"running"|"done"|"failed"|"retry",
     "job": <job_id>, "attempt": n, "wall_s": seconds, ...}

Metrics land in the optional registry: ``serve_jobs_total{status=...}``,
``serve_retries_total``, ``serve_worker_respawns_total`` and the
``serve_job_wall_seconds`` histogram.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry

__all__ = ["WorkerPool", "JobOutcome", "default_jobs"]


def default_jobs() -> int:
    """Default worker count: every core (the service's saturation goal)."""
    return os.cpu_count() or 1


@dataclass
class JobOutcome:
    """Terminal state of one submitted payload."""

    job_id: Any
    status: str  # "done" | "failed"
    result: Any = None
    error: Optional[str] = None  # "<kind>: detail" for failures
    kind: Optional[str] = None  # "error" | "crash" | "timeout"
    attempts: int = 1
    wall_s: float = 0.0  # last attempt's wall seconds

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _worker_main(conn, worker_fn: Callable[[Any], Any]) -> None:
    """Worker loop: recv (job_id, payload) -> send (job_id, status, ...)."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if msg is None:
            return
        job_id, payload = msg
        t0 = time.monotonic()
        try:
            result = worker_fn(payload)
            conn.send((job_id, "ok", result, time.monotonic() - t0))
        except KeyboardInterrupt:
            return
        except BaseException as exc:  # noqa: BLE001 - isolate *everything*
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
            conn.send((job_id, "error", detail, time.monotonic() - t0))


@dataclass
class _Worker:
    proc: Any
    conn: Any
    job: Optional[Any] = None  # pending _Pending while busy
    deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.job is None


@dataclass
class _Pending:
    job_id: Any
    payload: Any
    attempts: int = 0
    started: float = 0.0
    outcome: Optional[JobOutcome] = field(default=None)


class WorkerPool:
    """Run payloads through ``worker_fn`` across processes; see module doc.

    ``worker_fn`` must be picklable (a module-level function). ``jobs=1``
    still uses one child process so crash isolation and timeouts hold for
    serial queues too.
    """

    def __init__(self, worker_fn: Callable[[Any], Any], *,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 events: Optional[Callable[[Dict[str, Any]], None]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.worker_fn = worker_fn
        self.jobs = max(1, int(jobs if jobs is not None else default_jobs()))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.events = events
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # fork shares the already-imported tree with workers (cheap spawn,
        # no re-import); fall back to the platform default elsewhere.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)

    # ------------------------------------------------------------------ #

    def _emit(self, event: str, pending: _Pending, **extra: Any) -> None:
        if self.events is not None:
            self.events({"event": event, "job": pending.job_id,
                         "attempt": pending.attempts, **extra})

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, self.worker_fn),
                                 daemon=True)
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn)

    def _respawn(self, worker: _Worker) -> _Worker:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        self.metrics.inc("serve_worker_respawns_total")
        fresh = self._spawn()
        worker.proc, worker.conn = fresh.proc, fresh.conn
        worker.job, worker.deadline = None, None
        return worker

    def _dispatch(self, worker: _Worker, pending: _Pending) -> None:
        pending.attempts += 1
        pending.started = time.monotonic()
        worker.job = pending
        worker.deadline = (pending.started + self.timeout
                           if self.timeout is not None else None)
        worker.conn.send((pending.job_id, pending.payload))
        self._emit("running", pending)

    def _finish(self, pending: _Pending, status: str, *, result=None,
                error=None, kind=None, wall=None) -> JobOutcome:
        wall = wall if wall is not None else time.monotonic() - pending.started
        outcome = JobOutcome(job_id=pending.job_id, status=status,
                             result=result, error=error, kind=kind,
                             attempts=pending.attempts, wall_s=wall)
        pending.outcome = outcome
        self.metrics.inc("serve_jobs_total", status=status)
        self.metrics.observe("serve_job_wall_seconds", wall, status=status)
        self._emit(status, pending, wall_s=wall,
                   **({"error": error} if error else {}))
        return outcome

    def _fail_or_retry(self, pending: _Pending, queue: List[_Pending],
                       kind: str, detail: str, wall: float) -> None:
        if pending.attempts <= self.retries:
            self.metrics.inc("serve_retries_total", kind=kind)
            self._emit("retry", pending, kind=kind, error=detail, wall_s=wall)
            queue.append(pending)
        else:
            self._finish(pending, "failed", error=f"{kind}: {detail}",
                         kind=kind, wall=wall)

    # ------------------------------------------------------------------ #

    def run(self, items: Sequence[Any],
            job_ids: Optional[Sequence[Any]] = None) -> List[JobOutcome]:
        """Drain ``items`` through the pool; outcomes in submission order.

        ``job_ids`` labels the outcomes/events (defaults to indices).
        """
        if job_ids is None:
            job_ids = list(range(len(items)))
        pendings = [_Pending(job_id=jid, payload=payload)
                    for jid, payload in zip(job_ids, items)]
        for pending in pendings:
            self._emit("queued", pending)
        if not pendings:
            return []

        queue: List[_Pending] = list(pendings)
        workers = [self._spawn() for _ in range(min(self.jobs, len(queue)))]
        try:
            while queue or any(not w.idle for w in workers):
                # Hand work to idle workers first (keeps all cores busy).
                for worker in workers:
                    if worker.idle and queue:
                        self._dispatch(worker, queue.pop(0))

                busy = [w for w in workers if not w.idle]
                if not busy:
                    continue
                now = time.monotonic()
                timeouts = [w.deadline - now for w in busy
                            if w.deadline is not None]
                wait_s = max(0.0, min(timeouts)) if timeouts else None
                ready = conn_wait([w.conn for w in busy], timeout=wait_s)

                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker, queue)
                # Deadline pass after collection: a result that raced the
                # deadline still counts as done.
                now = time.monotonic()
                for worker in busy:
                    if (worker.job is not None and worker.deadline is not None
                            and now >= worker.deadline):
                        self._kill_timeout(worker, queue)
        finally:
            self._shutdown(workers)
        return [p.outcome for p in pendings]

    # ------------------------------------------------------------------ #

    def _collect(self, worker: _Worker, queue: List[_Pending]) -> None:
        pending = worker.job
        try:
            job_id, status, payload, wall = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-job: fail (or retry) only this job and
            # respawn a fresh process for the rest of the queue. Reap it
            # first so the exit code is available for the error detail.
            worker.proc.join(timeout=1.0)
            exitcode = worker.proc.exitcode
            wall = time.monotonic() - pending.started
            self._respawn(worker)
            self._fail_or_retry(pending, queue, "crash",
                                f"worker died (exitcode={exitcode})", wall)
            return
        worker.job, worker.deadline = None, None
        if status == "ok":
            self._finish(pending, "done", result=payload, wall=wall)
        else:
            self._fail_or_retry(pending, queue, "error", payload, wall)

    def _kill_timeout(self, worker: _Worker, queue: List[_Pending]) -> None:
        pending = worker.job
        wall = time.monotonic() - pending.started
        self._respawn(worker)
        self._fail_or_retry(pending, queue, "timeout",
                            f"exceeded {self.timeout:g}s wall-clock limit", wall)

    def _shutdown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
