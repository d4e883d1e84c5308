"""JobService: cache check -> worker pool -> result store.

The orchestration layer behind ``repro submit`` and ``repro serve``:

1. every submitted :class:`JobSpec` is hashed; store hits are served
   immediately (event ``cached``) without touching the pool;
2. duplicate hashes *within* one batch run once — the first instance
   executes, the rest are served from the fresh store entry (also
   ``cached``, with ``dedup: true``);
3. misses fan out across the :class:`WorkerPool` (crash isolation,
   timeouts, bounded retry); completed documents are stamped with wall
   seconds and written back to the store.

A batch pays only for what it uses (docs/SERVE.md, "What a submit
costs"): this module imports neither the pool nor the runner, and step 3
loads them — and the app packages the misses name — only when there is a
miss, in this process, before the first worker is forked.

``serve_loop`` is the long-running front-end: it tails a JSONL job file
(or FIFO), expanding each line — a spec object or ``{"sweep": {...},
"defaults": {...}}`` — into jobs as lines arrive; a line that does not
parse into jobs is rejected (event ``rejected``) and costs only itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .jobspec import JobSpec
from .matrix import expand_matrix
from .store import RESULT_SCHEMA, ResultStore, StoredDoc

__all__ = ["JobService", "parse_queue_line"]


class JobService:
    """Dedupe, execute and persist batches of JobSpecs (see module doc)."""

    def __init__(self, store: Optional[ResultStore] = None, *,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 events: Optional[Callable[[Dict[str, Any]], None]] = None):
        self.store = store if store is not None else ResultStore()
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.events = events
        self.metrics = self.store.metrics  # one registry for the service

    def _emit(self, payload: Dict[str, Any]) -> None:
        if self.events is not None:
            self.events(payload)

    # ------------------------------------------------------------------ #

    def run(self, specs: Sequence[JobSpec]) -> List[Dict[str, Any]]:
        """Execute a batch; returns one result document per spec, in order.

        Documents come from the cache (bit-identical to a fresh run) or
        from fresh execution; failures yield ``status="failed"`` documents
        (also persisted, but never served as cache hits).
        """
        hashes = [spec.config_hash() for spec in specs]
        docs: List[Optional[Dict[str, Any]]] = [None] * len(specs)

        # Pass 1: cache hits and in-batch duplicates.
        to_run: List[int] = []  # index of the first instance per fresh hash
        followers: Dict[str, List[int]] = {}
        leaders: Dict[str, int] = {}
        for i, (spec, h) in enumerate(zip(specs, hashes)):
            if h in leaders:
                followers.setdefault(h, []).append(i)
                continue
            cached = self.store.get(h)
            if cached is not None:
                docs[i] = cached
                self._emit({"event": "cached", "job": i,
                            "hash": h[:12], "spec": spec.describe()})
                continue
            leaders[h] = i
            to_run.append(i)
            self._emit({"event": "queued", "job": i,
                        "hash": h[:12], "spec": spec.describe()})

        # Pass 2: fresh execution through the pool. Everything a job needs
        # is imported here, once, so forked workers (and their respawns)
        # inherit it instead of each importing it again.
        if to_run:
            from .pool import WorkerPool
            from .runner import execute_job, load_apps

            load_apps({specs[i].app for i in to_run})

            def pool_events(event: Dict[str, Any]) -> None:
                # The service already emitted richer "queued" events in
                # pass 1; label the pool's lifecycle events with the spec.
                if event.get("event") == "queued":
                    return
                event.setdefault("spec", specs[event["job"]].describe())
                self._emit(event)

            pool = WorkerPool(execute_job, jobs=self.jobs,
                              timeout=self.timeout, retries=self.retries,
                              events=pool_events, metrics=self.metrics)
            outcomes = pool.run([specs[i].to_dict() for i in to_run],
                                job_ids=to_run)
            now = time.time()
            for i, outcome in zip(to_run, outcomes):
                stamps = {"wall_s": outcome.wall_s, "attempts": outcome.attempts,
                          "stored_at_unix": now}
                doc = StoredDoc(
                    {**outcome.result, **stamps} if outcome.ok
                    else _failed(specs[i], hashes[i], outcome.error, outcome.kind, stamps))
                try:
                    self.store.put(doc)
                except OSError as exc:
                    # An unwritable store fails this job, not the batch.
                    doc = StoredDoc(_failed(specs[i], hashes[i], f"store: {exc}", "store",
                                            stamps))
                    self._emit({"event": "failed", "job": i, "hash": hashes[i][:12],
                                "spec": specs[i].describe(), "error": doc["error"]})
                docs[i] = doc

        # Pass 3: serve in-batch duplicates from the leaders' documents.
        for h, dup_indices in followers.items():
            leader_doc = docs[leaders[h]]
            for i in dup_indices:
                docs[i] = leader_doc
                event = "cached" if leader_doc.get("status") == "done" else "failed"
                self._emit({"event": event, "job": i, "hash": h[:12],
                            "dedup": True, "spec": specs[i].describe()})
                if leader_doc.get("status") == "done":
                    # A dedup-served duplicate is a cache hit in spirit:
                    # the result existed by the time this job needed it.
                    self.metrics.inc("serve_cache_hits_total")
        return docs

    # ------------------------------------------------------------------ #

    def serve_loop(self, queue_path: Union[str, Path], *, poll_s: float = 0.5,
                   once: bool = False,
                   max_batches: Optional[int] = None) -> int:
        """Tail a JSONL job file/FIFO, executing each line's jobs.

        Returns the number of jobs processed. ``once`` drains what is
        currently readable and returns (the smoke-test mode); otherwise
        the loop polls for appended lines until interrupted (or, on a
        FIFO, blocks on the next writer).
        """
        queue_path = Path(queue_path)
        processed = 0
        batches = 0
        offset = 0
        lineno = 0
        while True:
            lines: List[bytes] = []
            try:
                with open(queue_path, "rb") as fh:
                    fh.seek(offset)
                    lines = fh.readlines()
                    offset = fh.tell()
            except FileNotFoundError:
                if once:
                    return processed
            if lines and not once and not lines[-1].endswith(b"\n"):
                offset -= len(lines.pop())  # a writer is mid-line: next poll
            for line in lines:
                lineno += 1
                line = line.strip()
                if not line or line.startswith(b"#"):
                    continue
                try:
                    specs = parse_queue_line(line)
                except ValueError as exc:
                    # A bad line costs that line, never the loop.
                    self.metrics.inc("serve_rejected_lines_total")
                    self._emit({"event": "rejected", "line": lineno,
                                "error": f"{type(exc).__name__}: {exc}"})
                    continue
                self.run(specs)
                processed += len(specs)
                batches += 1
                if max_batches is not None and batches >= max_batches:
                    return processed
            if once:
                return processed
            time.sleep(poll_s)

    def summary(self) -> Dict[str, Any]:
        """Service counters for the end-of-run footer (and tests)."""
        m = self.metrics
        return {
            "cache": self.store.counters(),
            "jobs": {
                "done": m.counter("serve_jobs_total", status="done"),
                "failed": m.counter("serve_jobs_total", status="failed"),
            },
            "retries": m.counter_total("serve_retries_total"),
            "worker_respawns": m.counter("serve_worker_respawns_total"),
            "rejected_lines": m.counter("serve_rejected_lines_total"),
        }


def _failed(spec: JobSpec, config_hash: str, error: str, kind: str,
            stamps: Dict[str, Any]) -> Dict[str, Any]:
    """The document of a job that failed (``kind``: the pool's failure
    kind, or ``"store"`` when its document could not be written)."""
    return {"schema": RESULT_SCHEMA, "status": "failed", "job": spec.to_dict(),
            "config_hash": config_hash, "error": error, "error_kind": kind, **stamps}


def parse_queue_line(line: Union[str, bytes]) -> List[JobSpec]:
    """One JSONL queue line -> JobSpecs; ValueError for anything else.

    A plain object is one spec; ``{"sweep": {axis: [...]}, "defaults":
    {...}}`` expands the cross product over the default fields.
    """
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError(f"queue line must be a JSON object, got {type(payload).__name__}")
    if "sweep" not in payload:
        return [JobSpec.from_dict(payload)]
    sweep, defaults = payload["sweep"], payload.get("defaults", {})
    if not isinstance(sweep, dict) or not isinstance(defaults, dict):
        raise ValueError('"sweep" and "defaults" must be JSON objects')
    return [JobSpec.from_dict({**defaults, **point})
            for point in expand_matrix(sweep)]
