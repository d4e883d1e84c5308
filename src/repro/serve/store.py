"""Content-addressed result store keyed by JobSpec config hashes.

Layout (``--store PATH``, ``REPRO_SERVE_STORE``, default
``~/.cache/repro-serve``)::

    <root>/<hash[:2]>/<hash>.json      # one result document per job

Each document carries the canonical job spec, its hash, the outcome
status, and — for completed jobs — the full JSON form of the run's
:class:`~repro.launcher.RunReport` plus an app-level summary. Documents
are written with sorted keys through an atomic rename, so a cached result
is bit-identical to the freshly computed one and a crashed writer can
never leave a half-written entry behind.

A document is encoded once. :class:`StoredDoc` — what :meth:`ResultStore.get`
returns and what the service hands to :meth:`ResultStore.put` — is a dict
that carries the text it is stored as, and :func:`write_documents` (the
``repro submit --json`` writer) re-indents that text instead of encoding
the document again. A stored document is therefore immutable once read:
change a copy (``dict(doc)``), not the document.

Cache traffic is counted in a :class:`~repro.obs.MetricsRegistry`
(``serve_cache_hits_total`` / ``serve_cache_misses_total`` /
``serve_cache_invalidations_total``), surfaced by ``repro submit`` and
``repro jobs``.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, Mapping, Optional, Union

from ..obs.metrics import MetricsRegistry

__all__ = ["ResultStore", "StoredDoc", "write_documents", "RESULT_SCHEMA",
           "DEFAULT_STORE_ENV", "default_store_path"]

RESULT_SCHEMA = "repro.serve.result/1"
DEFAULT_STORE_ENV = "REPRO_SERVE_STORE"


def default_store_path() -> Path:
    """Resolve the store root: ``$REPRO_SERVE_STORE``, then ``~/.cache``."""
    env = os.environ.get(DEFAULT_STORE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-serve"


class StoredDoc(dict):
    """A result document plus ``text``, the exact bytes it is stored as.

    An ordinary dict to every reader; ``text`` is the canonical encoding
    (sorted keys, two-space indent, trailing newline) of its contents —
    read from the store file, or encoded here when the document is new.
    """

    __slots__ = ("text",)

    def __init__(self, doc: Mapping[str, Any], text: Optional[str] = None):
        super().__init__(doc)
        self.text = text if text is not None else _text(doc)


def _text(doc: Mapping[str, Any]) -> str:
    """The stored form of ``doc``: carried by a :class:`StoredDoc`,
    encoded for anything else."""
    if isinstance(doc, StoredDoc):
        return doc.text
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load(path: Path) -> Optional[StoredDoc]:
    """The document at ``path``; None when absent, unreadable or not a
    JSON object."""
    try:
        text = path.read_text()
        doc = json.loads(text)
    except (OSError, ValueError):
        return None
    return StoredDoc(doc, text) if isinstance(doc, dict) else None


def write_documents(docs: Iterable[Mapping[str, Any]], fh: IO[str]) -> None:
    """Write ``docs`` as one JSON array, byte-for-byte what
    ``json.dump(docs, fh, indent=2, sort_keys=True)`` plus a newline writes.

    ``json`` indents structurally, one line per item, and a JSON string
    never holds a raw newline, so nesting an encoded document one level
    deeper is prefixing each of its lines; only a document that is not a
    :class:`StoredDoc` is encoded here.
    """
    items = ["  " + _text(doc).rstrip("\n").replace("\n", "\n  ") for doc in docs]
    fh.write("[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n")


class ResultStore:
    """Persist and recall result documents by config hash."""

    def __init__(self, root: Union[str, Path, None] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.root = Path(root) if root is not None else default_store_path()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def _path(self, config_hash: str) -> Path:
        return self.root / config_hash[:2] / f"{config_hash}.json"

    # ------------------------------------------------------------------ #

    def get(self, config_hash: str) -> Optional[StoredDoc]:
        """The completed result document for a hash, or None (a miss).

        Only ``status == "done"`` documents stored under their own hash
        count as hits; a stored failure, or a document whose
        ``config_hash`` is another job's, is reported as a miss so the job
        reruns next submit and its write replaces the file.
        """
        doc = _load(self._path(config_hash))
        if (doc is None or doc.get("status") != "done"
                or doc.get("config_hash") != config_hash):
            self.metrics.inc("serve_cache_misses_total")
            return None
        self.metrics.inc("serve_cache_hits_total")
        return doc

    def peek(self, config_hash: str) -> Optional[StoredDoc]:
        """Like :meth:`get` but returns any-status documents and counts
        nothing (used by ``repro jobs`` and the duplicate-dedup path)."""
        return _load(self._path(config_hash))

    def put(self, doc: Mapping[str, Any]) -> Path:
        """Write one result document (atomic rename, sorted keys); a
        :class:`StoredDoc` is written as the text it already carries. A
        failed write raises its ``OSError`` and leaves no temporary file."""
        config_hash = doc["config_hash"]
        path = self._path(config_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(_text(doc))
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        self.metrics.inc("serve_cache_writes_total",
                         status=doc.get("status", "done"))
        return path

    def invalidate(self, config_hash: Optional[str] = None) -> int:
        """Drop one entry (or every entry when hash is None); returns the
        number of documents removed."""
        removed = 0
        if config_hash is not None:
            path = self._path(config_hash)
            if path.exists():
                path.unlink()
                removed = 1
        else:
            for path in self.root.glob("??/*.json"):
                path.unlink()
                removed += 1
        if removed:
            self.metrics.inc("serve_cache_invalidations_total", removed)
        return removed

    def jobs(self) -> Iterator[Dict[str, Any]]:
        """Every stored result document, hash-sorted (for ``repro jobs``)."""
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("??/*.json")):
            doc = _load(path)
            if doc is not None:
                yield doc

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json")) if self.root.exists() else 0

    def counters(self) -> Dict[str, float]:
        """The store's cache-traffic counters as a plain dict."""
        return {
            "hits": self.metrics.counter("serve_cache_hits_total"),
            "misses": self.metrics.counter("serve_cache_misses_total"),
            "invalidations": self.metrics.counter("serve_cache_invalidations_total"),
        }
