"""CI gate for the repro.serve job service (make serve-smoke).

Five contracts, checked end to end through the real CLI:

1. a small sweep submitted twice is 100% cache hits the second time;
2. the cached pass is at least 2x faster than the cold pass;
3. a job killed by the per-job timeout fails alone — the rest of the
   batch completes and the run exits nonzero without hanging the pool;
4. a cached submit in a fresh interpreter (``python -m repro``) loads
   none of ``HIT_PATH_FORBIDDEN`` — contracts 1-3 run inside this warm
   process and cannot see what a request imports (docs/SERVE.md, "What a
   submit costs");
5. a malformed queue line costs ``repro serve`` that line: the jobs around
   it run, the line is reported, the command exits 1 without a traceback.
"""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from repro.cli import main  # noqa: E402

#: What a request answered from the result store must never load.
HIT_PATH_FORBIDDEN = (
    "numpy", "scipy", "multiprocessing", "repro.sim", "repro.gpu",
    "repro.backends", "repro.core", "repro.coll", "repro.launcher",
    "repro.apps.jacobi", "repro.apps.cg", "repro.obs.analyze", "repro.obs.schema")

_PROBE = """
import json, runpy, sys
argv, forbidden = json.loads(sys.argv[1]), json.loads(sys.argv[2])
sys.argv = ["repro"] + argv
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = [m for m in forbidden if m in sys.modules]
print("LOADED " + json.dumps({"code": code, "loaded": loaded}))
"""


def run_fresh(argv):
    """``python -m repro <argv>`` in a fresh interpreter.

    Returns (exit code, stdout, stderr, the ``HIT_PATH_FORBIDDEN`` modules
    the command left in ``sys.modules``).
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([str(a) for a in argv]),
         json.dumps(HIT_PATH_FORBIDDEN)],
        env=env, capture_output=True, text=True, timeout=300)
    out, marker, tail = proc.stdout.rpartition("LOADED ")
    if not marker:
        raise RuntimeError(f"repro {argv} died:\n{proc.stdout}\n{proc.stderr}")
    report = json.loads(tail)
    return report["code"] or 0, out, proc.stderr, report["loaded"]


def run(argv):
    out = io.StringIO()
    t0 = time.monotonic()
    code = main(argv, out=out)
    return code, out.getvalue(), time.monotonic() - t0


def summary_counts(text):
    m = re.search(r"(\d+) job\(s\): (\d+(?:\.\d+)?) executed, "
                  r"(\d+(?:\.\d+)?) cache hit\(s\), (\d+(?:\.\d+)?) failed", text)
    assert m, f"no service summary in output:\n{text}"
    return tuple(float(g) for g in m.groups())


def check(cond, label):
    print(f"  {'ok' if cond else 'FAIL'}: {label}")
    if not cond:
        raise SystemExit(f"serve-smoke FAILED: {label}")


def main_smoke() -> int:
    store = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    sweep = ["submit", "--store", store, "--jobs", "4", "--quiet",
             "--gpus", "4", "--iters", "6",
             "--sweep", "app=jacobi,cg", "backend=mpi,gpuccl", "size=32,48"]

    print("serve-smoke: cold pass (8-point sweep, --jobs 4)")
    code, text, cold_s = run(sweep)
    total, executed, hits, failed = summary_counts(text)
    check(code == 0 and failed == 0, f"cold pass clean ({cold_s:.2f}s)")
    check(executed == total == 8, f"all {total:g} jobs executed fresh")

    print("serve-smoke: warm pass (same sweep resubmitted)")
    code, text, warm_s = run(sweep)
    total, executed, hits, failed = summary_counts(text)
    check(code == 0 and failed == 0, f"warm pass clean ({warm_s:.2f}s)")
    check(hits == total == 8 and executed == 0, "second pass 100% cache hits")
    check(warm_s * 2.0 <= cold_s,
          f"cached pass >= 2x faster ({cold_s:.2f}s -> {warm_s:.2f}s)")

    print("serve-smoke: timeout isolation (one oversized job, 0.2s budget)")
    code, text, _ = run(["submit", "--store", store, "--jobs", "2", "--quiet",
                         "--timeout", "0.2", "--retries", "0",
                         "--gpus", "4", "--size", "512", "--iters", "2000",
                         "--sweep", "app=jacobi"])
    total, executed, hits, failed = summary_counts(text)
    check(code == 1 and failed == 1, "timeout surfaced as a failed job")
    check("timeout" in text, "failure labeled with kind=timeout")

    # The pool must still be fully serviceable: the warm sweep again.
    code, text, _ = run(sweep)
    total, executed, hits, failed = summary_counts(text)
    check(code == 0 and hits == 8 and failed == 0,
          "pool healthy after the kill (sweep still 100% hits)")

    print("serve-smoke: a cached submit in a fresh interpreter")
    code, text, _, loaded = run_fresh(sweep + ["--json", os.path.join(store, "docs.json")])
    total, executed, hits, failed = summary_counts(text)
    check(code == 0 and hits == total == 8 and executed == 0,
          "fresh-interpreter pass 100% cache hits")
    check(not loaded, f"hit path loaded nothing it must not (found: {loaded})")

    print("serve-smoke: one malformed queue line between two jobs")
    queue = os.path.join(store, "q.jsonl")
    with open(queue, "w") as fh:
        fh.write('{"app":"jacobi","ranks":2,"size":32,"iters":3}\n'
                 "not json\n"
                 '{"app":"jacobi","backend":"gpuccl","ranks":2,"size":32,"iters":3}\n')
    code, text, err, _ = run_fresh(["serve", "--store", store, "--queue", queue,
                                    "--once", "--quiet"])
    total, executed, hits, failed = summary_counts(text)
    check(total == executed == 2 and failed == 0, "both well-formed jobs ran")
    check("[rejected] queue line 2" in text and "1 queue line(s) rejected" in text,
          "the bad line is reported with its line number, even under --quiet")
    check(code == 1 and "Traceback" not in err, "exit 1, no traceback")

    print("serve-smoke PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_smoke())
