"""Check what `repro report --sanitize --trace-out T --metrics-out R` wrote
(make obs-smoke):

    python tools/check_trace.py T R

T must parse as a Chrome trace whose ``ts`` never decreases and whose
B/E span events balance on every (pid, tid) row — no E without an open B,
none left open; R must validate against the report schema and hold no
race. Exits 1 with the first violation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import validate_report  # noqa: E402


def problems(trace_path, report_path):
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    if not events:
        yield "the trace has no events"
    open_spans = {}
    last_ts = float("-inf")
    for i, event in enumerate(events):
        if event["ts"] < last_ts:
            yield f"event {i}: ts {event['ts']} < {last_ts}"
        last_ts = event["ts"]
        row = (event["pid"], event["tid"])
        if event["ph"] == "B":
            open_spans[row] = open_spans.get(row, 0) + 1
        elif event["ph"] == "E":
            if not open_spans.get(row):
                yield f"event {i}: E {event['name']!r} with no open B on {row}"
            else:
                open_spans[row] -= 1
    for row, depth in open_spans.items():
        if depth:
            yield f"{depth} span(s) never closed on {row}"
    doc = json.loads(Path(report_path).read_text())
    try:
        validate_report(doc)
    except ValueError as exc:
        yield f"{report_path}: {exc}"
    if doc.get("races") != []:
        yield f"{report_path}: races {doc.get('races')!r}"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    found = list(problems(*argv))
    for problem in found:
        print(f"check_trace: {problem}", file=sys.stderr)
    if not found:
        print(f"check_trace: {argv[0]} and {argv[1]} OK")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
