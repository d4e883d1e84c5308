"""``--self-test``: every workload at toy scale, in well under 20 s.

Asserts that the metric and workload names the benchmark emits are the ones
``BENCHMARK.json`` declares, that the results file matches its schema, that
each traced pass yields a well-formed span tree (one root per workload,
children inside parents, self time >= 0 - checked by the traced run itself
and surfaced as failures), and that the traced job composition produces the
runner's own document.
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import Callable, List

import layerbench
from layerbench import compare, gen, harness

__all__ = ["run"]


def run(mods, run_workload: Callable) -> int:
    t0 = time.perf_counter()
    calibration = [harness.calibration_seconds()]
    problems: List[str] = []
    manifest_path = harness.REPO_ROOT / "BENCHMARK.json"
    with open(manifest_path) as fh:
        declared = json.load(fh)
    if declared != layerbench.manifest():
        problems.append("BENCHMARK.json differs from layerbench.manifest()")
    if tuple(layerbench.WORKLOADS) != gen.WORKLOAD_NAMES:
        problems.append("workload names differ between declarations and generator")

    workloads, _layers, spans = mods
    from repro.serve import JobSpec, execute_job
    job = gen.generate("cg_solve", 0, "toy")["jobs"][0]
    composed = workloads.traced_job(JobSpec.from_dict(job),
                                    spans.SpanRecorder("cg_solve"))
    if composed != execute_job(job):
        problems.append("traced_job() no longer rebuilds execute_job()'s document")

    names = {0: [e["name"] for e in declared["end_to_end"]],
             1: [p["name"] for p in declared["per_layer"]]}
    with harness.temp_dir() as tmp:
        results = os.path.join(tmp, "selftest.json")
        for entry in declared["workloads"]:
            for trace in (0, 1):
                doc = run_workload(mods, entry["name"], seed=0, seconds=0.0,
                                   trace=trace, scale="toy",
                                   allowed_cpus={harness.pin_to_one_cpu()})
                if list(doc["metrics"]) != names[trace]:
                    problems.append(f"{entry['name']} trace={trace}: emitted metric "
                                    "names differ from BENCHMARK.json")
                problems += [f"{entry['name']} trace={trace}: {f}"
                             for f in doc["failures"]]
                compare.merge_run(results, doc)
        try:
            runs = compare.load_runs(results)  # validates every run document
            if len(runs) != 2 * len(declared["workloads"]):
                problems.append(f"results file holds {len(runs)} runs")
            report = io.StringIO()
            if compare.compare_files(results, results, report) != 0:
                problems.append("a results file compared with itself regressed:\n"
                                + report.getvalue())
        except ValueError as exc:
            problems.append(f"results file does not match its schema: {exc}")
    calibration.append(harness.calibration_seconds())
    # The budget is in seconds at reference speed, like every reported time.
    elapsed = ((time.perf_counter() - t0) * harness.CALIBRATION_REF_S
               / (sum(calibration) / len(calibration)))
    if elapsed > 20.0:
        problems.append(f"self-test took {elapsed:.1f}s at reference speed (budget 20s)")
    for problem in problems:
        print(f"SELF-TEST FAIL: {problem}")
    print(f"self-test: {len(declared['workloads'])} workloads x (untraced + traced) "
          f"in {elapsed:.1f}s at reference speed, {len(problems)} problem(s)")
    return 1 if problems else 0
