"""The race sanitizer's findings do not depend on how it keeps its clocks,
nor on whether host charges are deferred: generated Coordinator programs
with one synchronization removed report exactly what the reference
bookkeeping (no id ever retired, nothing ever compacted or handed on —
``tests/test_sanitize_clocks.py``) reports, and exactly what their eager
twin (every charge slept, under a fault plan that never fires) reports."""

from hypothesis import given, settings, strategies as st

from repro import launch
from tests.property.test_deferred_charges import STEP, _program
from tests.sim.test_fastpath import INERT_PLAN
from tests.test_sanitize_clocks import findings, reference_run


def _sanitized(backend, nranks, steps, omit, fault_plan=None):
    """The findings of one sanitized run, and how it ended: leaving out an
    ``acknowledge`` can hang the program, which ``launch`` reports as an
    error carrying the partial report."""
    try:
        return launch(_program(backend, nranks, steps, omit), nranks, sanitize="race",
                      fault_plan=fault_plan)
    except Exception as exc:  # noqa: BLE001 - any failure, compared by type below
        exc.run_report.stats["ended"] = type(exc).__name__
        return exc.run_report


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(["mpi", "gpuccl", "gpushmem"]),
    nranks=st.integers(2, 5),
    steps=st.lists(STEP, min_size=1, max_size=10),
    pick=st.integers(0, 10),
)
def test_findings_match_the_reference_bookkeeping(backend, nranks, steps, pick):
    points = [i for i, step in enumerate(steps) if step[0] in ("exchange", "sync")]
    omit = (points + [len(steps)])[pick % (len(points) + 1)]

    def run():
        return _sanitized(backend, nranks, steps, omit)

    report, reference = run(), reference_run(run)
    eager = _sanitized(backend, nranks, steps, omit, fault_plan=INERT_PLAN)
    assert findings(report) == findings(reference) == findings(eager)
    assert report.stats.get("ended") == reference.stats.get("ended") == eager.stats.get("ended")
