"""A finished ``launch()`` frees by reference count (docs/MODEL.md section 7,
"Memory: who frees what"): what one job leaves for the cycle collector is
next to nothing, does not grow with the job's iteration count, and never
includes a buffer, an array, a schedule, a task or an engine — after a clean
run, after each way a run fails, and with the returned report still alive.
The instrument is ``tools/gc_census.py`` (``make leak-check`` runs the same
contract at 16 ranks)."""

import gc
import importlib.util
import types
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "gc_census", Path(__file__).resolve().parents[1] / "tools" / "gc_census.py")
gc_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gc_census)

RANKS = 8


@pytest.mark.parametrize("name", list(gc_census.CHECK_VARIANTS) + list(gc_census.FAILURES))
def test_one_launch_leaves_nothing_for_the_collector(name):
    problems, garbage = gc_census.violations(name, RANKS, iters=(4, 12))
    assert not problems, (name, problems, gc_census.histogram(garbage).most_common(8))


_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
           types.MethodDescriptorType, types.GetSetDescriptorType)


def _reachable_type_names(root):
    """Type names of everything reachable from ``root`` through
    ``gc.get_referents``, not descending into code (classes, modules,
    functions): those reach the whole interpreter."""
    seen, stack, names = {id(root)}, [root], set()
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, _OPAQUE):
                continue
            seen.add(id(ref))
            names.add(type(ref).__name__)
            stack.append(ref)
    return names


@pytest.mark.parametrize("name", ["jacobi/uniconn:mpi", "jacobi/uniconn:gpuccl@spans",
                                  "jacobi/uniconn:gpushmem:PureDevice",
                                  "cg/uniconn:gpushmem@race", "osu/gpuccl@auto"])
def test_a_live_report_pins_no_simulator_state(name):
    held = []
    run = gc_census.runner(name, RANKS, 6)
    garbage = gc_census.census(lambda: held.append(run()))
    assert held[0].stats["virtual_time"] > 0
    assert not garbage, gc_census.histogram(garbage).most_common(8)
    pinned = _reachable_type_names(held[0]) & {"Engine", "Task", "DeviceBuffer", "Job"}
    assert not pinned, (name, pinned)
