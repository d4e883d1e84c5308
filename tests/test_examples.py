"""Smoke tests: every shipped example must run end to end.

Examples are executed in-process (import + main) with small arguments so a
broken public API surfaces here before a user hits it.
"""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(name, argv):
    old = sys.argv
    sys.argv = [f"{EXAMPLES}/{name}"] + argv
    try:
        runpy.run_path(f"{EXAMPLES}/{name}", run_name="__main__")
    finally:
        sys.argv = old


def test_quickstart_all_backends():
    for backend in ("mpi", "gpuccl", "gpushmem"):
        run_example("quickstart.py", [backend])


def test_jacobi2d_example():
    run_example("jacobi2d.py", ["perlmutter", "4", "48"])


def test_cg_solver_example():
    run_example("cg_solver.py", ["512"])


def test_launch_modes_example():
    run_example("launch_modes.py", ["4"])


def test_backend_comparison_example():
    run_example("backend_comparison.py", ["lumi"])


def test_jacobi2d_tiles_example():
    run_example("jacobi2d_tiles.py", ["4", "48"])


def test_jacobi_fault_recovery_example():
    run_example("jacobi_fault_recovery.py", ["4", "48"])
