"""CG across machines, odd rank counts, and the rocSHMEM-enabled LUMI."""

import numpy as np
import pytest

from repro.apps.cg import CgConfig, assemble_x, launch_variant, make_problem, serial_cg
from repro.hardware import lumi

CFG = CgConfig(n=384, nnz_per_row=10, iters=12, seed=5)
PROBLEM = make_problem(CFG)


def _check(results):
    x = assemble_x(results, CFG.n)
    x_ref, _ = serial_cg(PROBLEM, CFG.iters)
    np.testing.assert_allclose(x, x_ref, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("nranks", [1, 3, 5, 7])
def test_cg_non_dividing_rank_counts(nranks):
    _check(launch_variant("uniconn:gpuccl", CFG, nranks, problem=PROBLEM, collect=True))


@pytest.mark.parametrize("variant", ["uniconn:mpi", "uniconn:gpushmem", "gpuccl-native"])
def test_cg_on_marenostrum5(variant):
    _check(launch_variant(variant, CFG, 4, machine="marenostrum5",
                          problem=PROBLEM, collect=True))


def test_cg_pure_device_on_rocshmem_lumi():
    """Paper future work x2: rocSHMEM on LUMI driving the device-API CG."""
    spec = lumi(enable_rocshmem=True)
    _check(launch_variant("uniconn:gpushmem:PureDevice", CFG, 8, machine=spec,
                          problem=PROBLEM, collect=True))


def test_cg_rma_mpi_collectives_still_two_sided():
    """One-sided MPI changes Post/Acknowledge only; CG's collectives keep working."""
    _check(launch_variant("uniconn:mpi-rma", CFG, 4, problem=PROBLEM, collect=True))
