"""Crash mid-collective: clean surfacing, never a hang (ISSUE satellite).

For every backend x CollPolicy, a rank dies while the others loop
AllReduce / AllGather with the watchdog armed. The contract is *clean
error surfacing*: the launch must terminate with a typed error (watchdog
timeout, backend async error, retransmission give-up, or the engine's
deadlock report) — the exact type legitimately varies per backend and
algorithm, a silent hang or an unrelated crash does not. The error text
must carry the fault spec + seed so any failure the matrix finds is
reproducible from the message alone (ISSUE satellite: watchdog reports).
"""

import numpy as np
import pytest

from repro.errors import (
    CommRevokedError,
    DeadlockError,
    GpucclError,
    GpushmemError,
    MpiTimeoutError,
    SimTimeoutError,
    UniconnError,
)
from tests.core.conftest import ALL_BACKENDS, uniconn_run

#: Every way a crash-interrupted collective may legitimately end.
CLEAN = (
    SimTimeoutError,
    DeadlockError,
    GpucclError,
    GpushmemError,
    MpiTimeoutError,
    CommRevokedError,
    UniconnError,
)

#: None = each backend's default algorithm; the rest force repro.coll
#: schedules so the schedule-execution paths are covered too.
POLICIES = (None, "ring", "tree", "auto")

SPEC = "crash,rank=2,at=1.5e-4;watchdog,timeout=2e-3"


def _allreduce_body(env, comm, coord):
    from repro.core import IN_PLACE, Memory

    buf = Memory.alloc(env, 8)
    buf.write(np.ones(8))
    for _ in range(400):
        coord.all_reduce(IN_PLACE, buf, 8, "sum", comm)
        coord.stream.synchronize()
    return "finished"  # unreachable: the crash lands mid-loop


def _allgather_body(env, comm, coord):
    from repro.core import Memory

    p = comm.global_size()
    send = Memory.alloc(env, 8)
    recv = Memory.alloc(env, 8 * p)
    send.write(np.ones(8))
    for _ in range(400):
        coord.all_gather(send, recv, 8, comm)
        coord.stream.synchronize()
    return "finished"


@pytest.mark.parametrize("policy", POLICIES, ids=lambda c: str(c))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_crash_mid_allreduce_surfaces_cleanly(backend, policy):
    with pytest.raises(CLEAN) as excinfo:
        uniconn_run(4, backend, _allreduce_body, fault_plan=SPEC, fault_seed=3,
                    coll=policy)
    _check_reproducible(excinfo.value)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda c: str(c))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_crash_mid_allgather_surfaces_cleanly(backend, policy):
    with pytest.raises(CLEAN) as excinfo:
        uniconn_run(4, backend, _allgather_body, fault_plan=SPEC, fault_seed=3,
                    coll=policy)
    _check_reproducible(excinfo.value)


def _check_reproducible(exc):
    # Watchdog/deadlock reports name the active fault spec + seed; backend
    # errors name the crashed rank — either way the failure is
    # reproducible/attributable from the error text alone.
    text = str(exc)
    if isinstance(exc, (SimTimeoutError, DeadlockError)):
        assert "crash,rank=2" in text and "seed=3" in text
    else:
        assert "2" in text
