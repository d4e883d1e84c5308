"""The race sanitizer's clock bookkeeping (repro.sanitize): bounded, and
invisible in the findings.

``tests/test_sanitize.py`` pins *what* is found with programs too short for
an id ever to die. Here the runs are long enough that dead ids give their
clock index to new ones and ids are handed down FIFO chains, and three
things are pinned: the findings are exactly those of a reference that does
neither, the bookkeeping cost is linear in the length of the run (exact
counts from ``report.stats["sanitizer"]``), and long clean runs stay clean.
A lost clock entry turns "ordered" into "race" (a false positive in a clean
run); an index reused with ticks it already held turns "race" into
"ordered" (a finding the reference has and the seeded runs lack).
"""

from unittest import mock

import numpy as np
import pytest

import repro.sanitize
from repro import Communicator, Coordinator, Environment, Memory, launch
from repro.apps.jacobi import JacobiConfig
from repro.apps.jacobi import launch_variant as launch_jacobi
from repro.gpu import kernel
from repro.hardware import KernelCost
from tests.core.conftest import ALL_BACKENDS as BACKENDS

COUNT = 16


class ReferenceSanitizer(repro.sanitize.Sanitizer):
    """Clock bookkeeping in which a context keeps its id for good, so no id
    ever dies, is handed on, or gives its clock index to another: the
    reference the differential tests compare against (it lives here, not in
    ``src/``)."""

    def _retire(self, ctx):
        pass


def reference_run(run):
    """``run()`` with every sanitizer ``launch`` installs a reference one."""
    with mock.patch.object(repro.sanitize, "Sanitizer", ReferenceSanitizer):
        report = run()
    assert report.stats["sanitizer"]["id_reuses"] == 0
    return report


def findings(report):
    return [r.as_dict() for r in report.races]


# --------------------------------------------------------------------- #
# A late seeded race: many clean iterations, then two missing edges.
# --------------------------------------------------------------------- #


@kernel(cost=KernelCost(bytes_moved=4096.0))
def _relax(ctx, work, halo):
    work.data[:] += 1.0 + 0.0 * halo.data[:]


def _ring(backend, clean_iters, seeded=True):
    """Jacobi's communication skeleton on a ring (kernel, then both halves
    of ``work`` to the two neighbours' parity-indexed halo), race-free for
    ``clean_iters`` iterations; one more, if ``seeded``, reads ``work``
    without synchronizing the stream and the arriving halo without waiting
    for it."""

    def body(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream)
        me, n = comm.global_rank(), comm.global_size()
        left, right = (me - 1) % n, (me + 1) % n
        work = Memory.alloc(env, 2 * COUNT)  # [left half | right half]
        halos = [Memory.alloc(env, 2 * COUNT) for _ in range(2)]  # [from left | from right]
        sig = Memory.alloc(env, 4, dtype=np.uint64) if coord.uses_signals else None
        work.write(np.full(2 * COUNT, float(me), np.float32))
        for halo in halos:
            halo.write(np.zeros(2 * COUNT, np.float32))
        at = [0]
        coord.bind_kernel("PureHost", _relax, 1, 32,
                          args=lambda: (work, halos[at[0] % 2]))
        comm.barrier(stream=stream)
        for it in range(clean_iters + 1):
            buggy = seeded and it == clean_iters
            at[0] = it
            coord.launch_kernel()
            if buggy:
                work.read()  # BUG: no stream.synchronize()
            nxt, val = (it + 1) % 2, it + 1
            halo = halos[nxt]
            from_left = sig.offset_by(2 * nxt, 1) if sig is not None else None
            from_right = sig.offset_by(2 * nxt + 1, 1) if sig is not None else None
            coord.comm_start()
            coord.post(work.offset_by(0, COUNT), halo.offset_by(COUNT, COUNT), COUNT,
                       from_right, val, left, comm)
            coord.post(work.offset_by(COUNT, COUNT), halo.offset_by(0, COUNT), COUNT,
                       from_left, val, right, comm)
            coord.acknowledge(halo.offset_by(0, COUNT), COUNT, from_left, val, left, comm)
            coord.acknowledge(halo.offset_by(COUNT, COUNT), COUNT, from_right, val, right, comm)
            if buggy:
                halo.read()  # BUG (MPI): the receives are posted, not waited for
            coord.comm_end()
            if buggy:
                halo.read()  # BUG (stream-ordered backends): no synchronize
        stream.synchronize()
        out = work.read().copy()
        env.close()
        return out

    return body


@pytest.mark.parametrize("backend", BACKENDS)
def test_late_seeded_race_is_reported_identically(backend):
    def run():
        return launch(_ring(backend, 40), 8, sanitize="race")

    report, reference = run(), reference_run(run)
    assert findings(report) == findings(reference)
    assert any("_relax" in (r.first["op"], r.second["op"]) for r in report.races)
    assert len({r.buffer for r in report.races}) >= 2 * 8  # work and a halo, per rank
    # The optimized run really did forget: far fewer ids than the reference
    # issued, and clocks a fraction of its size.
    ours, theirs = report.stats["sanitizer"], reference.stats["sanitizer"]
    assert ours["accesses"] == theirs["accesses"]
    assert ours["ids"] < theirs["ids"] / 2
    assert ours["clock_peak"] < theirs["clock_peak"] / 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_unseeded_ring_is_clean(backend):
    """Without its last iteration's reads the skeleton has nothing to find,
    so what the test above compares are the seeded races."""
    report = launch(_ring(backend, 12, seeded=False), 8, sanitize="race")
    assert report.races == [], "\n".join(str(r) for r in report.races)


# --------------------------------------------------------------------- #
# Scaling, as exact counts.
# --------------------------------------------------------------------- #


def _jacobi_stats(backend, ranks, iters):
    cfg = JacobiConfig(nx=64, ny=66, iters=iters, warmup=1)
    report = launch_jacobi(f"uniconn:{backend}", cfg, ranks, sanitize="race")
    assert report.races == [], "\n".join(str(r) for r in report.races)
    return report.stats["sanitizer"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_clock_work_is_linear_in_iterations(backend):
    short, long = _jacobi_stats(backend, 8, 10), _jacobi_stats(backend, 8, 30)
    assert long["clock_entries_visited"] <= 3.6 * short["clock_entries_visited"]
    assert long["clock_peak"] <= short["clock_peak"] + 32
    assert long["alive_peak"] <= short["alive_peak"] + 8
    # Dead ids gave their clock index to new ones — unless none ever died:
    # on gpushmem every recording context sits on a FIFO chain (stream ops,
    # per-path deliveries), and the whole run lives on the ids of its first
    # iteration.
    assert long["id_reuses"] > 0 or long["ids"] == short["ids"]
    assert long["ids"] < long["accesses"] / 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_long_wide_jacobi_is_race_free(backend):
    stats = _jacobi_stats(backend, 16, 30)
    assert stats["clock_peak"] <= 2 * (stats["alive_peak"] + 1)
