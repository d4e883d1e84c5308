"""MPI edge cases: self-messaging, zero-count transfers, nested splits,
vector layouts a collective must reject."""

import numpy as np
import pytest

from repro.backends.mpi import ANY_TAG, waitall
from repro.errors import MpiError
from repro.sim import Tracer
from tests.backends.conftest import mpi_run


def test_send_to_self_nonblocking():
    def body(mpi, comm):
        out = np.zeros(3, np.float32)
        rreq = comm.irecv(out, 3, src=comm.rank)
        sreq = comm.isend(np.array([1, 2, 3], np.float32), 3, dst=comm.rank)
        waitall([rreq, sreq])
        return out.tolist()

    results = mpi_run(1, body)
    assert results[0] == [1, 2, 3]


def test_zero_count_message_carries_tag_semantics():
    def body(mpi, comm):
        if comm.rank == 0:
            comm.send(np.empty(0, np.float32), 0, dst=1, tag=42)
            return None
        comm.recv(np.empty(0, np.float32), 0, src=0, tag=42)
        return mpi.engine.now

    results = mpi_run(2, body)
    assert results[1] > 0  # still pays wire latency


def test_nested_splits():
    def body(mpi, comm):
        half = comm.split(color=comm.rank // 4)  # two groups of 4
        quarter = half.split(color=half.rank // 2)  # four groups of 2
        buf = np.full(1, float(comm.rank), np.float32)
        out = np.zeros(1, np.float32)
        quarter.allreduce(buf, out, 1, "sum")
        return quarter.size, float(out[0])

    results = mpi_run(8, body)
    # Pairs (0,1), (2,3), (4,5), (6,7).
    assert all(size == 2 for size, _ in results)
    assert [s for _, s in results] == [1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 13.0, 13.0]


def test_any_tag_respects_arrival_order():
    def body(mpi, comm):
        if comm.rank == 0:
            for i, tag in enumerate((3, 1, 2)):
                comm.send(np.full(1, float(i), np.float32), 1, dst=1, tag=tag)
            return None
        got = []
        buf = np.zeros(1, np.float32)
        for _ in range(3):
            comm.recv(buf, 1, src=0, tag=ANY_TAG)
            got.append(float(buf[0]))
        return got

    results = mpi_run(2, body)
    assert results[1] == [0.0, 1.0, 2.0]  # posted order, not tag order


def test_mixed_eager_rendezvous_between_same_pair():
    """Interleaved small (eager) and large (rendezvous) messages on one
    pair, same tag: strict FIFO must hold across protocols."""
    from repro.hardware import perlmutter

    big = perlmutter().mpi.eager_threshold  # floats -> 4x bytes: rendezvous

    def body(mpi, comm):
        if comm.rank == 0:
            comm.send(np.full(1, 1.0, np.float32), 1, dst=1)
            comm.send(np.full(big, 2.0, np.float32), big, dst=1)
            comm.send(np.full(1, 3.0, np.float32), 1, dst=1)
            return None
        first = np.zeros(1, np.float32)
        middle = np.zeros(big, np.float32)
        last = np.zeros(1, np.float32)
        comm.recv(first, 1, src=0)
        comm.recv(middle, big, src=0)
        comm.recv(last, 1, src=0)
        return float(first[0]), float(middle[0]), float(last[0])

    results = mpi_run(2, body)
    assert results[1] == (1.0, 2.0, 3.0)


def test_barrier_on_subcommunicator_does_not_block_others():
    def body(mpi, comm):
        sub = comm.split(color=comm.rank % 2)
        if comm.rank % 2 == 0:
            sub.barrier()
            return mpi.engine.now
        # Odd ranks never join that barrier; they do their own work.
        mpi.engine.sleep(1e-6)
        sub.barrier()
        return mpi.engine.now

    results = mpi_run(4, body)
    assert all(t < 1.0 for t in results)


def test_gpuccl_self_send_in_group():
    from repro.backends.gpuccl import GpucclComm, get_unique_id, group_end, group_start
    from repro.launcher import launch

    def main(ctx):
        ctx.set_device(ctx.node_rank)
        uid = ctx.job.shared_state("uid", get_unique_id)
        comm = GpucclComm(ctx, uid, 1, 0)
        stream = ctx.device.create_stream()
        src = ctx.device.malloc(2, np.float32)
        dst = ctx.device.malloc(2, np.float32)
        src.write(np.array([7.0, 8.0], np.float32))
        group_start()
        comm.send(src, 2, 0, stream)
        comm.recv(dst, 2, 0, stream)
        group_end()
        stream.synchronize()
        return dst.read().tolist()

    assert launch(main, 1) == [[7.0, 8.0]]


# --------------------------------------------------------------------- #
# Vector layouts: counts and displacements.
# --------------------------------------------------------------------- #

_VECTOR_CALLS = {
    # name: (call(comm, displs), ranks that hold the 8-element vector)
    "gatherv": (lambda comm, d: comm.gatherv(
        np.ones(4, np.float32), 4, np.zeros(8, np.float32) if comm.rank == 0
        else None, [4, 4], d, 0), {0}),
    "scatterv": (lambda comm, d: comm.scatterv(
        np.ones(8, np.float32) if comm.rank == 0 else None, [4, 4], d,
        np.zeros(4, np.float32), 4, 0), {0}),
    "allgatherv": (lambda comm, d: comm.allgatherv(
        np.ones(4, np.float32), 4, np.zeros(8, np.float32), [4, 4], d), {0, 1}),
}


def _rejected(name, displs, ranks):
    """Run the call on ``ranks``; return each rank's error and the number
    of point-to-point posts the run traced."""
    call, _ = _VECTOR_CALLS[name]

    def body(mpi, comm):
        if comm.rank not in ranks:
            return None
        with pytest.raises(MpiError) as err:
            call(comm, displs)
        return str(err.value)

    tracer = Tracer()
    errors = mpi_run(2, body, tracer=tracer)
    return errors, len(tracer.of_kind("mpi.send") + tracer.of_kind("mpi.recv"))


@pytest.mark.parametrize("name", sorted(_VECTOR_CALLS))
def test_negative_displacement_is_rejected_before_anything_is_posted(name):
    # numpy slices wrap a negative start around: unchecked, [4, -8] would
    # gather into the wrong half of the vector without a word.
    errors, posts = _rejected(name, [4, -8], {0, 1})
    assert all("negative displacement" in e for e in errors)
    assert posts == 0


@pytest.mark.parametrize("name", sorted(_VECTOR_CALLS))
def test_block_past_the_buffer_end_is_rejected_where_the_buffer_is(name):
    # Rank 1's block [6, 10) overruns the 8-element vector: the rank that
    # holds it raises an MpiError before posting, not a BackendError from
    # inside the point-to-point layer.
    holders = _VECTOR_CALLS[name][1]
    errors, posts = _rejected(name, [0, 6], holders)
    assert all("past the end" in errors[r] for r in holders)
    assert posts == 0


def test_zero_count_blocks_post_no_message():
    """A zero-count block of a vector collective sends nothing, as MPICH's
    linear gatherv skips it: rank 1 contributes no element."""
    counts, displs = [2, 0, 3], [0, 2, 2]

    def body(mpi, comm):
        r = comm.rank
        got = np.zeros(5, np.float32)
        comm.allgatherv(np.full(counts[r], r + 1.0, np.float32), counts[r],
                        got, counts, displs)
        return got.tolist()

    tracer = Tracer()
    results = mpi_run(3, body, tracer=tracer)
    assert results == [[1, 1, 3, 3, 3]] * 3
    sends = tracer.of_kind("mpi.send")
    assert sends and all(rec.fields["nbytes"] > 0 for rec in sends)
    assert not any(rec.fields["src"] == 1 for rec in sends
                   + tracer.of_kind("mpi.recv") if rec.fields["dst"] == 0)


def test_own_count_must_equal_its_entry_in_counts():
    # MPI requires matching type signatures: unchecked, rank 1 sending 3 of
    # the 4 elements the root expects would leave the root's block short.
    def body(mpi, comm):
        if comm.rank == 1:
            with pytest.raises(MpiError, match=r"counts\[1\] is 4"):
                comm.gatherv(np.ones(4, np.float32), 3, None, [4, 4], [0, 4], 0)

    tracer = Tracer()
    mpi_run(2, body, tracer=tracer)
    assert not tracer.of_kind("mpi.send")


# Rank 2 contributes nothing; blocks are out of rank order with gaps.
_GAPPED = dict(counts=[2, 1, 0, 3], displs=[7, 0, 3, 2])


def test_gapped_vector_layouts_leave_the_gaps_alone():
    counts, displs = _GAPPED["counts"], _GAPPED["displs"]
    vector = [-1.0] * 10
    for r, (c, d) in enumerate(zip(counts, displs)):
        vector[d:d + c] = [10.0 * r + i for i in range(c)]

    def body(mpi, comm):
        r = comm.rank
        mine = np.array(vector[displs[r]:displs[r] + counts[r]], np.float32)
        gathered = np.full(10, -1.0, np.float32)
        comm.gatherv(mine, counts[r], gathered if r == 3 else None, counts,
                     displs, 3)
        part = np.full(4, -1.0, np.float32)
        comm.scatterv(np.array(vector, np.float32) if r == 3 else None,
                      counts, displs, part, counts[r], 3)
        every = np.full(10, -1.0, np.float32)
        comm.allgatherv(mine, counts[r], every, counts, displs)
        return gathered.tolist(), part.tolist(), every.tolist()

    for r, (gathered, part, every) in enumerate(mpi_run(4, body)):
        assert gathered == (vector if r == 3 else [-1.0] * 10)
        assert part == vector[displs[r]:displs[r] + counts[r]] + [-1.0] * (4 - counts[r])
        assert every == vector


def test_collectives_record_only_what_they_touch(monkeypatch):
    """Sanitizer records: a vector root's blocks one by one at their
    displacements (never the gaps), and no write at a broadcast root."""
    from repro.backends.mpi import collectives

    seen = []
    monkeypatch.setattr(collectives, "_record", lambda comm, buf, kind, start,
                        count, note: seen.append((comm.rank, kind, start, count)))
    counts, displs = _GAPPED["counts"], _GAPPED["displs"]

    def body(mpi, comm):
        r = comm.rank
        comm.gatherv(np.ones(counts[r], np.float32), counts[r],
                     np.zeros(10, np.float32) if r == 0 else None, counts, displs, 0)
        comm.scatterv(np.ones(10, np.float32) if r == 0 else None, counts,
                      displs, np.zeros(3, np.float32), counts[r], 0)
        comm.bcast(np.ones(4, np.float32), 4, 1)

    mpi_run(4, body)
    at_root = [(kind, start, n) for rank, kind, start, n in seen if rank == 0]
    blocks = list(zip(displs, counts))
    assert at_root == (
        [("r", 0, 2)] + [("w", d, c) for d, c in blocks]        # gatherv
        + [("r", d, c) for d, c in blocks] + [("w", 0, 2)]      # scatterv
        + [("w", 0, 4)])                                        # bcast
    assert [(kind, start, n) for rank, kind, start, n in seen if rank == 1] == [
        ("r", 0, 1), ("w", 0, 1), ("r", 0, 4)]


def test_allgatherv_broadcast_phase_is_selected_by_the_policy(monkeypatch):
    """MPI's allgatherv is a gather-v plus a public bcast: under a fixed
    policy its broadcast phase runs the policy's algorithm."""
    from repro.coll import CollPolicy

    picks = []
    select = CollPolicy.select

    def spy(self, backend, kind, nbytes, topo, engine=None):
        picked = select(self, backend, kind, nbytes, topo, engine=engine)
        picks.append((kind, str(picked)))
        return picked

    monkeypatch.setattr(CollPolicy, "select", spy)

    def body(mpi, comm):
        got = np.zeros(8, np.float32)
        comm.allgatherv(np.full(2, comm.rank, np.float32), 2, got, [2] * 4,
                        [0, 2, 4, 6])
        return got.tolist()

    assert mpi_run(4, body, coll="ring") == [[0, 0, 1, 1, 2, 2, 3, 3]] * 4
    assert picks == [("broadcast", "ring")] * 4
