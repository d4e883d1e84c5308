"""Cross-backend x algorithm x collective bitwise equivalence matrix.

Every (backend, policy) pair runs all four tunable collectives through the
full simulated stack — Coordinator -> backend -> schedule execution — at 7
and 12 ranks (awkward non-powers-of-two; recursive doubling additionally
at 8) under ``sanitize="race"``. Results must be bitwise equal to the
numpy reference and the run must report zero races: integer-valued float64
inputs make every algorithm's reduction order exact, so "close enough"
never hides a routing bug.

A fixed policy that is inapplicable to some (kind, nranks) — e.g. bruck
outside allgather, recdbl reduce_scatter at p=7 — legitimately falls back
to the backend's default; the matrix still checks that fallback's
output, so nothing is silently skipped.
"""

import numpy as np
import pytest

from tests.core.conftest import ALL_BACKENDS, uniconn_run

POLICIES = (None, "auto", "ring", "tree", "recdbl", "bruck", "hier")
N = 12  # elements per rank chunk; not divisible by 7 -> ragged layouts


def _rank_input(rank, count):
    rng = np.random.default_rng(100 + rank)
    return rng.integers(0, 64, count).astype(np.float64)


def _body(env, comm, coord):
    from repro.core import Memory

    rank, p = comm.global_rank(), comm.global_size()
    out = {}

    def run(kind, send_count, recv_count, fn):
        send = Memory.alloc(env, send_count)
        recv = Memory.alloc(env, recv_count)
        send.write(_rank_input(rank, send_count))
        fn(send, recv)
        coord.stream.synchronize()
        out[kind] = recv.read().copy()
        Memory.free(env, recv)
        Memory.free(env, send)

    run("all_reduce", N, N,
        lambda s, r: coord.all_reduce(s, r, N, "sum", comm))
    run("all_gather", N, N * p,
        lambda s, r: coord.all_gather(s, r, N, comm))
    run("reduce_scatter", N * p, N,
        lambda s, r: coord.reduce_scatter(s, r, N, "sum", comm))

    # Broadcast is in-place: seed every rank, root 2 (mod p) wins.
    bcast = Memory.alloc(env, N)
    bcast.write(_rank_input(rank, N))
    coord.broadcast(bcast, N, 2 % p, comm)
    coord.stream.synchronize()
    out["broadcast"] = bcast.read().copy()
    Memory.free(env, bcast)
    return out


def _expected(kind, p, rank):
    if kind == "all_reduce":
        return sum(_rank_input(r, N) for r in range(p))
    if kind == "all_gather":
        return np.concatenate([_rank_input(r, N) for r in range(p)])
    if kind == "reduce_scatter":
        total = sum(_rank_input(r, N * p) for r in range(p))
        return total[rank * N:(rank + 1) * N]
    return _rank_input(2 % p, N)  # broadcast from root 2 (mod p)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda c: str(c))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_collectives_bitwise_equal(backend, policy):
    sizes = (7, 8, 12) if policy == "recdbl" else (7, 12)
    for p in sizes:
        report = uniconn_run(p, backend, _body, coll=policy, sanitize="race")
        assert report.races == [], f"races at p={p}: {report.races}"
        for rank in range(p):
            for kind, got in report[rank].items():
                want = _expected(kind, p, rank)
                np.testing.assert_array_equal(
                    got, want,
                    err_msg=f"{backend}/{policy}/{kind} rank {rank} p={p}")


# Protocol/channel knobs change wire pricing only — never routing or data.
# One fixed selection per protocol (plus a multi-channel variant of each)
# runs the same full matrix: results stay bitwise equal to the reference
# oracle and race-free from 2 ranks through 16.
PROTOCOL_POLICIES = ("ring+LL", "ring+LL128/2", "ring+Simple/4",
                     "tree+LL/2", "recdbl+Simple/2")


@pytest.mark.parametrize("policy", PROTOCOL_POLICIES, ids=lambda c: str(c))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_protocol_selections_bitwise_equal(backend, policy):
    sizes = (2, 8, 16) if policy.startswith("recdbl") else (2, 7, 16)
    for p in sizes:
        report = uniconn_run(p, backend, _body, coll=policy, sanitize="race")
        assert report.races == [], f"races at p={p}: {report.races}"
        for rank in range(p):
            for kind, got in report[rank].items():
                want = _expected(kind, p, rank)
                np.testing.assert_array_equal(
                    got, want,
                    err_msg=f"{backend}/{policy}/{kind} rank {rank} p={p}")
