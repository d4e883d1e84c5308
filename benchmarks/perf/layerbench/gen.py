"""Seeded input generator: ``--seed`` in, ``JobSpec``s and arguments out.

The program only ever receives what this module generates. Every draw keeps
a pass's *work* constant so that runs with different seeds stay comparable
(the driver measures spread across seeds): iteration counts move by offsets
that sum to zero over a pass's jobs, message sizes move inside a narrow window
of their protocol band, sweep axes are reordered and their values drawn from
sets with equal totals. What does change with the seed is every config hash,
every non-power-of-two message size, the CG matrix and the sweep order - so a
result cached or a table pre-baked for one seed is useless for the next.

Sizes were calibrated so one pass takes about 1.1-1.5 s pinned on a 2-core
shared box (see README.md); ``toy`` is the ``--self-test`` scale.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

__all__ = ["generate", "WORKLOAD_NAMES", "MAX_COLL_BUFFER_BYTES"]

WORKLOAD_NAMES = ("jacobi_live", "jacobi_replay", "cg_solve", "coll_sweep",
                  "jacobi_checked", "serve_cold", "serve_cached")

#: Largest receive buffer one rank may allocate in the collective sweep. A
#: 64-GPU all_gather at 16 MiB asks for 64 GiB in total and was OOM-killed
#: while this benchmark was sized; 64 ranks x 16 MiB stays near 1 GiB.
MAX_COLL_BUFFER_BYTES = 16 << 20

# Message-size centres (bytes), one inside each band the tuner picks on the
# perlmutter preset ("Demystifying NCCL": LL -> LL128 -> wider/Simple). For
# all_reduce the bands switch near 8 KiB and 128 KiB; a 64-GPU all_gather
# moves 64x the bytes, so its bands switch near 512 B and 8 KiB.
_REDUCE_SIZES = (1536, 24 << 10, 192 << 10)
_GATHER64_SIZES = (192, 2 << 10, 24 << 10)


def _zero_sum(rng: random.Random, n: int, step: int = 1) -> List[int]:
    """``n`` shuffled offsets in {-step, 0, +step} that sum to zero."""
    offsets = [-step, step] + [0] * (n - 2)
    rng.shuffle(offsets)
    return offsets


def _jacobi_jobs(rng, variants, ranks, iters, step=1, **fields) -> List[Dict[str, Any]]:
    """One job per variant; iterations move by zero-sum offsets of ``step``.
    ``JobSpec.seed`` is unused by Jacobi but hashed."""
    jobs = []
    for (backend, mode), off in zip(variants, _zero_sum(rng, len(variants), step)):
        job = dict(app="jacobi", backend=backend, mode=mode, ranks=ranks, size=64,
                   iters=iters + off, collect=True, seed=rng.randrange(1 << 30))
        job.update(fields)
        jobs.append(job)
    return jobs


def _size_in(rng: random.Random, centre: int) -> int:
    """A float32-aligned, non-power-of-two size within +-1.5 % of ``centre``."""
    while True:
        nbytes = 4 * round(centre * rng.uniform(0.985, 1.015) / 4)
        if nbytes & (nbytes - 1):
            return nbytes


def generate(workload: str, seed: int, scale: str = "full") -> Dict[str, Any]:
    """The inputs of one run of ``workload`` (JSON-safe, deterministic)."""
    if workload not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOAD_NAMES}")
    rng = random.Random(f"{workload}/{seed}")
    toy = scale == "toy"
    host = "PureHost"

    if workload == "jacobi_live":
        # The +-1 offsets go to the two jobs whose cost per iteration is
        # alike (mpi 20 ms, gpushmem 21 ms; gpuccl 15 ms, PureDevice 34 ms).
        ranks, iters = (8, 3) if toy else (64, 11)
        swap = _jacobi_jobs(rng, [("mpi", host), ("gpushmem", host)], ranks, iters)
        fixed = _jacobi_jobs(rng, [("gpuccl", host), ("gpushmem", "PureDevice")],
                             ranks, iters, step=0)
        return {"jobs": [swap[0], fixed[0], swap[1], fixed[1]]}

    if workload == "jacobi_replay":
        # Takeovers are discrete: one iteration more on an MPI job can add a
        # whole replay. Only the gpuccl-native job, whose iterations replay at
        # almost no host cost, moves (+-1) so that virtual time still varies.
        variants = [("mpi", host), ("mpi-native", host), ("gpuccl-native", host)]
        jobs = _jacobi_jobs(rng, variants, 8 if toy else 64, 32 if toy else 40,
                            step=0, capture="regions", collect=False)
        jobs[-1]["iters"] += rng.choice((-1, 0, 1))
        return {"jobs": jobs}

    if workload == "cg_solve":
        rows = 768 if toy else 52000
        jobs = []
        matrix_seed = rng.randrange(1, 1 << 30)
        n = rows + 8 * rng.randint(-16, 16)
        # No iteration offsets: the backends' virtual time per iteration
        # differs 4x, so moving one iteration moves sim_time_s by over 1 %.
        for backend in ("mpi", "gpuccl", "gpushmem"):
            jobs.append(dict(app="cg", backend=backend, ranks=8, size=n,
                             iters=27, seed=matrix_seed))
        return {"jobs": jobs}

    if workload == "coll_sweep":
        big, small = (8, 4) if toy else (64, 16)
        sweeps = [
            ("gpuccl", "all_reduce", big, _REDUCE_SIZES),
            ("gpuccl", "all_gather", big, _GATHER64_SIZES),
            ("mpi", "all_reduce", small, _REDUCE_SIZES),
            ("mpi", "all_gather", small, _REDUCE_SIZES),
            ("gpushmem", "all_reduce", small, _REDUCE_SIZES),
        ]
        return {
            "sweeps": [dict(backend=b, kind=k, gpus=g,
                            sizes=[_size_in(rng, centre) for centre in centres])
                       for b, k, g, centres in sweeps],
            "table_gpus": 4 if toy else 16,
        }

    if workload == "jacobi_checked":
        variants = [("mpi", host), ("gpuccl", host), ("gpushmem", host)]
        # The sanitizer's memory grows faster than linearly: one more iteration
        # on the heaviest backend (gpushmem, last) moves peak_rss_mb by 10 %,
        # so the zero-sum offsets go to the two lighter jobs only.
        iters = 3 if toy else 13
        jobs = _jacobi_jobs(rng, variants[:2], 4 if toy else 16, iters,
                            sanitize=True, obs="spans")
        jobs += _jacobi_jobs(rng, variants[2:], 4 if toy else 16, iters, step=0,
                             sanitize=True, obs="spans")
        return {"jobs": jobs}

    # serve_cold / serve_cached share one sweep per seed: the cached run's
    # documents are compared with their cold twins.
    rng = random.Random(f"serve/{seed}")
    axes = {
        "app": ["jacobi", "cg"],
        "backend": ["mpi", "gpuccl", "gpushmem"],
        "gpus": [2] if toy else [2, 4, 8],
        "iters": rng.choice([[3, 6], [4, 5]]),
        "size": [32] if toy else rng.choice([[32, 56], [40, 48], [32, 48], [40, 56]]),
    }
    names = list(axes)
    rng.shuffle(names)
    tokens = []
    for name in names:
        values = list(axes[name])
        rng.shuffle(values)
        tokens.append(f"{name}=" + ",".join(str(v) for v in values))
    return {"sweep": tokens, "seed": rng.randrange(1 << 30),
            "commands": 1 if toy or workload == "serve_cold" else 4}
