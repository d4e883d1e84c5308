#!/usr/bin/env python
"""Quickstart: the Uniconn API in ~40 lines.

Runs four simulated ranks on a Perlmutter-like node, performs a ring halo
exchange with Post/Acknowledge and an AllReduce — the same application code
works over any backend; change BACKEND below (or pass it as argv[1]) to
"mpi", "mpi-rma", "gpuccl", or "gpushmem" and nothing else changes.

Usage:  python examples/quickstart.py [backend]
"""

import sys

import numpy as np

from repro import Communicator, Coordinator, Environment, Memory, launch

BACKEND = sys.argv[1] if len(sys.argv) > 1 else "gpuccl"


def app(ctx):
    # Setup (paper Listing 4): Environment -> device -> Communicator.
    # Both are context managers; teardown happens in reverse order on exit.
    with Environment(ctx, backend=BACKEND) as env:
        env.set_device(env.node_rank())
        with Communicator(env) as comm:
            stream = env.device.create_stream()
            coord = Coordinator(env, stream=stream)

            p, me = comm.global_size(), comm.global_rank()
            right, left = (me + 1) % p, (me - 1 + p) % p

            # Communication buffers come from Memory (symmetric under GPUSHMEM).
            send = Memory.alloc(env, 4)
            recv = Memory.alloc(env, 4)
            sig = (Memory.alloc(env, 1, dtype=np.uint64)
                   if coord.uses_signals else None)
            send.write(np.full(4, float(me), np.float32))
            comm.barrier(stream=stream)

            # One halo exchange: Post to the right, Acknowledge from the left.
            coord.comm_start()
            coord.post(send, recv, 4, sig, 1, right, comm)
            coord.acknowledge(recv, 4, sig, 1, left, comm)
            coord.comm_end()

            # And a collective: global sum of the rank ids.
            total = Memory.alloc(env, 1)
            mine = Memory.alloc(env, 1)
            mine.write(np.array([float(me)], np.float32))
            coord.all_reduce(mine, total, 1, "sum", comm)

            stream.synchronize()
            return me, recv.read()[0], total.read()[0]


def main():
    print(f"backend = {BACKEND}")
    results = launch(app, n_ranks=4, machine="perlmutter")
    for me, got, total in results:
        print(f"  rank {me}: received {got:.0f} from the left,  sum(ranks) = {total:.0f}")
    assert all(total == 6.0 for _, _, total in results)
    print("OK")


if __name__ == "__main__":
    main()
