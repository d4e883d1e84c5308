#!/usr/bin/env python
"""Jacobi surviving a transient link outage (docs/FAULTS.md walkthrough).

Three runs of the same 4-GPU MPI Jacobi solve:

1. healthy baseline (``mpi-native``);
2. the same solver under a transient message-drop window — the MPI
   transport retransmits with exponential backoff and the run just takes
   longer;
3. a harsher fault (tiny retry budget, longer window) under the elastic
   Uniconn variant ``elastic:mpi`` — exchanges give up with
   ``MpiTimeoutError``, the ranks vote the iteration failed, rebuild the
   communicator (nobody died, so it keeps its size), roll back to the last
   in-memory checkpoint, and replay after the outage clears.

Every run is verified bitwise against the serial reference: recovery slows
the virtual clock but never changes the numerics. The fault schedule is
deterministic (same plan + seed => same log), so the printed timings are
reproducible.

Usage:  python examples/jacobi_fault_recovery.py [gpus] [grid]
        e.g.  python examples/jacobi_fault_recovery.py 4 64
"""

import sys

import numpy as np

from repro.apps.jacobi import (
    JacobiConfig,
    assemble,
    launch_variant,
    serial_jacobi,
)

gpus = int(sys.argv[1]) if len(sys.argv) > 1 else 4
n = int(sys.argv[2]) if len(sys.argv) > 2 else 64

# A message-drop window on the application's halo traffic (tag 0). MPI
# internal collectives use negative tags, so the control plane stays up.
TRANSIENT = "drop,tag=0,start=2e-5,end=6e-5"
# Same outage, but the transport gives up after 2 retries -- only the
# checkpointing solver survives this one.
HARSH = "drop,tag=0,start=1e-4,end=6e-4;retry,base=1e-5,max=2"


def main():
    cfg = JacobiConfig(nx=n, ny=n + 2, iters=12, warmup=2)
    reference = serial_jacobi(cfg, iters=cfg.warmup + cfg.iters)

    runs = [
        ("mpi-native", None, "healthy baseline"),
        ("mpi-native", TRANSIENT, "transient drops -> MPI retransmission"),
        ("elastic:mpi", HARSH, "harsh outage -> checkpoint rollback"),
    ]
    print(f"Jacobi {cfg.nx}x{cfg.ny}, {cfg.iters} iters on {gpus} GPUs (perlmutter)")
    print(f"{'scenario':42s} {'virtual time':>13s} {'faults':>7s} {'rollbacks':>10s}")
    for variant, plan, label in runs:
        results = launch_variant(variant, cfg, gpus, collect=True,
                                 fault_plan=plan, fault_seed=1)
        ok = np.array_equal(assemble(cfg, results), reference)
        assert ok, f"{label}: diverged from the serial reference"
        n_faults = len(results.faults)
        restarts = max(r.restarts for r in results)
        print(f"{label:42s} {results.stats['virtual_time'] * 1e3:10.4f} ms "
              f"{n_faults:>7d} {restarts:>10d}")
    print("all runs bitwise-identical to the serial solver; "
          "faults cost time, never correctness")


if __name__ == "__main__":
    main()
