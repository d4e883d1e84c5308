"""The elastic recovery loop shared by the fault-tolerant applications.

One :class:`ElasticLoop` drives the ULFM-style recovery cycle around an
application's iteration body::

    try body -> agree -> commit        (healthy path: one extra consensus)
                      -> revoke -> shrink -> rebuild -> replay   (recovery)

The loop owns the current :class:`~repro.core.Communicator` (replacing it
on every shrink), counts recoveries against a budget, and calls back into
the application to rebuild its solver state over the surviving ranks from
its last *committed* checkpoint. Staged-but-uncommitted work is discarded
by construction: a checkpoint only commits after the ``agree`` that covers
the iteration which staged it, so no rank ever adopts data a dead peer
half-sent.

Determinism: everything here runs on the virtual clock with decisions
drawn from the seeded injector RNG, so a recovery schedule — which
iteration fails, who survives, how many replays happen — is a pure
function of (fault spec, seed, program).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..errors import (
    CommRevokedError,
    FaultInjectionError,
    GpucclError,
    GpushmemError,
    MpiTimeoutError,
    SimTimeoutError,
)
from ..obs import span

__all__ = ["RECOVERABLE_ERRORS", "ElasticLoop"]

#: Errors an elastic application treats as "this iteration failed, vote no":
#: backend communication failures, watchdog-delivered hangs, and revocation
#: raised by a peer that detected the fault first. Anything else (including
#: :class:`~repro.errors.DeadlockError`) stays fatal.
RECOVERABLE_ERRORS: Tuple[type, ...] = (
    MpiTimeoutError,
    GpucclError,
    GpushmemError,
    SimTimeoutError,
    CommRevokedError,
)


class ElasticLoop:
    """Drives try-step / agree / revoke-shrink-rebuild for one rank.

    ``rebuild(comm, generation)`` is the application callback: given the
    shrunken communicator and the new generation number it must restore the
    solver state from the last committed checkpoint (re-partition, refill
    buffers, fresh stream/Coordinator). All surviving ranks execute the
    loop in lockstep — ``agree``/``shrink`` are collective.
    """

    def __init__(
        self,
        comm,
        rebuild: Callable[[object, int], None],
        *,
        max_recoveries: int = 16,
        label: str = "elastic",
    ):
        self.comm = comm
        self._rebuild = rebuild
        self.max_recoveries = max_recoveries
        self.label = label
        self.generation = 0
        self.recoveries = 0
        self.ranks_lost = 0
        self.last_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #

    def run_step(self, body: Callable[[], None]) -> bool:
        """Run one recoverable iteration; True iff every member committed.

        The body must leave no work silently in flight (synchronize its
        stream) so a communication failure surfaces *inside* the try. On a
        failed vote the loop recovers (revoke, shrink, application rebuild)
        and returns False — the caller replays from its checkpoint.
        """
        failed = False
        try:
            body()
        except RECOVERABLE_ERRORS as exc:
            failed = True
            # Kept for the messages below, without its traceback: those
            # frames hold this loop and every buffer of the failed step.
            self.last_error = exc.with_traceback(None)
        if self.comm.agree(not failed):
            return True
        self.recover()
        return False

    def recover(self) -> None:
        """One revoke/shrink/rebuild cycle (collective over survivors)."""
        self.recoveries += 1
        if self.recoveries > self.max_recoveries:
            raise FaultInjectionError(
                f"{self.label}: exceeded {self.max_recoveries} recoveries at "
                f"t={self.comm.engine.now:.9g}s — injected fault is not "
                f"survivable (last error: {self.last_error!r})"
            )
        engine = self.comm.engine
        reason = (
            f"{self.label} recovery #{self.recoveries}"
            f" ({type(self.last_error).__name__})"
            if self.last_error is not None
            else f"{self.label} recovery #{self.recoveries}"
        )
        ctx = (
            span(engine, "recover", cat="recover", rank=self.comm.global_rank(),
                 backend=self.comm.backend.name, generation=self.generation + 1)
            if engine.obs_spans and engine.trace_hook is not None
            else None
        )
        if ctx is None:
            self._recover_inner(reason)
        else:
            with ctx:
                self._recover_inner(reason)

    def _recover_inner(self, reason: str) -> None:
        old_size = self.comm.global_size()
        self.comm.revoke(reason)
        self.comm = self.comm.shrink()
        self.generation += 1
        lost = old_size - self.comm.global_size()
        self.ranks_lost += lost
        injector = self.comm.engine.fault_injector
        if injector is not None and self.comm.global_rank() == 0:
            injector.record(
                "recover.rebuild",
                label=self.label,
                generation=self.generation,
                survivors=self.comm.global_size(),
                lost=lost,
            )
        self._rebuild(self.comm, self.generation)
