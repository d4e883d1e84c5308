"""GPUSHMEM teams and collectives.

Where NVSHMEM lacks a native algorithm, it composes collectives from
put/get plus barriers (paper Section V-A); the cost model here reflects
that: log2(p) tree rounds of puts over the team's slowest path, plus
barrier costs. Collectives exist in three call flavours sharing one
rendezvous slot: blocking task calls (host API), stream-ordered ops
(``*_on_stream``), and device calls from inside kernels.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...errors import GpushmemError
from ...gpu.stream import ExternalOp, Stream
from ...coll import (CANONICAL_SHMEM_KINDS, CollSelection, ShmemModel,
                     Topology, model_for)
from ...sim import SimEvent
from ..common import BufferLike, FusedCollective, as_array

__all__ = ["ShmemTeam"]

#: What runs when no policy selects: the historical put-tree.
_TREE = CollSelection("tree")


class ShmemTeam:
    """A set of PEs (OpenSHMEM team). PE ids inside the team are dense."""

    def __init__(self, world, members: List[int], my_world_pe: int, team_key):
        self.world = world
        self.members = members
        try:
            self.my_pe = members.index(my_world_pe)
        except ValueError:
            raise GpushmemError(f"PE {my_world_pe} not in team") from None
        self.size = len(members)
        self.team_key = team_key
        self._seq = 0
        self._shared = world.board.once(("team_shared", team_key), dict)
        self._model: Optional[ShmemModel] = None

    @property
    def model(self) -> ShmemModel:
        """The team's shared timing model, on the Topology that owns its
        generated schedules (``model.topo``; see repro.coll.cost)."""
        if self._model is None:
            world = self.world
            # The board holds the topology (and closes it with the world);
            # the model is the one model_for keeps on it.
            self._model = model_for("gpushmem", world.board.once(
                ("team_topo", self.team_key),
                lambda: Topology(world.cluster,
                                 [world.gpu_of(pe) for pe in self.members])))
        return self._model

    def translate(self, team_pe: int) -> int:
        """Team PE id -> world PE id."""
        if not 0 <= team_pe < self.size:
            raise GpushmemError(f"team PE {team_pe} out of range [0,{self.size})")
        return self.members[team_pe]

    # ------------------------------------------------------------------ #

    def _slot(self, kind: str, count: int, op: Optional[str], root: Optional[int],
              algorithm: CollSelection) -> Tuple[FusedCollective, SimEvent]:
        """This call's rendezvous slot and the event its blocking (host
        API) callers wait on; stream callers pass a finisher instead."""
        self._seq += 1
        entry = self._shared.get(self._seq)
        if entry is None:
            # "tree" with no explicit protocol is the historical put-tree
            # formula; any other selection is priced over its generated
            # schedule with the chosen wire protocol and rail count.
            slot = FusedCollective(self.world.plane, self.size, self.model.duration,
                                   kind, count, op, root, algorithm)
            done = SimEvent(self.world.engine, name=f"shmem-{kind}")
            # Every member has looked the slot up by the time it completes:
            # it leaves the table then, snapshots and finishers with it.
            shared, seq = self._shared, self._seq
            slot.finishers += [lambda: shared.pop(seq), done.set]
            entry = shared[seq] = (slot, done)
        else:
            bad = entry[0].mismatch(kind, count, op, root, algorithm)
            if bad is not None:
                raise GpushmemError(
                    f"mismatched team collective: {bad[0]} vs {bad[1]}")
        return entry

    def run_collective(
        self,
        kind: str,
        send: Optional[BufferLike],
        recv,
        count: int,
        op: Optional[str] = None,
        root: Optional[int] = None,
        *,
        stream: Optional[Stream] = None,
        snapshot_count: Optional[int] = None,
    ):
        """Join a collective; blocks the task, or enqueues on ``stream``."""
        engine = self.world.engine
        algorithm = _TREE
        policy = engine.coll
        if policy is not None and self.size > 1:
            canonical = CANONICAL_SHMEM_KINDS.get(kind)
            if canonical is not None:
                itemsize = as_array(send).dtype.itemsize if send is not None else 1
                selected = policy.select("gpushmem", canonical,
                                         int(count * itemsize),
                                         self.model.topo, engine=engine)
                if selected is not None:
                    algorithm = selected
        metrics = engine.metrics
        if metrics.enabled:
            legacy_tree = algorithm == "tree" and algorithm.protocol is None
            algo_label = "put-tree" if legacy_tree else str(algorithm)
            metrics.inc("shmem_collectives_total", kind=kind,
                        algorithm=algo_label,
                        protocol=algorithm.protocol or "-",
                        channels=str(algorithm.channels),
                        team_size=self.size, rank=self.members[self.my_pe])
        slot, done = self._slot(kind, count, op, root, algorithm)
        n_snap = count if snapshot_count is None else snapshot_count
        team_pe = self.my_pe
        # NVSHMEM barrier semantics are quiet + sync: each PE completes its
        # own outstanding puts before arriving, so data movement closed by a
        # barrier (e.g. the put-composed allgather) is ordered before any
        # post-barrier access on every member.
        ctx = self.world.contexts.get(self.members[self.my_pe])
        outstanding = ctx._outstanding if (kind == "barrier" and ctx is not None) else None

        def arrive(finish=None) -> None:
            if team_pe in slot.records:
                raise GpushmemError(f"PE {team_pe} joined {kind} twice")
            slot.arrive(team_pe, send, n_snap, recv, finish)

        if stream is None:
            engine.settle()  # arrive at the caller's own time
            if outstanding is not None:
                outstanding.wait_for(lambda v: v == 0)
            arrive()
            done.wait()
            return None

        def on_start(op_handle: ExternalOp) -> None:
            def register() -> None:
                arrive(op_handle.finish)

            def ready() -> None:
                if outstanding is not None:
                    outstanding.watch(lambda v: v == 0, register)
                else:
                    register()

            self.world.engine.schedule(self.world.profile.host_post_overhead, ready)

        stream.enqueue(ExternalOp(self.world.engine, f"shmem-{kind}[pe{team_pe}]", on_start))
        return None

    def split(self, color: int, key: int = 0) -> "ShmemTeam":
        """Split into sub-teams (generalization of team_split_strided)."""
        self._seq += 1
        slot_key = ("team_split", self.team_key, self._seq)
        my_world = self.members[self.my_pe]
        payloads = self.world.board.gather(slot_key, self.my_pe, self.size, (color, key, my_world))
        group = sorted((p for p in payloads.values() if p[0] == color), key=lambda p: (p[1], p[2]))
        members = [g for _, _, g in group]
        return ShmemTeam(self.world, members, my_world, (slot_key, color))
