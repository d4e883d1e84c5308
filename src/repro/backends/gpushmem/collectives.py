"""GPUSHMEM teams and collectives.

Where NVSHMEM lacks a native algorithm, it composes collectives from
put/get plus barriers (paper Section V-A); the cost model here reflects
that: log2(p) tree rounds of puts over the team's slowest path, plus
barrier costs. Collectives exist in three call flavours sharing one
rendezvous slot: blocking task calls (host API), stream-ordered ops
(``*_on_stream``), and device calls from inside kernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...errors import GpushmemError
from ...gpu.stream import ExternalOp, Stream
from ...coll import (CANONICAL_SHMEM_KINDS, CollSelection, ShmemModel,
                     Topology, model_for)
from ..common import BufferLike, apply_reduce, as_array

__all__ = ["ShmemTeam"]

#: What runs when no policy selects: the historical put-tree.
_TREE = CollSelection("tree")


class _Slot:
    """Rendezvous for one collective invocation on one team."""

    def __init__(self, world, team: "ShmemTeam", kind: str, count: int, op: Optional[str],
                 root: Optional[int], algorithm: CollSelection):
        self.world = world
        self.team = team
        self.kind = kind
        self.count = count
        self.op = op
        self.root = root
        # Selections carry protocol/channel knobs for the put-with-signal
        # rounds; the slot keys on all three (see check()).
        self.algorithm = str(algorithm)
        self.protocol = algorithm.protocol
        self.channels = algorithm.channels
        self.records: Dict[int, tuple] = {}
        self.finishers: List = []
        from ...sim import SimEvent

        self.done = SimEvent(world.engine, name=f"shmem-{kind}")

    def arrive(self, team_pe: int, snapshot: Optional[np.ndarray], recv_target, finish_cb=None) -> None:
        if (team_pe in self.records):
            raise GpushmemError(f"PE {team_pe} joined {self.kind} twice")
        san = self.world.engine.sanitizer
        if san is not None:
            # Every arrival happens-before the collective completes.
            san.release(self)
        self.records[team_pe] = (snapshot, recv_target)
        if finish_cb is not None:
            self.finishers.append(finish_cb)
        if len(self.records) == self.team.size:
            self._fire()

    def check(self, kind: str, count: int, op: Optional[str], root: Optional[int],
              algorithm: CollSelection) -> None:
        protocol, channels = algorithm.protocol, algorithm.channels
        if (kind, count, op, root, str(algorithm), protocol, channels) != (
                self.kind, self.count, self.op, self.root, self.algorithm,
                self.protocol, self.channels):
            raise GpushmemError(
                f"mismatched team collective: {kind}(count={count}, op={op}, root={root}, "
                f"algorithm={algorithm}, protocol={protocol}, channels={channels}) "
                f"vs {self.kind}(count={self.count}, op={self.op}, "
                f"root={self.root}, algorithm={self.algorithm}, "
                f"protocol={self.protocol}, channels={self.channels})"
            )

    def _fire(self) -> None:
        itemsize = 1
        for snap, _ in self.records.values():
            if snap is not None:
                itemsize = snap.dtype.itemsize
                break
        # "tree" with no explicit protocol is the historical put-tree
        # formula; any other selection is priced over its generated
        # schedule with the chosen wire protocol and rail count.
        duration = self.team.model.duration(self.kind, self.count * itemsize,
                                            self.algorithm, self.protocol,
                                            self.channels)

        epoch = self.world.engine.fence_epoch

        def complete() -> None:
            if self.world.engine.fence_epoch != epoch:
                # Fenced by a revoke before completion (see Engine.fence):
                # never apply results over the next generation's buffers.
                if self.world.engine.metrics.enabled:
                    self.world.engine.metrics.inc(
                        "fenced_deliveries_total", backend="gpushmem"
                    )
                return
            san = self.world.engine.sanitizer
            if san is not None:
                # Completion is ordered after every PE's arrival, not just
                # the last one (whose context this callback inherits).
                san.acquire(self)
            self._apply()
            self.done.set()
            for cb in self.finishers:
                cb()

        self.world.engine.schedule(duration, complete)

    def _apply(self) -> None:
        kind, count, p = self.kind, self.count, self.team.size
        if kind == "barrier":
            return
        san = self.world.engine.sanitizer

        def put(recv, n, payload) -> None:
            if san is not None:
                san.record(recv, "w", 0, n, note=f"shmem-{kind}")
            as_array(recv)[:n] = payload

        if kind in ("reduce", "allreduce"):
            total = self.records[0][0].copy()
            for r in range(1, p):
                apply_reduce(self.op, total, self.records[r][0])
            targets = self.records.items() if kind == "allreduce" else [(self.root, self.records[self.root])]
            for _, (_, recv) in targets:
                if recv is not None:
                    put(recv, count, total)
        elif kind == "broadcast":
            payload = self.records[self.root][0]
            for pe, (_, recv) in self.records.items():
                if recv is not None:
                    put(recv, count, payload)
        elif kind == "fcollect":
            gathered = np.concatenate([self.records[r][0] for r in range(p)])
            for _, (_, recv) in self.records.items():
                put(recv, count * p, gathered)
        elif kind == "reduce_scatter":
            total = self.records[0][0].copy()
            for r in range(1, p):
                apply_reduce(self.op, total, self.records[r][0])
            for pe, (_, recv) in self.records.items():
                put(recv, count, total[pe * count : (pe + 1) * count])
        elif kind == "alltoall":
            for dst in range(p):
                out = np.concatenate([self.records[src][0][dst * count : (dst + 1) * count] for src in range(p)])
                put(self.records[dst][1], count * p, out)
        else:  # pragma: no cover - guarded by ShmemModel
            raise GpushmemError(f"unknown collective kind {kind}")


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
            self._model = world.board.once(
                ("team_model", self.team_key),
                lambda: model_for("gpushmem", Topology(
                    world.cluster, [world.gpu_of(pe) for pe in self.members])))
        return self._model

    def translate(self, team_pe: int) -> int:
        """Team PE id -> world PE id."""
        if not 0 <= team_pe < self.size:
            raise GpushmemError(f"team PE {team_pe} out of range [0,{self.size})")
        return self.members[team_pe]

    # ------------------------------------------------------------------ #

    def _slot(self, kind: str, count: int, op: Optional[str], root: Optional[int],
              algorithm: CollSelection) -> _Slot:
        self._seq += 1
        slot = self._shared.get(self._seq)
        if slot is None:
            slot = _Slot(self.world, self, kind, count, op, root, algorithm)
            self._shared[self._seq] = slot
        else:
            slot.check(kind, count, op, root, algorithm)
        return slot

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
        slot = self._slot(kind, count, op, root, algorithm)
        n_snap = count if snapshot_count is None else snapshot_count
        team_pe = self.my_pe
        # NVSHMEM barrier semantics are quiet + sync: each PE completes its
        # own outstanding puts before arriving, so data movement closed by a
        # barrier (e.g. the put-composed allgather) is ordered before any
        # post-barrier access on every member.
        ctx = self.world.contexts.get(self.members[self.my_pe])
        outstanding = ctx._outstanding if (kind == "barrier" and ctx is not None) else None

        def snap():
            if send is None:
                return None
            san = engine.sanitizer
            if san is not None:
                san.record(send, "r", 0, n_snap, note=f"shmem-{kind}")
            return as_array(send, n_snap).copy()

        if stream is None:
            if outstanding is not None:
                outstanding.wait_for(lambda v: v == 0)
            slot.arrive(team_pe, snap(), recv)
            slot.done.wait()
            return None

        def on_start(op_handle: ExternalOp) -> None:
            def register() -> None:
                slot.arrive(team_pe, snap(), recv, finish_cb=op_handle.finish)

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
