"""Cluster topology: nodes, GPUs, and routing between any two GPUs.

GPUs are identified by a *global* id ``0 .. n_gpus-1``; GPU ``g`` lives on
node ``g // gpus_per_node`` with local rank ``g % gpus_per_node`` (this is
the block placement every scheduler in the paper's experiments uses).

Routing:

- same GPU: a loopback channel at HBM speed (device-local copy);
- same node: a dedicated directed NVLink/Infinity-Fabric channel per GPU
  pair (switch-attached links, so distinct pairs do not contend, while two
  transfers between the same pair do);
- different nodes: source GPU's NIC egress -> network fabric -> destination
  GPU's NIC ingress. Each GPU owns one NIC (all three machines in Table I
  have one 200 Gb/s NIC per GPU), so inter-node transfers from/to the same
  GPU contend at its NIC.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from ..errors import HardwareError
from .link import Link, Path
from .machines import MachineSpec

__all__ = ["Cluster"]


class Cluster:
    """A set of nodes built from one :class:`MachineSpec`."""

    def __init__(self, machine: MachineSpec, n_nodes: int):
        if n_nodes < 1:
            raise HardwareError(f"n_nodes must be >= 1, got {n_nodes}")
        self.machine = machine
        self.n_nodes = n_nodes
        self.gpus_per_node = machine.gpus_per_node
        self.n_gpus = n_nodes * machine.gpus_per_node
        self._intra: Dict[Tuple[int, int], Link] = {}
        self._loop: Dict[int, Link] = {}
        self._nic_out: Dict[int, Link] = {}
        self._nic_in: Dict[int, Link] = {}
        self._paths: Dict[Tuple[int, int], Path] = {}
        # Fault-injection hook (repro.sim.faults): links are created lazily,
        # so an installed injector decorates each new link with its matching
        # fault windows here. None = healthy cluster, zero overhead.
        self.link_fault_hook: Optional[Callable[[Link], None]] = None

    def _register_link(self, link: Link) -> Link:
        """Run the fault hook (if any) over a freshly created link."""
        if self.link_fault_hook is not None:
            self.link_fault_hook(link)
        return link

    # ------------------------------------------------------------------ #
    # Placement helpers.
    # ------------------------------------------------------------------ #

    def check_gpu(self, gpu: int) -> int:
        """Validate a GPU id; returns it."""
        if not 0 <= gpu < self.n_gpus:
            raise HardwareError(f"gpu id {gpu} out of range [0, {self.n_gpus})")
        return gpu

    def node_of(self, gpu: int) -> int:
        """Node index of a GPU."""
        return self.check_gpu(gpu) // self.gpus_per_node

    def local_rank_of(self, gpu: int) -> int:
        """Node-local index of a GPU."""
        return self.check_gpu(gpu) % self.gpus_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when two GPUs share a node."""
        return self.node_of(a) == self.node_of(b)

    # ------------------------------------------------------------------ #
    # Links and routing.
    # ------------------------------------------------------------------ #

    def _loopback(self, gpu: int) -> Link:
        link = self._loop.get(gpu)
        if link is None:
            m = self.machine
            link = Link(
                name=f"loop[{gpu}]",
                latency=3.0e-7,
                bandwidth=m.gpu.mem_bandwidth / 2.0,  # read + write of HBM
                per_message_overhead=5.0e-8,
            )
            self._loop[gpu] = self._register_link(link)
        return link

    def _intra_link(self, src: int, dst: int) -> Link:
        key = (src, dst)
        link = self._intra.get(key)
        if link is None:
            m = self.machine
            link = Link(
                name=f"nvlink[{src}->{dst}]",
                latency=m.intra_latency,
                bandwidth=m.intra_bandwidth,
                per_message_overhead=m.intra_msg_overhead,
            )
            self._intra[key] = self._register_link(link)
        return link

    def nic_egress(self, gpu: int) -> Link:
        """The (shared, stateful) NIC egress link of a GPU."""
        link = self._nic_out.get(gpu)
        if link is None:
            m = self.machine
            link = Link(
                name=f"nic-out[{gpu}]",
                latency=m.nic_latency + m.fabric_latency,
                bandwidth=m.nic_bandwidth,
                per_message_overhead=m.nic_msg_overhead,
            )
            self._nic_out[gpu] = self._register_link(link)
        return link

    def nic_ingress(self, gpu: int) -> Link:
        """The (shared, stateful) NIC ingress link of a GPU."""
        link = self._nic_in.get(gpu)
        if link is None:
            m = self.machine
            link = Link(
                name=f"nic-in[{gpu}]",
                latency=m.nic_latency,
                bandwidth=m.nic_bandwidth,
                per_message_overhead=0.0,
            )
            self._nic_in[gpu] = self._register_link(link)
        return link

    def path(self, src: int, dst: int) -> Path:
        """The (cached, stateful) route from ``src`` to ``dst``."""
        key = (self.check_gpu(src), self.check_gpu(dst))
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        if src == dst:
            path = Path([self._loopback(src)])
        elif self.same_node(src, dst):
            path = Path([self._intra_link(src, dst)])
        else:
            path = Path([self.nic_egress(src), self.nic_ingress(dst)])
        self._paths[key] = path
        return path

    def links(self) -> Iterator[Link]:
        """All links materialised so far (lazy creation: only used ones)."""
        for coll in (self._intra, self._loop, self._nic_out, self._nic_in):
            yield from coll.values()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster {self.machine.name}: {self.n_nodes} nodes x "
            f"{self.gpus_per_node} GPUs ({self.machine.gpu.name})>"
        )
