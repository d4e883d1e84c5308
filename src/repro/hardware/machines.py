"""Machine presets for the three supercomputers in Table I of the paper.

All wire-level numbers are derived from the table (NVLink 3.0 ~100 GB/s,
Infinity Fabric 50 GB/s/link, NVLink 4.0 ~150 GB/s, 4x 200 Gb/s NICs per
node) and from published microbenchmark studies of these systems; the
per-library software costs are calibrated so that the *shape* of the paper's
Fig. 2 holds (see DESIGN.md section 4). Absolute values are approximate by
design — the reproduction targets relative behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .gpu import GpuModel
from .profiles import GpucclProfile, GpushmemProfile, MpiProfile, UniconnCosts

__all__ = ["MachineSpec", "perlmutter", "lumi", "marenostrum5", "get_machine", "MACHINES"]


@dataclass(frozen=True)
class MachineSpec:
    """Everything the simulator needs to know about one supercomputer."""

    name: str
    gpus_per_node: int
    gpu: GpuModel
    # Intra-node GPU-GPU channel (NVLink / Infinity Fabric), per directed pair.
    intra_latency: float
    intra_bandwidth: float
    intra_msg_overhead: float
    # Per-GPU NIC and network fabric.
    nic_latency: float
    nic_bandwidth: float
    nic_msg_overhead: float
    fabric_latency: float
    # Software profiles; ``gpushmem`` is None where the table says N/A.
    mpi: MpiProfile
    gpuccl: GpucclProfile
    gpushmem: Optional[GpushmemProfile]
    # What the Uniconn wrapper layer itself charges (the same on every
    # preset); ``dataclasses.replace`` changes it for one run.
    uniconn: UniconnCosts = field(default_factory=UniconnCosts)
    notes: Tuple[str, ...] = field(default_factory=tuple)

    def has_gpushmem(self) -> bool:
        """Whether Table I lists a GPUSHMEM library for this machine."""
        return self.gpushmem is not None


_A100 = GpuModel(
    name="NVIDIA A100 40GB",
    mem_bandwidth=1.555e12,
    flop_rate=19.5e12,
    launch_overhead=3.5e-6,
    memcpy_overhead=6.0e-6,
    max_coop_blocks=1728,
    memory_bytes=40 * 2**30,
)

_MI250X_GCD = GpuModel(
    name="AMD MI250X (one GCD)",
    mem_bandwidth=1.6e12,
    flop_rate=23.9e12,
    launch_overhead=4.5e-6,
    memcpy_overhead=7.0e-6,
    max_coop_blocks=1760,
    memory_bytes=64 * 2**30,
)

_H100 = GpuModel(
    name="NVIDIA H100 64GB",
    mem_bandwidth=3.35e12,
    flop_rate=66.9e12,
    launch_overhead=3.0e-6,
    memcpy_overhead=5.0e-6,
    max_coop_blocks=2112,
    memory_bytes=64 * 2**30,
)


def perlmutter() -> MachineSpec:
    """NERSC Perlmutter GPU partition: 4x A100 + NVLink3 + Slingshot 11."""
    return MachineSpec(
        name="perlmutter",
        gpus_per_node=4,
        gpu=_A100,
        intra_latency=1.8e-6,
        intra_bandwidth=95.0e9,
        intra_msg_overhead=1.2e-7,
        nic_latency=1.1e-6,
        nic_bandwidth=23.0e9,
        nic_msg_overhead=2.0e-7,
        fabric_latency=0.8e-6,
        mpi=MpiProfile(
            host_call_overhead=4.0e-7,
            eager_threshold=8192,
            eager_copy_bandwidth=22.0e9,
            rendezvous_rtt_factor=2.0,
            progress_slice=2.0e-7,
            collective_call_overhead=8.0e-7,
        ),
        gpuccl=GpucclProfile(
            comm_launch_overhead=5.5e-6,
            per_op_overhead=6.0e-7,
            protocol_overhead=1.6e-6,
            ring_efficiency=0.92,
            bootstrap_overhead=2.5e-3,
        ),
        gpushmem=GpushmemProfile(
            host_post_overhead=1.4e-6,
            device_post_overhead=7.0e-7,
            warp_granularity_penalty=0.5,
            thread_granularity_penalty=0.08,
            signal_overhead=4.0e-7,
            proxy_overhead=4.5e-6,
            barrier_overhead=1.6e-6,
        ),
        notes=("Cray MPICH 8.1.30", "NCCL 2.24.3", "NVSHMEM 3.2.5", "CUDA 12.4"),
    )


def lumi(enable_rocshmem: bool = False) -> MachineSpec:
    """LUMI-G: 4x MI250X (8 GCDs seen as 8 GPUs) + Infinity Fabric + Slingshot.

    The HIP/ROCm stack treats each GCD as a separate GPU; like the paper we
    model ``gpus_per_node=8`` GCDs. RCCL on LUMI is known to be weak on
    small-message latency (paper Section II-C and [34]), which is captured
    by the large ``comm_launch_overhead``; GPUSHMEM is N/A (rocSHMEM was not
    mature, Table I).

    ``enable_rocshmem=True`` models the paper's *future work*: a rocSHMEM
    backend with the immature implementation's heavier software costs, so
    the GPUSHMEM code paths can be exercised on the AMD machine too.
    """
    rocshmem = GpushmemProfile(
        host_post_overhead=2.6e-6,
        device_post_overhead=1.6e-6,
        warp_granularity_penalty=0.4,
        thread_granularity_penalty=0.05,
        signal_overhead=9.0e-7,
        proxy_overhead=9.0e-6,
        barrier_overhead=3.0e-6,
        device_direct_discount=6.0e-7,
    )
    return MachineSpec(
        name="lumi",
        gpus_per_node=8,
        gpu=_MI250X_GCD,
        intra_latency=2.3e-6,
        intra_bandwidth=47.0e9,
        intra_msg_overhead=1.8e-7,
        nic_latency=1.2e-6,
        nic_bandwidth=23.0e9,
        nic_msg_overhead=2.2e-7,
        fabric_latency=0.8e-6,
        mpi=MpiProfile(
            host_call_overhead=4.5e-7,
            eager_threshold=8192,
            eager_copy_bandwidth=20.0e9,
            rendezvous_rtt_factor=2.0,
            progress_slice=2.2e-7,
            collective_call_overhead=9.0e-7,
        ),
        gpuccl=GpucclProfile(
            comm_launch_overhead=1.4e-5,
            per_op_overhead=9.0e-7,
            protocol_overhead=3.0e-6,
            ring_efficiency=0.86,
            bootstrap_overhead=3.0e-3,
        ),
        gpushmem=rocshmem if enable_rocshmem else None,
        notes=("Cray MPICH 8.1.29", "RCCL 2.18.3", "ROCm 6.0.3")
        + (("rocSHMEM (experimental)",) if enable_rocshmem else ("GPUSHMEM N/A",)),
    )


def marenostrum5() -> MachineSpec:
    """MareNostrum5 ACC: 4x H100 + NVLink4 + NDR InfiniBand + OpenMPI 4.1."""
    return MachineSpec(
        name="marenostrum5",
        gpus_per_node=4,
        gpu=_H100,
        intra_latency=1.5e-6,
        intra_bandwidth=140.0e9,
        intra_msg_overhead=1.0e-7,
        nic_latency=1.0e-6,
        nic_bandwidth=23.5e9,
        nic_msg_overhead=1.8e-7,
        fabric_latency=1.0e-6,
        mpi=MpiProfile(
            host_call_overhead=6.0e-7,
            eager_threshold=12288,
            eager_copy_bandwidth=24.0e9,
            rendezvous_rtt_factor=2.2,
            progress_slice=2.5e-7,
            collective_call_overhead=1.1e-6,
        ),
        gpuccl=GpucclProfile(
            comm_launch_overhead=5.0e-6,
            per_op_overhead=5.5e-7,
            protocol_overhead=1.5e-6,
            ring_efficiency=0.93,
            bootstrap_overhead=2.5e-3,
        ),
        gpushmem=GpushmemProfile(
            host_post_overhead=1.5e-6,
            device_post_overhead=6.5e-7,
            warp_granularity_penalty=0.5,
            thread_granularity_penalty=0.08,
            signal_overhead=4.0e-7,
            proxy_overhead=5.0e-6,
            barrier_overhead=1.5e-6,
        ),
        notes=("OpenMPI 4.1", "NCCL 2.18.5", "NVSHMEM 3.1.7", "CUDA 12.6"),
    )


MACHINES: Dict[str, object] = {
    "perlmutter": perlmutter,
    "lumi": lumi,
    "marenostrum5": marenostrum5,
}


def get_machine(name: str) -> MachineSpec:
    """Look up a machine preset by name (case-insensitive)."""
    try:
        factory = MACHINES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown machine {name!r}; known: {sorted(MACHINES)}") from None
    return factory()  # type: ignore[operator]
