"""Cluster topology descriptions.

The paper's testbed (§VI): two physical machines, each with an Intel Xeon
W-2102 (4 cores, no SMT) and 16 GB of RAM, connected by a 1 Gbps Ethernet
switch. :func:`paper_testbed` builds exactly that; arbitrary homogeneous
and heterogeneous clusters can be described for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NodeSpec", "LinkSpec", "ClusterSpec", "paper_testbed", "grid_cluster"]


@dataclass(frozen=True)
class NodeSpec:
    """A physical machine."""

    name: str
    n_cores: int = 4
    #: relative per-core speed multiplier (1.0 = the paper's Xeon W-2102)
    core_speed: float = 1.0
    memory_gb: float = 16.0

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("a node needs at least one core")
        if self.core_speed <= 0:
            raise ValueError("core_speed must be positive")


@dataclass(frozen=True)
class LinkSpec:
    """A (full-duplex) point-to-point network link between two nodes."""

    bandwidth_gbps: float = 1.0
    latency_s: float = 100e-6

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0 or self.latency_s < 0:
            raise ValueError("bandwidth must be positive, latency non-negative")

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    def transfer_time(self, n_bytes: float) -> float:
        """Serialization + propagation time for one message."""
        if n_bytes < 0:
            raise ValueError("message size must be non-negative")
        return self.latency_s + n_bytes / self.bytes_per_second


@dataclass(frozen=True)
class ClusterSpec:
    """A set of nodes joined by a uniform switch."""

    nodes: tuple[NodeSpec, ...]
    link: LinkSpec = field(default_factory=LinkSpec)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def grid_cluster(
    n_nodes: int,
    cores_per_node: int = 4,
    core_speed: float = 1.0,
    bandwidth_gbps: float = 1.0,
    latency_s: float = 100e-6,
    memory_gb: float = 16.0,
) -> ClusterSpec:
    """A homogeneous cluster of arbitrary size.

    The paper's §VII future work plans scaling the methodology to a
    large-scale testbed (Grid'5000); this builder describes such clusters
    for the scale-up experiments in ``benchmarks/test_bench_scaleup.py``.
    """
    if n_nodes < 1:
        raise ValueError("cluster needs at least one node")
    nodes = tuple(
        NodeSpec(
            name=f"node{i}",
            n_cores=cores_per_node,
            core_speed=core_speed,
            memory_gb=memory_gb,
        )
        for i in range(n_nodes)
    )
    return ClusterSpec(
        nodes=nodes, link=LinkSpec(bandwidth_gbps=bandwidth_gbps, latency_s=latency_s)
    )


def paper_testbed(n_nodes: int = 2) -> ClusterSpec:
    """The paper's evaluation cluster: ``n_nodes`` × Xeon W-2102, 1 GbE."""
    if not 1 <= n_nodes <= 2:
        # the paper owns exactly two machines; larger clusters are custom
        raise ValueError("the paper's testbed has 1 or 2 nodes; build a ClusterSpec directly")
    nodes = tuple(
        NodeSpec(name=f"node{i}", n_cores=4, core_speed=1.0, memory_gb=16.0)
        for i in range(n_nodes)
    )
    return ClusterSpec(nodes=nodes, link=LinkSpec(bandwidth_gbps=1.0, latency_s=100e-6))
