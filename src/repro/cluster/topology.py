"""Named cluster topologies: cluster size as a first-class sweep axis.

The paper evaluates on one fixed testbed (Table 2: 16 nodes x 16 vCPUs x 7
vGPUs).  A :class:`ClusterTopology` names a cluster shape as plain picklable
data so experiments can sweep it like any other axis — a scenario can pin a
topology, the CLI can override it (``--topology``, ``--num-invokers``), and
``benchmarks/bench_cluster_scale.py`` sweeps it from the paper's 16 nodes to
1024.

Topologies resolve to the :class:`~repro.cluster.cluster.ClusterConfig`
carried by :class:`~repro.cluster.simulator.SimulationConfig`; they add the
registry/parsing layer (names and ``NxCxG`` specs) on top.

Examples
--------
>>> get_topology("paper-16").num_invokers
16
>>> parse_topology("256x16x7").name
'256x16x7'
>>> parse_topology("64").num_invokers
64
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cluster.cluster import ClusterConfig
from repro.cluster.container import DEFAULT_KEEP_ALIVE_MS
from repro.utils.validation import ensure_positive, ensure_positive_int

__all__ = [
    "ClusterTopology",
    "TOPOLOGIES",
    "TopologyRegistry",
    "register_topology",
    "get_topology",
    "topology_names",
    "parse_topology",
]


@dataclass(frozen=True)
class ClusterTopology:
    """One named, picklable cluster shape."""

    name: str
    num_invokers: int
    vcpus_per_invoker: int = 16
    vgpus_per_invoker: int = 7
    keep_alive_ms: float = DEFAULT_KEEP_ALIVE_MS
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topology name must be non-empty")
        ensure_positive_int(self.num_invokers, "num_invokers")
        ensure_positive_int(self.vcpus_per_invoker, "vcpus_per_invoker")
        ensure_positive_int(self.vgpus_per_invoker, "vgpus_per_invoker")
        ensure_positive(self.keep_alive_ms, "keep_alive_ms")

    @property
    def total_vcpus(self) -> int:
        """Aggregate vCPU capacity."""
        return self.num_invokers * self.vcpus_per_invoker

    @property
    def total_vgpus(self) -> int:
        """Aggregate vGPU capacity."""
        return self.num_invokers * self.vgpus_per_invoker

    def to_cluster_config(self) -> ClusterConfig:
        """Resolve to the :class:`ClusterConfig` the simulator consumes."""
        return ClusterConfig(
            num_invokers=self.num_invokers,
            vcpus_per_invoker=self.vcpus_per_invoker,
            vgpus_per_invoker=self.vgpus_per_invoker,
            keep_alive_ms=self.keep_alive_ms,
        )


class TopologyRegistry:
    """Name -> :class:`ClusterTopology` mapping with informative failures."""

    def __init__(self) -> None:
        self._topologies: dict[str, ClusterTopology] = {}

    def register(self, topology: ClusterTopology, *, replace: bool = False) -> ClusterTopology:
        """Add ``topology`` under its name; refuses silent redefinition."""
        if topology.name in self._topologies and not replace:
            raise ValueError(
                f"topology {topology.name!r} is already registered; "
                f"pass replace=True to override"
            )
        self._topologies[topology.name] = topology
        return topology

    def get(self, name: str) -> ClusterTopology:
        """Look up a topology, listing the known names on failure."""
        try:
            return self._topologies[name]
        except KeyError:
            raise KeyError(
                f"unknown topology {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """All registered names, in registration order."""
        return list(self._topologies)

    def __iter__(self) -> Iterator[ClusterTopology]:
        return iter(self._topologies.values())

    def __len__(self) -> int:
        return len(self._topologies)

    def __contains__(self, name: str) -> bool:
        return name in self._topologies


#: The process-wide registry the CLI, scenarios and benchmarks consult.
TOPOLOGIES = TopologyRegistry()


def register_topology(topology: ClusterTopology, *, replace: bool = False) -> ClusterTopology:
    """Register ``topology`` in the global :data:`TOPOLOGIES` registry."""
    return TOPOLOGIES.register(topology, replace=replace)


def get_topology(name: str | ClusterTopology) -> ClusterTopology:
    """Resolve a topology name (or pass a topology object through)."""
    if isinstance(name, ClusterTopology):
        return name
    return TOPOLOGIES.get(name)


def topology_names() -> list[str]:
    """Names in the global :data:`TOPOLOGIES` registry."""
    return TOPOLOGIES.names()


def parse_topology(spec: str) -> ClusterTopology:
    """Parse a CLI topology spec: a registered name, ``N``, or ``NxCxG``.

    ``N`` scales the node count keeping the paper's per-node shape;
    ``NxCxG`` sets nodes, vCPUs per node and vGPUs per node explicitly.
    """
    spec = spec.strip()
    if spec in TOPOLOGIES:
        return TOPOLOGIES.get(spec)
    parts = spec.lower().split("x")
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise ValueError(
            f"invalid topology spec {spec!r}: expected a registered name "
            f"({', '.join(topology_names())}), an invoker count N, or NxCxG"
        ) from None
    if len(numbers) == 1:
        return ClusterTopology(name=spec, num_invokers=numbers[0])
    if len(numbers) == 3:
        return ClusterTopology(
            name=spec,
            num_invokers=numbers[0],
            vcpus_per_invoker=numbers[1],
            vgpus_per_invoker=numbers[2],
        )
    raise ValueError(f"invalid topology spec {spec!r}: expected N or NxCxG")


def _register_builtin_topologies() -> None:
    register_topology(
        ClusterTopology(
            name="paper-16",
            num_invokers=16,
            description="Table 2 testbed: 16 nodes x 16 vCPUs x 7 MIG vGPUs",
        )
    )
    register_topology(
        ClusterTopology(
            name="rack-64",
            num_invokers=64,
            description="One rack: 4x the paper testbed",
        )
    )
    register_topology(
        ClusterTopology(
            name="pod-256",
            num_invokers=256,
            description="One pod: 16x the paper testbed",
        )
    )
    register_topology(
        ClusterTopology(
            name="datacenter-1024",
            num_invokers=1024,
            description="Scale-out target: 64x the paper testbed",
        )
    )


_register_builtin_topologies()
