"""Invoker (worker node) model.

An invoker is a computing node managed by the controller: it owns a fixed
number of vCPUs and one GPU partitioned into vGPUs (Table 2: 16 nodes, each
with 16 vCPUs and one A100 split into up to 7 MIG instances).  The paper's
resource model (Section 3.2) makes one vGPU one MIG slice; slices are
interchangeable thanks to MIG's hardware isolation, so the node tracks only
how many of each resource are reserved.  The invoker is the one owner of
those reservations and of its pool of containers (warm, busy, starting)
per function: every change to either goes through a method here.

Container and capacity state is maintained *incrementally*: the invoker
keeps one live (non-stopped) container list and a resident-candidate count
per function, updated by container lifecycle notifications, and reports
capacity and container-population changes to the owning
:class:`~repro.cluster.cluster.ClusterState` so cluster-wide queries (warm
sets, free-capacity lookups, container counts) never have to rescan every
node.  Queries iterate only live containers: a stopped container can never
satisfy any residency predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.container import DEFAULT_KEEP_ALIVE_MS, Container, ContainerState
from repro.profiles.configuration import Configuration
from repro.utils.validation import ensure_positive_int

__all__ = ["Invoker"]

#: States in which a container makes its function *resident* on the node
#: (warm starts possible; tracked by the cluster's per-function warm index).
_RESIDENT_STATES = (ContainerState.WARM, ContainerState.BUSY)

_STARTING = ContainerState.STARTING


@dataclass
class Invoker:
    """One worker node with vCPU/vGPU accounting and a container pool."""

    invoker_id: int
    total_vcpus: int = 16
    #: MIG slices of the node's GPU.
    total_vgpus: int = 7
    keep_alive_ms: float = DEFAULT_KEEP_ALIVE_MS
    #: False once the node has left the cluster (churn eviction).  Departed
    #: invokers stay in the cluster's list as zero-capacity tombstones so
    #: invoker ids remain stable; placement paths skip them because nothing
    #: fits on zero capacity.
    active: bool = True
    _used_vcpus: int = field(default=0, repr=False)
    _used_vgpus: int = field(default=0, repr=False)
    #: Live (non-stopped) containers per function, in insertion order.
    _live: dict[str, list[Container]] = field(default_factory=dict, repr=False)
    #: Number of WARM/BUSY containers per function (warm-index candidates).
    _resident_candidates: dict[str, int] = field(default_factory=dict, repr=False)
    #: Cluster callback: ``(invoker_id, free_vcpus, free_vgpus)`` after any
    #: free-capacity change.
    _on_capacity_change: Callable[[int, int, int], None] | None = field(
        default=None, repr=False, compare=False
    )
    #: Cluster callback: ``(invoker, function_name, live_delta)`` after any
    #: change to the function's container population on this node.
    _on_container_change: Callable[["Invoker", str, int], None] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ensure_positive_int(self.total_vcpus, "total_vcpus")
        ensure_positive_int(self.total_vgpus, "total_vgpus")

    # ------------------------------------------------------------------
    # Cluster wiring
    # ------------------------------------------------------------------
    def bind_cluster_callbacks(
        self,
        on_capacity_change: Callable[[int, int, int], None] | None,
        on_container_change: Callable[["Invoker", str, int], None] | None,
    ) -> None:
        """Install the owning cluster's index-maintenance callbacks."""
        self._on_capacity_change = on_capacity_change
        self._on_container_change = on_container_change

    def _capacity_changed(self) -> None:
        if self._on_capacity_change is not None:
            self._on_capacity_change(
                self.invoker_id,
                self.total_vcpus - self._used_vcpus,
                self.total_vgpus - self._used_vgpus,
            )

    def _containers_changed(self, function_name: str, live_delta: int) -> None:
        if self._on_container_change is not None:
            self._on_container_change(self, function_name, live_delta)

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    @property
    def used_vcpus(self) -> int:
        """vCPUs currently reserved by running tasks."""
        return self._used_vcpus

    @property
    def available_vcpus(self) -> int:
        """Free vCPUs."""
        return self.total_vcpus - self._used_vcpus

    @property
    def used_vgpus(self) -> int:
        """vGPUs (MIG slices) currently reserved by running tasks."""
        return self._used_vgpus

    @property
    def available_vgpus(self) -> int:
        """Free vGPUs."""
        return self.total_vgpus - self._used_vgpus

    def can_fit(self, config: Configuration) -> bool:
        """True if the node currently has the resources ``config`` needs."""
        return (
            config.vcpus <= self.total_vcpus - self._used_vcpus
            and config.vgpus <= self.total_vgpus - self._used_vgpus
        )

    def reserve(self, config: Configuration) -> None:
        """Reserve the resources of ``config``; raises if they do not fit.

        Nothing is reserved when either resource is short.
        """
        if not self.can_fit(config):
            raise RuntimeError(
                f"invoker {self.invoker_id}: cannot reserve {config.vcpus} vCPUs and "
                f"{config.vgpus} vGPUs, only {self.available_vcpus} of {self.total_vcpus} "
                f"vCPUs and {self.available_vgpus} of {self.total_vgpus} vGPUs are free"
            )
        self._used_vcpus += config.vcpus
        self._used_vgpus += config.vgpus
        self._capacity_changed()

    def release(self, config: Configuration) -> None:
        """Release resources previously reserved with :meth:`reserve`."""
        if config.vcpus > self._used_vcpus or config.vgpus > self._used_vgpus:
            raise RuntimeError(
                f"invoker {self.invoker_id}: cannot release {config.vcpus} vCPUs and "
                f"{config.vgpus} vGPUs, only {self._used_vcpus} vCPUs and "
                f"{self._used_vgpus} vGPUs are reserved"
            )
        self._used_vcpus -= config.vcpus
        self._used_vgpus -= config.vgpus
        self._capacity_changed()

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def start_task(
        self, function_name: str, config: Configuration, now_ms: float, cold_start_ms: float
    ) -> tuple[Container, float]:
        """Seat one task of the function and reserve ``config`` for it.

        A resident (warm or busy) container takes the task as a warm start;
        otherwise a new container cold-starts here and is warm
        ``cold_start_ms`` from now.  Returns the container and the cold
        start the task pays (``0.0`` for a warm start).  Raises, changing
        nothing, if ``config`` does not fit.
        """
        self.reserve(config)
        container = self.resident_container(function_name, now_ms)
        if container is None:
            container = self.start_container(function_name, now_ms + cold_start_ms)
        else:
            cold_start_ms = 0.0
        container.assign_task()
        return container, cold_start_ms

    def finish_task(self, container: Container, config: Configuration, now_ms: float) -> None:
        """Release a finished task's resources and its seat in ``container``."""
        self.release(config)
        container.release_task(now_ms, self.keep_alive_ms)

    # ------------------------------------------------------------------
    # Fragmentation / utilization metrics (used by baseline placement)
    # ------------------------------------------------------------------
    @property
    def cpu_utilization(self) -> float:
        """Fraction of vCPUs in use."""
        return self._used_vcpus / self.total_vcpus

    @property
    def gpu_utilization(self) -> float:
        """Fraction of vGPUs in use."""
        return self._used_vgpus / self.total_vgpus

    # ------------------------------------------------------------------
    # Containers
    # ------------------------------------------------------------------
    def containers_for(self, function_name: str) -> list[Container]:
        """All (non-stopped) containers of ``function_name`` on this node."""
        return list(self._live.get(function_name, ()))

    def container_count(self, function_name: str) -> int:
        """Number of live (non-stopped) containers of the function."""
        return len(self._live.get(function_name, ()))

    def resident_candidate_count(self, function_name: str) -> int:
        """Number of WARM/BUSY containers of the function (warm-index state)."""
        return self._resident_candidates.get(function_name, 0)

    def resident_container(self, function_name: str, now_ms: float) -> Container | None:
        """Return a resident (warm or busy) container for the function, or ``None``."""
        for container in self._live.get(function_name, ()):
            if container.is_resident(now_ms):
                return container
        return None

    def has_warm_container(self, function_name: str, now_ms: float) -> bool:
        """True if a warm-start is possible for the function right now."""
        return self.resident_container(function_name, now_ms) is not None

    def has_any_container(self, function_name: str, now_ms: float) -> bool:
        """True if the function has a resident or starting container on this node."""
        for container in self._live.get(function_name, ()):
            if container.state is _STARTING or container.is_resident(now_ms):
                return True
        return False

    def add_container(self, container: Container) -> None:
        """Register a container on this node."""
        if container.invoker_id != self.invoker_id:
            raise ValueError(
                f"container belongs to invoker {container.invoker_id}, not {self.invoker_id}"
            )
        name = container.function_name
        if container.state != ContainerState.STOPPED:
            self._live.setdefault(name, []).append(container)
            if container.state in _RESIDENT_STATES:
                self._resident_candidates[name] = self._resident_candidates.get(name, 0) + 1
            container.bind_listener(self._container_state_changed)
            self._containers_changed(name, +1)

    def _container_state_changed(
        self, container: Container, old: ContainerState, new: ContainerState
    ) -> None:
        """Keep the live list and resident-candidate counts consistent."""
        name = container.function_name
        delta = 0
        if new == ContainerState.STOPPED:
            live = self._live.get(name, [])
            for index, candidate in enumerate(live):
                if candidate is container:
                    del live[index]
                    delta = -1
                    break
            if old in _RESIDENT_STATES:
                self._resident_candidates[name] = self._resident_candidates.get(name, 1) - 1
        elif old == ContainerState.STARTING and new in _RESIDENT_STATES:
            self._resident_candidates[name] = self._resident_candidates.get(name, 0) + 1
        self._containers_changed(name, delta)

    def start_container(self, function_name: str, warm_at_ms: float) -> Container:
        """Create a container that cold-starts and is warm at ``warm_at_ms``."""
        container = Container(
            function_name=function_name,
            invoker_id=self.invoker_id,
            state=_STARTING,
            warm_at_ms=warm_at_ms,
        )
        self.add_container(container)
        return container

    def create_warm_container(self, function_name: str, now_ms: float) -> Container:
        """Create a container that is already warm (used for initial warm pools)."""
        container = Container(
            function_name=function_name,
            invoker_id=self.invoker_id,
            state=ContainerState.WARM,
            warm_at_ms=now_ms,
        )
        container.mark_warm(now_ms, self.keep_alive_ms)
        self.add_container(container)
        return container

    # ------------------------------------------------------------------
    # Membership churn
    # ------------------------------------------------------------------
    def leave(self) -> list[Container]:
        """Leave the cluster: force-stop every live container, zero the capacity.

        Returns the containers that were dropped, in per-function insertion
        order.  Copies are required: :meth:`Container.mark_evicted` fires the
        state listener, which mutates ``_live`` while we iterate.  The node
        stays a zero-capacity tombstone (``active`` False).
        """
        evicted: list[Container] = [
            container
            for containers in list(self._live.values())
            for container in list(containers)
        ]
        for container in evicted:
            container.mark_evicted()
        self.total_vcpus = 0
        self.total_vgpus = 0
        self._used_vcpus = 0
        self._used_vgpus = 0
        self.active = False
        self._capacity_changed()
        return evicted

    def resize(self, vcpus: int, vgpus: int) -> tuple[int, int]:
        """Re-target the node's capacity (harvested-VM shrink/grow).

        Clamped to ``max(1, target, in_use)``: harvesting only takes idle
        resources, never cores or slices under running tasks.  Returns the
        applied ``(vcpus, vgpus)``; a departed node is left untouched.
        """
        if self.active:
            self.total_vcpus = max(1, vcpus, self._used_vcpus)
            self.total_vgpus = max(1, vgpus, self._used_vgpus)
            self._capacity_changed()
        return (self.total_vcpus, self.total_vgpus)
