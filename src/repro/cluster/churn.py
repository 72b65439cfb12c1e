"""Capacity churn: timed invoker join / leave / resize schedules.

The paper evaluates ESG on a fixed testbed, but the serverless platforms it
targets increasingly run on *harvested* capacity — Harvest VMs (SOSP'21,
"Faster and Cheaper Serverless Computing on Harvested Resources") grow and
shrink while they run and can be evicted outright.  This module models that
as a :class:`ChurnSchedule`: a seed-derived, picklable list of timed
:class:`ChurnAction` entries that the simulation turns into housekeeping
events (:class:`~repro.cluster.events.InvokerJoinEvent` /
:class:`~repro.cluster.events.InvokerLeaveEvent` /
:class:`~repro.cluster.events.InvokerResizeEvent`).

Determinism contract: a schedule is a pure function of
``(spec, seed, cluster_config)`` via :func:`repro.utils.rng.derive_rng`, so
the same experiment seed reproduces the same churn in every worker
process.

>>> from repro.cluster.cluster import ClusterConfig
>>> spec = get_churn_spec("harvest-mild")
>>> schedule = spec.build(seed=42, cluster_config=ClusterConfig())
>>> schedule == spec.build(seed=42, cluster_config=ClusterConfig())
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import ClusterConfig
    from repro.cluster.events import Event

__all__ = [
    "ChurnAction",
    "ChurnSchedule",
    "ChurnSpec",
    "CHURN_SPECS",
    "register_churn_spec",
    "get_churn_spec",
    "churn_spec_names",
    "resolve_churn",
]

#: Valid policies for in-flight work on an evicted node.
EVICTION_POLICIES = ("requeue", "fail")

_KINDS = ("join", "leave", "resize")


@dataclass(frozen=True)
class ChurnAction:
    """One timed cluster mutation.

    ``kind="join"`` adds a node (``vcpus``/``vgpus`` override the config's
    per-invoker shape when set); ``kind="leave"`` evicts ``invoker_id``;
    ``kind="resize"`` re-targets ``invoker_id`` to ``(vcpus, vgpus)``
    (harvested capacity shrink or grow).
    """

    time_ms: float
    kind: str
    invoker_id: int | None = None
    vcpus: int | None = None
    vgpus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown churn action kind {self.kind!r}; expected one of {_KINDS}")
        if self.time_ms < 0:
            raise ValueError(f"churn action time_ms must be >= 0, got {self.time_ms}")
        if self.kind in ("leave", "resize") and self.invoker_id is None:
            raise ValueError(f"churn action kind={self.kind!r} requires invoker_id")
        if self.kind == "resize" and (self.vcpus is None or self.vgpus is None):
            raise ValueError("churn action kind='resize' requires vcpus and vgpus")

    def to_event(self) -> "Event":
        """The housekeeping event that applies this action."""
        # Imported lazily so this module stays importable before the rest of
        # the cluster package: built-in scenarios resolve churn-spec names at
        # workloads import time, which can land mid-way through
        # ``repro.cluster.__init__`` (events -> tasks -> workloads cycle).
        from repro.cluster.events import (
            InvokerJoinEvent,
            InvokerLeaveEvent,
            InvokerResizeEvent,
        )

        if self.kind == "join":
            return InvokerJoinEvent(time_ms=self.time_ms, vcpus=self.vcpus, vgpus=self.vgpus)
        if self.kind == "leave":
            return InvokerLeaveEvent(time_ms=self.time_ms, invoker_id=self.invoker_id)
        return InvokerResizeEvent(
            time_ms=self.time_ms,
            invoker_id=self.invoker_id,
            vcpus=self.vcpus,
            vgpus=self.vgpus,
        )


@dataclass(frozen=True)
class ChurnSchedule:
    """A fully materialized, time-ordered churn plan for one run.

    Frozen and built from plain tuples so it pickles cleanly into spawn
    workers, and hashable/comparable so parity tests can assert two builds
    from the same seed are identical.
    """

    name: str
    actions: tuple[ChurnAction, ...]
    #: What happens to tasks in flight on an evicted node: ``"requeue"``
    #: puts their jobs back on the scheduling queues; ``"fail"`` terminates
    #: the owning requests with the ``evicted`` outcome.
    on_evict: str = "requeue"

    def __post_init__(self) -> None:
        if self.on_evict not in EVICTION_POLICIES:
            raise ValueError(
                f"on_evict must be one of {EVICTION_POLICIES}, got {self.on_evict!r}"
            )
        object.__setattr__(self, "actions", tuple(self.actions))
        times = [action.time_ms for action in self.actions]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ValueError("churn actions must be sorted by time_ms")


@dataclass(frozen=True)
class ChurnSpec:
    """A parametric churn generator: seed in, :class:`ChurnSchedule` out.

    Specs are what scenarios and :class:`~repro.experiments.runner.ExperimentConfig`
    carry: the concrete schedule is derived per run from the experiment seed
    (stream ``("churn", name)``) so sweeps over seeds also sweep the churn
    realization while staying exactly reproducible.
    """

    name: str
    #: Time of the first possible churn action.
    start_ms: float = 50.0
    #: Mean gap between actions; each gap is ``uniform(0.5, 1.5) * interval_ms``.
    interval_ms: float = 80.0
    num_events: int = 12
    #: Kind mix (must sum to <= 1; the remainder is dead probability mass
    #: that simply re-draws nothing — keep the sum at 1 for clarity).
    p_leave: float = 0.2
    p_join: float = 0.2
    p_resize: float = 0.6
    #: Resize targets are drawn as a fraction of the configured per-invoker
    #: shape in ``[resize_low, resize_high]`` (harvest shrink/grow band).
    resize_low: float = 0.25
    resize_high: float = 1.25
    #: A leave that would drop the active node count below this floor is
    #: converted into a join instead (the harvest control plane replenishes).
    min_active: int = 2
    on_evict: str = "requeue"
    #: Optional RNG stream label override (defaults to ``name``).
    stream: str | None = None

    def __post_init__(self) -> None:
        if self.num_events < 0:
            raise ValueError("num_events must be >= 0")
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        if self.start_ms < 0:
            raise ValueError("start_ms must be >= 0")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")
        if not 0 < self.resize_low <= self.resize_high:
            raise ValueError("need 0 < resize_low <= resize_high")
        if min(self.p_leave, self.p_join, self.p_resize) < 0:
            raise ValueError("kind probabilities must be >= 0")
        if self.p_leave + self.p_join + self.p_resize > 1.0 + 1e-9:
            raise ValueError("kind probabilities must sum to <= 1")
        if self.on_evict not in EVICTION_POLICIES:
            raise ValueError(
                f"on_evict must be one of {EVICTION_POLICIES}, got {self.on_evict!r}"
            )

    def build(self, seed: int, cluster_config: "ClusterConfig") -> ChurnSchedule:
        """Materialize the schedule for one run.

        Mirrors the id assignment the cluster will actually perform (joins
        append ``len(invokers)``, ids are never reused) so every leave and
        resize targets a node that is active at that simulated time.
        """
        rng = derive_rng(seed, "churn", self.stream or self.name)
        active = list(range(cluster_config.num_invokers))
        next_id = cluster_config.num_invokers
        actions: list[ChurnAction] = []
        time_ms = float(self.start_ms)
        for _ in range(self.num_events):
            time_ms += float(rng.uniform(0.5, 1.5)) * float(self.interval_ms)
            draw = float(rng.random())
            if draw < self.p_leave:
                kind = "leave"
            elif draw < self.p_leave + self.p_join:
                kind = "join"
            elif draw < self.p_leave + self.p_join + self.p_resize:
                kind = "resize"
            else:
                continue
            if kind == "leave" and len(active) <= self.min_active:
                kind = "join"
            if kind == "join":
                actions.append(ChurnAction(time_ms=time_ms, kind="join"))
                active.append(next_id)
                next_id += 1
            elif kind == "leave":
                target = active[int(rng.integers(len(active)))]
                actions.append(
                    ChurnAction(time_ms=time_ms, kind="leave", invoker_id=target)
                )
                active.remove(target)
            else:
                target = active[int(rng.integers(len(active)))]
                fraction = float(rng.uniform(self.resize_low, self.resize_high))
                actions.append(
                    ChurnAction(
                        time_ms=time_ms,
                        kind="resize",
                        invoker_id=target,
                        vcpus=max(1, round(fraction * cluster_config.vcpus_per_invoker)),
                        vgpus=max(1, round(fraction * cluster_config.vgpus_per_invoker)),
                    )
                )
        return ChurnSchedule(name=self.name, actions=tuple(actions), on_evict=self.on_evict)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
CHURN_SPECS: dict[str, ChurnSpec] = {}


def register_churn_spec(spec: ChurnSpec, *, overwrite: bool = False) -> ChurnSpec:
    """Add ``spec`` to the registry under ``spec.name``."""
    if not overwrite and spec.name in CHURN_SPECS:
        raise ValueError(f"churn spec {spec.name!r} is already registered")
    CHURN_SPECS[spec.name] = spec
    return spec


def get_churn_spec(name: str) -> ChurnSpec:
    """Look up a registered churn spec by name."""
    try:
        return CHURN_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(CHURN_SPECS))
        raise KeyError(f"unknown churn spec {name!r}; known specs: {known}") from None


def churn_spec_names() -> list[str]:
    """Sorted names of every registered churn spec."""
    return sorted(CHURN_SPECS)


def resolve_churn(
    churn: "ChurnSpec | ChurnSchedule | str | None",
    seed: int,
    cluster_config: "ClusterConfig",
) -> ChurnSchedule | None:
    """Normalize any accepted churn form into a built schedule (or ``None``)."""
    if churn is None:
        return None
    if isinstance(churn, str):
        churn = get_churn_spec(churn)
    if isinstance(churn, ChurnSpec):
        return churn.build(seed, cluster_config)
    if isinstance(churn, ChurnSchedule):
        return churn
    raise TypeError(
        "churn must be None, a spec name, a ChurnSpec, or a ChurnSchedule; "
        f"got {type(churn).__name__}"
    )


def _register_builtin_specs() -> None:
    # Mild harvest: capacity mostly flexes in place, the occasional node
    # joins or is reclaimed. Matches the common Harvest-VM regime where
    # CPU counts change far more often than whole-VM evictions.
    register_churn_spec(
        ChurnSpec(
            name="harvest-mild",
            start_ms=40.0,
            interval_ms=90.0,
            num_events=12,
            p_leave=0.10,
            p_join=0.20,
            p_resize=0.70,
        )
    )
    # Severe harvest: frequent shrinkage plus real evictions; in-flight
    # work is requeued (the platform retries on surviving nodes).
    register_churn_spec(
        ChurnSpec(
            name="harvest-severe",
            start_ms=30.0,
            interval_ms=50.0,
            num_events=16,
            p_leave=0.35,
            p_join=0.15,
            p_resize=0.50,
            resize_low=0.20,
            resize_high=1.0,
        )
    )
    # Pure membership churn: nodes come and go, shapes never change.
    register_churn_spec(
        ChurnSpec(
            name="eviction-storm",
            start_ms=30.0,
            interval_ms=45.0,
            num_events=14,
            p_leave=0.50,
            p_join=0.40,
            p_resize=0.10,
        )
    )
    # Same storm, but evictions are fatal to in-flight requests — the
    # pessimistic platform that cannot retry (exercises the ``evicted``
    # request outcome end to end).
    register_churn_spec(
        replace(CHURN_SPECS["eviction-storm"], name="eviction-fail", on_evict="fail")
    )
    # A balanced mix of all three action kinds.
    register_churn_spec(
        ChurnSpec(
            name="churn-mixed",
            start_ms=40.0,
            interval_ms=70.0,
            num_events=12,
            p_leave=0.30,
            p_join=0.30,
            p_resize=0.40,
        )
    )


_register_builtin_specs()
