"""Named scenarios: complete (applications x setting x arrivals) bundles.

A :class:`Scenario` names everything the demand side of an experiment
needs — which applications arrive, under which workload setting (SLO
tightness), timed by which :class:`~repro.workloads.arrival.ArrivalProcess`,
and for how long — as plain picklable data.  The :class:`ScenarioRegistry`
maps names to scenarios so a run spec, a CLI flag (``--scenario``) or a
benchmark sweep can reference a full experiment by a single string.

Determinism contract: a scenario's request stream is a pure function of
``(scenario, seed)``.  All randomness flows through one
:func:`~repro.utils.rng.derive_rng` stream labelled by the scenario's
``stream`` name, so ``n_jobs=4`` workers reproduce ``n_jobs=1`` runs
byte-for-byte.  The three ``paper-*`` scenarios (:data:`PAPER_SCENARIOS`)
pin ``stream`` to the workload-setting name and use the default Azure
arrival process, the request streams of the paper's Section 4.1.

Examples
--------
>>> scenario = get_scenario("paper-moderate-normal")
>>> scenario.setting
'moderate-normal'
>>> scenario.arrival is None  # paper default: Azure-interval sampling
True
>>> len(scenario_names()) >= 6
True
>>> SCENARIOS.register(get_scenario("bursty-onoff-heavy"))
Traceback (most recent call last):
    ...
ValueError: scenario 'bursty-onoff-heavy' is already registered; pass replace=True to override
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.cluster.autoscale import AutoscaleSpec
    from repro.cluster.churn import ChurnSchedule, ChurnSpec
    from repro.cluster.topology import ClusterTopology

from repro.profiles.profiler import ProfileStore
from repro.utils.rng import derive_rng
from repro.utils.validation import ensure_number, ensure_positive, ensure_positive_int
from repro.workloads.applications import (
    APPLICATION_BUILDERS,
    build_application,
    build_paper_applications,
)
from repro.workloads.arrival import (
    ArrivalProcess,
    DiurnalProcess,
    OnOffBurstProcess,
    PoissonProcess,
    TraceReplayProcess,
)
from repro.workloads.dag import Workflow
from repro.workloads.generator import (
    WORKLOAD_SETTINGS,
    WorkloadGenerator,
    WorkloadSetting,
)
from repro.workloads.request import Request
from repro.workloads.stream import RequestStream
from repro.workloads.traces import HEAVY_INTERVALS, LIGHT_INTERVALS, NORMAL_INTERVALS

__all__ = [
    "PAPER_SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "resolve_scenario",
    "SAMPLE_TRACE_PATH",
]

#: The paper's three evaluation situations (Section 4.1), one registered
#: scenario per workload setting, in the order the figures list them.
PAPER_SCENARIOS: tuple[str, ...] = tuple(f"paper-{setting}" for setting in WORKLOAD_SETTINGS)

#: Bundled miniature Azure-style trace used by the trace-replay scenario.
SAMPLE_TRACE_PATH = Path(__file__).parent / "data" / "azure_sample_trace.csv"


@dataclass(frozen=True)
class Scenario:
    """One named, picklable experiment demand bundle.

    Parameters
    ----------
    name:
        Registry key (e.g. ``"bursty-onoff-heavy"``).
    description:
        One line shown by ``esg-repro --list-scenarios``.
    setting:
        Workload-setting name (SLO tightness; see
        :data:`~repro.workloads.generator.WORKLOAD_SETTINGS`).
    arrival:
        Arrival process; ``None`` keeps the paper's Azure-interval sampling.
    applications:
        Names from :data:`~repro.workloads.applications.APPLICATION_BUILDERS`;
        ``None`` means the paper's four applications.
    app_weights:
        Optional sampling weights, one per application.
    num_requests:
        Default request count (overrides the experiment config's when set).
    horizon_ms:
        Optional simulated-time hard stop; runs that reach it are marked
        ``truncated`` in their :class:`~repro.cluster.metrics.RunSummary`.
    stream:
        RNG-stream label; defaults to the scenario name.  The ``paper-*``
        scenarios pin it to the setting name.
    topology:
        Optional cluster shape — a registered
        :class:`~repro.cluster.topology.ClusterTopology` name or object.
        Applied by :func:`~repro.experiments.runner.run_experiment` when the
        experiment config leaves the cluster at the paper default, so a
        scenario can pin a non-paper cluster size without code edits.
    churn:
        Optional capacity-churn recipe — a registered
        :class:`~repro.cluster.churn.ChurnSpec` name, a spec, or a concrete
        :class:`~repro.cluster.churn.ChurnSchedule`.  Applied by
        :func:`~repro.experiments.runner.run_experiment` when the experiment
        config does not set its own churn; specs are expanded to schedules
        with the run's seed, so the churn stream is deterministic per
        ``(scenario, seed)`` just like the request stream.
    autoscale:
        Optional adaptive-prewarm recipe — a registered
        :class:`~repro.cluster.autoscale.AutoscaleSpec` name or a spec.
        Applied by :func:`~repro.experiments.runner.run_experiment` when the
        experiment config does not set its own autoscale; controllers are
        deterministic (no RNG), so the spec alone fixes every decision.
    """

    name: str
    description: str
    setting: str
    arrival: ArrivalProcess | None = None
    applications: tuple[str, ...] | None = None
    app_weights: tuple[float, ...] | None = None
    num_requests: int | None = None
    horizon_ms: float | None = None
    stream: str | None = None
    topology: "ClusterTopology | str | None" = None
    churn: "ChurnSpec | ChurnSchedule | str | None" = None
    autoscale: "AutoscaleSpec | str | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if isinstance(self.autoscale, str):
            # Same eager-resolution rationale as ``churn``/``topology``: a
            # typo fails at construction, and the picklable spec travels
            # with the scenario to worker processes.
            from repro.cluster.autoscale import get_autoscale_spec

            object.__setattr__(self, "autoscale", get_autoscale_spec(self.autoscale))
        if isinstance(self.churn, str):
            # Same eager-resolution rationale as ``topology`` below: a typo
            # fails at construction, and the picklable spec travels with the
            # scenario to worker processes.
            from repro.cluster.churn import get_churn_spec

            object.__setattr__(self, "churn", get_churn_spec(self.churn))
        if isinstance(self.topology, str):
            # Resolve eagerly (mirrors RunSpec's scenario-name resolution):
            # a typo fails at construction, and the picklable object travels
            # with the scenario to worker processes.  Imported lazily to
            # keep the workloads package import-independent of the cluster
            # package.
            from repro.cluster.topology import get_topology

            object.__setattr__(self, "topology", get_topology(self.topology))
        if self.setting not in WORKLOAD_SETTINGS:
            raise KeyError(
                f"unknown workload setting {self.setting!r}; "
                f"expected one of {', '.join(WORKLOAD_SETTINGS)}"
            )
        # Every check below fails here, at registration or spec
        # construction in the parent process, rather than when a run
        # (possibly inside a worker) builds the workload.
        if self.applications is not None:
            if not isinstance(self.applications, tuple):
                raise TypeError(
                    "applications must be a tuple of application names, got "
                    f"{self.applications!r} ({type(self.applications).__name__})"
                )
            if len(self.applications) == 0:
                raise ValueError("applications must be None (paper apps) or non-empty")
            for name in self.applications:
                if name not in APPLICATION_BUILDERS:
                    raise KeyError(
                        f"applications: unknown application {name!r}; registered: "
                        f"{', '.join(sorted(APPLICATION_BUILDERS))}"
                    )
        if self.app_weights is not None:
            num_apps = 4 if self.applications is None else len(self.applications)
            if len(self.app_weights) != num_apps:
                raise ValueError(
                    "app_weights must have one weight per application "
                    f"({len(self.app_weights)} != {num_apps})"
                )
            for weight in self.app_weights:
                ensure_number(weight, "app_weights")
                if not (math.isfinite(weight) and weight >= 0):
                    raise ValueError(
                        f"app_weights must be finite and non-negative, got {weight!r}"
                    )
            if sum(self.app_weights) <= 0:
                raise ValueError("app_weights must not all be zero")
        if self.num_requests is not None:
            ensure_positive_int(self.num_requests, "num_requests")
        if self.horizon_ms is not None:
            ensure_number(self.horizon_ms, "horizon_ms")
            ensure_positive(self.horizon_ms, "horizon_ms")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def setting_obj(self) -> WorkloadSetting:
        """The resolved workload setting."""
        return WORKLOAD_SETTINGS[self.setting]

    @property
    def stream_label(self) -> str:
        """RNG-stream label for this scenario's workload draws."""
        return self.stream if self.stream is not None else self.name

    @property
    def arrival_label(self) -> str:
        """Short human-readable name of the arrival process."""
        if self.arrival is None:
            return "azure-uniform (paper)"
        return type(self.arrival).__name__

    def with_overrides(self, **kwargs) -> "Scenario":
        """Return a copy with the given fields replaced (e.g. a new horizon)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Workload construction
    # ------------------------------------------------------------------
    def build_applications(self) -> list[Workflow]:
        """Fresh workflow instances for this scenario's application mix."""
        if self.applications is None:
            return build_paper_applications()
        return [build_application(name) for name in self.applications]

    def build_generator(self, profile_store: ProfileStore, seed: int) -> WorkloadGenerator:
        """Build the workload generator with the scenario's derived RNG stream."""
        return WorkloadGenerator(
            applications=self.build_applications(),
            setting=self.setting_obj,
            profile_store=profile_store,
            rng=derive_rng(seed, "workload", self.stream_label),
            app_weights=self.app_weights,
            arrival=self.arrival,
        )

    def build_requests(
        self, num_requests: int, seed: int, profile_store: ProfileStore
    ) -> list[Request]:
        """Generate the deterministic request stream for ``(self, seed)``."""
        return self.build_generator(profile_store, seed).generate(num_requests)

    def build_stream(
        self, num_requests: int, seed: int, profile_store: ProfileStore
    ) -> RequestStream:
        """Lazy counterpart of :meth:`build_requests`.

        Returns a :class:`~repro.workloads.stream.RequestStream` whose
        iteration yields requests byte-identical to the materialized list
        for the same ``(self, seed)`` — the simulator pulls them on demand
        instead of holding them all.
        """
        return self.build_generator(profile_store, seed).stream(num_requests)

    def mean_rate_per_s(self) -> float:
        """Long-run mean arrival rate of this scenario's process."""
        if self.arrival is not None:
            return self.arrival.mean_rate_per_s
        return self.setting_obj.intervals.mean_rate_per_s


class ScenarioRegistry:
    """Name -> :class:`Scenario` mapping with informative failure modes."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def register(self, scenario: Scenario, *, replace: bool = False) -> Scenario:
        """Add ``scenario`` under its name; refuses silent redefinition."""
        if scenario.name in self._scenarios and not replace:
            raise ValueError(
                f"scenario {scenario.name!r} is already registered; "
                f"pass replace=True to override"
            )
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up a scenario, listing the known names on failure."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """All registered names, in registration order."""
        return list(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios


#: The process-wide registry the CLI, engine and benchmarks consult.
SCENARIOS = ScenarioRegistry()


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Register ``scenario`` in the global :data:`SCENARIOS` registry."""
    return SCENARIOS.register(scenario, replace=replace)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario in the global :data:`SCENARIOS` registry."""
    return SCENARIOS.get(name)


def scenario_names() -> list[str]:
    """Names in the global :data:`SCENARIOS` registry."""
    return SCENARIOS.names()


def resolve_scenario(scenario: "Scenario | str") -> Scenario:
    """A :class:`Scenario` object for a registered name or a scenario.

    Anything else (a bare workload-setting object, ``None``) raises
    ``TypeError``: every run names the scenario it draws its demand from.
    """
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        return get_scenario(scenario)
    raise TypeError(
        "expected a scenario name or a Scenario, got "
        f"{scenario!r} ({type(scenario).__name__})"
    )


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
def _register_builtin_scenarios() -> None:
    # The three paper evaluations.  ``stream`` pins the RNG label to the
    # setting name, which fixes the request streams the golden summaries
    # were recorded from.
    for name, setting in zip(PAPER_SCENARIOS, WORKLOAD_SETTINGS):
        register_scenario(
            Scenario(
                name=name,
                description=f"Paper Section 4.1: four DNN apps, {setting} Azure arrivals",
                setting=setting,
                stream=setting,
            )
        )

    # Memoryless traffic at the paper's normal intensity: same mean rate,
    # exponential (unbounded) inter-arrival tails.
    register_scenario(
        Scenario(
            name="poisson-normal",
            description="Poisson arrivals at the moderate-normal mean rate",
            setting="moderate-normal",
            arrival=PoissonProcess(rate_per_s=NORMAL_INTERVALS.mean_rate_per_s),
        )
    )

    # MMPP-style on/off source: flash crowds at heavy intensity separated by
    # light-rate lulls, under the loose relaxed SLO.
    register_scenario(
        Scenario(
            name="bursty-onoff-heavy",
            description="MMPP on/off bursts: heavy-rate flash crowds over a light base",
            setting="relaxed-heavy",
            arrival=OnOffBurstProcess(
                burst_rate_per_s=HEAVY_INTERVALS.mean_rate_per_s,
                base_rate_per_s=LIGHT_INTERVALS.mean_rate_per_s,
                mean_burst_ms=400.0,
                mean_gap_ms=600.0,
            ),
        )
    )

    # Diurnal drift compressed to simulation scale: one "day" of sinusoidal
    # rate variation every 4 simulated seconds.
    register_scenario(
        Scenario(
            name="diurnal-normal",
            description="Sinusoidal diurnal rate drift around the normal intensity",
            setting="moderate-normal",
            arrival=DiurnalProcess(
                base_rate_per_s=NORMAL_INTERVALS.mean_rate_per_s,
                amplitude=0.6,
                period_ms=4_000.0,
            ),
        )
    )

    # Replay of the bundled miniature Azure-style trace (bursts and lulls
    # recorded as literal intervals), looped to any workload length.
    register_scenario(
        Scenario(
            name="trace-replay-azure",
            description="Replay of the bundled Azure-style interval trace (looped)",
            setting="moderate-normal",
            arrival=TraceReplayProcess.from_csv(SAMPLE_TRACE_PATH, loop=True),
        )
    )

    # A non-paper application mix: the split/join diamond and the one-stage
    # app next to the paper's shortest and longest pipelines, skewed toward
    # the non-paper DAGs.
    register_scenario(
        Scenario(
            name="mixed-dags-normal",
            description="Non-paper app mix: split/join diamond + 1-stage + paper pipelines",
            setting="moderate-normal",
            applications=(
                "vision_diamond",
                "single_stage_classification",
                "image_classification",
                "expanded_image_classification",
            ),
            app_weights=(3.0, 3.0, 1.0, 1.0),
        )
    )

    # A horizon-bounded overload probe: Poisson at twice the heavy rate with
    # a hard 1.5-second simulated-time stop (exercises the truncated flag).
    register_scenario(
        Scenario(
            name="overload-spike",
            description="2x-heavy Poisson spike truncated at a 1.5 s simulated horizon",
            setting="relaxed-heavy",
            arrival=PoissonProcess(rate_per_s=2.0 * HEAVY_INTERVALS.mean_rate_per_s),
            horizon_ms=1_500.0,
        )
    )

    # Dynamic-cluster (churn) scenarios: the paper's workloads on a cluster
    # whose capacity changes mid-run.  The ``harvest-*`` pair models
    # harvested/spot VMs (capacity mostly resizes, occasionally vanishes);
    # the ``churn-*`` trio stresses membership churn and the two eviction
    # policies.  Churn streams are seed-derived, so every policy in a row
    # sees the identical join/leave/resize timeline.
    register_scenario(
        Scenario(
            name="harvest-mild-normal",
            description="Harvested-VM capacity drift (mostly resizes) under moderate-normal",
            setting="moderate-normal",
            churn="harvest-mild",
        )
    )
    register_scenario(
        Scenario(
            name="harvest-severe-normal",
            description="Aggressive harvest churn: deep resizes plus node losses",
            setting="moderate-normal",
            churn="harvest-severe",
        )
    )
    register_scenario(
        Scenario(
            name="churn-mixed-normal",
            description="Balanced join/leave/resize churn under moderate-normal",
            setting="moderate-normal",
            churn="churn-mixed",
        )
    )
    register_scenario(
        Scenario(
            name="churn-eviction-storm",
            description="Leave-heavy churn; evicted in-flight work is requeued",
            setting="moderate-normal",
            churn="eviction-storm",
        )
    )
    register_scenario(
        Scenario(
            name="churn-eviction-fail",
            description="Leave-heavy churn; evicted in-flight requests fail terminally",
            setting="moderate-normal",
            churn="eviction-fail",
        )
    )


_register_builtin_scenarios()
