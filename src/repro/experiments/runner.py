"""Shared experiment runner: run one (policy, scenario) pair, or a matrix.

All figure/table modules build on :func:`run_experiment` /
:func:`run_matrix`, which guarantee that every policy sees exactly the same
workload (same seed, same arrival times, same application picks) and the
same platform configuration — the paper's "the only difference is the
scheduling algorithm" methodology.  A run's demand side is always a
:class:`~repro.workloads.scenarios.Scenario` (a registered name or an
object); the paper's three settings are the scenarios in
:data:`~repro.workloads.scenarios.PAPER_SCENARIOS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - engine/store build on this module
    from repro.experiments.store import ResultStore

from repro.baselines.aquatope import AquatopePolicy
from repro.baselines.fastgshare import FaSTGSharePolicy
from repro.baselines.infless import INFlessPolicy
from repro.baselines.orion import OrionPolicy
from repro.cluster.autoscale import Autoscaler, AutoscaleSpec, resolve_autoscale
from repro.cluster.churn import ChurnSchedule, ChurnSpec, resolve_churn
from repro.cluster.cluster import ClusterConfig
from repro.cluster.controller import ControllerConfig
from repro.cluster.metrics import MetricsCollector, MetricsConfig, RunSummary
from repro.cluster.policy_api import SchedulingPolicy
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.core.esg import ESGPolicy
from repro.profiles.configuration import ConfigurationSpace
from repro.profiles.profiler import ProfileStore
from repro.utils.validation import (
    ensure_non_negative,
    ensure_non_negative_int,
    ensure_number,
    ensure_positive,
    ensure_positive_int,
)
from repro.workloads.generator import WorkloadSetting
from repro.workloads.request import Request
from repro.workloads.scenarios import PAPER_SCENARIOS, Scenario, resolve_scenario
from repro.workloads.stream import RequestStream

__all__ = [
    "DEFAULT_POLICIES",
    "EXPERIMENT_SPACE",
    "POLICY_ALIASES",
    "POLICY_CLASSES",
    "ExperimentConfig",
    "RunResult",
    "build_profile_store",
    "canonical_policy_key",
    "make_policy",
    "run_experiment",
    "run_matrix",
]

#: Policy names in the order the paper's figures list them.
DEFAULT_POLICIES: tuple[str, ...] = ("ESG", "INFless", "FaST-GShare", "Orion", "Aquatope")

#: Configuration space used by the end-to-end experiments: 4 batch sizes,
#: 4 vCPU counts, 4 vGPU counts (64 configurations per function).  The
#: overhead experiments use :meth:`ConfigurationSpace.paper_256` instead.
EXPERIMENT_SPACE = ConfigurationSpace(
    batch_options=(1, 2, 4, 8),
    vcpu_options=(1, 2, 4, 8),
    vgpu_options=(1, 2, 4, 7),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment run."""

    num_requests: int = 120
    seed: int = 42
    noise_sigma: float = 0.05
    space: ConfigurationSpace = EXPERIMENT_SPACE
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: The evaluation starts from a warm cluster (every function resident on
    #: every node), reflecting the steady state of a serving deployment: the
    #: paper's workloads are far shorter than a single cold start, so a cold
    #: start anywhere would otherwise dominate every metric.  Cold-start
    #: behaviour itself is exercised by the library's "home"/"none" modes.
    controller: ControllerConfig = field(
        default_factory=lambda: ControllerConfig(initial_warm="all")
    )
    #: Simulated-time hard stop; inf (default) = run until the event queue
    #: drains.  A scenario's ``horizon_ms`` applies when this is left at inf.
    max_time_ms: float = float("inf")
    #: True when ``cluster`` was set explicitly (e.g. by a CLI ``--topology``
    #: flag): a scenario's pinned topology then never overrides it, even if
    #: the explicit value happens to equal the paper default.
    cluster_pinned: bool = False
    #: Metrics storage mode (``"streaming"``, the only mode).
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    #: Workload mode (``"streaming"``, the only mode, still accepted by
    #: name): the simulator always pulls its workload from a lazy
    #: :class:`~repro.workloads.stream.RequestStream`.
    workload_mode: str = "streaming"
    #: Capacity churn: a registered :class:`~repro.cluster.churn.ChurnSpec`
    #: name, a spec (expanded with this config's seed at run time), or a
    #: concrete :class:`~repro.cluster.churn.ChurnSchedule`.  ``None``
    #: (default) defers to the scenario's ``churn``, if any; a static
    #: cluster otherwise.
    churn: "ChurnSpec | ChurnSchedule | str | None" = None
    #: Adaptive prewarm: a registered
    #: :class:`~repro.cluster.autoscale.AutoscaleSpec` name or a spec.
    #: ``None`` (default) defers to the scenario's ``autoscale``, if any;
    #: the static EWMA prewarmer otherwise.  When set, an
    #: :class:`~repro.cluster.autoscale.Autoscaler` attaches to the run as
    #: an observer and the static prewarmer stops emitting plans.
    autoscale: "AutoscaleSpec | str | None" = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_requests, "num_requests")
        ensure_non_negative_int(self.seed, "seed")
        ensure_number(self.noise_sigma, "noise_sigma")
        ensure_non_negative(self.noise_sigma, "noise_sigma")
        if self.workload_mode == "materialized":
            raise ValueError(
                "workload mode 'materialized' was removed; the simulator always "
                "pulls its workload from a request stream (workload_mode='streaming')"
            )
        if self.workload_mode != "streaming":
            raise ValueError(
                f"unknown workload mode {self.workload_mode!r}; expected 'streaming'"
            )
        ensure_positive(self.max_time_ms, "max_time_ms")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class RunResult:
    """One simulated run with both the summary and the raw metrics."""

    policy_name: str
    setting: WorkloadSetting
    summary: RunSummary
    #: The run's collector; ``None`` for ``summary_only`` engine results
    #: and store hits (only the summary is kept).
    metrics: MetricsCollector | None
    #: Name of the scenario the run drew its demand from.
    scenario_name: str

    @property
    def slo_hit_rate(self) -> float:
        """Convenience accessor."""
        return self.summary.slo_hit_rate

    @property
    def total_cost_cents(self) -> float:
        """Convenience accessor."""
        return self.summary.total_cost_cents


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_profile_store(space: ConfigurationSpace | None = None) -> ProfileStore:
    """Profile the six paper functions over ``space`` (default 64 configs)."""
    return ProfileStore.build(space=space or EXPERIMENT_SPACE)


#: Policy classes by canonical key.
POLICY_CLASSES: dict[str, type[SchedulingPolicy]] = {
    "esg": ESGPolicy,
    "infless": INFlessPolicy,
    "fast-gshare": FaSTGSharePolicy,
    "orion": OrionPolicy,
    "aquatope": AquatopePolicy,
}

#: Other accepted spellings of a canonical key (matched after
#: :func:`canonical_policy_key`'s normalisation).  :func:`make_policy` and
#: the result store both read this one table, so an alias builds its class
#: and addresses that class's cache cells.
POLICY_ALIASES: dict[str, str] = {
    "fastgshare": "fast-gshare",
    "fast gshare": "fast-gshare",
    "best-first": "orion",
    "bfs": "orion",
    "bo": "aquatope",
}


def canonical_policy_key(name: str) -> str:
    """The canonical key of a policy name (case-insensitive, ``_`` as ``-``).

    ``"ESG"``, ``"esg"`` and ``"Orion"``/``"bfs"`` build the same policy
    classes, so they must address the same cache cells.  Unknown names pass
    through normalised: key computation is never stricter than execution
    (:func:`make_policy` reports the unknown-policy error).
    """
    key = name.strip().lower().replace("_", "-")
    return POLICY_ALIASES.get(key, key)


def make_policy(name: str, /, **overrides) -> SchedulingPolicy:
    """Instantiate a policy by its paper name (case-insensitive).

    The lookup name is positional-only so that a ``name=...`` override (the
    constructors' display-name parameter, used by the ablation variants) can
    be forwarded alongside it.
    """
    cls = POLICY_CLASSES.get(canonical_policy_key(name))
    if cls is None:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {', '.join(DEFAULT_POLICIES)}"
        )
    return cls(**overrides)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_experiment(
    policy: SchedulingPolicy | str,
    scenario: Scenario | str,
    *,
    config: ExperimentConfig | None = None,
    profile_store: ProfileStore | None = None,
    requests: Sequence[Request] | None = None,
) -> RunResult:
    """Run one policy on one scenario and return the full result.

    ``scenario`` (a registered name or a
    :class:`~repro.workloads.scenarios.Scenario`) is the run's complete
    demand bundle: applications x setting x arrival process x horizon, plus
    any pinned topology, churn or autoscale recipe.

    The workload is built as a lazy
    :class:`~repro.workloads.stream.RequestStream` the simulator pulls on
    demand; the result keeps no request objects.  An explicitly passed
    ``requests`` sequence replaces it (the simulator replays it in arrival
    order).
    """
    config = config or ExperimentConfig()
    scenario = resolve_scenario(scenario)
    setting = scenario.setting_obj
    if isinstance(policy, str):
        policy = make_policy(policy)
    if profile_store is None:
        profile_store = build_profile_store(config.space)
    max_time_ms = config.max_time_ms
    if scenario.horizon_ms is not None and max_time_ms == float("inf"):
        max_time_ms = scenario.horizon_ms
    cluster_config = config.cluster
    default_cluster = ClusterConfig()
    shape_is_default = (
        cluster_config.num_invokers == default_cluster.num_invokers
        and cluster_config.vcpus_per_invoker == default_cluster.vcpus_per_invoker
        and cluster_config.vgpus_per_invoker == default_cluster.vgpus_per_invoker
    )
    if scenario.topology is not None and not config.cluster_pinned and shape_is_default:
        # Scenario-pinned cluster shape, applied when the experiment config
        # leaves the cluster *shape* at the paper default (mirrors
        # horizon_ms).  keep_alive_ms is an orthogonal knob and carries
        # over — a short-keep-alive experiment of a topology-pinned
        # scenario still gets the pinned cluster size.  A topology's own
        # non-default keep-alive wins over the config's.
        topology = scenario.topology
        keep_alive_ms = (
            topology.keep_alive_ms
            if topology.keep_alive_ms != default_cluster.keep_alive_ms
            else cluster_config.keep_alive_ms
        )
        cluster_config = replace(topology.to_cluster_config(), keep_alive_ms=keep_alive_ms)
    churn = config.churn if config.churn is not None else scenario.churn
    # Specs/names expand into a concrete schedule with this run's seed and
    # the *resolved* cluster config (a scenario-pinned topology changes the
    # invoker count the schedule draws targets from).
    churn_schedule = resolve_churn(churn, config.seed, cluster_config)
    autoscale = config.autoscale if config.autoscale is not None else scenario.autoscale
    autoscale_spec = resolve_autoscale(autoscale)
    workload: Sequence[Request] | RequestStream
    if requests is not None:
        workload = requests
    else:
        workload = scenario.build_stream(
            scenario.num_requests or config.num_requests, config.seed, profile_store
        )

    simulation = Simulation(
        policy=policy,
        requests=workload,
        profile_store=profile_store,
        config=SimulationConfig(
            seed=config.seed,
            cluster=cluster_config,
            controller=config.controller,
            noise_sigma=config.noise_sigma,
            max_time_ms=max_time_ms,
            metrics=config.metrics,
            churn=churn_schedule,
        ),
        setting_name=setting.name,
    )
    if autoscale_spec is not None:
        # Attached between construction and run: the autoscaler is a pure
        # observer (event hooks + the prewarm plan mechanism), so the
        # simulation wiring above is identical with and without it.
        Autoscaler(spec=autoscale_spec).attach(simulation)
    summary = simulation.run()
    return RunResult(
        policy_name=policy.name,
        setting=setting,
        summary=summary,
        metrics=simulation.metrics,
        scenario_name=scenario.name,
    )


def run_matrix(
    scenarios: Iterable[Scenario | str] = PAPER_SCENARIOS,
    policies: Iterable[str] = DEFAULT_POLICIES,
    *,
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
    summary_only: bool = False,
) -> dict[tuple[str, str], RunResult]:
    """Run every (scenario, policy) pair on identical workloads.

    Returns a mapping keyed by ``(scenario_name, policy_name)``, scenarios
    outermost.  Each cell's workload is the scenario's full demand bundle,
    identical for every policy in the row: requests are regenerated per
    policy from the same seed (each request object carries mutable runtime
    state, so they cannot be shared across runs).  Scenarios may be
    registered names or ad-hoc (even unregistered)
    :class:`~repro.workloads.scenarios.Scenario` objects; either way the
    resolved object travels inside the spec, so worker processes never
    depend on registry state.

    Policies are given by name (a live object raises ``TypeError``; vary a
    policy's constructor through :class:`repro.experiments.engine.RunSpec`
    overrides instead), and the cells run through
    :class:`~repro.experiments.engine.ExperimentEngine`, which refuses
    colliding cells before any simulation runs.  ``n_jobs`` controls
    parallelism: 1 (default) runs in-process; larger values fan the
    independent cells out across worker processes (``None`` or 0 uses every
    core).  Summaries are identical either way because each run is fully
    determined by its seed.

    ``store`` (a :class:`~repro.experiments.store.ResultStore` or path)
    makes repeat matrices incremental: cells whose summary is cached load
    without simulating (when ``summary_only=True``), and executed cells
    persist their summaries for the next caller.
    """
    # Imported here because engine builds on this module's primitives.
    from repro.experiments.engine import ExperimentEngine, RunSpec

    config = config or ExperimentConfig()
    policy_list = list(policies)
    specs = [
        RunSpec(policy, scenario, config=config, summary_only=summary_only)
        for scenario in scenarios
        for policy in policy_list
    ]
    return ExperimentEngine(n_jobs, store=store).run_keyed(specs)

