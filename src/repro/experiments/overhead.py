"""Figure 10 and the Section 5.3 overhead analysis.

Figure 10 reports the distribution of ESG's per-decision scheduling overhead
in the three workload settings (group size 3); Section 5.3 contrasts it with
the time a brute-force search would take (7258 ms for three stages with 256
configurations per function in the paper's measurement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.experiments.store import ResultStore

from repro.core.bruteforce import brute_force_search
from repro.core.esg_1q import StageSearchSpec, esg_1q_search
from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentConfig, build_profile_store
from repro.profiles.configuration import ConfigurationSpace
from repro.utils.stats import SummaryStats, summarize
from repro.workloads.applications import expanded_image_classification
from repro.workloads.scenarios import PAPER_SCENARIOS, Scenario

__all__ = [
    "OverheadDistribution",
    "run_figure10",
    "render_figure10",
    "SearchTimeComparison",
    "run_bruteforce_comparison",
    "render_bruteforce_comparison",
]


@dataclass(frozen=True)
class OverheadDistribution:
    """ESG's scheduling-overhead distribution under one workload setting."""

    setting: str
    stats: SummaryStats

    @property
    def mean_ms(self) -> float:
        """Mean per-decision overhead."""
        return self.stats.mean

    @property
    def p95_ms(self) -> float:
        """95th percentile per-decision overhead."""
        return self.stats.p95


def run_figure10(
    scenarios: Iterable[Scenario | str] = PAPER_SCENARIOS,
    *,
    config: ExperimentConfig | None = None,
    group_size: int = 3,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> list[OverheadDistribution]:
    """Measure ESG's scheduling overhead distribution per scenario.

    Each distribution is labelled with its scenario's setting name.

    The distribution needs every raw overhead sample, so these cells always
    execute (the summary cache cannot serve them); with a ``store`` they
    still persist summaries that warm the cache for summary-level readers.
    """
    config = config or ExperimentConfig()
    specs = [
        RunSpec("ESG", scenario, config=config, policy_overrides={"group_size": group_size})
        for scenario in scenarios
    ]
    results = ExperimentEngine(n_jobs, store=store).run(specs)
    return [
        OverheadDistribution(
            setting=spec.setting_name,
            stats=summarize(result.metrics.overhead_ms_samples),
        )
        for spec, result in zip(specs, results)
    ]


def render_figure10(distributions: list[OverheadDistribution]) -> str:
    """Text rendering of Figure 10 (box-plot style summary)."""
    rows = [
        [
            d.setting,
            d.stats.minimum,
            d.stats.p25,
            d.stats.median,
            d.stats.p75,
            d.stats.p95,
            d.stats.maximum,
            d.stats.mean,
            d.stats.count,
        ]
        for d in distributions
    ]
    return format_table(
        ["Setting", "Min", "P25", "Median", "P75", "P95", "Max", "Mean", "Samples"],
        rows,
        title="Figure 10: ESG scheduling overhead distribution (ms, group size 3)",
    )


# ----------------------------------------------------------------------
# Section 5.3: ESG_1Q vs. brute force
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchTimeComparison:
    """Search time of ESG_1Q vs. exhaustive enumeration on one group."""

    num_stages: int
    configs_per_stage: int
    esg_time_ms: float
    esg_expansions: int
    bruteforce_time_ms: float
    bruteforce_examined: int
    same_optimum: bool


def run_bruteforce_comparison(
    *,
    num_stages: int = 3,
    space: ConfigurationSpace | None = None,
    slo_factor: float = 1.0,
) -> SearchTimeComparison:
    """Compare ESG_1Q and brute force on one group of the expanded pipeline.

    The Section 5.3 scenario uses three stages with 256 configurations each;
    exhaustively enumerating that space (16.7M joint configurations) takes
    tens of seconds in pure Python, so the default uses the experiment space
    (64 configurations per function, 262k joint configurations), which shows
    the same orders-of-magnitude gap.  Pass
    ``space=ConfigurationSpace.paper_256()`` to run the full-size comparison.
    """
    if space is None:
        from repro.experiments.runner import EXPERIMENT_SPACE

        space = EXPERIMENT_SPACE
    store = build_profile_store(space)
    workflow = expanded_image_classification()
    stage_ids = workflow.topological_order()[:num_stages]
    specs = [
        StageSearchSpec.from_profile(sid, store.profile(workflow.function_of(sid)))
        for sid in stage_ids
    ]
    target = slo_factor * store.minimum_config_latency_ms(
        [workflow.function_of(sid) for sid in stage_ids]
    )
    esg = esg_1q_search(specs, target, k=5)
    brute = brute_force_search(specs, target, k=5)
    same = (
        esg.feasible == brute.feasible
        and (not esg.feasible or abs(esg.best.cost_cents - brute.best.cost_cents) < 1e-9)
    )
    return SearchTimeComparison(
        num_stages=num_stages,
        configs_per_stage=space.size,
        esg_time_ms=esg.search_time_ms,
        esg_expansions=esg.expansions,
        bruteforce_time_ms=brute.search_time_ms,
        bruteforce_examined=brute.examined,
        same_optimum=same,
    )


def render_bruteforce_comparison(comparison: SearchTimeComparison) -> str:
    """Text rendering of the Section 5.3 search-time comparison."""
    rows = [
        ["ESG_1Q (dual-blade pruning)", comparison.esg_time_ms, comparison.esg_expansions],
        ["Brute force", comparison.bruteforce_time_ms, comparison.bruteforce_examined],
    ]
    title = (
        "Section 5.3: search time for "
        f"{comparison.num_stages} stages x {comparison.configs_per_stage} configurations "
        f"(same optimum: {comparison.same_optimum})"
    )
    return format_table(["Search", "Time (ms)", "States examined"], rows, title=title)
