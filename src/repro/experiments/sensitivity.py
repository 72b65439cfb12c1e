"""Figure 11 and the Section 5.4 sensitivity studies.

* **K (configuration priority queue size)** — as K grows from 1 to 80 the
  paper observes the average search overhead rising from about 3 ms to 8 ms,
  the latency staying flat and the cost decreasing slightly (more fallback
  candidates let the dispatcher pick a cheaper configuration that actually
  fits).  Default K is 5.
* **Group size** — the maximum function-group size of the dominator-based
  SLO distribution.  With 256 configurations per function the paper reports
  the group search jumping to 1201 ms at size 4, which is why the default
  stays at 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.experiments.store import ResultStore

from repro.core.esg_1q import StageSearchSpec, esg_1q_search
from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.report import format_percent, format_table
from repro.experiments.runner import ExperimentConfig, build_profile_store
from repro.profiles.configuration import ConfigurationSpace
from repro.workloads.applications import expanded_image_classification
from repro.workloads.scenarios import Scenario

__all__ = [
    "KSensitivityPoint",
    "run_figure11",
    "render_figure11",
    "GroupSizeSearchPoint",
    "run_group_size_search",
    "render_group_size_search",
    "DEFAULT_K_VALUES",
]

#: K values swept in Figure 11.
DEFAULT_K_VALUES: tuple[int, ...] = (1, 5, 20, 40, 80)


@dataclass(frozen=True)
class KSensitivityPoint:
    """Results of one K value in the Figure 11 sweep."""

    k: int
    mean_overhead_ms: float
    mean_latency_ms: float
    total_cost_cents: float
    slo_hit_rate: float
    cost_normalized_to_k5: float = float("nan")


def run_figure11(
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    *,
    scenario: Scenario | str = "paper-strict-light",
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> list[KSensitivityPoint]:
    """Sweep the number of solutions K kept by ESG_1Q.

    Summary-only: with a ``store``, repeat renders load every cached cell.
    """
    config = config or ExperimentConfig()
    specs = [
        RunSpec(
            "ESG",
            scenario,
            config=config,
            policy_overrides={"k": k},
            summary_only=True,
        )
        for k in k_values
    ]
    results = ExperimentEngine(n_jobs, store=store).run(specs)
    raw = [
        KSensitivityPoint(
            k=k,
            mean_overhead_ms=result.summary.mean_overhead_ms,
            mean_latency_ms=result.summary.mean_latency_ms,
            total_cost_cents=result.summary.total_cost_cents,
            slo_hit_rate=result.summary.slo_hit_rate,
        )
        for k, result in zip(k_values, results)
    ]
    baseline = next((p.total_cost_cents for p in raw if p.k == 5), None)
    if baseline is None:
        baseline = raw[0].total_cost_cents if raw else float("nan")
    return [
        KSensitivityPoint(
            k=p.k,
            mean_overhead_ms=p.mean_overhead_ms,
            mean_latency_ms=p.mean_latency_ms,
            total_cost_cents=p.total_cost_cents,
            slo_hit_rate=p.slo_hit_rate,
            cost_normalized_to_k5=(p.total_cost_cents / baseline if baseline else float("nan")),
        )
        for p in raw
    ]


def render_figure11(points: list[KSensitivityPoint]) -> str:
    """Text rendering of Figure 11."""
    rows = [
        [
            p.k,
            p.mean_overhead_ms,
            p.mean_latency_ms,
            p.cost_normalized_to_k5,
            format_percent(p.slo_hit_rate),
        ]
        for p in points
    ]
    return format_table(
        ["K", "Mean overhead (ms)", "Mean latency (ms)", "Cost / K=5", "SLO hit rate"],
        rows,
        title="Figure 11: Sensitivity to K (strict-light)",
    )


# ----------------------------------------------------------------------
# Group size (Section 5.4)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupSizeSearchPoint:
    """ESG_1Q search time for one function-group size."""

    group_size: int
    configs_per_stage: int
    search_time_ms: float
    expansions: int
    feasible: bool


def run_group_size_search(
    group_sizes: Sequence[int] = (1, 2, 3, 4),
    *,
    space: ConfigurationSpace | None = None,
    slo_factor: float = 1.0,
    max_expansions: int = 2_000_000,
) -> list[GroupSizeSearchPoint]:
    """Measure the ESG_1Q search time as the group size grows.

    Uses the first stages of the expanded image classification pipeline.
    Section 5.4 quotes the 256-configurations-per-function space; the default
    here is the 64-configuration experiment space so the sweep stays fast —
    pass ``space=ConfigurationSpace.paper_256()`` for the full-size study.
    """
    if space is None:
        from repro.experiments.runner import EXPERIMENT_SPACE

        space = EXPERIMENT_SPACE
    store = build_profile_store(space)
    workflow = expanded_image_classification()
    stage_ids = workflow.topological_order()
    points: list[GroupSizeSearchPoint] = []
    for size in group_sizes:
        ids = stage_ids[: min(size, len(stage_ids))]
        specs = [
            StageSearchSpec.from_profile(sid, store.profile(workflow.function_of(sid)))
            for sid in ids
        ]
        target = slo_factor * store.minimum_config_latency_ms(
            [workflow.function_of(sid) for sid in ids]
        )
        result = esg_1q_search(specs, target, k=5, max_expansions=max_expansions)
        points.append(
            GroupSizeSearchPoint(
                group_size=size,
                configs_per_stage=space.size,
                search_time_ms=result.search_time_ms,
                expansions=result.expansions,
                feasible=result.feasible,
            )
        )
    return points


def render_group_size_search(points: list[GroupSizeSearchPoint]) -> str:
    """Text rendering of the Section 5.4 group-size study."""
    rows = [
        [p.group_size, p.configs_per_stage, p.search_time_ms, p.expansions, p.feasible]
        for p in points
    ]
    return format_table(
        ["Group size", "Configs/stage", "Search time (ms)", "Expansions", "Feasible"],
        rows,
        title="Section 5.4: ESG_1Q search time vs. function-group size",
    )
