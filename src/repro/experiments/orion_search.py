"""Figure 9: effect of Orion's search time on its SLO hit rate (strict-light).

Orion trades search time for configuration quality: with a generous cutoff
its best-first search finds decent configurations, but once the search time
is charged against the request latency the hit rate collapses.  The sweep
runs the strict-light workload with Orion under several cutoff values,
twice — once charging the search overhead and once ignoring it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.experiments.store import ResultStore

from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.report import format_percent, format_table
from repro.experiments.runner import ExperimentConfig
from repro.workloads.scenarios import Scenario

__all__ = ["OrionSearchPoint", "run_figure9", "render_figure9", "DEFAULT_CUTOFFS_MS"]

#: The cutoff values on the x-axis of Figure 9.
DEFAULT_CUTOFFS_MS: tuple[float, ...] = (1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0)


@dataclass(frozen=True)
class OrionSearchPoint:
    """One point of one Figure 9 curve."""

    cutoff_ms: float
    count_search_overhead: bool
    slo_hit_rate: float
    total_cost_cents: float
    mean_overhead_ms: float


def run_figure9(
    cutoffs_ms: Sequence[float] = DEFAULT_CUTOFFS_MS,
    *,
    scenario: Scenario | str = "paper-strict-light",
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> list[OrionSearchPoint]:
    """Sweep Orion's search cutoff with and without charging the overhead.

    Summary-only: with a ``store``, repeat renders load every cached cell.
    """
    config = config or ExperimentConfig()
    sweep = [
        (cutoff, count_overhead)
        for count_overhead in (False, True)
        for cutoff in cutoffs_ms
    ]
    specs = [
        RunSpec(
            "Orion",
            scenario,
            config=config,
            policy_overrides={"cutoff_ms": cutoff, "count_search_overhead": count_overhead},
            summary_only=True,
        )
        for cutoff, count_overhead in sweep
    ]
    results = ExperimentEngine(n_jobs, store=store).run(specs)
    return [
        OrionSearchPoint(
            cutoff_ms=cutoff,
            count_search_overhead=count_overhead,
            slo_hit_rate=result.summary.slo_hit_rate,
            total_cost_cents=result.summary.total_cost_cents,
            mean_overhead_ms=result.summary.mean_overhead_ms,
        )
        for (cutoff, count_overhead), result in zip(sweep, results)
    ]


def render_figure9(points: list[OrionSearchPoint]) -> str:
    """Text rendering of Figure 9 (two curves over the cutoff values)."""
    rows = [
        [
            p.cutoff_ms,
            "with overhead" if p.count_search_overhead else "w/o overhead",
            format_percent(p.slo_hit_rate),
            p.mean_overhead_ms,
            p.total_cost_cents,
        ]
        for p in sorted(points, key=lambda p: (p.count_search_overhead, p.cutoff_ms))
    ]
    return format_table(
        ["Search cutoff (ms)", "Curve", "SLO hit rate", "Mean overhead (ms)", "Cost (cents)"],
        rows,
        title="Figure 9: Orion search-time vs. SLO hit rate (strict-light)",
    )
