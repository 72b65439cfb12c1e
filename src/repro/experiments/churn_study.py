"""Churn study: how each scheduler degrades when the cluster churns.

The paper evaluates ESG on a fixed 16-node testbed; serverless platforms
increasingly run on harvested/spot capacity that resizes and disappears
mid-run (Harvest VMs, SOSP'21).  This figure-style experiment runs every
policy on identical workloads over a static baseline and three dynamic
clusters of increasing hostility:

* ``paper-moderate-normal`` — the static-cluster anchor row,
* ``harvest-mild-normal`` — capacity drift, mostly resizes,
* ``harvest-severe-normal`` — deep resizes plus node losses (requeue),
* ``churn-eviction-fail`` — leave-heavy churn where evicted in-flight
  requests fail terminally.

Each row reports the churn-specific counters next to the paper's headline
metrics, so the cost of capacity churn (and of the two eviction policies)
is readable straight off the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.experiments.store import ResultStore

from repro.experiments.report import format_percent, format_table
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    RunResult,
    run_matrix,
)

__all__ = [
    "CHURN_STUDY_SCENARIOS",
    "ChurnCell",
    "run_churn_study",
    "churn_rows",
    "render_churn_study",
]

#: Scenario rows of the study, static anchor first.
CHURN_STUDY_SCENARIOS: tuple[str, ...] = (
    "paper-moderate-normal",
    "harvest-mild-normal",
    "harvest-severe-normal",
    "churn-eviction-fail",
)


@dataclass(frozen=True)
class ChurnCell:
    """One (scenario, policy) cell of the churn study, flattened for rendering."""

    scenario: str
    policy: str
    slo_hit_rate: float
    total_cost_cents: float
    num_completed: int
    num_evicted: int
    evicted_tasks: int
    requeued_jobs: int


def run_churn_study(
    scenarios: Iterable[str] = CHURN_STUDY_SCENARIOS,
    policies: Iterable[str] = DEFAULT_POLICIES,
    *,
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> dict[tuple[str, str], RunResult]:
    """Run ``policies`` x ``scenarios`` on identical per-scenario workloads.

    Every policy in a row sees the same seed-derived request stream *and*
    the same seed-derived churn timeline, so differences within a row are
    attributable to scheduling alone — the paper's methodology extended to
    the capacity axis.  The study is summary-only, so with a ``store`` a
    repeat render over an unchanged grid executes zero simulations.
    """
    return run_matrix(
        list(scenarios),
        policies,
        config=config,
        n_jobs=n_jobs,
        summary_only=True,
        store=store,
    )


def churn_rows(results: Mapping[tuple[str, str], RunResult]) -> list[ChurnCell]:
    """Flatten keyed study results into renderable cells (input order)."""
    return [
        ChurnCell(
            scenario=scenario,
            policy=policy,
            slo_hit_rate=result.summary.slo_hit_rate,
            total_cost_cents=result.summary.total_cost_cents,
            num_completed=result.summary.num_completed,
            num_evicted=result.summary.num_evicted,
            evicted_tasks=result.summary.evicted_tasks,
            requeued_jobs=result.summary.requeued_jobs,
        )
        for (scenario, policy), result in results.items()
    ]


def render_churn_study(rows: list[ChurnCell]) -> str:
    """Aligned text table of the churn study."""
    table_rows = [
        [
            cell.scenario,
            cell.policy,
            format_percent(cell.slo_hit_rate),
            f"{cell.total_cost_cents:.2f}",
            cell.num_completed,
            cell.num_evicted,
            cell.evicted_tasks,
            cell.requeued_jobs,
        ]
        for cell in rows
    ]
    return format_table(
        [
            "scenario",
            "policy",
            "SLO hit",
            "cost (c)",
            "done",
            "evicted",
            "evicted tasks",
            "requeued jobs",
        ],
        table_rows,
        title="Churn study (identical workloads and churn timelines per scenario row)",
    )
