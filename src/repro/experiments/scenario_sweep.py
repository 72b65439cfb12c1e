"""Scenario sweeps: compare every policy on every named scenario.

The paper's evaluation fixes the demand side to three Azure-derived
settings; this module sweeps the policies over the scenario registry
instead — bursty, diurnal, trace-replay and non-paper application mixes —
turning "how does each scheduler cope with demand the paper never showed
it?" into one function call (or ``esg-repro compare --scenario ...``).
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
from repro.workloads.scenarios import SCENARIOS, Scenario, ScenarioRegistry

__all__ = [
    "ScenarioCell",
    "compare_on_scenarios",
    "run_scenario_sweep",
    "scenario_rows",
    "render_scenario_comparison",
    "render_scenario_list",
]


@dataclass(frozen=True)
class ScenarioCell:
    """One (scenario, policy) cell of a sweep, flattened for rendering."""

    scenario: str
    policy: str
    slo_hit_rate: float
    total_cost_cents: float
    mean_latency_ms: float
    num_completed: int
    truncated: bool


def run_scenario_sweep(
    scenarios: Iterable[Scenario | str] | None = None,
    policies: Iterable[str] = DEFAULT_POLICIES,
    *,
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> dict[tuple[str, str], RunResult]:
    """Run ``policies`` x ``scenarios`` (default: the whole registry).

    Summary-only: with a ``store``, repeat sweeps load every cached cell.
    """
    if scenarios is None:
        scenarios = SCENARIOS.names()
    return run_matrix(
        scenarios,
        policies,
        config=config,
        n_jobs=n_jobs,
        summary_only=True,
        store=store,
    )


def scenario_rows(results: Mapping[tuple[str, str], RunResult]) -> list[ScenarioCell]:
    """Flatten keyed sweep results into renderable cells (input order)."""
    return [
        ScenarioCell(
            scenario=scenario,
            policy=policy,
            slo_hit_rate=result.summary.slo_hit_rate,
            total_cost_cents=result.summary.total_cost_cents,
            mean_latency_ms=result.summary.mean_latency_ms,
            num_completed=result.summary.num_completed,
            truncated=result.summary.truncated,
        )
        for (scenario, policy), result in results.items()
    ]


def render_scenario_comparison(rows: list[ScenarioCell]) -> str:
    """Aligned text table of a scenario sweep."""
    table_rows = [
        [
            cell.scenario,
            cell.policy,
            format_percent(cell.slo_hit_rate),
            f"{cell.total_cost_cents:.2f}",
            f"{cell.mean_latency_ms:.0f}",
            cell.num_completed,
            "yes" if cell.truncated else "no",
        ]
        for cell in rows
    ]
    return format_table(
        ["scenario", "policy", "SLO hit", "cost (c)", "mean lat (ms)", "done", "truncated"],
        table_rows,
        title="Scenario comparison (every policy on identical per-scenario workloads)",
    )


def render_scenario_list(registry: ScenarioRegistry | None = None) -> str:
    """The table behind ``esg-repro --list-scenarios``."""
    registry = registry if registry is not None else SCENARIOS
    rows = []
    for scenario in registry:
        apps = "paper (4)" if scenario.applications is None else f"{len(scenario.applications)} custom"
        horizon = "-" if scenario.horizon_ms is None else f"{scenario.horizon_ms:.0f} ms"
        rows.append(
            [
                scenario.name,
                scenario.setting,
                scenario.arrival_label,
                f"{scenario.mean_rate_per_s():.1f}/s",
                apps,
                horizon,
                scenario.description,
            ]
        )
    return format_table(
        ["scenario", "setting", "arrivals", "mean rate", "apps", "horizon", "description"],
        rows,
        title=f"Registered scenarios ({len(registry)})",
    )


def compare_on_scenarios(
    scenario_names: Iterable[str],
    *,
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> str:
    """End-to-end helper for the CLI: sweep, flatten, render.

    Typos fail fast: spec construction resolves each name eagerly.
    """
    results = run_scenario_sweep(
        list(scenario_names), config=config, n_jobs=n_jobs, store=store
    )
    return render_scenario_comparison(scenario_rows(results))
