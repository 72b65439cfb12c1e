"""Figures 6, 7 and 8: end-to-end SLO hit rates, costs and latency curves.

* **Figure 6** — per workload setting, the average SLO hit rate of every
  scheduler together with its total cost normalised to ESG's cost.
* **Figure 7** — the end-to-end latency of every completed request of each
  application under the relaxed-heavy setting (one curve per scheduler).
* **Figure 8** — SLO hit rate and cost broken down per application for each
  of the three settings.

All three are derived from the same run matrix, so one call to
:func:`run_end_to_end` feeds all of them.
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
from repro.utils.validation import find_duplicates
from repro.workloads.scenarios import PAPER_SCENARIOS, Scenario, resolve_scenario

__all__ = [
    "Figure6Row",
    "Figure8Row",
    "LatencyCurve",
    "run_end_to_end",
    "figure6_rows",
    "figure7_curves",
    "figure8_rows",
    "render_figure6",
    "render_figure7",
    "render_figure8",
]


@dataclass(frozen=True)
class Figure6Row:
    """One bar pair of Figure 6: a scheduler under one setting."""

    setting: str
    policy: str
    slo_hit_rate: float
    total_cost_cents: float
    cost_normalized_to_esg: float


@dataclass(frozen=True)
class Figure8Row:
    """One bar pair of Figure 8: a scheduler on one application in one setting."""

    setting: str
    app: str
    policy: str
    slo_hit_rate: float
    cost_cents: float
    cost_normalized_to_esg: float


@dataclass(frozen=True)
class LatencyCurve:
    """One latency curve of Figure 7 (an application under one scheduler)."""

    setting: str
    app: str
    policy: str
    latencies_ms: tuple[float, ...]
    slo_ms: float


# ----------------------------------------------------------------------
# Shared matrix
# ----------------------------------------------------------------------
def run_end_to_end(
    policies: Iterable[str] = DEFAULT_POLICIES,
    scenarios: Iterable[Scenario | str] = PAPER_SCENARIOS,
    *,
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
    summary_only: bool = False,
) -> dict[tuple[str, str], RunResult]:
    """Run the full (scenario x policy) matrix used by Figures 6-8.

    Results are keyed by ``(setting_name, policy_name)``, the rows the
    figures print, so two scenarios of one setting raise ``ValueError``
    before any run.

    ``n_jobs`` fans the independent cells out across worker processes
    (1 = in-process, ``None``/0 = one per core); results are identical.

    ``store`` caches each cell's summary by spec identity.  Figure 6 reads
    only summaries, so a ``summary_only=True`` matrix re-renders from a
    warm store without a single simulation; Figures 7 and 8 read the raw
    metrics, so they must keep ``summary_only=False`` — their cells always
    execute, but still persist summaries that warm the cache for every
    summary-level consumer (Figure 6, :func:`run_matrix`,
    ``esg-repro sweep``, ...).
    """
    scenario_list = [resolve_scenario(scenario) for scenario in scenarios]
    repeated = find_duplicates(scenario.setting for scenario in scenario_list)
    if repeated:
        raise ValueError(
            f"scenarios repeat setting(s) {', '.join(map(repr, repeated))}; Figures "
            "6-8 key their rows by setting, so give each scenario its own setting"
        )
    results = run_matrix(
        scenario_list,
        policies,
        config=config,
        n_jobs=n_jobs,
        store=store,
        summary_only=summary_only,
    )
    return {(result.setting.name, policy): result for (_, policy), result in results.items()}


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def figure6_rows(results: Mapping[tuple[str, str], RunResult]) -> list[Figure6Row]:
    """Average SLO hit rate and ESG-normalised cost per (setting, policy)."""
    rows: list[Figure6Row] = []
    settings = sorted({setting for (setting, _) in results})
    for setting in settings:
        esg_cost = None
        for (s, policy), result in results.items():
            if s == setting and policy == "ESG":
                esg_cost = result.summary.total_cost_cents
        for (s, policy), result in sorted(results.items()):
            if s != setting:
                continue
            cost = result.summary.total_cost_cents
            normalized = cost / esg_cost if esg_cost else float("nan")
            rows.append(
                Figure6Row(
                    setting=setting,
                    policy=policy,
                    slo_hit_rate=result.summary.slo_hit_rate,
                    total_cost_cents=cost,
                    cost_normalized_to_esg=normalized,
                )
            )
    return rows


def render_figure6(rows: list[Figure6Row]) -> str:
    """Text rendering of Figure 6."""
    table_rows = [
        [r.setting, r.policy, format_percent(r.slo_hit_rate), r.total_cost_cents, r.cost_normalized_to_esg]
        for r in rows
    ]
    return format_table(
        ["Setting", "Policy", "SLO hit rate", "Cost (cents)", "Cost / ESG"],
        table_rows,
        title="Figure 6: Average SLO hit rate and cost (normalised to ESG)",
    )


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
def figure7_curves(
    results: Mapping[tuple[str, str], RunResult], *, setting: str = "relaxed-heavy"
) -> list[LatencyCurve]:
    """Per-application end-to-end latency curves for one setting."""
    curves: list[LatencyCurve] = []
    for (s, policy), result in sorted(results.items()):
        if s != setting:
            continue
        for app in result.metrics.app_names():
            latencies = tuple(result.metrics.latencies_ms(app))
            # Read the SLO from the collector: a run retains no request list.
            slo_ms = result.metrics.app_slo_ms(app) or 0.0
            curves.append(
                LatencyCurve(
                    setting=s,
                    app=app,
                    policy=policy,
                    latencies_ms=latencies,
                    slo_ms=slo_ms,
                )
            )
    return curves


def render_figure7(curves: list[LatencyCurve]) -> str:
    """Text rendering of Figure 7 (summary statistics of each curve)."""
    rows = []
    for curve in curves:
        if curve.latencies_ms:
            mean = sum(curve.latencies_ms) / len(curve.latencies_ms)
            worst = max(curve.latencies_ms)
            within = sum(1 for v in curve.latencies_ms if v <= curve.slo_ms) / len(curve.latencies_ms)
        else:
            mean, worst, within = 0.0, 0.0, 0.0
        rows.append(
            [
                curve.app,
                curve.policy,
                curve.slo_ms,
                mean,
                worst,
                format_percent(within),
                len(curve.latencies_ms),
            ]
        )
    return format_table(
        ["Application", "Policy", "SLO (ms)", "Mean latency", "Max latency", "Within SLO", "Jobs"],
        rows,
        title="Figure 7: End-to-end latency per application (relaxed-heavy)",
    )


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
def figure8_rows(results: Mapping[tuple[str, str], RunResult]) -> list[Figure8Row]:
    """Per-application SLO hit rate and cost for every (setting, policy)."""
    rows: list[Figure8Row] = []
    settings = sorted({setting for (setting, _) in results})
    for setting in settings:
        apps: set[str] = set()
        for (s, _), result in results.items():
            if s == setting:
                apps.update(result.metrics.app_names())
        for app in sorted(apps):
            esg_cost = None
            for (s, policy), result in results.items():
                if s == setting and policy == "ESG":
                    esg_cost = result.metrics.total_cost_cents(app)
            for (s, policy), result in sorted(results.items()):
                if s != setting:
                    continue
                cost = result.metrics.total_cost_cents(app)
                normalized = cost / esg_cost if esg_cost else float("nan")
                rows.append(
                    Figure8Row(
                        setting=setting,
                        app=app,
                        policy=policy,
                        slo_hit_rate=result.metrics.slo_hit_rate(app),
                        cost_cents=cost,
                        cost_normalized_to_esg=normalized,
                    )
                )
    return rows


def render_figure8(rows: list[Figure8Row]) -> str:
    """Text rendering of Figure 8."""
    table_rows = [
        [r.setting, r.app, r.policy, format_percent(r.slo_hit_rate), r.cost_cents, r.cost_normalized_to_esg]
        for r in rows
    ]
    return format_table(
        ["Setting", "Application", "Policy", "SLO hit rate", "Cost (cents)", "Cost / ESG"],
        table_rows,
        title="Figure 8: Per-application SLO hit rates and cost",
    )
