"""Figure 12: ablation of the GPU-sharing and batching strategies.

"We individually removed either the GPU-sharing or batching strategy from
ESG and contrasted the results with the original ESG.  We set a heavy
workload in this experiment specifically to underline the effects of the
batching strategy."  Expected shape: without GPU sharing, waiting times grow
substantially (jobs queue for whole GPUs) and SLO hit rates drop; without
batching the cost rises while hit rates stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.experiments.store import ResultStore

from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.report import format_percent, format_table
from repro.experiments.runner import ExperimentConfig
from repro.workloads.scenarios import Scenario

__all__ = [
    "AblationRow",
    "ablation_variant_overrides",
    "run_figure12",
    "render_figure12",
]


@dataclass(frozen=True)
class AblationRow:
    """Results of one ESG variant in the ablation study."""

    variant: str
    slo_hit_rate: float
    total_cost_cents: float
    cost_normalized_to_esg: float
    mean_waiting_ms: float
    mean_latency_ms: float
    total_vgpu_ms: float


def ablation_variant_overrides() -> dict[str, dict[str, object]]:
    """ESG constructor overrides of each Figure 12 variant (picklable form)."""
    return {
        "ESG": {},
        "ESG w/o GPU sharing": {"gpu_sharing": False, "name": "ESG w/o GPU sharing"},
        "ESG w/o batching": {"batching": False, "name": "ESG w/o batching"},
    }


def run_figure12(
    *,
    scenario: Scenario | str = "paper-relaxed-heavy",
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> list[AblationRow]:
    """Run the ablation study under a heavy workload.

    The variants (:func:`ablation_variant_overrides`) run through the
    experiment engine, so ``n_jobs`` parallelises them and a ``store``
    makes repeat renders load every cached cell.  The variant *label*
    stays out of the cache key; the constructor overrides that define the
    variant are what hash.
    """
    config = config or ExperimentConfig()
    specs = [
        RunSpec(
            "ESG",
            scenario,
            config=config,
            policy_overrides=overrides,
            label=label,
            summary_only=True,
        )
        for label, overrides in ablation_variant_overrides().items()
    ]
    labels = [spec.label for spec in specs]
    summaries = [r.summary for r in ExperimentEngine(n_jobs, store=store).run(specs)]
    raw = [
        (
            label,
            summary.slo_hit_rate,
            summary.total_cost_cents,
            summary.mean_waiting_ms,
            summary.mean_latency_ms,
            summary.total_vgpu_ms,
        )
        for label, summary in zip(labels, summaries)
    ]
    esg_cost = next((cost for label, _, cost, _, _, _ in raw if label == "ESG"), None)
    rows: list[AblationRow] = []
    for label, hit, cost, wait, latency, vgpu_ms in raw:
        rows.append(
            AblationRow(
                variant=label,
                slo_hit_rate=hit,
                total_cost_cents=cost,
                cost_normalized_to_esg=(cost / esg_cost if esg_cost else float("nan")),
                mean_waiting_ms=wait,
                mean_latency_ms=latency,
                total_vgpu_ms=vgpu_ms,
            )
        )
    return rows


def render_figure12(rows: list[AblationRow]) -> str:
    """Text rendering of Figure 12."""
    table_rows = [
        [
            r.variant,
            format_percent(r.slo_hit_rate),
            r.total_cost_cents,
            r.cost_normalized_to_esg,
            r.mean_waiting_ms,
            r.mean_latency_ms,
        ]
        for r in rows
    ]
    return format_table(
        ["Variant", "SLO hit rate", "Cost (cents)", "Cost / ESG", "Mean waiting (ms)", "Mean latency (ms)"],
        table_rows,
        title="Figure 12: GPU-sharing and batching ablation (heavy workload)",
    )
