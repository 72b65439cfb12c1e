"""Table 4: pre-planned scheduling miss rate of the static planners.

"Table 4 shows the percentage of times when the configurations fail to apply
to a function because the batch size in the configuration is even greater
than the number of jobs in the queue of that function when it is time to be
scheduled."  The paper reports 9.6-51.7% for Orion's best-first search and
58.7-85.5% for Aquatope's BO, growing with workload intensity for Orion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.experiments.store import ResultStore

from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.report import format_percent, format_table
from repro.experiments.runner import ExperimentConfig
from repro.workloads.scenarios import PAPER_SCENARIOS, Scenario

__all__ = ["MissRateRow", "run_table4", "render_table4"]


@dataclass(frozen=True)
class MissRateRow:
    """Pre-planned configuration miss rate of one policy under one setting.

    ``setting`` is the name of the run scenario's workload setting.
    """

    setting: str
    policy: str
    plan_attempts: int
    plan_misses: int

    @property
    def miss_rate(self) -> float:
        """Fraction of plan applications that could not be applied as planned."""
        if self.plan_attempts == 0:
            return 0.0
        return self.plan_misses / self.plan_attempts


def run_table4(
    policies: Iterable[str] = ("Orion", "Aquatope"),
    scenarios: Iterable[Scenario | str] = PAPER_SCENARIOS,
    *,
    config: ExperimentConfig | None = None,
    n_jobs: int | None = 1,
    store: "ResultStore | str | None" = None,
) -> list[MissRateRow]:
    """Measure the configuration miss rate of the static planners.

    Summary-only: with a ``store``, repeat renders load every cached cell.
    """
    config = config or ExperimentConfig()
    specs = [
        RunSpec(policy, scenario, config=config, summary_only=True)
        for scenario in scenarios
        for policy in policies
    ]
    results = ExperimentEngine(n_jobs, store=store).run(specs)
    return [
        MissRateRow(
            setting=spec.setting_name,
            policy=spec.policy,
            plan_attempts=result.summary.plan_attempts,
            plan_misses=result.summary.plan_misses,
        )
        for spec, result in zip(specs, results)
    ]


def render_table4(rows: list[MissRateRow]) -> str:
    """Text rendering of Table 4."""
    table_rows = [
        [r.setting, r.policy, r.plan_attempts, r.plan_misses, format_percent(r.miss_rate)]
        for r in rows
    ]
    return format_table(
        ["Setting", "Policy", "Plan attempts", "Misses", "Miss rate"],
        table_rows,
        title="Table 4: Pre-planned scheduling miss rate",
    )
