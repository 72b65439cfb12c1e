#!/usr/bin/env python3
"""Tour the scenario registry: one scheduler against every kind of demand.

Lists the registered scenarios, then runs ESG and INFless on a sampler of
them — paper-faithful Azure arrivals, Poisson, MMPP-style bursts, diurnal
drift, trace replay and a horizon-bounded overload spike — and prints how
each scheduler's SLO hit rate and cost hold up as the demand model changes.

Usage::

    python examples/scenario_tour.py [num_requests] [n_jobs]
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentConfig, run_matrix
from repro.experiments.scenario_sweep import render_scenario_list
from repro.workloads import scenario_names

TOUR = (
    "paper-moderate-normal",
    "poisson-normal",
    "bursty-onoff-heavy",
    "diurnal-normal",
    "trace-replay-azure",
    "mixed-dags-normal",
    "overload-spike",
)


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    n_jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    print(render_scenario_list())

    tour = [name for name in TOUR if name in scenario_names()]
    policies = ("ESG", "INFless")
    print(
        f"\nRunning {len(policies)} schedulers x {len(tour)} scenarios "
        f"({num_requests} requests each, {n_jobs} worker processes)...\n"
    )
    results = run_matrix(
        tour, policies, config=ExperimentConfig(num_requests=num_requests, seed=42), n_jobs=n_jobs
    )

    print(f"{'scenario':<24} {'policy':<10} {'SLO hit':>8} {'cost (c)':>9} {'truncated':>10}")
    for scenario in tour:
        for policy in policies:
            summary = results[(scenario, policy)].summary
            print(
                f"{scenario:<24} {policy:<10} {summary.slo_hit_rate:>7.1%} "
                f"{summary.total_cost_cents:>9.2f} {str(summary.truncated):>10}"
            )

    print(
        "\nThe paper's ordering (ESG meets the SLO cheaper than INFless) holds on"
        "\nthe smooth scenarios; the bursty and overload ones show where every"
        "\nscheduler starts missing deadlines — exactly the territory the paper"
        "\nnever mapped."
    )


if __name__ == "__main__":
    main()
