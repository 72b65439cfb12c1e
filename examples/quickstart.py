#!/usr/bin/env python3
"""Quickstart: schedule one small DNN-workflow workload with ESG.

Runs the paper's strict-light scenario (a random mix of the paper's four
applications) on the emulated 16-node GPU cluster, once with ESG and once
with the INFless baseline, and prints the headline metrics.  The two runs
are described as picklable ``RunSpec``s and executed by the
``ExperimentEngine`` — the same path every sweep in this repository uses.
``n_jobs=2`` fans them out across worker processes; ``n_jobs=1`` runs them
in-process, and determinism guarantees both produce identical numbers.

Usage::

    python examples/quickstart.py [num_requests]
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentConfig, ExperimentEngine, RunSpec


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    config = ExperimentConfig(num_requests=num_requests, seed=7)

    print(
        f"Scheduling {num_requests} requests (strict SLO, light load) "
        f"on 16 emulated GPU nodes...\n"
    )
    specs = [
        RunSpec(policy, "paper-strict-light", config=config)
        for policy in ("ESG", "INFless")
    ]
    results = ExperimentEngine(n_jobs=2).run(specs)

    print(f"{'policy':<12} {'SLO hit rate':>12} {'cost (cents)':>14} {'mean latency':>14}")
    for spec, result in zip(specs, results):
        summary = result.summary
        print(
            f"{spec.policy:<12} {summary.slo_hit_rate:>11.1%} "
            f"{summary.total_cost_cents:>14.2f} {summary.mean_latency_ms:>11.0f} ms"
        )

    print(
        "\nESG re-plans every stage with its dual-blade-pruned search, so it meets"
        "\nthe SLO while spending noticeably less than the throughput-maximising"
        "\nINFless baseline."
    )


if __name__ == "__main__":
    main()
