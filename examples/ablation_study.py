#!/usr/bin/env python3
"""Reproduce the Figure 12 ablation on a small heavy workload.

Runs ESG, ESG without GPU sharing and ESG without batching on the same
relaxed-heavy workload and prints the SLO hit rate, cost and GPU time of
each variant.  The variants are independent runs, so the engine fans them
out across worker processes (second argument).

Usage::

    python examples/ablation_study.py [num_requests] [n_jobs]
"""

from __future__ import annotations

import sys

from repro.experiments.ablation import run_figure12
from repro.experiments.runner import ExperimentConfig


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    n_jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    config = ExperimentConfig(num_requests=num_requests, seed=21)

    print(f"Running the GPU-sharing / batching ablation ({num_requests} requests, heavy load)...\n")
    rows = run_figure12(scenario="paper-relaxed-heavy", config=config, n_jobs=n_jobs)

    print(f"{'variant':<22} {'SLO hit':>8} {'cost/ESG':>9} {'vGPU-seconds':>13} {'mean wait':>10}")
    for row in rows:
        print(
            f"{row.variant:<22} {row.slo_hit_rate:>7.1%} {row.cost_normalized_to_esg:>9.2f} "
            f"{row.total_vgpu_ms / 1000.0:>13.1f} {row.mean_waiting_ms:>8.1f}ms"
        )

    print(
        "\nWithout GPU sharing every task monopolises a whole GPU, inflating the"
        "\nconsumed GPU time and cost; without batching the per-job cost rises"
        "\nbecause the fixed per-invocation work is no longer amortised."
    )


if __name__ == "__main__":
    main()
