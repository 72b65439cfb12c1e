"""Benchmark regenerating Figure 11 (sensitivity to the K parameter)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments.sensitivity import render_figure11, run_figure11


def test_fig11_sensitivity_to_k(benchmark, bench_config, bench_jobs):
    points = run_once(
        benchmark,
        run_figure11,
        (1, 5, 20, 40, 80),
        scenario="paper-strict-light",
        config=bench_config,
        n_jobs=bench_jobs,
    )
    print()
    print(render_figure11(points))

    by_k = {p.k: p for p in points}
    # The search overhead grows (weakly) with K...
    assert by_k[80].mean_overhead_ms >= by_k[1].mean_overhead_ms * 0.8
    # ...while the SLO hit rate stays essentially unchanged...
    assert abs(by_k[80].slo_hit_rate - by_k[1].slo_hit_rate) <= 0.15
    # ...and the cost does not increase with more fallback candidates.
    assert by_k[80].total_cost_cents <= by_k[1].total_cost_cents * 1.10
