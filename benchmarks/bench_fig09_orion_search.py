"""Benchmark regenerating Figure 9 (Orion search time vs. SLO hit rate)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments.orion_search import render_figure9, run_figure9


def test_fig09_orion_search_tradeoff(benchmark, bench_config, bench_jobs):
    points = run_once(
        benchmark,
        run_figure9,
        (1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0),
        scenario="paper-strict-light",
        config=bench_config,
        n_jobs=bench_jobs,
    )
    print()
    print(render_figure9(points))

    with_overhead = {p.cutoff_ms: p for p in points if p.count_search_overhead}
    without_overhead = {p.cutoff_ms: p for p in points if not p.count_search_overhead}

    # Charging the search overhead can only hurt the hit rate.
    for cutoff, point in with_overhead.items():
        assert point.slo_hit_rate <= without_overhead[cutoff].slo_hit_rate + 1e-9

    # Without overhead, a larger search budget never hurts configuration quality
    # (hit rate is non-decreasing up to noise); with overhead the largest
    # cutoffs are no better than the small ones — the paper's collapse.
    assert without_overhead[2000.0].slo_hit_rate >= without_overhead[1.0].slo_hit_rate - 0.05
    assert (
        with_overhead[2000.0].slo_hit_rate
        <= without_overhead[2000.0].slo_hit_rate + 1e-9
    )
