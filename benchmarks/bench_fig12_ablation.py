"""Benchmark regenerating Figure 12 (GPU-sharing / batching ablation)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments.ablation import render_figure12, run_figure12


def test_fig12_gpu_sharing_and_batching_ablation(benchmark, bench_config, bench_jobs):
    rows = run_once(
        benchmark, run_figure12, scenario="paper-relaxed-heavy", config=bench_config, n_jobs=bench_jobs
    )
    print()
    print(render_figure12(rows))

    by_variant = {r.variant: r for r in rows}
    esg = by_variant["ESG"]
    no_sharing = by_variant["ESG w/o GPU sharing"]
    no_batching = by_variant["ESG w/o batching"]

    # Removing GPU sharing wastes GPU capacity: each task grabs a whole GPU,
    # so the consumed vGPU-time (and with it the cost) goes up substantially.
    assert no_sharing.total_vgpu_ms > esg.total_vgpu_ms
    assert no_sharing.total_cost_cents > esg.total_cost_cents

    # Removing batching costs more per job than full ESG (batching amortises
    # the fixed per-invocation work) while hit rates stay comparable.
    assert no_batching.total_cost_cents >= esg.total_cost_cents * 0.95
    assert esg.slo_hit_rate >= max(r.slo_hit_rate for r in rows) - 0.1
