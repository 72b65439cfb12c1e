"""Benchmark regenerating Figure 7 (per-application end-to-end latencies,
relaxed-heavy setting)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments.end_to_end import figure7_curves, render_figure7, run_end_to_end
from repro.experiments.runner import DEFAULT_POLICIES


def test_fig07_end_to_end_latency_curves(benchmark, bench_config, bench_jobs):
    results = run_once(
        benchmark,
        run_end_to_end,
        DEFAULT_POLICIES,
        ("paper-relaxed-heavy",),
        config=bench_config,
        n_jobs=bench_jobs,
    )
    curves = figure7_curves(results, setting="relaxed-heavy")
    print()
    print(render_figure7(curves))

    # Every (application, policy) pair produced at least one completed request.
    assert curves
    assert all(len(c.latencies_ms) > 0 for c in curves)

    # ESG keeps latencies below but close to the SLO: its mean latency per
    # application stays under the SLO while not being the smallest possible
    # (it trades latency slack for cost, unlike INFless).
    for app in {c.app for c in curves}:
        esg_curve = next(c for c in curves if c.app == app and c.policy == "ESG")
        mean_esg = sum(esg_curve.latencies_ms) / len(esg_curve.latencies_ms)
        assert mean_esg <= esg_curve.slo_ms * 1.25
