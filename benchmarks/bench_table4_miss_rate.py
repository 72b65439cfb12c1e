"""Benchmark regenerating Table 4 (pre-planned scheduling miss rate)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments.miss_rate import render_table4, run_table4
from repro.workloads.scenarios import PAPER_SCENARIOS


def test_table4_preplanned_miss_rate(benchmark, bench_config, bench_jobs):
    rows = run_once(
        benchmark,
        run_table4,
        ("Orion", "Aquatope"),
        PAPER_SCENARIOS,
        config=bench_config,
        n_jobs=bench_jobs,
    )
    print()
    print(render_table4(rows))

    by_key = {(r.setting, r.policy): r for r in rows}
    # Static planners make plan attempts in every setting.
    assert all(r.plan_attempts > 0 for r in rows)
    # Aquatope's offline-BO plans miss frequently (the paper reports 59-86%).
    assert by_key[("relaxed-heavy", "Aquatope")].miss_rate > 0.2
    # Orion misses grow with workload intensity (9.6% -> 51.7% in the paper).
    assert (
        by_key[("relaxed-heavy", "Orion")].miss_rate
        >= by_key[("strict-light", "Orion")].miss_rate - 1e-9
    )
