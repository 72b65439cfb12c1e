"""Cluster-scale benchmark: the cluster core's scheduling pass as nodes grow.

Sweeps the cluster from the paper's 16 invokers toward 1024, running the
same ESG workload once per size on the indexed cluster core (capacity
buckets, warm index, event-driven expiry, dirty-queue scheduling).

Two timings are reported per run:

* ``tick_s`` — wall time inside ``controller.on_tick`` (the whole
  controller round including the policy's plan search), and
* ``platform_s`` — ``tick_s`` minus the time spent inside ``policy.plan``:
  the platform-side scheduling-pass cost the cluster indexes target.  The
  plan search does not depend on the node count, so the platform metric is
  the honest measure of how the pass scales with it.

The headline acceptance number: ``platform_s`` at **>= 256 invokers is at
most 6x** ``platform_s`` at 16 invokers (1.2-1.5x measured at 256 and
1.6-2.2x at 1024 invokers).  That bound
restates the retired gate ">= 5x platform speedup over the linear-scan
cluster at 256 invokers": measured at 60 requests on a 2-vCPU Xeon VM, the
scan path's 256-invoker ``platform_s`` over 5 was 6.2x to 11x the indexed
16-invoker ``platform_s`` across five runs, so 6x is no looser than the
tightest of them.  The summaries of ESG and INFless on a 64-invoker
cluster are golden cells (``tests/golden/lattice/*-inv64-*``).

Environment knobs::

    REPRO_BENCH_CLUSTER_SIZES=16,64,256,1024   # sweep sizes
    REPRO_BENCH_CLUSTER_SCENARIO=paper-moderate-normal
    REPRO_BENCH_REQUESTS=60                    # requests per run
    REPRO_BENCH_JSON=bench_cluster_scale.json  # also write the BENCH JSON here
"""

from __future__ import annotations

import json
import os
import time

from conftest import bench_requests, run_once

from repro.cluster.cluster import ClusterConfig
from repro.cluster.controller import ControllerConfig
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import build_profile_store, make_policy
from repro.workloads.scenarios import get_scenario

DEFAULT_SIZES = (16, 64, 256, 1024)

#: Below this many requests the tick sample is too thin for a stable ratio,
#: so the scaling assertion is skipped (the completeness check never is).
MIN_REQUESTS_FOR_SCALING_ASSERT = 40

#: ``platform_s`` at >= 256 invokers over ``platform_s`` at 16 invokers.
MAX_PLATFORM_GROWTH = 6.0


def sweep_sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_CLUSTER_SIZES")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


def bench_scenario_name() -> str:
    return os.environ.get("REPRO_BENCH_CLUSTER_SCENARIO", "paper-moderate-normal")


def timed_run(store, scenario, num_invokers: int, requests: int):
    """One full simulation; returns (summary, tick_seconds, plan_seconds)."""
    policy = make_policy("ESG")
    plan_acc = [0.0]
    inner_plan = policy.plan

    def timed_plan(queue, now_ms):
        start = time.perf_counter()
        try:
            return inner_plan(queue, now_ms)
        finally:
            plan_acc[0] += time.perf_counter() - start

    policy.plan = timed_plan
    simulation = Simulation(
        policy=policy,
        requests=scenario.build_requests(requests, 42, store),
        profile_store=store,
        config=SimulationConfig(
            cluster=ClusterConfig(num_invokers=num_invokers),
            controller=ControllerConfig(initial_warm="all"),
        ),
        setting_name=scenario.setting,
    )
    tick_acc = [0.0]
    controller = simulation.controller
    inner_tick = controller.on_tick

    def timed_tick(now_ms):
        start = time.perf_counter()
        try:
            inner_tick(now_ms)
        finally:
            tick_acc[0] += time.perf_counter() - start

    controller.on_tick = timed_tick
    summary = simulation.run()
    return summary, tick_acc[0], plan_acc[0]


def run_cluster_scale_sweep(requests: int, sizes: tuple[int, ...]) -> dict:
    store = build_profile_store()
    scenario = get_scenario(bench_scenario_name())
    rows = []
    platform: dict[int, float] = {}
    for num_invokers in sizes:
        summary, tick_s, plan_s = timed_run(store, scenario, num_invokers, requests)
        platform[num_invokers] = max(1e-9, tick_s - plan_s)
        rows.append(
            {
                "num_invokers": num_invokers,
                "tick_s": round(tick_s, 4),
                "plan_s": round(plan_s, 4),
                "platform_s": round(platform[num_invokers], 4),
                "completed": summary.num_completed == summary.num_requests == requests,
            }
        )
    base = platform.get(16)
    for row in rows:
        row["platform_growth"] = (
            round(platform[row["num_invokers"]] / base, 2) if base is not None else None
        )
    return {
        "benchmark": "cluster_scale",
        "scenario": scenario.name,
        "requests": requests,
        "sizes": rows,
    }


def emit_bench_json(report: dict) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    print("BENCH_JSON " + json.dumps(report, sort_keys=True))
    out_path = os.environ.get("REPRO_BENCH_JSON")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def render_rows(report: dict) -> str:
    lines = [
        f"Cluster-scale sweep  ({report['scenario']}, {report['requests']} requests)",
        f"{'invokers':>8}  {'tick':>8}  {'plan':>8}  {'platform':>9}  {'vs 16':>6}",
    ]
    for row in report["sizes"]:
        growth = row["platform_growth"]
        lines.append(
            f"{row['num_invokers']:>8}  {row['tick_s']:>7.3f}s  {row['plan_s']:>7.3f}s  "
            f"{row['platform_s']:>8.4f}s  "
            + (f"{growth:>5.2f}x" if growth is not None else f"{'-':>6}")
        )
    return "\n".join(lines)


def test_cluster_scale(benchmark):
    requests = bench_requests()
    sizes = sweep_sizes()
    report = run_once(benchmark, run_cluster_scale_sweep, requests, sizes)
    print()
    print(render_rows(report))
    emit_bench_json(report)

    for row in report["sizes"]:
        assert row["completed"], row["num_invokers"]

    # The acceptance number: the platform pass at >= 256 invokers costs at
    # most 6x the 16-invoker pass (skipped on tiny smoke sweeps where the
    # sample is too thin, and on sweeps without a 16-invoker row).
    if requests >= MIN_REQUESTS_FOR_SCALING_ASSERT:
        for row in report["sizes"]:
            if row["num_invokers"] >= 256 and row["platform_growth"] is not None:
                assert row["platform_growth"] <= MAX_PLATFORM_GROWTH, row
