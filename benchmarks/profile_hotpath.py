"""Hot-path profile of a streaming run.

Runs one end-to-end simulation (the same single-stage relaxed-heavy
configuration as ``bench_workload_scale.py``'s end-to-end row) under
cProfile and buckets the per-function ``tottime`` by subsystem — event
loop vs dispatch/policy vs controller vs metrics vs cluster state — so
every future PR can see where the next bottleneck moved without
re-deriving the breakdown.  The result is printed as a table and emitted
as a BENCH JSON artifact next to the scale benchmarks.

cProfile inflates small-function call costs (~2.5-3x wall clock on the
event loop, which is exactly the many-small-calls shape tracing is worst
at), so the *shares* are the signal here, never the absolute seconds —
throughput claims live in the repository benchmark (``perfbench/``),
timed untraced.

Environment knobs::

    REPRO_PROFILE_REQUESTS=20000            # simulated request count
    REPRO_BENCH_JSON=profile_hotpath.json   # also write BENCH JSON here
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time

from conftest import run_once

from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import build_profile_store, make_policy
from repro.utils.rng import derive_rng
from repro.workloads.applications import build_application
from repro.workloads.generator import RELAXED_HEAVY, WorkloadGenerator

DEFAULT_PROFILE_REQUESTS = 20_000

#: How many individual functions to keep in the JSON artifact.
TOP_FUNCTIONS = 25

#: Subsystem buckets, matched by path fragment in declaration order (first
#: match wins).  Anything unmatched — stdlib, numpy, builtins — lands in
#: ``other``.
BUCKETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("event_loop", ("cluster/simulator.py", "cluster/events.py")),
    ("controller", ("cluster/controller.py",)),
    ("policy", ("core/", "baselines/", "cluster/policy_api.py")),
    ("metrics", ("cluster/metrics.py", "utils/stats.py")),
    (
        "cluster_state",
        (
            "cluster/cluster.py",
            "cluster/invoker.py",
            "cluster/container.py",
            "cluster/tasks.py",
        ),
    ),
    ("prewarm", ("cluster/prewarm.py",)),
    ("profiles", ("profiles/",)),
    ("workload", ("workloads/",)),
)


def profile_requests() -> int:
    return int(os.environ.get("REPRO_PROFILE_REQUESTS", DEFAULT_PROFILE_REQUESTS))


def bucket_of(filename: str) -> str:
    normalized = filename.replace(os.sep, "/")
    for bucket, fragments in BUCKETS:
        if any(fragment in normalized for fragment in fragments):
            return bucket
    return "other"


def run_profiled(num_requests: int) -> dict:
    """One streaming run under cProfile; returns the breakdown."""
    store = build_profile_store()
    generator = WorkloadGenerator(
        applications=[build_application("single_stage_classification")],
        setting=RELAXED_HEAVY,
        profile_store=store,
        rng=derive_rng(42, "bench-workload-e2e"),
    )
    simulation = Simulation(
        policy=make_policy("ESG"),
        requests=generator.stream(num_requests),
        profile_store=store,
        config=SimulationConfig(seed=42),
        setting_name=RELAXED_HEAVY.name,
    )
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    summary = simulation.run()
    profiler.disable()
    elapsed = time.perf_counter() - start
    assert summary.num_completed == num_requests, summary.num_completed

    stats = pstats.Stats(profiler)
    buckets: dict[str, float] = {name: 0.0 for name, _ in BUCKETS}
    buckets["other"] = 0.0
    total_tottime = 0.0
    rows = []
    for (filename, lineno, funcname), (
        _primitive_calls,
        ncalls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():
        total_tottime += tottime
        buckets[bucket_of(filename)] += tottime
        rows.append((tottime, cumtime, ncalls, filename, lineno, funcname))
    rows.sort(reverse=True)

    top = [
        {
            "function": f"{os.path.basename(filename)}:{lineno}({funcname})",
            "bucket": bucket_of(filename),
            "ncalls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        }
        for tottime, cumtime, ncalls, filename, lineno, funcname in rows[:TOP_FUNCTIONS]
    ]
    shares = {
        name: round(seconds / total_tottime, 4) if total_tottime else 0.0
        for name, seconds in buckets.items()
    }
    return {
        "benchmark": "profile_hotpath",
        "requests": num_requests,
        "completed": summary.num_completed,
        "run_s": round(elapsed, 2),
        "requests_per_s": round(num_requests / elapsed),
        "total_tottime_s": round(total_tottime, 2),
        "bucket_tottime_s": {k: round(v, 4) for k, v in buckets.items()},
        "bucket_shares": shares,
        "top_functions": top,
    }


def emit_bench_json(report: dict) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    print("BENCH_JSON " + json.dumps(report, sort_keys=True))
    out_path = os.environ.get("REPRO_BENCH_JSON")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def render_report(report: dict) -> str:
    lines = [
        f"Hot-path profile  ({report['requests']} requests, traced "
        f"{report['run_s']}s = {report['requests_per_s']}/s under cProfile)",
        f"{'bucket':>14}  {'tottime s':>10}  {'share':>6}",
    ]
    shares = report["bucket_shares"]
    for name, seconds in sorted(
        report["bucket_tottime_s"].items(), key=lambda item: -item[1]
    ):
        lines.append(f"{name:>14}  {seconds:>10.3f}  {shares[name] * 100:>5.1f}%")
    lines.append("top functions by tottime:")
    for row in report["top_functions"][:10]:
        lines.append(
            f"  {row['tottime_s']:>7.3f}s  {row['ncalls']:>8}x  {row['function']}"
        )
    return "\n".join(lines)


def test_profile_hotpath(benchmark):
    report = run_once(benchmark, run_profiled, profile_requests())
    print()
    print(render_report(report))
    emit_bench_json(report)

    assert report["completed"] == report["requests"], report
    # The bucket decomposition must account for every sampled function.
    assert (
        abs(sum(report["bucket_tottime_s"].values()) - report["total_tottime_s"]) < 0.02
    ), report["bucket_tottime_s"]
