"""The repository benchmark: ESG simulator throughput, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, seed 42
    python3 perfbench/run.py --workload paper-dag --seed 7
    python3 perfbench/run.py --workload churn-storm --trace 1

A run starts fresh single-threaded interpreters (``child.py``) one at a
time.  In plain mode the first one simulates input 0 only, so that input
always runs in two interpreters.  Each later one is a whole pass: it
simulates every input of the workload (see ``workloads.py``) once, in
order.  The run makes one pass, and starts another while the last one's
wall time still fits in ``--seconds`` (the measuring budget of each
workload; its default is ``run_seconds`` in ``BENCHMARK.json``), so every
input runs equally often in the passes.

``--trace 0`` reports the end-to-end metrics:

* ``sim_req_per_s`` — simulated requests per host second of
  ``Simulation.run()``, at the nominal host speed of ``hostspeed.py``:
  a reference kernel timed every quarter second through each run scales
  that slice of the run.  A pass's rate is its requests over the summed
  scaled run time of its simulations; the metric is the median over the
  passes.  The unscaled rates are printed beside it;
* ``setup_s`` — host seconds from interpreter start, before ``import
  repro``, to just before the first ``run()``, scaled to the nominal host
  by the kernel timed right after it; median over the run's interpreters;
* ``peak_rss_mb`` — the interpreter's high-water resident set; median;
* ``slo_hit_rate``, ``cost_per_request_cents`` and ``sim_latency_p50_ms``
  — simulated outcomes, the median over the run's inputs (one overloaded
  input cannot swing them), and ``completed_share`` — completed over
  generated requests, pooled.  All four are exact for a given seed.

The simulated p95 latency and the failed share are printed beside them.

``--trace 1`` runs input 0 with every layer boundary wrapped, in as many
interpreters as the budget allows (at least one), and reports the per-layer metrics (medians over the
run's traced interpreters) and the tracing overhead.

Every run checks its outputs: each request reaches exactly one outcome and
no run is truncated; every input gives the identical summary digest in
every interpreter; a traced run's summary equals the untraced one field
for field, and its spans are all closed and lie within the run time.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable

import hostspeed
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

DEFAULT_SEED = 42
#: A single interpreter that takes longer than this is treated as hung.
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "sim_req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slo_hit_rate": "ratio",
    "cost_per_request_cents": "cents",
    "sim_latency_p50_ms": "sim_ms",
    "completed_share": "ratio",
}

#: Unit by metric-name suffix, first match wins.
LAYER_UNITS = {
    "_req_per_s": "1/s",
    "_s": "s",
    "_us_p50": "us",
    "_us_p99": "us",
    "_pct": "%",
    "_share": "ratio",
    "_ratio": "ratio",
    "_yield": "ratio",
    "host_us_per_event": "us",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_seconds() -> int:
    """The measuring budget fixed by ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def fingerprint(seed: int) -> str:
    return (
        f"host python={sys.version.split()[0]} numpy={metadata.version('numpy')} "
        f"nproc={len(os.sched_getaffinity(0))} seed={seed}"
    )


def spawn(workload: Workload, seed: int, mode: str, inputs: int | None = None) -> dict:
    """Run one child interpreter and return its result."""
    command = [sys.executable, str(CHILD), "--workload", workload.name, "--seed", str(seed), "--mode", mode]
    if inputs is not None:
        command += ["--inputs", str(inputs)]
    # One thread per interpreter, and a fixed hash seed so that no two
    # interpreters differ in anything but timing.
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload.name} ({mode}) exceeded {CHILD_TIMEOUT_S}s") from error
    if done.returncode != 0:
        raise BenchmarkError(f"{workload.name} ({mode}) exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def passes(run_one: Callable[[], dict], seconds: float) -> list[dict]:
    """Call ``run_one`` once, and again while the last call's wall time still fits in ``seconds``."""
    start = time.perf_counter()
    results: list[dict] = []
    last_s = 0.0
    while not results or time.perf_counter() - start + last_s <= seconds:
        call_start = time.perf_counter()
        results.append(run_one())
        last_s = time.perf_counter() - call_start
    return results


def plain_run(workload: Workload, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    start = time.perf_counter()
    check = spawn(workload, seed, "plain", inputs=1)
    children = passes(lambda: spawn(workload, seed, "plain"), seconds - (time.perf_counter() - start))
    # by_input[v]: input v's simulation in every interpreter that ran it.
    by_input = [[child["runs"][v] for child in children] for v in range(workload.variants)]
    by_input[0].insert(0, check["runs"][0])
    failures = []
    for variant, runs in enumerate(by_input):
        for run in runs:
            failures.extend(f"input {variant}: {failure}" for failure in run["failures"])
        if len({run["digest"] for run in runs}) > 1:
            failures.append(f"input {variant}: interpreters gave different summaries")
    for variant, runs in enumerate(by_input):
        first = runs[0]
        behaviour = first["behaviour"]
        print(
            f"input {variant} seed={first['input_seed']} digest={first['digest']} interpreters={len(runs)} "
            f"median_run_s={statistics.median(r['run_s'] for r in runs):.4f} "
            f"events_per_req={behaviour['events'] / workload.requests:.4f} "
            f"dispatches={behaviour['dispatches']} forced_min={behaviour['forced_min_dispatches']} "
            f"warm_starts={behaviour['warm_starts']} requeued={behaviour['requeued_jobs']}"
        )
    # Every pass simulates every input once, so passes are comparable as
    # wholes: a pass's rate is its requests over its summed run time.
    total = workload.variants * workload.requests
    scaled = [total / sum(r["scaled_s"] for r in child["runs"]) for child in children]
    unscaled = [total / sum(r["run_s"] for r in child["runs"]) for child in children]
    print("sim_req_per_s by pass: " + " ".join(f"{rate:.2f}" for rate in scaled))
    print(
        "unscaled by pass: " + " ".join(f"{rate:.2f}" for rate in unscaled)
        + "; mean kernel s by pass: "
        + " ".join(f"{statistics.fmean(r['kernel_s'] for r in child['runs']):.4f}" for child in children)
        + f" (nominal {hostspeed.NOMINAL_S} s); unscaled setup_s median "
        + f"{statistics.median(child['setup_s'] for child in [check, *children]):.4f} s"
    )
    summaries = [runs[0]["summary"] for runs in by_input]
    completed = sum(s["num_completed"] for s in summaries)
    metrics = {
        "sim_req_per_s": statistics.median(scaled),
        "setup_s": statistics.median(child["setup_scaled_s"] for child in [check, *children]),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
        "slo_hit_rate": statistics.median(s["slo_hit_rate"] for s in summaries),
        "cost_per_request_cents": statistics.median(s["cost_per_request_cents"] for s in summaries),
        "sim_latency_p50_ms": statistics.median(runs[0]["latency_p50_ms"] for runs in by_input),
        "completed_share": completed / total,
    }
    # Printed, not gated: on churn-storm a few inputs' p95 lands among
    # requests that starve through the post-storm overload, so it swings
    # by about a third from one seed to the next.
    p95 = statistics.median(s["p95_latency_ms"] for s in summaries)
    print(
        f"simulated outcomes: median over {len(summaries)} inputs of {workload.requests} "
        f"requests each; sim_latency_p95_ms = {p95} sim_ms "
        f"({workload.requests // 20} samples beyond each input's p95); "
        f"failed_share = {(total - completed) / total} ratio"
    )
    attempted = len(children) * total + workload.requests
    failed = sum(workload.requests - r["summary"]["num_completed"] for runs in by_input for r in runs)
    return metrics, failures, attempted, failed


def traced_run(workload: Workload, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    runs = passes(lambda: spawn(workload, seed, "traced"), seconds)
    failures = [failure for run in runs for failure in run["failures"]]
    if len({run["digest"] for run in runs}) > 1:
        failures.append("interpreters gave different summaries")
    if len({json.dumps(run["behaviour"], sort_keys=True) for run in runs}) > 1:
        failures.append("repeated traced runs gave different work counts")
    first = runs[0]
    names = list(first["layers"])
    metrics = {name: statistics.median(run["layers"][name] for run in runs) for name in names}
    share = {name: s / first["layers"]["simulator.traced_run_s"] for name, s in first["self_s"].items()}
    print(f"traced input 0 seed={first['input_seed']} digest={first['digest']} interpreters={len(runs)}")
    print("self time by boundary (first traced run; share of traced run time, calls):")
    for name, value in sorted(share.items(), key=lambda item: -item[1]):
        print(f"  {name:34s} {value * 100:6.2f}%  {first['calls'][name]}")
    print(f"  {'simulator.residual':34s} {first['layers']['simulator.residual_s'] / first['layers']['simulator.traced_run_s'] * 100:6.2f}%")
    print(
        f"plan cache: {metrics['esg_1q.searches']:.0f} searches / {metrics['policy.plan_calls']:.0f} plan calls; "
        f"dispatch yield: {metrics['controller.dispatches']:.0f} dispatches / "
        f"{metrics['policy.plan_calls']:.0f} plan calls"
    )
    # Each traced interpreter simulates the input twice.
    attempted = 2 * len(runs) * workload.requests
    failed = sum(2 * (workload.requests - run["behaviour"]["completed"]) for run in runs)
    return metrics, failures, attempted, failed


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    print(f"== {workload.name} ({workload.policy}, {workload.requests} requests x "
          f"{workload.variants} inputs) trace={int(trace)}")
    print(fingerprint(seed))
    runner = traced_run if trace else plain_run
    metrics, failures, attempted, failed = runner(workload, seed, seconds)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    units = {name: (layer_unit(name) if trace else E2E_UNITS[name]) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="ESG simulator benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=run_seconds(),
        help="measuring budget of each workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        result = reports[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, report in reports.items()
                for metric, value in report["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
