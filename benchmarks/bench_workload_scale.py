"""Workload-at-scale benchmark: the memory of a streamed request workload.

Two measurements, same tracemalloc methodology as ``bench_metrics_scale.py``
(exact attributed allocation bytes, whole-process ``ru_maxrss`` reported
once per row as context):

* **Workload layer** — builds and consumes the workload of each size as a
  stream (``WorkloadGenerator.stream``: two compact numpy arrays plus one
  transient ``Request`` at a time).  ``peak_bytes`` is the high-water mark
  across build + full consumption.  The headline acceptance number: at
  most **39 bytes per request** at 100k+ requests (~16 B/request
  measured).  The bound restates an earlier relative gate, a >= 10x lower
  peak than the same workload built as a ``Request`` list (~392
  B/request), as an absolute one that is no looser.
* **End to end** — one complete simulated run at the sweep's largest size
  with a lazy workload (the metrics collector always streams).  The
  run must finish with a tracemalloc peak under a fixed ceiling that does
  not scale with the request count's object graphs — the bounded-memory
  million-request configuration, asserted.

The end-to-end run uses the paper's ESG policy on a single-stage
application under relaxed-heavy arrivals: one task per request keeps the
simulated-event count (and hence wall time) proportional to the request
count (~20k requests/s), so the million-request row completes in under a
minute.  Single-loop throughput itself is gated by the repository
benchmark's ``single-stage`` workload (``perfbench/``).

Environment knobs::

    REPRO_BENCH_WORKLOAD_SIZES=10000,100000,1000000  # sweep sizes
    REPRO_BENCH_JSON=bench_workload_scale.json       # also write BENCH JSON here
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
import tracemalloc

from conftest import run_once

from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import build_profile_store, make_policy
from repro.utils.rng import derive_rng
from repro.workloads.applications import build_application, build_paper_applications
from repro.workloads.generator import RELAXED_HEAVY, WorkloadGenerator

DEFAULT_SIZES = (10_000, 100_000, 1_000_000)

#: The memory assertion needs enough requests for the workload to dominate
#: interpreter noise; tiny smoke sweeps only check completeness.
MIN_REQUESTS_FOR_MEMORY_ASSERT = 100_000

#: Ceiling on the workload layer's tracemalloc peak per request.
MAX_PEAK_BYTES_PER_REQUEST = 39.0

#: Hard cap on the end-to-end run's tracemalloc peak.  Fixed, not scaled:
#: a million-request run streams both its workload (~16 B/request of
#: compact arrays) and its metrics (per-app accumulators + quantile
#: buffers), so nothing in the run retains whole object graphs.  Measured
#: ~183 MB peak at 1M requests (~71 MB retained; the peak is summary()'s
#: transient sort/list materialisation over the compact buffers).  The
#: ceiling leaves headroom without ever admitting an O(n)-object-graph
#: regression: the same workload built as a ``Request`` list *alone* peaks
#: at ~384 MB at 1M, before any metrics retention.
E2E_PEAK_CEILING_BYTES = 256 * 1024 * 1024

def sweep_sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_WORKLOAD_SIZES")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


def paper_generator(store) -> WorkloadGenerator:
    """The paper's four-app workload under relaxed-heavy arrivals."""
    return WorkloadGenerator(
        applications=build_paper_applications(),
        setting=RELAXED_HEAVY,
        profile_store=store,
        rng=derive_rng(42, "bench-workload-scale"),
    )


def measure_workload_layer(store, num_requests: int) -> dict:
    """Build and consume one streamed workload; report its memory peak."""
    generator = paper_generator(store)
    gc.collect()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        stream = generator.stream(num_requests)
        count = sum(1 for _ in stream)
        gc.collect()
        retained_bytes, _ = tracemalloc.get_traced_memory()
        del stream
        elapsed = time.perf_counter() - start
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == num_requests, count
    return {
        "requests": num_requests,
        "retained_bytes": int(retained_bytes),
        "peak_bytes": int(peak_bytes),
        "peak_bytes_per_request": round(peak_bytes / num_requests, 2),
        "build_s": round(elapsed, 4),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_end_to_end_streaming(store, num_requests: int) -> dict:
    """One full simulated run with streaming workload + streaming metrics."""
    generator = WorkloadGenerator(
        applications=[build_application("single_stage_classification")],
        setting=RELAXED_HEAVY,
        profile_store=store,
        rng=derive_rng(42, "bench-workload-e2e"),
    )
    gc.collect()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        simulation = Simulation(
            policy=make_policy("ESG"),
            requests=generator.stream(num_requests),
            profile_store=store,
            config=SimulationConfig(seed=42),
            setting_name=RELAXED_HEAVY.name,
        )
        summary = simulation.run()
        elapsed = time.perf_counter() - start
        gc.collect()
        retained_bytes, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "requests": num_requests,
        "completed": summary.num_completed,
        "slo_hit_rate": round(summary.slo_hit_rate, 6),
        "run_s": round(elapsed, 2),
        "requests_per_s": round(num_requests / elapsed),
        "retained_bytes": int(retained_bytes),
        "peak_bytes": int(peak_bytes),
        "peak_ceiling_bytes": E2E_PEAK_CEILING_BYTES,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_workload_scale_sweep(sizes: tuple[int, ...]) -> dict:
    store = build_profile_store()
    rows = [measure_workload_layer(store, num_requests) for num_requests in sizes]
    end_to_end = run_end_to_end_streaming(store, max(sizes))
    return {
        "benchmark": "workload_scale",
        "sizes": rows,
        "end_to_end": end_to_end,
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
        "Workload-scale sweep  (paper workload, streamed generation)",
        f"{'requests':>9}  {'peak MB':>8}  {'peak B/request':>15}",
    ]
    for row in report["sizes"]:
        lines.append(
            f"{row['requests']:>9}  "
            f"{row['peak_bytes'] / 1e6:>7.2f}M  "
            f"{row['peak_bytes_per_request']:>15.2f}"
        )
    e2e = report["end_to_end"]
    lines.append(
        f"end-to-end (streaming workload + metrics): {e2e['requests']} requests in "
        f"{e2e['run_s']}s ({e2e['requests_per_s']}/s), tracemalloc peak "
        f"{e2e['peak_bytes'] / 1e6:.1f} MB (ceiling {e2e['peak_ceiling_bytes'] / 1e6:.0f} MB)"
    )
    return "\n".join(lines)


def test_workload_scale_memory(benchmark):
    sizes = sweep_sizes()
    report = run_once(benchmark, run_workload_scale_sweep, sizes)
    print()
    print(render_rows(report))
    emit_bench_json(report)

    # The acceptance number: at most 39 bytes per request at 100k+ requests.
    for row in report["sizes"]:
        if row["requests"] >= MIN_REQUESTS_FOR_MEMORY_ASSERT:
            assert row["peak_bytes_per_request"] <= MAX_PEAK_BYTES_PER_REQUEST, row

    # The bounded-memory guarantee: the largest end-to-end run drains its
    # whole workload and stays under the fixed ceiling.
    e2e = report["end_to_end"]
    assert e2e["completed"] == e2e["requests"], e2e
    assert e2e["peak_bytes"] < e2e["peak_ceiling_bytes"], e2e

