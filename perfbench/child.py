"""One benchmark interpreter: build one workload input and simulate it.

``run.py`` starts this script several times per run, one interpreter at
a time, so every pass over a workload runs in a fresh single-threaded
interpreter and set-up time includes the import of ``repro``.  The script
prints one JSON object on its last stdout line.

    python3 perfbench/child.py --workload paper-dag --seed 42 --mode plain [--inputs 1]
    python3 perfbench/child.py --workload paper-dag --seed 42 --mode traced

``plain`` simulates each of the workload's inputs (or the first
``--inputs``) once, untraced, in order.  ``traced`` simulates input 0
twice: untraced, then with every layer boundary wrapped, and reports the
per-layer figures of the second run.
"""

import time

# Taken before ``import repro``: set-up time covers the import.
START_S = time.perf_counter()

import argparse
import hashlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed
from tracing import CoverageError, Tracer, check_coverage, percentile, tail_summary
from workloads import WORKLOADS, Workload, input_seed

import repro.core.esg as esg_module
from repro.cluster import (
    Autoscaler,
    ClusterConfig,
    ControllerConfig,
    MetricsConfig,
    Simulation,
    SimulationConfig,
    resolve_autoscale,
    resolve_churn,
)
from repro.experiments import build_profile_store, make_policy
from repro.workloads.scenarios import Scenario, get_scenario

ALL = frozenset(WORKLOADS)

#: Where each wrapped boundary must fire (see ``tracing.check_coverage``).
#: ESG's locality-first dispatch never calls the public cluster queries,
#: and INFless never searches, so those boundaries are required only where
#: the program takes them.
REQUIRED: dict[str, frozenset[str]] = {
    "esg_1q.search": frozenset({"paper-dag", "single-stage"}),
    "policy.plan": ALL,
    "policy.select_invoker": ALL,
    "controller.on_tick": ALL,
    "controller.on_request_arrival": ALL,
    "controller.on_invoker_leave": frozenset({"churn-storm"}),
    "controller.on_invoker_join": frozenset(),
    "controller.on_invoker_resize": frozenset(),
    "prewarm.plan": ALL,
    "autoscale.hook": frozenset({"churn-storm"}),
    "metrics.summary": ALL,
    "workloads.pull": ALL,
    "cluster.best_fitting_invoker": frozenset({"churn-storm"}),
    "cluster.most_available_invoker": frozenset(),
    "cluster.invokers_that_fit": frozenset(),
    "cluster.warm_invokers_for": frozenset(),
    "cluster.has_warm_invoker": frozenset(),
}

CHURN_HANDLERS = ("on_invoker_join", "on_invoker_leave", "on_invoker_resize")
CLUSTER_QUERIES = (
    "best_fitting_invoker",
    "most_available_invoker",
    "invokers_that_fit",
    "warm_invokers_for",
    "has_warm_invoker",
)


def scenario_of(workload: Workload) -> Scenario:
    if workload.scenario is not None:
        return get_scenario(workload.scenario)
    return Scenario(
        name=f"perfbench-{workload.name}",
        description=f"benchmark workload {workload.name}",
        setting=workload.setting,
        applications=workload.applications,
    )


class SearchCounts:
    """Counters read from each ``esg_1q_search`` result."""

    def __init__(self) -> None:
        self.expansions = 0
        self.pruned_time = 0
        self.pruned_cost = 0
        self.infeasible = 0

    def observe(self, result) -> None:
        self.expansions += result.expansions
        self.pruned_time += result.pruned_time
        self.pruned_cost += result.pruned_cost
        self.infeasible += not result.feasible


def build(workload: Workload, seed: int, tracer: Tracer | None = None):
    """Build the simulation of one input through the public API.

    With a tracer, the stream's chunk pulls and the simulation's event-hook
    registrations are wrapped before the simulation and the autoscaler
    take hold of them.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("profiles.build"):
        store = build_profile_store()
    scenario = scenario_of(workload)
    cluster = ClusterConfig()
    with span("workloads.build"):
        stream = scenario.build_stream(workload.requests, seed, store)
    churn_seed = workload.churn_seed if workload.churn_seed is not None else seed
    churn = resolve_churn(scenario.churn, churn_seed, cluster)
    if tracer is not None:
        stream.iter_chunks = tracer.wrap_generator("workloads.pull", stream.iter_chunks)
    simulation = Simulation(
        policy=make_policy(workload.policy),
        requests=stream,
        profile_store=store,
        config=SimulationConfig(
            seed=seed,
            cluster=cluster,
            controller=ControllerConfig(initial_warm="all"),
            metrics=MetricsConfig(mode="streaming"),
            churn=churn,
        ),
        setting_name=scenario.setting,
    )
    autoscaler = None
    if workload.autoscale is not None:
        if tracer is not None:
            register = simulation.on_event
            simulation.on_event = lambda hook: register(tracer.wrap("autoscale.hook", hook))
        autoscaler = Autoscaler(spec=resolve_autoscale(workload.autoscale)).attach(simulation)
    return simulation, autoscaler


def install_wrappers(simulation: Simulation, tracer: Tracer, searches: SearchCounts):
    """Wrap every layer boundary of ``simulation``; returns the undo callable."""
    policy = simulation.policy
    policy.plan = tracer.wrap("policy.plan", policy.plan, keep_samples=True)
    policy.select_invoker = tracer.wrap("policy.select_invoker", policy.select_invoker)
    controller = simulation.controller
    controller.on_tick = tracer.wrap("controller.on_tick", controller.on_tick)
    controller.on_request_arrival = tracer.wrap(
        "controller.on_request_arrival", controller.on_request_arrival
    )
    for name in CHURN_HANDLERS:
        setattr(controller, name, tracer.wrap(f"controller.{name}", getattr(controller, name)))
    prewarmer = controller.prewarmer
    prewarmer.plan = tracer.wrap("prewarm.plan", prewarmer.plan)
    cluster = simulation.cluster
    for name in CLUSTER_QUERIES:
        setattr(cluster, name, tracer.wrap(f"cluster.{name}", getattr(cluster, name)))
    metrics = simulation.metrics
    metrics.summary = tracer.wrap("metrics.summary", metrics.summary)
    # The policy resolves the search through its module at every plan().
    search = esg_module.esg_1q_search
    esg_module.esg_1q_search = tracer.wrap(
        "esg_1q.search", search, keep_samples=True, observe=searches.observe
    )

    def undo() -> None:
        esg_module.esg_1q_search = search

    return undo


def run_checks(summary, workload: Workload) -> list[str]:
    """Outcome accounting every run must satisfy."""
    failures = []
    if summary.truncated:
        failures.append("run truncated")
    if summary.num_requests != workload.requests:
        failures.append(f"generated {summary.num_requests} requests, expected {workload.requests}")
    if summary.num_completed + summary.num_evicted != summary.num_requests:
        failures.append(
            f"completed {summary.num_completed} + evicted {summary.num_evicted} "
            f"!= generated {summary.num_requests}"
        )
    return failures


def digest(summary) -> str:
    canonical = json.dumps(asdict(summary), sort_keys=True)
    return hashlib.blake2s(canonical.encode(), digest_size=8).hexdigest()


def behaviour(simulation: Simulation, summary) -> dict[str, int]:
    """Exact work counts of one run (identical for identical inputs)."""
    return {
        "completed": summary.num_completed,
        "events": simulation.processed_events,
        "dispatches": summary.warm_starts + summary.cold_starts,
        "forced_min_dispatches": summary.forced_min_dispatches,
        "warm_starts": summary.warm_starts,
        "requeued_jobs": summary.requeued_jobs,
        "evicted_tasks": summary.evicted_tasks,
    }


def timed_run(simulation: Simulation):
    start = time.perf_counter()
    summary = simulation.run()
    return summary, time.perf_counter() - start


def plain(workload: Workload, seed: int, inputs: int) -> dict:
    """Simulate the first ``inputs`` inputs of a run of ``seed`` once, untraced, in order.

    A :class:`hostspeed.Sampler` times the reference kernel through each
    run, so the run time can be scaled to the nominal host speed.
    """
    setup_s = None
    runs = []
    for variant in range(inputs):
        simulation, _ = build(workload, input_seed(seed, variant))
        sampler = hostspeed.Sampler()
        sampler.attach(simulation)
        if setup_s is None:
            setup_s = time.perf_counter() - START_S
            setup_kernel_s = statistics.median(hostspeed.kernel_s() for _ in range(3))
        sampler.start()
        summary = simulation.run()
        sampler.finish()
        runs.append(
            {
                "input_seed": input_seed(seed, variant),
                "run_s": sampler.host_s(),
                "scaled_s": sampler.scaled_s(),
                "kernel_s": sampler.kernel_mean_s(),
                "summary": asdict(summary),
                "digest": digest(summary),
                "behaviour": behaviour(simulation, summary),
                "latency_p50_ms": percentile(sorted(simulation.metrics.latencies_ms()), 50.0),
                "failures": run_checks(summary, workload),
            }
        )
        del simulation
    return {
        "setup_s": setup_s,
        "setup_scaled_s": hostspeed.scaled(setup_s, setup_kernel_s, hostspeed.SETUP_ELASTICITY),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
    }


def traced(workload: Workload, seed: int) -> dict:
    simulation, _ = build(workload, seed)
    plain_summary, plain_s = timed_run(simulation)
    events = simulation.processed_events
    del simulation

    tracer = Tracer()
    searches = SearchCounts()
    simulation, autoscaler = build(workload, seed, tracer)
    profiles_build_s = tracer.stat("profiles.build").total_s
    workloads_build_s = tracer.stat("workloads.build").total_s
    undo = install_wrappers(simulation, tracer, searches)
    # Only spans inside run() count from here on (the first chunk pull
    # happened while the simulation was being built).
    tracer.reset()
    try:
        summary, run_s = timed_run(simulation)
    finally:
        undo()
    check_coverage(tracer, REQUIRED, workload.name)

    failures = run_checks(summary, workload)
    if asdict(summary) != asdict(plain_summary):
        failures.append("traced and untraced summaries differ")
    if tracer.open_spans:
        failures.append(f"{tracer.open_spans} spans still open after run()")
    residual_s = run_s - tracer.top_level_s
    if residual_s < 0.0:
        failures.append(f"spans cover more than the run time (residual {residual_s} s)")

    stat = tracer.stat
    search = stat("esg_1q.search")
    plan = stat("policy.plan")
    select = stat("policy.select_invoker")
    tick = stat("controller.on_tick")
    counts = behaviour(simulation, summary)
    dispatches = counts["dispatches"]
    queries = [stat(f"cluster.{name}") for name in CLUSTER_QUERIES]
    churn = [stat(f"controller.{name}") for name in CHURN_HANDLERS]
    search_p50, search_tail_pct, search_tail, _ = tail_summary(search.samples)
    plan_p50, plan_tail_pct, plan_tail, _ = tail_summary(plan.samples)
    n = workload.requests
    # ESG searches on every plan-cache miss; a policy without the cache
    # (INFless) never searches and reports no hit ratio.
    hit_ratio = 1.0 - search.calls / plan.calls if search.calls and plan.calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layers = {
        "esg_1q.searches": search.calls,
        "esg_1q.search_s": search.total_s,
        "esg_1q.search_share": ratio(search.total_s, run_s),
        "esg_1q.search_us_p50": search_p50 * 1e6,
        "esg_1q.search_us_p99": search_tail * 1e6,
        "esg_1q.search_tail_pct": search_tail_pct,
        "esg_1q.expansions_per_search": ratio(searches.expansions, search.calls),
        "esg_1q.pruned_time": searches.pruned_time,
        "esg_1q.pruned_cost": searches.pruned_cost,
        "esg_1q.infeasible_share": ratio(searches.infeasible, search.calls),
        "policy.plan_s": plan.total_s,
        "policy.plan_calls": plan.calls,
        "policy.plan_us_p50": plan_p50 * 1e6,
        "policy.plan_us_p99": plan_tail * 1e6,
        "policy.plan_tail_pct": plan_tail_pct,
        "policy.select_invoker_s": select.total_s,
        "policy.select_invoker_calls": select.calls,
        "policy.plan_cache_hit_ratio": hit_ratio,
        "controller.tick_s": tick.total_s,
        "controller.tick_self_s": tick.self_s,
        "controller.ticks": tick.calls,
        "controller.arrival_s": stat("controller.on_request_arrival").total_s,
        "controller.churn_s": sum(s.total_s for s in churn),
        "controller.dispatches": dispatches,
        "controller.forced_min_dispatches": counts["forced_min_dispatches"],
        "controller.dispatch_yield": ratio(dispatches, plan.calls),
        "simulator.events_per_req": events / n,
        "simulator.host_us_per_event": plain_s / events * 1e6,
        "simulator.residual_s": residual_s,
        "simulator.traced_run_s": run_s,
        # Self times: most_available_invoker calls best_fitting_invoker.
        "cluster.query_s": sum(s.self_s for s in queries),
        "cluster.query_calls": sum(s.calls for s in queries),
        "cluster.warm_start_ratio": ratio(counts["warm_starts"], dispatches),
        "cluster.requeued_jobs": counts["requeued_jobs"],
        "cluster.evicted_tasks": counts["evicted_tasks"],
        "prewarm.plan_s": stat("prewarm.plan").total_s,
        "autoscale.decide_s": stat("autoscale.hook").total_s,
        "autoscale.decisions": autoscaler.decisions if autoscaler else 0,
        "autoscale.applied": autoscaler.applied_up() + autoscaler.applied_down() if autoscaler else 0,
        "metrics.summary_s": stat("metrics.summary").total_s,
        "workloads.pull_s": stat("workloads.pull").total_s,
        "workloads.build_s": workloads_build_s,
        "profiles.build_s": profiles_build_s,
        "trace.overhead_req_per_s": n / run_s - n / plain_s,
    }
    return {
        "layers": layers,
        "self_s": {name: s.self_s for name, s in sorted(tracer.stats.items()) if s.calls},
        "calls": {name: s.calls for name, s in sorted(tracer.stats.items()) if s.calls},
        "digest": digest(summary),
        "behaviour": counts,
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced"))
    parser.add_argument("--inputs", type=int, help="plain mode: simulate only the first N inputs")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    inputs = workload.variants if args.inputs is None else args.inputs
    if not 1 <= inputs <= workload.variants:
        parser.error(f"--inputs must be in [1, {workload.variants}]")
    try:
        if args.mode == "plain":
            result = plain(workload, args.seed, inputs)
        else:
            result = traced(workload, input_seed(args.seed, 0))
            result["input_seed"] = input_seed(args.seed, 0)
    except CoverageError as error:
        print(f"coverage guard: {error}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
