"""Churn fuzz harness: cluster-wide invariants under randomized churn.

Every test runs a policy against a seed-derived random churn schedule and
checks, *after every churn event* (via the simulator's ``on_event`` hook)
and once more after the run drains:

* **capacity conservation** — the cluster's aggregate totals equal the sum
  over invokers, free capacity matches a from-scratch scan and never
  exceeds the total, and per-node usage stays within bounds;
* **no residue on departed nodes** — a tombstoned invoker holds no live
  container, no resident candidates, and no reserved resources;
* **index consistency** — the warm index and the free-capacity buckets
  equal a from-scratch rebuild from invoker state;
* **terminal exactly-once** (post-run) — every request completed or was
  evicted exactly once, never both.

Failures shrink: the harness re-runs growing prefixes of the failing
schedule and reports the shortest prefix that still violates an invariant,
so a red test hands you a minimal reproduction (seed + action list), not a
20-action haystack.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.churn import ChurnSchedule, ChurnSpec
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.events import (
    InvokerJoinEvent,
    InvokerLeaveEvent,
    InvokerResizeEvent,
)
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    build_profile_store,
    make_policy,
)
from repro.profiles.profiler import ProfileStore
from repro.workloads.scenarios import get_scenario

SEEDS_PER_POLICY = 25
NUM_REQUESTS = 8

_CHURN_EVENTS = (InvokerJoinEvent, InvokerLeaveEvent, InvokerResizeEvent)


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return build_profile_store()


def fuzz_cluster_config() -> ClusterConfig:
    return ClusterConfig(num_invokers=4)


def fuzz_schedule(seed: int, cluster_config: ClusterConfig) -> ChurnSchedule:
    """A leave-heavy random schedule; eviction policy alternates by seed."""
    spec = ChurnSpec(
        name=f"fuzz-{seed}",
        start_ms=10.0,
        interval_ms=25.0,
        num_events=8,
        p_leave=0.4,
        p_join=0.3,
        p_resize=0.3,
        min_active=2,
        on_evict="fail" if seed % 2 else "requeue",
    )
    return spec.build(seed, cluster_config)


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def capacity_violations(cluster: ClusterState) -> list[str]:
    problems: list[str] = []
    sum_vcpus = sum(inv.total_vcpus for inv in cluster)
    sum_vgpus = sum(inv.total_vgpus for inv in cluster)
    if cluster.total_vcpus() != sum_vcpus:
        problems.append(
            f"total_vcpus counter {cluster.total_vcpus()} != scan sum {sum_vcpus}"
        )
    if cluster.total_vgpus() != sum_vgpus:
        problems.append(
            f"total_vgpus counter {cluster.total_vgpus()} != scan sum {sum_vgpus}"
        )
    free_vcpus = sum(inv.available_vcpus for inv in cluster)
    free_vgpus = sum(inv.available_vgpus for inv in cluster)
    if cluster.total_available_vcpus() != free_vcpus:
        problems.append(
            f"free vcpus {cluster.total_available_vcpus()} != scan sum {free_vcpus}"
        )
    if cluster.total_available_vgpus() != free_vgpus:
        problems.append(
            f"free vgpus {cluster.total_available_vgpus()} != scan sum {free_vgpus}"
        )
    if free_vcpus > sum_vcpus or free_vgpus > sum_vgpus:
        problems.append(f"free capacity ({free_vcpus}, {free_vgpus}) exceeds total")
    for inv in cluster:
        if not 0 <= inv.used_vcpus <= inv.total_vcpus:
            problems.append(
                f"invoker {inv.invoker_id}: used_vcpus {inv.used_vcpus} "
                f"outside [0, {inv.total_vcpus}]"
            )
        if not 0 <= inv.used_vgpus <= inv.total_vgpus:
            problems.append(
                f"invoker {inv.invoker_id}: used_vgpus {inv.used_vgpus} "
                f"outside [0, {inv.total_vgpus}]"
            )
    return problems


def tombstone_violations(cluster: ClusterState) -> list[str]:
    problems: list[str] = []
    for inv in cluster:
        if inv.active:
            continue
        live = [c for containers in inv._live.values() for c in containers]
        if live:
            problems.append(f"departed invoker {inv.invoker_id} holds live containers")
        if any(count != 0 for count in inv._resident_candidates.values()):
            problems.append(
                f"departed invoker {inv.invoker_id} has resident candidates"
            )
        if inv.used_vcpus or inv.used_vgpus:
            problems.append(f"departed invoker {inv.invoker_id} holds reservations")
        if inv.total_vcpus or inv.total_vgpus:
            problems.append(f"departed invoker {inv.invoker_id} kept capacity")
    return problems


def index_violations(cluster: ClusterState) -> list[str]:
    """The warm index and capacity buckets vs a fresh rebuild."""
    problems: list[str] = []
    for name, members in cluster._warm_index.items():
        expected = {
            inv.invoker_id for inv in cluster if inv.resident_candidate_count(name) > 0
        }
        if members != expected:
            problems.append(
                f"warm index for {name!r}: {sorted(members)} != rebuild {sorted(expected)}"
            )
    indexed_names = set(cluster._warm_index)
    for inv in cluster:
        for name, count in inv._resident_candidates.items():
            if count > 0 and name not in indexed_names:
                problems.append(f"warm index is missing function {name!r}")
    cluster._flush_capacity_moves()
    for inv in cluster:
        expected_bucket = (inv.available_vcpus, inv.available_vgpus)
        if cluster._bucket_of[inv.invoker_id] != expected_bucket:
            problems.append(
                f"invoker {inv.invoker_id}: bucket "
                f"{cluster._bucket_of[inv.invoker_id]} != state {expected_bucket}"
            )
        members = cluster._capacity._members.get(expected_bucket, set())
        if inv.invoker_id not in members:
            problems.append(
                f"invoker {inv.invoker_id} missing from bucket {expected_bucket}"
            )
    member_total = sum(len(m) for _b, m in cluster._capacity.iter_nonempty())
    if member_total != len(cluster.invokers):
        problems.append(
            f"bucket membership covers {member_total} nodes, cluster has "
            f"{len(cluster.invokers)}"
        )
    return problems


def mid_run_violations(cluster: ClusterState) -> list[str]:
    return capacity_violations(cluster) + tombstone_violations(cluster) + index_violations(cluster)


def terminal_violations(simulation: Simulation, requests) -> list[str]:
    problems: list[str] = []
    summary = simulation.metrics.summary()
    for request in requests:
        if request.completed_ms is not None and request.evicted_ms is not None:
            problems.append(f"request {request.request_id} both completed and evicted")
    if not summary.truncated:
        unresolved = [
            r.request_id
            for r in requests
            if r.completed_ms is None and r.evicted_ms is None
        ]
        if unresolved:
            problems.append(f"requests never resolved: {unresolved}")
        if summary.num_completed + summary.num_evicted != summary.num_requests:
            problems.append(
                f"summary counts do not partition: {summary.num_completed} completed "
                f"+ {summary.num_evicted} evicted != {summary.num_requests}"
            )
    return problems


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_once(
    policy_name: str,
    seed: int,
    schedule: ChurnSchedule,
    store: ProfileStore,
) -> list[str]:
    """Run one churn simulation; return every invariant violation observed."""
    cluster_config = fuzz_cluster_config()
    requests = get_scenario("paper-moderate-normal").build_requests(NUM_REQUESTS, seed, store)
    simulation = Simulation(
        policy=make_policy(policy_name),
        requests=requests,
        profile_store=store,
        config=SimulationConfig(
            seed=seed,
            cluster=cluster_config,
            churn=schedule,
        ),
        setting_name="moderate-normal",
    )
    violations: list[str] = []

    @simulation.on_event
    def _check(sim: Simulation, event) -> None:
        if isinstance(event, _CHURN_EVENTS):
            for problem in mid_run_violations(sim.cluster):
                violations.append(f"after {event!r}: {problem}")

    simulation.run()
    violations.extend(
        f"post-run: {p}" for p in mid_run_violations(simulation.cluster)
    )
    violations.extend(
        f"post-run: {p}" for p in terminal_violations(simulation, requests)
    )
    return violations


def shrink(
    policy_name: str, seed: int, schedule: ChurnSchedule, store: ProfileStore
) -> tuple[ChurnSchedule, list[str]]:
    """Shortest failing prefix of ``schedule`` (linear growth, determinate)."""
    for k in range(1, len(schedule.actions) + 1):
        prefix = replace(schedule, actions=schedule.actions[:k])
        violations = run_once(policy_name, seed, prefix, store)
        if violations:
            return prefix, violations
    # The full schedule failed but no prefix does: report it whole.
    return schedule, run_once(policy_name, seed, schedule, store)


@pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
def test_churn_invariants_hold_across_seeds(policy_name: str, store: ProfileStore):
    for seed in range(SEEDS_PER_POLICY):
        schedule = fuzz_schedule(seed, fuzz_cluster_config())
        violations = run_once(policy_name, seed, schedule, store)
        if violations:
            minimal, min_violations = shrink(policy_name, seed, schedule, store)
            pytest.fail(
                f"churn invariants violated (policy={policy_name}, seed={seed}, "
                f"on_evict={schedule.on_evict!r});\n"
                f"minimal failing prefix ({len(minimal.actions)} of "
                f"{len(schedule.actions)} actions):\n"
                + "\n".join(f"  {action}" for action in minimal.actions)
                + "\nviolations:\n"
                + "\n".join(f"  {v}" for v in min_violations)
            )


def test_harness_catches_planted_corruption(store: ProfileStore):
    """The fuzz harness itself must be able to fail: plant an index
    corruption mid-run and check the observer reports it."""
    schedule = fuzz_schedule(1, fuzz_cluster_config())
    cluster_config = fuzz_cluster_config()
    requests = get_scenario("paper-moderate-normal").build_requests(NUM_REQUESTS, 1, store)
    simulation = Simulation(
        policy=make_policy("ESG"),
        requests=requests,
        profile_store=store,
        config=SimulationConfig(seed=1, cluster=cluster_config, churn=schedule),
        setting_name="moderate-normal",
    )
    seen: list[str] = []

    @simulation.on_event
    def _corrupt_then_check(sim: Simulation, event) -> None:
        if isinstance(event, _CHURN_EVENTS) and not seen:
            sim.cluster._total_vcpus += 1  # planted bug
            seen.extend(mid_run_violations(sim.cluster))
            sim.cluster._total_vcpus -= 1

    simulation.run()
    assert any("total_vcpus" in problem for problem in seen)
