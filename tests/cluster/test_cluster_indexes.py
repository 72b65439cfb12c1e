"""The cluster's indexed queries against a brute-force oracle.

The indexes (free-capacity buckets, per-function warm index, counters) must
answer every cluster-wide query exactly as a linear scan over
``cluster.invokers`` would, under arbitrary interleavings of reservations,
releases and container lifecycle transitions.  The scans live here, as the
oracle: a random operation sequence checks every query after every step.
"""

from __future__ import annotations

import collections
import random
from dataclasses import replace

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.container import Container, ContainerState
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    build_profile_store,
    run_experiment,
)
from repro.profiles.configuration import Configuration
from repro.workloads.applications import build_paper_applications

QUERY_CONFIGS = [
    Configuration(1, 1, 1),
    Configuration(1, 4, 2),
    Configuration(1, 8, 4),
    Configuration(1, 16, 7),
]
FUNCTIONS = ("classification", "deblur")
PAPER_SCENARIOS = ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")
_LIVE = (ContainerState.WARM, ContainerState.BUSY, ContainerState.STARTING)


def ids(invokers) -> list[int] | int | None:
    if invokers is None:
        return None
    if isinstance(invokers, tuple):
        return [invoker.invoker_id for invoker in invokers]
    return invokers.invoker_id


def scan_best_fitting(cluster: ClusterState, config: Configuration, key):
    fitting = [inv for inv in cluster.invokers if inv.can_fit(config)]
    if not fitting:
        return None
    return min(
        fitting,
        key=lambda inv: (key(inv.available_vcpus, inv.available_vgpus), inv.invoker_id),
    )


def scan_best_warm(cluster: ClusterState, fn: str, config: Configuration, now_ms: float, exclude):
    """ESG's warm step by brute force: most free vGPUs, then vCPUs, then lowest id."""
    warm = [
        inv
        for inv in cluster.invokers
        if inv.invoker_id != exclude and inv.can_fit(config) and inv.has_warm_container(fn, now_ms)
    ]
    if not warm:
        return None
    best = max(warm, key=lambda inv: (inv.available_vgpus, inv.available_vcpus, -inv.invoker_id))
    return best.invoker_id


def assert_matches_scan(cluster: ClusterState, now_ms: float, functions=FUNCTIONS) -> None:
    """Every indexed query equals the brute-force scan over the invokers."""
    invokers = cluster.invokers
    total_vcpus = cluster.config.vcpus_per_invoker
    for cfg in QUERY_CONFIGS:
        assert ids(cluster.invokers_that_fit(cfg)) == [
            inv.invoker_id for inv in invokers if inv.can_fit(cfg)
        ]
        most = scan_best_fitting(cluster, cfg, lambda cpu, gpu: -(gpu + cpu / total_vcpus))
        assert ids(cluster.most_available_invoker(cfg)) == ids(most)
        frag_key = lambda cpu, gpu: (gpu - cfg.vgpus, cpu - cfg.vcpus)  # noqa: E731
        assert ids(cluster.best_fitting_invoker(cfg, key=frag_key)) == ids(
            scan_best_fitting(cluster, cfg, frag_key)
        )
    for fn in functions:
        warm = [inv.invoker_id for inv in invokers if inv.has_warm_container(fn, now_ms)]
        assert ids(cluster.warm_invokers_for(fn, now_ms)) == warm
        assert cluster.has_warm_invoker(fn, now_ms) == bool(warm)
        assert set(cluster.warm_candidate_ids(fn)) == {
            inv.invoker_id
            for inv in invokers
            if any(
                c.state in (ContainerState.WARM, ContainerState.BUSY)
                for c in inv.containers_for(fn)
            )
        }
        assert cluster.resident_container_count(fn) == sum(
            1 for inv in invokers for c in inv.containers_for(fn) if c.state in _LIVE
        )
        for cfg in QUERY_CONFIGS:
            for exclude in (None, 0):
                assert cluster.best_warm_invoker(
                    fn, cfg, now_ms, exclude=exclude
                ) == scan_best_warm(cluster, fn, cfg, now_ms, exclude)
    free_vcpus = sum(inv.available_vcpus for inv in invokers)
    free_vgpus = sum(inv.available_vgpus for inv in invokers)
    assert cluster.total_available_vcpus() == free_vcpus
    assert cluster.total_available_vgpus() == free_vgpus
    assert cluster.cpu_utilization() == 1.0 - free_vcpus / sum(i.total_vcpus for i in invokers)
    assert cluster.gpu_utilization() == 1.0 - free_vgpus / sum(i.total_vgpus for i in invokers)


def stop_expired(cluster: ClusterState, now_ms: float) -> None:
    """Stop every idle container at or past its keep-alive deadline."""
    for invoker in cluster.invokers:
        for fn in FUNCTIONS:
            for container in invoker.containers_for(fn):
                if container.state is ContainerState.WARM and now_ms >= container.expires_at_ms:
                    container.mark_stopped()


class TestIndexParityUnderRandomOperations:
    @pytest.mark.parametrize("seed", [1234, 7, 99])
    def test_randomised_lifecycle_and_capacity_parity(self, seed):
        rng = random.Random(seed)
        cluster = ClusterState(config=ClusterConfig(num_invokers=8, keep_alive_ms=100.0))
        reserved: list[tuple[int, Configuration]] = []
        containers: list[Container] = []
        now = 0.0

        for _ in range(400):
            now += rng.uniform(0.0, 30.0)
            op = rng.random()
            inv = rng.randrange(len(cluster))
            if op < 0.30:
                cfg = Configuration(1, rng.randint(1, 4), rng.randint(1, 3))
                if cluster.invoker(inv).can_fit(cfg):
                    cluster.invoker(inv).reserve(cfg)
                    reserved.append((inv, cfg))
            elif op < 0.50 and reserved:
                inv, cfg = reserved.pop(rng.randrange(len(reserved)))
                cluster.invoker(inv).release(cfg)
            elif op < 0.65:
                fn = rng.choice(FUNCTIONS)
                containers.append(cluster.invoker(inv).create_warm_container(fn, now))
            elif op < 0.80 and containers:
                container = rng.choice(containers)
                if container.state == ContainerState.WARM and container.is_warm_idle(now):
                    container.assign_task()
            elif op < 0.90 and containers:
                container = rng.choice(containers)
                if container.active_tasks > 0:
                    container.release_task(now, 100.0)
            else:
                stop_expired(cluster, now)
            assert_matches_scan(cluster, now)

    def test_vgpu_heavy_reservations_keep_capacity_index_fresh(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=4))
        # Mostly-vGPU reservations move a node along the vGPU axis only.
        cluster.invoker(2).reserve(Configuration(1, 1, 5))
        assert_matches_scan(cluster, 0.0)
        cluster.invoker(2).release(Configuration(1, 1, 3))
        assert_matches_scan(cluster, 0.0)
        assert cluster.invoker(2).available_vgpus == 5

    def test_churn_keeps_indexes_consistent(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=4))
        cluster.invoker(1).create_warm_container("deblur", 0.0)
        cluster.invoker(2).reserve(Configuration(1, 4, 2))
        cluster.apply_resize(2, 6, 3)
        cluster.apply_leave(1)
        cluster.apply_join(8, 4)
        assert_matches_scan(cluster, 1.0)


class TestIndexesAlongWholeRuns:
    """Every query matches its scan after every event of whole runs.

    The fuzz above drives the cluster directly; these runs drive it through
    the controller: dispatch, keep-alive expiry, prewarming and churn, on
    the paper's cluster and a 64-invoker one.
    """

    BASE = ExperimentConfig(num_requests=16)
    #: Only the home invoker starts warm, so containers start and expire.
    WARM_AT_HOME = BASE.with_overrides(controller=replace(BASE.controller, initial_warm="home"))
    #: Two invokers under 24 diurnal requests: the backlog makes both
    #: autoscalers prewarm (on the paper's 16 they hold inside the band).
    AUTOSCALED = WARM_AT_HOME.with_overrides(
        num_requests=24, cluster=replace(BASE.cluster, num_invokers=2)
    )

    @pytest.fixture(scope="class")
    def store(self):
        return build_profile_store()

    def audit(self, store, task_log, policy, scenario, config=BASE):
        """Run with every query checked after each event.

        Returns the run's summary, its event counts by type and the
        simulation.
        """
        apps = build_paper_applications()
        functions = sorted({fn for app in apps for fn in app.function_names()})
        events = collections.Counter()

        class IndexAudit(task_log):
            def _record(self, simulation, event) -> None:
                assert_matches_scan(simulation.cluster, simulation.now_ms, functions)
                events[type(event).__name__] += 1

        with IndexAudit().capturing() as log:
            result = run_experiment(policy, config=config, profile_store=store, scenario=scenario)
        (simulation,) = log.simulations
        assert events["TaskCompletionEvent"] > 0
        return result.summary, events, simulation

    @pytest.mark.parametrize("scenario", PAPER_SCENARIOS)
    def test_esg_on_the_paper_scenarios(self, store, task_log, scenario):
        self.audit(store, task_log, "ESG", scenario)

    @pytest.mark.parametrize("policy", [p for p in DEFAULT_POLICIES if p != "ESG"])
    def test_baselines(self, store, task_log, policy):
        self.audit(store, task_log, policy, "paper-moderate-normal")

    @pytest.mark.parametrize(
        "policy, scenario", [("ESG", "churn-eviction-fail"), ("Orion", "harvest-severe-normal")]
    )
    def test_churn(self, store, task_log, policy, scenario):
        _, events, _ = self.audit(store, task_log, policy, scenario)
        assert events["InvokerLeaveEvent"] + events["InvokerResizeEvent"] > 0

    @pytest.mark.parametrize("spec", ["threshold-default", "pid-default"])
    def test_autoscaled_runs(self, store, task_log, spec):
        config = self.AUTOSCALED.with_overrides(autoscale=spec)
        _, events, _ = self.audit(store, task_log, "ESG", "diurnal-normal", config)
        assert events["PrewarmCompleteEvent"] > 0

    @pytest.mark.parametrize("keep_alive_ms", [2.0, 80.0])
    def test_short_keep_alive(self, store, task_log, monkeypatch, keep_alive_ms):
        config = self.WARM_AT_HOME.with_overrides(
            cluster=replace(self.BASE.cluster, keep_alive_ms=keep_alive_ms)
        )
        # Record when the tick-time drain actually stops a container.
        expired_at: list[float] = []
        expire = Container.expire

        def recording_expire(container, deadline_ms):
            was_warm = container.state is ContainerState.WARM
            expire(container, deadline_ms)
            if was_warm and container.state is ContainerState.STOPPED:
                expired_at.append(deadline_ms)

        monkeypatch.setattr(Container, "expire", recording_expire)
        summary, _, simulation = self.audit(
            store, task_log, "ESG", "paper-moderate-normal", config
        )
        assert summary.cold_starts > 0
        # Containers expired mid-run, at deadlines before the run's end.
        assert expired_at
        assert min(expired_at) < simulation.now_ms

    @pytest.mark.parametrize("policy", ["ESG", "INFless"])
    def test_64_invokers(self, store, task_log, policy):
        config = self.BASE.with_overrides(cluster=replace(self.BASE.cluster, num_invokers=64))
        _, _, simulation = self.audit(store, task_log, policy, "paper-moderate-normal", config)
        assert len(simulation.cluster) == 64


class TestIndexBackedReturnTypes:
    """Satellite: cluster queries serve tuples from indexes, not fresh lists."""

    def test_fit_and_warm_queries_return_tuples(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=3))
        cluster.invoker(1).create_warm_container("deblur", 0.0)
        assert isinstance(cluster.invokers_that_fit(Configuration(1, 1, 1)), tuple)
        assert isinstance(cluster.warm_invokers_for("deblur", 0.0), tuple)

    def test_empty_warm_index_returns_empty_tuple(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=2))
        assert cluster.warm_invokers_for("nothing-warm", 0.0) == ()
        assert not cluster.has_warm_invoker("nothing-warm", 0.0)


class TestIndexedCounters:
    def test_live_and_resident_counts_follow_lifecycle(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=2, keep_alive_ms=50.0))
        inv = cluster.invoker(0)
        assert cluster.resident_container_count("classification") == 0
        container = inv.create_warm_container("classification", 0.0)
        assert cluster.resident_container_count("classification") == 1
        assert inv.resident_candidate_count("classification") == 1
        container.assign_task()
        assert cluster.resident_container_count("classification") == 1  # busy still counts
        container.release_task(10.0, 50.0)
        container.mark_stopped()
        assert cluster.resident_container_count("classification") == 0
        assert inv.resident_candidate_count("classification") == 0
        assert inv.container_count("classification") == 0

    def test_starting_container_counts_as_live_not_warm(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=2))
        inv = cluster.invoker(1)
        starting = Container(
            function_name="deblur", invoker_id=1, state=ContainerState.STARTING, warm_at_ms=500.0
        )
        inv.add_container(starting)
        assert cluster.resident_container_count("deblur") == 1
        assert not cluster.has_warm_invoker("deblur", 0.0)
        starting.mark_warm(500.0, 1000.0)
        assert cluster.has_warm_invoker("deblur", 600.0)

    def test_capacity_bucket_heaps_stay_bounded_under_churn(self):
        # Long runs reserve/release constantly; stale heap entries must be
        # rebuilt away, not accumulate for the lifetime of the run.
        cluster = ClusterState(config=ClusterConfig(num_invokers=4))
        cfg = Configuration(1, 2, 1)
        for _ in range(500):
            cluster.invoker(1).reserve(cfg)
            cluster.invoker(1).release(cfg)
        total_heap_entries = sum(len(h) for h in cluster._capacity._heaps.values())
        assert total_heap_entries <= 60  # O(invokers + stale slack), not O(churn)
        best = cluster.most_available_invoker(cfg)
        assert best is not None and best.invoker_id == 0

    def test_capacity_counters_track_reservations(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=3))
        cluster.invoker(0).reserve(Configuration(1, 8, 3))
        cluster.invoker(1).reserve(Configuration(1, 2, 1))
        assert cluster.total_available_vcpus() == 3 * 16 - 10
        assert cluster.total_available_vgpus() == 3 * 7 - 4
        cluster.invoker(0).release(Configuration(1, 8, 3))
        assert cluster.total_available_vcpus() == 3 * 16 - 2
        assert cluster.total_available_vgpus() == 3 * 7 - 1
