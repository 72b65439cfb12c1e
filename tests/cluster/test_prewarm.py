"""Tests for the EWMA-based prewarming manager."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.container import ContainerState
from repro.cluster.controller import ControllerConfig
from repro.cluster.prewarm import PrewarmManager
from repro.experiments import ExperimentConfig, run_experiment
from repro.workloads.applications import build_paper_applications


@pytest.fixture()
def cluster() -> ClusterState:
    return ClusterState(config=ClusterConfig(num_invokers=4))


@pytest.fixture()
def manager(small_store) -> PrewarmManager:
    return PrewarmManager(profile_store=small_store)


class TestObservation:
    def test_predicted_interval_needs_two_arrivals(self, manager):
        assert manager.predicted_interval_ms("app", "deblur") is None
        manager.observe_arrival("app", "deblur", 0.0)
        assert manager.predicted_interval_ms("app", "deblur") is None
        manager.observe_arrival("app", "deblur", 50.0)
        assert manager.predicted_interval_ms("app", "deblur") == pytest.approx(50.0)

    def test_predicted_next_arrival(self, manager):
        manager.observe_arrival("app", "deblur", 0.0)
        manager.observe_arrival("app", "deblur", 40.0)
        predicted = manager.predicted_next_arrival_ms("app", "deblur")
        assert predicted == pytest.approx(80.0)

    def test_unknown_function_has_no_prediction(self, manager):
        assert manager.predicted_next_arrival_ms("app", "never_seen") is None


class TestDemandEstimation:
    def test_desired_instances_grow_with_rate(self, manager):
        # ~1 arrival per 20 ms of a ~1s function => many concurrent instances.
        for i in range(20):
            manager.observe_arrival("app", "background_removal", i * 20.0)
        high_rate = manager.desired_warm_instances("background_removal")

        manager2 = PrewarmManager(profile_store=manager.profile_store)
        for i in range(20):
            manager2.observe_arrival("app", "background_removal", i * 2000.0)
        low_rate = manager2.desired_warm_instances("background_removal")
        assert high_rate > low_rate
        assert low_rate >= 1

    def test_desired_instances_capped(self, small_store):
        manager = PrewarmManager(profile_store=small_store, max_warm_per_function=3)
        for i in range(50):
            manager.observe_arrival("app", "background_removal", i * 5.0)
        assert manager.desired_warm_instances("background_removal") <= 3

    def test_aggregates_rate_over_applications(self, manager):
        for i in range(10):
            manager.observe_arrival("app_a", "deblur", i * 100.0)
            manager.observe_arrival("app_b", "deblur", 50.0 + i * 100.0)
        combined = manager.desired_warm_instances("deblur")
        assert combined >= 1


class TestPlanning:
    def test_plan_creates_starting_containers(self, manager, cluster):
        for i in range(10):
            manager.observe_arrival("app", "background_removal", i * 10.0)
        plans = manager.plan(cluster, now_ms=100.0)
        assert plans, "expected at least one prewarm plan for a hot function"
        for plan in plans:
            assert plan.function_name == "background_removal"
            assert plan.ready_at_ms > 100.0
            assert cluster.invoker(plan.invoker_id).has_any_container("background_removal", 100.0)
            container = plan.container
            assert container.state is ContainerState.STARTING
            assert container.warm_at_ms == plan.ready_at_ms
            assert container in cluster.invoker(plan.invoker_id).containers_for(plan.function_name)
        assert len({id(plan.container) for plan in plans}) == len(plans)

    def test_plan_does_not_duplicate_resident_containers(self, manager, cluster):
        for i in range(10):
            manager.observe_arrival("app", "deblur", i * 500.0)
        first = manager.plan(cluster, now_ms=100.0)
        second = manager.plan(cluster, now_ms=101.0)
        assert len(second) <= len(first)

    def test_disabled_manager_never_plans(self, small_store, cluster):
        manager = PrewarmManager(profile_store=small_store, enabled=False)
        for i in range(10):
            manager.observe_arrival("app", "deblur", i * 10.0)
        assert manager.plan(cluster, now_ms=50.0) == []

    def test_invalid_parameters_rejected(self, small_store):
        with pytest.raises(ValueError):
            PrewarmManager(profile_store=small_store, safety_factor=0.0)
        with pytest.raises(ValueError):
            PrewarmManager(profile_store=small_store, max_warm_per_function=0)


class TestCompletionsReachTheirContainers:
    """Each prewarm completion warms the container its plan started.

    On one or two nodes the prewarmer keeps several cold starts of one
    function in flight per node; a completion sent to the node's first
    STARTING container instead would leave the later ones STARTING forever
    (33 of 39 on one node, 24 of 36 on two).  The fault is the
    controller's, whatever the policy: INFless shows it in about a second,
    where ESG on the same overloaded nodes takes 20-30 s.
    """

    @pytest.mark.parametrize("num_invokers", [1, 2])
    def test_no_container_is_left_starting(self, num_invokers, task_log):
        config = ExperimentConfig(
            num_requests=200,
            seed=1,
            cluster=ClusterConfig(num_invokers=num_invokers),
            controller=ControllerConfig(initial_warm="home"),
        )
        log = task_log()
        with log.capturing():
            run_experiment("INFless", "paper-moderate-normal", config=config)
        (simulation,) = log.simulations
        functions = {fn for wf in build_paper_applications() for fn in wf.function_names()}
        containers = [
            container
            for invoker in simulation.cluster
            for fn in functions
            for container in invoker.containers_for(fn)
        ]
        assert simulation.metrics.prewarm_count > 0
        starting = [c for c in containers if c.state is ContainerState.STARTING]
        assert starting == []


class TestPickInvoker:
    """Placement walk of :meth:`PrewarmManager.pick_invoker` — shared by the
    static prewarmer and the autoscaler's scale-up actuation."""

    def test_prefers_fewest_containers_then_most_free_vgpus(self, cluster):
        cluster.invoker(0).create_warm_container("deblur", 0.0)
        picked = PrewarmManager.pick_invoker(cluster, "deblur")
        # Invoker 0 already hosts the function; an empty peer wins.
        assert picked != 0
        assert cluster.invoker(picked).container_count("deblur") == 0

    def test_skips_inactive_tombstones(self, cluster):
        # Tombstone every invoker but 2: the walk must land there even
        # though lower ids would otherwise win the tie on emptiness.
        for invoker_id in (0, 1, 3):
            cluster.apply_leave(invoker_id)
        assert PrewarmManager.pick_invoker(cluster, "deblur") == 2

    def test_all_inactive_yields_none(self, cluster):
        for invoker_id in range(4):
            cluster.apply_leave(invoker_id)
        assert PrewarmManager.pick_invoker(cluster, "deblur") is None


class TestProfileCacheDeterminism:
    """The planner's memos must be a pure function of the arrival sequence.

    ``_by_function`` groups the demands per function in first-arrival order
    (never in hash order, REP004), and :meth:`PrewarmManager.plan` visits
    functions in sorted order, whatever order they first arrived in.
    """

    def _seed_arrivals(self, manager, names):
        for name in names:
            manager.observe_arrival("app", name, 0.0)
            manager.observe_arrival("app", name, 25.0)
            manager.observe_arrival("other_app", name, 10.0)

    def test_by_function_keys_follow_first_arrival(self, manager):
        names = ["deblur", "auth", "background_removal"]
        self._seed_arrivals(manager, names)
        assert list(manager._by_function) == names
        assert [len(demands) for demands in manager._by_function.values()] == [2, 2, 2]

    def test_plan_order_independent_of_arrival_order(self, small_store):
        names = ["deblur", "classification", "background_removal", "segmentation"]
        forward = PrewarmManager(profile_store=small_store)
        backward = PrewarmManager(profile_store=small_store)
        self._seed_arrivals(forward, names)
        self._seed_arrivals(backward, list(reversed(names)))
        plans = [
            manager.plan(ClusterState(config=ClusterConfig(num_invokers=4)), now_ms=30.0)
            for manager in (forward, backward)
        ]
        assert plans[0] == plans[1]
        functions = [plan.function_name for plan in plans[0]]
        assert functions == sorted(functions) and set(functions) == set(names)

    def test_cache_preserves_desired_instance_parity(self, small_store):
        """Explicit counts: 6 arrivals 200 ms apart of each function, then
        one more arrival of deblur 25 ms later moves only deblur's count.
        The counts are those of the planner without memos."""
        manager = PrewarmManager(profile_store=small_store)
        names = ["deblur", "classification"]
        for i in range(6):
            for name in names:
                manager.observe_arrival("app", name, i * 200.0)
        expected = {"deblur": 2, "classification": 1}
        assert {name: manager.desired_warm_instances(name) for name in names} == expected
        assert not manager._desired_dirty
        assert {name: manager.desired_warm_instances(name) for name in names} == expected
        manager.observe_arrival("app", "deblur", 1025.0)
        assert manager._desired_dirty == {"deblur"}
        assert manager.desired_warm_instances("deblur") == 3
        assert manager.desired_warm_instances("classification") == 1
