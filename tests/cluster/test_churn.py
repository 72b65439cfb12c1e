"""Unit tests for the capacity-churn subsystem.

Covers the churn schedule/spec layer (validation, determinism, registry),
the cluster membership mutations (join / leave / resize) in both index
modes, eviction semantics of containers and the prewarmer, and the
regression pins for stale keep-alive deadlines racing a node eviction at
both lazy-cancellation sites.
"""

from __future__ import annotations

import heapq
import pickle

import pytest

from repro.cluster.churn import (
    CHURN_SPECS,
    ChurnAction,
    ChurnSchedule,
    ChurnSpec,
    churn_spec_names,
    get_churn_spec,
    register_churn_spec,
    resolve_churn,
)
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.container import Container, ContainerState
from repro.cluster.controller import Controller
from repro.cluster.events import (
    InvokerJoinEvent,
    InvokerLeaveEvent,
    InvokerResizeEvent,
)
from repro.cluster.metrics import MetricsCollector
from repro.cluster.prewarm import PrewarmManager
from repro.cluster.simulator import EventLoop
from repro.experiments.runner import make_policy
from repro.profiles.configuration import Configuration
from repro.profiles.perf_model import AnalyticalPerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.profiler import ProfileStore


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore.build()


def small_cluster(num_invokers: int = 4) -> ClusterState:
    return ClusterState(
        config=ClusterConfig(num_invokers=num_invokers, vcpus_per_invoker=8, vgpus_per_invoker=4)
    )


# ----------------------------------------------------------------------
# Schedule / spec layer
# ----------------------------------------------------------------------
class TestChurnAction:
    def test_validates_kind_and_payload(self):
        with pytest.raises(ValueError, match="unknown churn action kind"):
            ChurnAction(time_ms=0.0, kind="reboot")
        with pytest.raises(ValueError, match="time_ms"):
            ChurnAction(time_ms=-1.0, kind="join")
        with pytest.raises(ValueError, match="requires invoker_id"):
            ChurnAction(time_ms=0.0, kind="leave")
        with pytest.raises(ValueError, match="requires vcpus and vgpus"):
            ChurnAction(time_ms=0.0, kind="resize", invoker_id=1)

    def test_to_event_maps_kinds(self):
        join = ChurnAction(time_ms=5.0, kind="join", vcpus=4, vgpus=2).to_event()
        leave = ChurnAction(time_ms=6.0, kind="leave", invoker_id=3).to_event()
        resize = ChurnAction(
            time_ms=7.0, kind="resize", invoker_id=1, vcpus=2, vgpus=1
        ).to_event()
        assert isinstance(join, InvokerJoinEvent) and join.vcpus == 4
        assert isinstance(leave, InvokerLeaveEvent) and leave.invoker_id == 3
        assert isinstance(resize, InvokerResizeEvent) and resize.vgpus == 1
        # Churn events are housekeeping: they never keep a drained run alive
        # and stay invisible to horizons and event budgets.
        assert join.housekeeping and leave.housekeeping and resize.housekeeping


class TestChurnSchedule:
    def test_requires_sorted_actions_and_valid_policy(self):
        a = ChurnAction(time_ms=10.0, kind="leave", invoker_id=0)
        b = ChurnAction(time_ms=5.0, kind="leave", invoker_id=1)
        with pytest.raises(ValueError, match="sorted"):
            ChurnSchedule(name="x", actions=(a, b))
        with pytest.raises(ValueError, match="on_evict"):
            ChurnSchedule(name="x", actions=(b, a), on_evict="retry")
        ChurnSchedule(name="x", actions=(b, a))  # sorted order is fine

    def test_schedule_is_picklable_and_comparable(self):
        schedule = get_churn_spec("harvest-mild").build(
            seed=3, cluster_config=ClusterConfig()
        )
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule


class TestChurnSpec:
    def test_build_is_deterministic_per_seed(self):
        spec = get_churn_spec("churn-mixed")
        config = ClusterConfig()
        assert spec.build(3, config) == spec.build(3, config)
        assert spec.build(3, config) != spec.build(4, config)

    def test_build_respects_min_active(self):
        spec = ChurnSpec(
            name="all-leave",
            start_ms=1.0,
            interval_ms=1.0,
            num_events=50,
            p_leave=1.0,
            p_join=0.0,
            p_resize=0.0,
            min_active=2,
        )
        schedule = spec.build(0, ClusterConfig(num_invokers=4))
        leaves = sum(1 for a in schedule.actions if a.kind == "leave")
        # 4 nodes, floor of 2: at most 2 can ever leave; the rest of the
        # would-be leaves convert to joins (each enabling one more leave).
        joins = sum(1 for a in schedule.actions if a.kind == "join")
        assert leaves == 2 + joins

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(name="bad", p_leave=0.9, p_join=0.9, p_resize=0.9)
        with pytest.raises(ValueError):
            ChurnSpec(name="bad", resize_low=0.0)
        with pytest.raises(ValueError):
            ChurnSpec(name="bad", min_active=0)

    def test_registry_lookup_and_duplicates(self):
        assert set(churn_spec_names()) >= {
            "harvest-mild",
            "harvest-severe",
            "eviction-storm",
            "eviction-fail",
            "churn-mixed",
        }
        with pytest.raises(KeyError, match="unknown churn spec"):
            get_churn_spec("nope")
        with pytest.raises(ValueError, match="already registered"):
            register_churn_spec(CHURN_SPECS["harvest-mild"])

    def test_resolve_churn_paths(self):
        config = ClusterConfig()
        assert resolve_churn(None, 1, config) is None
        by_name = resolve_churn("harvest-mild", 1, config)
        by_spec = resolve_churn(get_churn_spec("harvest-mild"), 1, config)
        assert by_name == by_spec
        assert resolve_churn(by_name, 99, config) is by_name  # schedules pass through
        with pytest.raises(TypeError):
            resolve_churn(42, 1, config)


# ----------------------------------------------------------------------
# Cluster membership mutations
# ----------------------------------------------------------------------
class TestClusterChurn:
    def test_join_appends_dense_ids_and_grows_totals(self):
        cluster = small_cluster()
        joined = cluster.apply_join()
        assert joined.invoker_id == 4
        assert len(cluster) == 5
        assert cluster.total_vcpus() == 5 * 8
        assert cluster.total_available_vcpus() == 5 * 8
        custom = cluster.apply_join(vcpus=2, vgpus=1)
        assert (custom.total_vcpus, custom.total_vgpus) == (2, 1)
        assert cluster.total_vgpus() == 5 * 4 + 1

    def test_leave_tombstones_and_conserves_capacity(self):
        cluster = small_cluster()
        cluster.invoker(1).create_warm_container("classification", 0.0)
        evicted = cluster.apply_leave(1)
        assert [c.state for c in evicted] == [ContainerState.STOPPED]
        invoker = cluster.invoker(1)
        assert not invoker.active
        assert invoker.total_vcpus == 0 and invoker.total_vgpus == 0
        assert len(cluster) == 4  # ids stay dense and stable
        assert cluster.total_vcpus() == 3 * 8
        assert cluster.total_available_vcpus() == 3 * 8
        # Idempotent: a second leave of the same node is a no-op.
        assert cluster.apply_leave(1) == []
        assert cluster.total_vcpus() == 3 * 8

    def test_resize_clamps_to_used_and_one(self):
        cluster = small_cluster()
        invoker = cluster.invoker(0)
        invoker.reserve(Configuration(batch_size=1, vcpus=4, vgpus=2))
        applied = cluster.apply_resize(0, 1, 1)
        assert applied == (4, 2)  # harvest never takes busy resources
        assert cluster.total_vcpus() == 3 * 8 + 4
        grown = cluster.apply_resize(0, 16, 8)
        assert grown == (16, 8)
        assert invoker.total_vgpus == 8
        assert cluster.total_vgpus() == 3 * 4 + 8

    def test_resize_of_departed_node_is_a_no_op(self):
        cluster = small_cluster()
        cluster.apply_leave(2)
        assert cluster.apply_resize(2, 16, 8) == (0, 0)
        assert cluster.total_vcpus() == 3 * 8

    def test_utilization_uses_dynamic_membership(self):
        cluster = small_cluster()
        assert cluster.cpu_utilization() == 0.0
        cluster.apply_leave(3)
        assert cluster.cpu_utilization() == 0.0  # 24 free of 24 current
        assert cluster.gpu_utilization() == 0.0


class TestIndexedChurnConsistency:
    def test_leave_rebuckets_to_zero_and_join_is_placeable(self):
        cluster = small_cluster()
        cluster.apply_leave(0)
        assert cluster._bucket_of[0] == (0, 0)
        joined = cluster.apply_join()
        # The new node answers capacity queries through the bucket index.
        fitting = cluster.invokers_that_fit(Configuration(batch_size=1, vcpus=8, vgpus=4))
        assert joined in fitting
        assert cluster.invoker(0) not in fitting

    def test_join_invalidates_home_cache(self):
        cluster = small_cluster()
        before = cluster.home_invoker_id("app", "classification")
        assert before == cluster._hash_home("app", "classification")
        cluster.apply_join()
        after = cluster.home_invoker_id("app", "classification")
        assert after == cluster._hash_home("app", "classification")


# ----------------------------------------------------------------------
# Container eviction + prewarmer
# ----------------------------------------------------------------------
class TestContainerEviction:
    def test_mark_evicted_force_stops_busy_containers(self):
        cluster = small_cluster()
        container = cluster.invoker(0).create_warm_container("classification", 0.0)
        container.assign_task()
        container.assign_task()
        assert container.state is ContainerState.BUSY
        container.mark_evicted()
        assert container.state is ContainerState.STOPPED
        assert container.active_tasks == 0
        assert container.expires_at_ms == float("-inf")
        container.mark_evicted()  # idempotent
        assert container.state is ContainerState.STOPPED

    def test_prewarmer_never_picks_a_departed_node(self, store):
        cluster = small_cluster()
        cluster.apply_leave(0)
        picked = PrewarmManager.pick_invoker(cluster, "classification")
        assert picked == 1  # fewest containers, lowest active id
        for i in (1, 2, 3):
            cluster.apply_leave(i)
        assert PrewarmManager.pick_invoker(cluster, "classification") is None


# ----------------------------------------------------------------------
# Regression: stale expiry timers racing a node eviction
# ----------------------------------------------------------------------
class TestExpiryUnderEviction:
    """A node eviction must defeat every pending keep-alive timer.

    ``mark_evicted`` leaves the container STOPPED with ``expires_at_ms``
    at -inf, so the ``WARM and expires_at_ms == deadline`` guard of
    ``Container.expire`` fails for its caller, the controller's drain heap.
    """

    def armed_container(self) -> tuple[Container, float]:
        cluster = small_cluster()
        container = cluster.invoker(0).create_warm_container("classification", 0.0)
        deadline = container.expires_at_ms
        assert container.state is ContainerState.WARM and deadline > 0
        return container, deadline

    def test_container_expire_is_a_no_op_after_eviction(self):
        container, deadline = self.armed_container()
        container.mark_evicted()
        container.expire(deadline)
        assert container.state is ContainerState.STOPPED
        assert container.expires_at_ms == float("-inf")

    def test_drain_heap_skips_evicted_containers(self, store):
        cluster = small_cluster()
        controller = Controller(
            policy=make_policy("ESG"),
            cluster=cluster,
            profile_store=store,
            runtime_perf_model=AnalyticalPerformanceModel(),
            pricing=PricingModel(),
            metrics=MetricsCollector(),
            events=EventLoop(),
        )
        container, deadline = self.armed_container()
        survivor = cluster.invoker(1).create_warm_container("classification", 0.0)
        for entry in (container, survivor):
            heapq.heappush(
                controller._expiry_heap,
                (entry.expires_at_ms, next(controller._expiry_seq), entry),
            )
        container.mark_evicted()
        controller.expire_due(deadline)
        # The evicted container's entry popped as a no-op; the survivor's
        # live deadline still fired normally.
        assert not controller._expiry_heap
        assert survivor.state is ContainerState.STOPPED


# ----------------------------------------------------------------------
# Metrics plumbing
# ----------------------------------------------------------------------
class TestChurnMetrics:
    def test_eviction_counters_reach_the_summary(self):
        metrics = MetricsCollector(policy_name="ESG", setting_name="t")
        metrics.record_task_evicted()
        metrics.record_task_evicted()
        metrics.record_requeued_jobs(3)
        summary = metrics.summary()
        assert summary.evicted_tasks == 2
        assert summary.requeued_jobs == 3
        assert summary.num_evicted == 0
        data = summary.as_dict()
        assert data["evicted_tasks"] == 2
        assert data["requeued_jobs"] == 3
        assert data["num_evicted"] == 0

    def test_record_requeued_jobs_rejects_negative(self):
        metrics = MetricsCollector()
        with pytest.raises(ValueError):
            metrics.record_requeued_jobs(-1)
