"""Tests for the AFW queues and the scheduling policy interface."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.policy_api import (
    AFWQueue,
    SchedulingContext,
    SchedulingDecision,
    SchedulingPolicy,
    preplanned_decision,
)
from repro.profiles.configuration import Configuration
from repro.workloads.applications import image_classification
from repro.workloads.request import Job, Request


def make_queue(stage_id: str = "s1") -> AFWQueue:
    wf = image_classification()
    return AFWQueue(
        app_name=wf.name,
        stage_id=stage_id,
        function_name=wf.function_of(stage_id),
        workflow=wf,
    )


def make_job(queue: AFWQueue, req_id: int, arrival: float = 0.0, slo: float = 1000.0) -> Job:
    request = Request(
        request_id=req_id, workflow=queue.workflow, arrival_ms=arrival, slo_ms=slo
    )
    return Job(request=request, stage_id=queue.stage_id, ready_ms=arrival)


class TestAFWQueue:
    def test_push_and_pop_batch_fifo(self):
        queue = make_queue()
        jobs = [make_job(queue, i, arrival=float(i)) for i in range(4)]
        for job in jobs:
            queue.push(job)
        assert len(queue) == 4
        popped = queue.pop_batch(2)
        assert popped == jobs[:2]
        assert len(queue) == 2

    def test_push_wrong_stage_rejected(self):
        queue = make_queue("s1")
        other = make_queue("s2")
        job = make_job(other, 0)
        with pytest.raises(ValueError):
            queue.push(job)

    def test_pop_more_than_available_rejected(self):
        queue = make_queue()
        queue.push(make_job(queue, 0))
        with pytest.raises(ValueError):
            queue.pop_batch(2)
        with pytest.raises(ValueError):
            queue.pop_batch(0)

    def test_oldest_job_and_waiting(self):
        queue = make_queue()
        queue.push(make_job(queue, 0, arrival=10.0))
        queue.push(make_job(queue, 1, arrival=30.0))
        assert queue.oldest_job().request.request_id == 0
        assert queue.max_waiting_ms(50.0) == pytest.approx(40.0)

    def test_most_urgent_request(self):
        queue = make_queue()
        queue.push(make_job(queue, 0, arrival=0.0, slo=5000.0))
        queue.push(make_job(queue, 1, arrival=10.0, slo=100.0))
        assert queue.most_urgent_request(50.0).request_id == 1
        assert queue.min_remaining_budget_ms(50.0) == pytest.approx(60.0)

    def test_empty_queue_accessors_raise(self):
        queue = make_queue()
        assert queue.is_empty
        assert queue.max_waiting_ms(10.0) == 0.0
        with pytest.raises(IndexError):
            queue.oldest_job()
        with pytest.raises(IndexError):
            queue.most_urgent_request(10.0)

    def test_snapshot_is_immutable_copy(self):
        queue = make_queue()
        queue.push(make_job(queue, 0))
        snapshot = queue.jobs_snapshot()
        assert isinstance(snapshot, tuple)
        assert len(snapshot) == 1

    def test_key(self):
        queue = make_queue("s2")
        assert queue.key == ("image_classification", "s2")


class TestSchedulingDecision:
    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            SchedulingDecision(candidates=[])

    def test_best_is_first_candidate(self):
        a, b = Configuration(1, 1, 1), Configuration(2, 2, 2)
        assert SchedulingDecision(candidates=[a, b]).best is a

    def test_overhead_defaults_to_zero(self):
        decision = SchedulingDecision(candidates=[Configuration(1, 1, 1)])
        assert decision.reported_overhead_ms == 0.0
        assert not decision.used_preplanned and not decision.plan_miss


class TestPreplannedDecision:
    def test_planned_batch_that_fits_is_used_as_is(self):
        queue = make_queue("s2")
        for i in range(4):
            queue.push(make_job(queue, i))
        planned = Configuration(4, 2, 1)
        decision = preplanned_decision(queue, {"s1": Configuration(1, 1, 1), "s2": planned}, 1.5)
        assert decision.candidates == [planned]
        assert decision.used_preplanned and not decision.plan_miss
        assert decision.reported_overhead_ms == 1.5

    def test_batch_larger_than_the_queue_is_clipped_and_missed(self):
        queue = make_queue("s2")
        for i in range(3):
            queue.push(make_job(queue, i))
        decision = preplanned_decision(queue, {"s2": Configuration(8, 2, 1)})
        assert decision.candidates == [Configuration(3, 2, 1)]
        assert decision.used_preplanned and decision.plan_miss
        assert decision.reported_overhead_ms == 0.0

    def test_unplanned_stage_gives_no_decision(self):
        queue = make_queue("s3")
        queue.push(make_job(queue, 0))
        assert preplanned_decision(queue, {"s1": Configuration(1, 1, 1)}) is None


class _MinimalPolicy(SchedulingPolicy):
    """Always proposes the minimum configuration."""

    name = "minimal"

    def plan(self, queue, now_ms):
        return SchedulingDecision(candidates=[self.context.config_space.minimum])


@pytest.fixture()
def bound_policy(small_store):
    cluster = ClusterState(config=ClusterConfig(num_invokers=4))
    context = SchedulingContext(
        profile_store=small_store,
        cluster=cluster,
        config_space=small_store.space,
        pricing=small_store.pricing,
        workflows={"image_classification": image_classification()},
        transfer_model=DataTransferModel(),
    )
    policy = _MinimalPolicy()
    policy.bind(context)
    return policy


class TestSchedulingPolicy:
    def test_unbound_policy_raises(self):
        policy = _MinimalPolicy()
        with pytest.raises(RuntimeError):
            _ = policy.context

    def test_default_select_invoker_prefers_home(self, bound_policy):
        queue = make_queue()
        queue.push(make_job(queue, 0))
        cluster = bound_policy.context.cluster
        home = cluster.home_invoker_id(queue.app_name, queue.function_name)
        chosen = bound_policy.select_invoker(Configuration(1, 1, 1), queue, 0.0)
        assert chosen == home

    def test_default_select_invoker_falls_back_when_home_full(self, bound_policy):
        queue = make_queue()
        queue.push(make_job(queue, 0))
        cluster = bound_policy.context.cluster
        home = cluster.home_invoker_id(queue.app_name, queue.function_name)
        cluster.invoker(home).reserve(Configuration(1, 16, 7))
        chosen = bound_policy.select_invoker(Configuration(1, 1, 1), queue, 0.0)
        assert chosen is not None and chosen != home

    def test_default_select_invoker_none_when_cluster_full(self, bound_policy):
        queue = make_queue()
        queue.push(make_job(queue, 0))
        for invoker in bound_policy.context.cluster:
            invoker.reserve(Configuration(1, 16, 7))
        assert bound_policy.select_invoker(Configuration(1, 1, 1), queue, 0.0) is None
