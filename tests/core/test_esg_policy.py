"""Tests for the ESGPolicy (planning, adaptivity, ablation switches)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.policy_api import AFWQueue, SchedulingContext
from repro.core.esg import ESGPolicy
from repro.workloads.applications import (
    build_paper_applications,
    expanded_image_classification,
    image_classification,
)
from repro.workloads.request import Job, Request


def make_context(store, num_invokers: int = 4) -> SchedulingContext:
    workflows = {wf.name: wf for wf in build_paper_applications()}
    return SchedulingContext(
        profile_store=store,
        cluster=ClusterState(config=ClusterConfig(num_invokers=num_invokers)),
        config_space=store.space,
        pricing=store.pricing,
        workflows=workflows,
        transfer_model=DataTransferModel(),
    )


def make_queue(workflow, stage_id: str) -> AFWQueue:
    return AFWQueue(
        app_name=workflow.name,
        stage_id=stage_id,
        function_name=workflow.function_of(stage_id),
        workflow=workflow,
    )


def add_request(queue: AFWQueue, req_id: int, *, slo_factor: float, store, now: float = 0.0) -> Request:
    base = store.minimum_config_latency_ms(queue.workflow.function_names())
    request = Request(
        request_id=req_id, workflow=queue.workflow, arrival_ms=now, slo_ms=slo_factor * base
    )
    queue.push(Job(request=request, stage_id=queue.stage_id, ready_ms=now))
    return request


@pytest.fixture()
def bound_esg(small_store) -> ESGPolicy:
    policy = ESGPolicy(k=3)
    policy.bind(make_context(small_store))
    return policy


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ESGPolicy(k=0)
        with pytest.raises(ValueError):
            ESGPolicy(group_size=0)
        with pytest.raises(ValueError):
            ESGPolicy(safety_margin=1.5)

    def test_name_override(self):
        assert ESGPolicy(name="ESG-variant").name == "ESG-variant"
        assert ESGPolicy().name == "ESG"


class TestBinding:
    def test_bind_precomputes_distributions(self, bound_esg):
        for wf in build_paper_applications():
            dist = bound_esg.distribution_for(wf.name)
            assert dist.total_fraction() == pytest.approx(1.0)

    def test_distribution_for_unknown_app_computed_lazily(self, small_store):
        policy = ESGPolicy()
        context = make_context(small_store)
        policy.bind(context)
        # Register an extra workflow after binding.
        extra = image_classification()
        extra.name = "extra_app"  # type: ignore[misc]
        context.workflows["extra_app"] = extra
        assert policy.distribution_for("extra_app").workflow is extra


class TestPlanning:
    def test_plan_returns_candidates_within_k(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        add_request(queue, 0, slo_factor=1.2, store=small_store)
        decision = bound_esg.plan(queue, now_ms=1.0)
        assert decision is not None
        assert 1 <= len(decision.candidates) <= 3
        assert decision.planned_path is not None
        assert set(decision.planned_path) == {"s1", "s2", "s3"}

    def test_plan_empty_queue_returns_none(self, bound_esg):
        wf = bound_esg.context.workflows["image_classification"]
        assert bound_esg.plan(make_queue(wf, "s1"), now_ms=0.0) is None

    def test_plan_batch_capped_by_queue_length(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        add_request(queue, 0, slo_factor=1.5, store=small_store)
        add_request(queue, 1, slo_factor=1.5, store=small_store)
        decision = bound_esg.plan(queue, now_ms=1.0)
        assert all(c.batch_size <= 2 for c in decision.candidates)

    def test_candidates_ordered_by_increasing_cost(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["expanded_image_classification"]
        queue = make_queue(wf, "s1")
        add_request(queue, 0, slo_factor=1.3, store=small_store)
        decision = bound_esg.plan(queue, now_ms=1.0)
        profile = small_store.profile(queue.function_name)
        costs = [profile.per_job_cost_cents(c) for c in decision.candidates]
        # First-stage candidates come from paths sorted by total cost; their
        # own per-job costs may tie but never decrease then increase wildly.
        assert len(costs) >= 1

    def test_adaptive_replanning_tightens_late_stages(self, bound_esg, small_store):
        """If the first stage consumed most of the budget, the plan for the
        last stage must pick a faster configuration than it would with a
        fresh budget."""
        wf = bound_esg.context.workflows["image_classification"]
        profile = small_store.profile(wf.function_of("s3"))

        # Fresh request at its last stage with plenty of budget.
        relaxed_queue = make_queue(wf, "s3")
        relaxed_req = add_request(relaxed_queue, 0, slo_factor=1.2, store=small_store)
        relaxed_req.record_stage_completion("s1", 10.0, 0)
        relaxed_req.record_stage_completion("s2", 20.0, 0)
        relaxed_decision = bound_esg.plan(relaxed_queue, now_ms=30.0)

        # Same request shape, but earlier stages ate nearly all of the budget.
        tight_queue = make_queue(wf, "s3")
        tight_req = add_request(tight_queue, 1, slo_factor=1.2, store=small_store)
        tight_req.record_stage_completion("s1", 10.0, 0)
        late = tight_req.deadline_ms - profile.min_latency_ms * 1.5
        tight_req.record_stage_completion("s2", late, 0)
        tight_decision = bound_esg.plan(tight_queue, now_ms=late)

        relaxed_latency = profile.latency_ms(relaxed_decision.best)
        tight_latency = profile.latency_ms(tight_decision.best)
        assert tight_latency <= relaxed_latency

    def test_blown_deadline_still_returns_a_decision(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        request = add_request(queue, 0, slo_factor=0.8, store=small_store)
        decision = bound_esg.plan(queue, now_ms=request.deadline_ms + 10_000.0)
        assert decision is not None
        assert len(decision.candidates) >= 1


class TestAblationSwitches:
    def test_no_batching_only_plans_batch_one(self, small_store):
        policy = ESGPolicy(batching=False)
        policy.bind(make_context(small_store))
        wf = policy.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        for i in range(4):
            add_request(queue, i, slo_factor=1.5, store=small_store)
        decision = policy.plan(queue, now_ms=1.0)
        assert all(c.batch_size == 1 for c in decision.candidates)
        assert not policy.uses_batching

    def test_no_gpu_sharing_always_takes_whole_gpu(self, small_store):
        policy = ESGPolicy(gpu_sharing=False)
        policy.bind(make_context(small_store))
        wf = policy.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        add_request(queue, 0, slo_factor=1.5, store=small_store)
        decision = policy.plan(queue, now_ms=1.0)
        full_gpu = small_store.space.vgpu_options[-1]
        assert all(c.vgpus == full_gpu for c in decision.candidates)
        assert not policy.uses_gpu_sharing

    def test_static_variant_plans_once_and_reuses(self, small_store):
        policy = ESGPolicy(adaptive=False)
        policy.bind(make_context(small_store))
        wf = policy.context.workflows["expanded_image_classification"]
        queue = make_queue(wf, "s1")
        request = add_request(queue, 0, slo_factor=1.2, store=small_store)
        first = policy.plan(queue, now_ms=1.0)
        assert first.used_preplanned
        assert request.static_plan is not None
        # Later stage reads the same plan.
        queue2 = make_queue(wf, "s2")
        queue2.push(Job(request=request, stage_id="s2", ready_ms=50.0))
        second = policy.plan(queue2, now_ms=50.0)
        assert second.used_preplanned
        assert second.candidates[0].vcpus == request.static_plan["s2"].vcpus

    def test_static_variant_records_plan_miss_on_small_queue(self, small_store):
        policy = ESGPolicy(adaptive=False)
        policy.bind(make_context(small_store))
        wf = policy.context.workflows["image_classification"]
        queue = make_queue(wf, "s2")
        request = add_request(queue, 0, slo_factor=1.2, store=small_store)
        # Force a pre-planned batch larger than the queue.
        request.static_plan = {
            "s1": small_store.space.minimum,
            "s2": small_store.space.minimum.with_batch(4),
            "s3": small_store.space.minimum,
        }
        decision = policy.plan(queue, now_ms=1.0)
        assert decision.plan_miss
        assert decision.candidates[0].batch_size == 1
        assert request.plan_miss_count == 1


class TestSearchInputs:
    def test_only_a_leading_queue_stage_is_capped(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s2")
        for i in range(2):
            add_request(queue, i, slo_factor=1.2, store=small_store)

        def largest_batches(stage_ids):
            specs = bound_esg._stage_specs(queue, stage_ids)
            return [max(e.config.batch_size for e in spec.entries) for spec in specs]

        largest = small_store.space.batch_options[-1]
        assert largest_batches(["s2", "s3"]) == [2, largest]
        # The queue's stage further down a whole-workflow plan is not capped.
        assert largest_batches(["s1", "s2", "s3"]) == [largest, largest, largest]

    def test_specs_are_memoized_with_a_bounded_cap(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        largest = small_store.space.batch_options[-1]
        specs = []
        for i in range(3 * largest):
            add_request(queue, i, slo_factor=1.2, store=small_store)
            specs.append(bound_esg._stage_specs(queue, ["s1"])[0])
        assert {key[2] for key in bound_esg._spec_cache} == set(range(1, largest + 1))
        # From the largest batch option on, the cap filters nothing.
        assert all(spec is specs[largest - 1] for spec in specs[largest - 1 :])
        uncapped = small_store.profile(wf.function_of("s1")).sorted_by_latency()
        assert specs[-1].entries == uncapped

    def test_invalidate_drops_cached_specs(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        add_request(queue, 0, slo_factor=1.2, store=small_store)
        first = bound_esg._stage_specs(queue, ["s1"])[0]
        bound_esg.invalidate_plan_cache()
        assert not bound_esg._spec_cache
        again = bound_esg._stage_specs(queue, ["s1"])[0]
        assert again is not first
        assert again == first


class TestDispatchIntegration:
    def test_select_invoker_prefers_predecessor_node(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s2")
        request = add_request(queue, 0, slo_factor=1.2, store=small_store)
        bound_esg.context.cluster.invoker(2).create_warm_container(wf.function_of("s2"), 0.0)
        request.record_stage_completion("s1", 5.0, invoker_id=2)
        chosen = bound_esg.select_invoker(small_store.space.minimum, queue, now_ms=10.0)
        assert chosen == 2
