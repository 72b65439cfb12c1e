"""Tests for the ESGPolicy (planning, adaptivity, ablation switches)."""

from __future__ import annotations

import math

import pytest

import repro.core.esg as esg_module
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.policy_api import AFWQueue, SchedulingContext
from repro.core.esg import ESGPolicy
from repro.experiments.ablation import ablation_variant_overrides
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

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"max_paths": 0}, ValueError),
            ({"max_paths": -3}, ValueError),
            ({"k": 2.5}, TypeError),
            ({"k": True}, TypeError),
            ({"group_size": 1.5}, TypeError),
            ({"per_expansion_ms": math.nan}, ValueError),
            ({"per_expansion_ms": math.inf}, ValueError),
            ({"per_expansion_ms": -0.001}, ValueError),
        ],
        ids=lambda value: repr(value) if isinstance(value, dict) else value.__name__,
    )
    def test_bad_sizes_rejected_at_construction(self, overrides, error):
        with pytest.raises(error, match=next(iter(overrides))):
            ESGPolicy(**overrides)

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
    """The Figure 12 variants are built from their constructor overrides, so
    these tests also check that each override reaches the policy."""

    def test_no_batching_only_plans_batch_one(self, small_store):
        policy = ESGPolicy(**ablation_variant_overrides()["ESG w/o batching"])
        policy.bind(make_context(small_store))
        wf = policy.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        for i in range(4):
            add_request(queue, i, slo_factor=1.5, store=small_store)
        decision = policy.plan(queue, now_ms=1.0)
        assert all(c.batch_size == 1 for c in decision.candidates)

    def test_no_gpu_sharing_always_takes_whole_gpu(self, small_store):
        policy = ESGPolicy(**ablation_variant_overrides()["ESG w/o GPU sharing"])
        policy.bind(make_context(small_store))
        wf = policy.context.workflows["image_classification"]
        queue = make_queue(wf, "s1")
        add_request(queue, 0, slo_factor=1.5, store=small_store)
        decision = policy.plan(queue, now_ms=1.0)
        full_gpu = small_store.space.vgpu_options[-1]
        assert all(c.vgpus == full_gpu for c in decision.candidates)

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
        assert decision.plan_miss and decision.used_preplanned
        assert decision.candidates[0].batch_size == 1


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


class SearchRecorder:
    """Stands in for the module global the policy searches through."""

    def __init__(self, search) -> None:
        self.search = search
        self.results = []

    def __call__(self, *args, **kwargs):
        result = self.search(*args, **kwargs)
        self.results.append(result)
        return result


@pytest.fixture()
def searches(monkeypatch) -> list:
    """Every ESG_1Q search result the policy obtains during the test."""
    recorder = SearchRecorder(esg_module.esg_1q_search)
    monkeypatch.setattr(esg_module, "esg_1q_search", recorder)
    return recorder.results


def plan_at(policy: ESGPolicy, queue: AFWQueue, target_ms: float):
    """Plan ``queue`` as if its group's latency quota were ``target_ms``."""
    group_ids, _ = policy._group_and_target(queue, 1.0)
    policy._group_and_target = lambda queue, now_ms: (list(group_ids), target_ms)
    try:
        return policy.plan(queue, 1.0)
    finally:
        del policy._group_and_target


class TestPlanCache:
    def _queue(self, policy, small_store, app="image_classification", stage="s1", jobs=1):
        queue = make_queue(policy.context.workflows[app], stage)
        for i in range(jobs):
            add_request(queue, i, slo_factor=1.2, store=small_store)
        return queue

    def test_one_search_answers_its_whole_interval(self, bound_esg, small_store, searches):
        reference = ESGPolicy(k=3, plan_cache=False)
        reference.bind(bound_esg.context)
        queue = self._queue(bound_esg, small_store)
        _, target = bound_esg._group_and_target(queue, 1.0)
        first = plan_at(bound_esg, queue, target)
        lo, hi = searches[0].target_lo, searches[0].target_hi
        assert 0.0 < lo < target <= hi < math.inf
        # Inside (lo, hi]: answered without a search, by the same decision.
        for inside in (hi, math.nextafter(lo, math.inf), (lo + hi) / 2):
            assert plan_at(bound_esg, queue, inside) is first
            assert plan_at(reference, queue, inside) == first
        assert len(searches) == 1 + 3
        # Just outside on either side: a fresh search.
        for outside in (lo, math.nextafter(hi, math.inf)):
            before = len(searches)
            decision = plan_at(bound_esg, queue, outside)
            assert len(searches) == before + 1
            assert decision == plan_at(reference, queue, outside)

    def test_queue_length_is_clamped_to_the_largest_batch_in_the_key(
        self, bound_esg, small_store, searches
    ):
        largest = small_store.space.batch_options[-1]
        short = self._queue(bound_esg, small_store, jobs=1)
        full = self._queue(bound_esg, small_store, jobs=largest)
        longer = self._queue(bound_esg, small_store, jobs=largest + 3)
        _, target = bound_esg._group_and_target(short, 1.0)
        plan_at(bound_esg, short, target)
        plan_at(bound_esg, full, target)
        assert len(searches) == 2
        assert plan_at(bound_esg, longer, target) is plan_at(bound_esg, full, target)
        assert len(searches) == 2
        assert sorted(key[2] for key in bound_esg._plan_cache) == [1, largest]

    def test_store_is_cleared_when_full(self, bound_esg, small_store, searches, monkeypatch):
        monkeypatch.setattr(esg_module, "PLAN_CACHE_LIMIT", 3)
        queues = [
            self._queue(bound_esg, small_store, stage=stage) for stage in ("s1", "s2", "s3")
        ]
        queues.append(self._queue(bound_esg, small_store, app="expanded_image_classification"))
        for queue in queues[:3]:
            plan_at(bound_esg, queue, 500.0)
        assert bound_esg._plan_cache_size == 3
        plan_at(bound_esg, queues[3], 500.0)
        assert bound_esg._plan_cache_size == 1
        assert len(bound_esg._plan_cache) == 1
        plan_at(bound_esg, queues[0], 500.0)
        assert len(searches) == 5

    def test_invalidate_drops_stored_plans(self, bound_esg, small_store, searches):
        queue = self._queue(bound_esg, small_store)
        first = plan_at(bound_esg, queue, 500.0)
        assert plan_at(bound_esg, queue, 500.0) is first
        assert len(searches) == 1
        bound_esg.invalidate_plan_cache()
        assert bound_esg._plan_cache == {}
        assert bound_esg._plan_cache_size == 0
        again = plan_at(bound_esg, queue, 500.0)
        assert len(searches) == 2
        assert again is not first and again == first

    def test_disabled_cache_searches_every_plan(self, small_store, searches):
        policy = ESGPolicy(k=3, plan_cache=False)
        policy.bind(make_context(small_store))
        queue = self._queue(policy, small_store)
        for _ in range(3):
            plan_at(policy, queue, 500.0)
        assert len(searches) == 3
        assert policy._plan_cache == {}


class TestDispatchIntegration:
    def test_select_invoker_prefers_predecessor_node(self, bound_esg, small_store):
        wf = bound_esg.context.workflows["image_classification"]
        queue = make_queue(wf, "s2")
        request = add_request(queue, 0, slo_factor=1.2, store=small_store)
        bound_esg.context.cluster.invoker(2).create_warm_container(wf.function_of("s2"), 0.0)
        request.record_stage_completion("s1", 5.0, invoker_id=2)
        chosen = bound_esg.select_invoker(small_store.space.minimum, queue, now_ms=10.0)
        assert chosen == 2


class TestFlagTypes:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"adaptive": "false"},
            {"adaptive": None},
            {"gpu_sharing": "false"},
            {"gpu_sharing": 0},
            {"batching": 1},
            {"batching": "no"},
            {"plan_cache": 0},
            {"plan_cache": "off"},
            {"safety_margin": False},
            {"safety_margin": True},
            {"safety_margin": "0.1"},
            {"per_expansion_ms": True},
            {"per_expansion_ms": "0.1"},
            {"per_expansion_ms": None},
        ],
        ids=repr,
    )
    def test_mistyped_flag_rejected(self, overrides):
        with pytest.raises(TypeError, match=next(iter(overrides))):
            ESGPolicy(**overrides)

    def test_stored_override_string_rejected_through_make_policy(self):
        from repro.experiments import make_policy

        with pytest.raises(TypeError, match="gpu_sharing"):
            make_policy("ESG", gpu_sharing="false")

    def test_integer_margin_accepted(self):
        assert ESGPolicy(safety_margin=0).safety_margin == 0


class TestGroupMemo:
    def test_memo_answers_as_the_exact_path(self, bound_esg, small_store):
        """Requests of a registered workflow are answered from the
        (app, stage, completed stages) memo; an equal factory-built
        workflow takes the exact path.  Both must give the same group
        stages and the same quota, bit for bit, in every completion state,
        on the memo's first and on later lookups."""
        copies = {wf.name: wf for wf in build_paper_applications()}
        checked = 0
        for app, workflow in bound_esg.context.workflows.items():
            order = workflow.topological_order()
            for position, stage in enumerate(order):
                for done in range(position + 1):
                    for request_id, (slo_factor, now) in enumerate(((1.3, 2.0), (2.5, 7.5))):
                        answers = []
                        for wf in (workflow, copies[app]):
                            queue = make_queue(wf, stage)
                            request = add_request(
                                queue, request_id, slo_factor=slo_factor, store=small_store
                            )
                            for sid in order[:done]:
                                request.record_stage_completion(sid, 1.0, invoker_id=0)
                            group, target = bound_esg._group_and_target(queue, now)
                            answers.append((tuple(group), repr(target)))
                        assert answers[0] == answers[1], (app, stage, order[:done])
                        checked += 1
        assert checked > 40
        keys = bound_esg._group_cache.keys()
        assert {key[0] for key in keys} == set(bound_esg.context.workflows)
        assert len(keys) * 2 == checked
