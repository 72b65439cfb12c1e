"""Tests for the Orion best-first-search baseline."""

from __future__ import annotations

import pytest

import repro.baselines.orion as orion_module
from repro.baselines.orion import OrionPolicy
from repro.profiles.profiler import ProfileStore
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.policy_api import AFWQueue, SchedulingContext
from repro.workloads.applications import build_paper_applications, image_classification
from repro.workloads.request import Job, Request


def make_context(store) -> SchedulingContext:
    return SchedulingContext(
        profile_store=store,
        cluster=ClusterState(config=ClusterConfig(num_invokers=4)),
        config_space=store.space,
        pricing=store.pricing,
        workflows={wf.name: wf for wf in build_paper_applications()},
        transfer_model=DataTransferModel(),
    )


def bound_orion(store, **kwargs) -> OrionPolicy:
    policy = OrionPolicy(**kwargs)
    policy.bind(make_context(store))
    return policy


def make_queue_with_request(store, stage_id="s1", jobs=1, slo_factor=1.2):
    wf = image_classification()
    queue = AFWQueue(
        app_name=wf.name, stage_id=stage_id, function_name=wf.function_of(stage_id), workflow=wf
    )
    base = store.minimum_config_latency_ms(wf.function_names())
    requests = []
    for i in range(jobs):
        request = Request(request_id=i, workflow=wf, arrival_ms=0.0, slo_ms=slo_factor * base)
        requests.append(request)
        queue.push(Job(request=request, stage_id=stage_id, ready_ms=0.0))
    return queue, requests


class TestSearch:
    def test_relaxed_slo_reached_with_cheap_plan(self, small_store):
        policy = bound_orion(small_store)
        wf = image_classification()
        slo = 2.0 * small_store.minimum_config_latency_ms(wf.function_names())
        result = policy.search(wf, slo)
        assert result.reached_goal
        assert result.predicted_latency_ms <= slo
        assert set(result.plan) == set(wf.stage_ids())

    def test_tight_slo_with_tiny_cutoff_misses_goal(self, small_store):
        policy = bound_orion(small_store, cutoff_ms=0.1, per_expansion_ms=0.05, bundling=False)
        wf = image_classification()
        slo = 0.8 * small_store.minimum_config_latency_ms(wf.function_names())
        result = policy.search(wf, slo)
        assert result.expansions <= 2
        assert not result.reached_goal

    def test_larger_cutoff_finds_better_or_equal_plans(self, small_store):
        wf = image_classification()
        slo = 0.9 * small_store.minimum_config_latency_ms(wf.function_names())
        short = bound_orion(small_store, cutoff_ms=0.2).search(wf, slo)
        long = bound_orion(small_store, cutoff_ms=500.0).search(wf, slo)
        assert long.expansions >= short.expansions
        # With more search the predicted latency gets no further from the SLO.
        assert abs(long.predicted_latency_ms - slo) <= abs(short.predicted_latency_ms - slo) + 1e-9

    def test_bundling_increases_batch_sizes_under_slack(self, small_store):
        wf = image_classification()
        slo = 3.0 * small_store.minimum_config_latency_ms(wf.function_names())
        without = bound_orion(small_store, bundling=False).search(wf, slo)
        with_bundling = bound_orion(small_store, bundling=True).search(wf, slo)
        assert max(c.batch_size for c in with_bundling.plan.values()) >= max(
            c.batch_size for c in without.plan.values()
        )
        assert with_bundling.predicted_cost_cents <= without.predicted_cost_cents + 1e-12

    def test_search_time_capped_by_cutoff(self, small_store):
        policy = bound_orion(small_store, cutoff_ms=5.0, per_expansion_ms=0.05)
        wf = image_classification()
        slo = 0.7 * small_store.minimum_config_latency_ms(wf.function_names())
        result = policy.search(wf, slo)
        assert result.search_time_ms <= 5.0 + 1e-9
        assert result.expansions <= 100


class TestPlanning:
    def test_first_stage_creates_static_plan_and_charges_overhead(self, small_store):
        policy = bound_orion(small_store, cutoff_ms=50.0)
        queue, (request,) = make_queue_with_request(small_store, slo_factor=0.9)
        decision = policy.plan(queue, now_ms=1.0)
        assert decision.used_preplanned
        assert request.static_plan is not None
        assert decision.reported_overhead_ms is not None and decision.reported_overhead_ms > 0

    def test_no_overhead_reported_when_disabled(self, small_store):
        policy = bound_orion(small_store, count_search_overhead=False)
        queue, _ = make_queue_with_request(small_store)
        decision = policy.plan(queue, now_ms=1.0)
        assert decision.reported_overhead_ms == 0.0

    def test_later_stage_reuses_plan_without_overhead(self, small_store):
        policy = bound_orion(small_store)
        queue, (request,) = make_queue_with_request(small_store)
        policy.plan(queue, now_ms=1.0)
        later_queue, _ = make_queue_with_request(small_store, stage_id="s2")
        later_queue.jobs.clear()
        later_queue.push(Job(request=request, stage_id="s2", ready_ms=10.0))
        decision = policy.plan(later_queue, now_ms=10.0)
        assert decision.used_preplanned
        assert decision.reported_overhead_ms == 0.0

    def test_plan_miss_when_bundle_exceeds_queue(self, small_store):
        policy = bound_orion(small_store, bundling=True)
        queue, (request,) = make_queue_with_request(small_store, jobs=1, slo_factor=3.0)
        decision = policy.plan(queue, now_ms=1.0)
        planned_batch = request.static_plan["s1"].batch_size
        if planned_batch > 1:
            assert decision.plan_miss
            assert decision.best.batch_size == 1
        else:
            assert not decision.plan_miss

    def test_search_cache_shared_across_requests(self, small_store):
        policy = bound_orion(small_store)
        queue, _ = make_queue_with_request(small_store, jobs=3)
        policy.plan(queue, now_ms=1.0)
        assert policy.searches_performed == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OrionPolicy(cutoff_ms=0.0)
        with pytest.raises(ValueError):
            OrionPolicy(per_expansion_ms=0.0)
        with pytest.raises(ValueError):
            OrionPolicy(p95_factor=0.5)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"cutoff_ms": float("nan")}, "cutoff_ms must be positive and finite, got nan"),
            ({"cutoff_ms": float("inf")}, "cutoff_ms must be positive and finite, got inf"),
            ({"per_expansion_ms": float("nan")}, "per_expansion_ms must be positive and finite"),
            ({"per_expansion_ms": float("inf")}, "per_expansion_ms must be positive and finite"),
            ({"cutoff_ms": 1e300, "per_expansion_ms": 1e-10}, "overflows"),
            ({"p95_factor": float("nan")}, "p95_factor must be finite and >= 1, got nan"),
            ({"p95_factor": float("inf")}, "p95_factor must be finite and >= 1, got inf"),
        ],
    )
    def test_non_finite_parameters_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            OrionPolicy(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"count_search_overhead": "false"},
            {"bundling": "no"},
            {"per_expansion_ms": True},
            {"cutoff_ms": True},
            {"p95_factor": True},
        ],
        ids=repr,
    )
    def test_mistyped_arguments_rejected(self, overrides):
        with pytest.raises(TypeError, match=next(iter(overrides))):
            OrionPolicy(**overrides)


@pytest.fixture()
def searches(monkeypatch) -> list:
    """An empty process-level memo, and a log of the searches actually run."""
    monkeypatch.setattr(orion_module, "_SEARCH_RESULTS", {})
    log = []
    search = OrionPolicy.search

    def logged(self, workflow, slo_ms):
        log.append((workflow.name, slo_ms))
        return search(self, workflow, slo_ms)

    monkeypatch.setattr(OrionPolicy, "search", logged)
    return log


def plan_first_stage(policy: OrionPolicy, store, slo_factor: float = 1.2):
    queue, (request,) = make_queue_with_request(store, slo_factor=slo_factor)
    decision = policy.plan(queue, now_ms=1.0)
    return request.static_plan, decision.reported_overhead_ms


class TestSearchMemo:
    def test_identical_inputs_search_once_per_process(self, small_store, searches):
        first = bound_orion(small_store)
        plan, overhead = plan_first_stage(first, small_store)
        # A separately built store with the same content hits the memo too.
        second = bound_orion(ProfileStore.build(space=small_store.space))
        memo_plan, memo_overhead = plan_first_stage(second, small_store)
        assert len(searches) == 1
        assert (memo_plan, memo_overhead) == (plan, overhead) and memo_overhead > 0
        # Each run counts its own resolution, memo answers included.
        assert first.searches_performed == second.searches_performed == 1

    @pytest.mark.parametrize(
        "overrides",
        [{"cutoff_ms": 50.0}, {"per_expansion_ms": 0.04}, {"p95_factor": 1.1}, {"bundling": False}],
        ids=["cutoff", "per-expansion", "p95", "bundling"],
    )
    def test_any_changed_setting_searches_again(self, small_store, searches, overrides):
        plan_first_stage(bound_orion(small_store), small_store)
        plan_first_stage(bound_orion(small_store, **overrides), small_store)
        assert len(searches) == 2

    def test_exact_slo_and_profiles_are_part_of_the_key(self, small_store, default_store, searches):
        plan_first_stage(bound_orion(small_store), small_store, slo_factor=1.2)
        plan_first_stage(bound_orion(small_store), small_store, slo_factor=1.2 + 1e-12)
        plan_first_stage(bound_orion(default_store), small_store, slo_factor=1.2)
        assert len(searches) == 3

    def test_memo_is_cleared_when_full(self, small_store, searches, monkeypatch):
        monkeypatch.setattr(orion_module, "SEARCH_RESULTS_LIMIT", 2)
        policy = bound_orion(small_store)
        for factor in (1.0, 1.5, 2.0):
            plan_first_stage(policy, small_store, slo_factor=factor)
        assert len(orion_module._SEARCH_RESULTS) == 1
        plan_first_stage(bound_orion(small_store), small_store, slo_factor=1.0)
        assert len(searches) == 4
