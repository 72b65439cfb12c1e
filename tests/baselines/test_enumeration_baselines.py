"""Tests for the INFless and FaST-GShare enumeration baselines."""

from __future__ import annotations

import pytest

from repro.baselines.fastgshare import FaSTGSharePolicy
from repro.baselines.infless import INFlessPolicy
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.policy_api import AFWQueue, SchedulingContext
from repro.profiles.configuration import Configuration
from repro.workloads.applications import build_paper_applications, image_classification
from repro.workloads.dag import Workflow
from repro.workloads.request import Job, Request


def make_context(store, num_invokers: int = 4) -> SchedulingContext:
    return SchedulingContext(
        profile_store=store,
        cluster=ClusterState(config=ClusterConfig(num_invokers=num_invokers)),
        config_space=store.space,
        pricing=store.pricing,
        workflows={wf.name: wf for wf in build_paper_applications()},
        transfer_model=DataTransferModel(),
    )


def make_loaded_queue(store, stage_id="s1", jobs=1, slo_factor=1.2):
    wf = image_classification()
    queue = AFWQueue(
        app_name=wf.name, stage_id=stage_id, function_name=wf.function_of(stage_id), workflow=wf
    )
    base = store.minimum_config_latency_ms(wf.function_names())
    for i in range(jobs):
        request = Request(request_id=i, workflow=wf, arrival_ms=0.0, slo_ms=slo_factor * base)
        queue.push(Job(request=request, stage_id=stage_id, ready_ms=0.0))
    return queue


@pytest.fixture(params=[INFlessPolicy, FaSTGSharePolicy], ids=["INFless", "FaST-GShare"])
def bound_policy(request, small_store):
    policy = request.param()
    policy.bind(make_context(small_store))
    return policy


class TestSharedBehaviour:
    def test_plan_returns_candidates(self, bound_policy, small_store):
        queue = make_loaded_queue(small_store)
        decision = bound_policy.plan(queue, now_ms=1.0)
        assert decision is not None
        assert 1 <= len(decision.candidates) <= 3
        assert not decision.used_preplanned

    def test_plan_empty_queue_returns_none(self, bound_policy, small_store):
        wf = image_classification()
        queue = AFWQueue(app_name=wf.name, stage_id="s1", function_name="super_resolution", workflow=wf)
        assert bound_policy.plan(queue, now_ms=0.0) is None

    def test_batch_capped_by_queue_length(self, bound_policy, small_store):
        queue = make_loaded_queue(small_store, jobs=2)
        decision = bound_policy.plan(queue, now_ms=1.0)
        assert all(c.batch_size <= 2 for c in decision.candidates)

    def test_stage_slo_uses_static_fractions(self, bound_policy, small_store):
        queue = make_loaded_queue(small_store)
        slo = queue.oldest_job().request.slo_ms
        stage_slo = bound_policy.stage_slo_ms(queue, slo)
        assert 0 < stage_slo < slo

    def test_chosen_config_meets_stage_slo_when_possible(self, bound_policy, small_store):
        queue = make_loaded_queue(small_store, slo_factor=2.0)
        decision = bound_policy.plan(queue, now_ms=1.0)
        profile = small_store.profile(queue.function_name)
        stage_slo = bound_policy.stage_slo_ms(queue, queue.oldest_job().request.slo_ms)
        assert profile.latency_ms(decision.best) <= stage_slo

    def test_infeasible_stage_slo_falls_back_to_fastest(self, bound_policy, small_store):
        queue = make_loaded_queue(small_store, slo_factor=0.01)
        decision = bound_policy.plan(queue, now_ms=1.0)
        assert decision is not None and len(decision.candidates) >= 1

    def test_cached_decisions_match_a_fresh_policy(self, bound_policy, small_store):
        # Vary each part of the cache key: function, queue length below and
        # above the largest batch option, and stage sub-SLO.
        largest = small_store.space.batch_options[-1]
        shapes = [
            (stage_id, jobs, slo_factor)
            for stage_id in ("s1", "s2")
            for jobs in (1, 2, largest, largest + 3)
            for slo_factor in (0.01, 1.2, 3.0)
        ]
        queues = [make_loaded_queue(small_store, *shape) for shape in shapes]
        # Single-stage apps of different functions share one stage sub-SLO.
        for function in sorted(small_store.profiles):
            wf = Workflow(name=f"single-{function}")
            wf.add_stage("s1", function)
            queue = AFWQueue(app_name=wf.name, stage_id="s1", function_name=function, workflow=wf)
            request = Request(request_id=0, workflow=wf, arrival_ms=0.0, slo_ms=400.0)
            queue.push(Job(request=request, stage_id="s1", ready_ms=0.0))
            queues.append(queue)
        for queue in queues + queues:
            fresh = type(bound_policy)()
            fresh.bind(bound_policy.context)
            expected = fresh.plan(queue, now_ms=1.0)
            assert bound_policy.plan(queue, now_ms=1.0).candidates == expected.candidates


class TestINFlessSpecifics:
    def test_prefers_high_throughput_configs(self, small_store):
        policy = INFlessPolicy()
        policy.bind(make_context(small_store))
        queue = make_loaded_queue(small_store, jobs=4, slo_factor=3.0)
        decision = policy.plan(queue, now_ms=1.0)
        profile = small_store.profile(queue.function_name)
        chosen_tp = 1000.0 * decision.best.batch_size / profile.latency_ms(decision.best)
        min_tp = 1000.0 / profile.latency_ms(small_store.space.minimum)
        assert chosen_tp >= min_tp

    def test_placement_minimises_fragmentation(self, small_store):
        policy = INFlessPolicy()
        policy.bind(make_context(small_store))
        cluster = policy.context.cluster
        # Node 1 is already half full: the best-fit placement picks it.
        cluster.invoker(1).reserve(Configuration(1, 10, 4))
        queue = make_loaded_queue(small_store)
        chosen = policy.select_invoker(Configuration(1, 2, 1), queue, now_ms=0.0)
        assert chosen == 1

    def test_placement_none_when_full(self, small_store):
        policy = INFlessPolicy()
        policy.bind(make_context(small_store))
        for invoker in policy.context.cluster:
            invoker.reserve(Configuration(1, 16, 7))
        queue = make_loaded_queue(small_store)
        assert policy.select_invoker(Configuration(1, 1, 1), queue, now_ms=0.0) is None

    def test_invalid_candidates_count(self):
        with pytest.raises(ValueError):
            INFlessPolicy(candidates=0)

    def test_fractional_candidates_count_rejected_at_construction(self):
        with pytest.raises(TypeError, match="candidates"):
            INFlessPolicy(candidates=2.5)

    def test_bool_candidates_count_rejected(self):
        with pytest.raises(TypeError, match="candidates"):
            INFlessPolicy(candidates=True)

    def test_negative_vgpu_weight_rejected(self):
        # With -0.5 a (1 vCPU, 2 vGPU) configuration weighs 0 and its rank
        # key divided by zero mid-run.
        with pytest.raises(ValueError, match="resource_weight_vgpu"):
            INFlessPolicy(resource_weight_vgpu=-0.5)

    def test_nan_vgpu_weight_rejected(self):
        with pytest.raises(ValueError, match="resource_weight_vgpu"):
            INFlessPolicy(resource_weight_vgpu=float("nan"))

    def test_infinite_vgpu_weight_rejected(self):
        with pytest.raises(ValueError, match="resource_weight_vgpu"):
            INFlessPolicy(resource_weight_vgpu=float("inf"))

    def test_zero_vgpu_weight_ranks_every_configuration(self, small_store):
        policy = INFlessPolicy(resource_weight_vgpu=0.0)
        policy.bind(make_context(small_store))
        assert policy.plan(make_loaded_queue(small_store, jobs=2), 1.0) is not None


class TestFaSTGShareSpecifics:
    def test_prefers_gpu_efficient_configs_over_infless(self, small_store):
        """FaST-GShare must never pick more vGPUs than INFless for the same queue."""
        context_a = make_context(small_store)
        context_b = make_context(small_store)
        infless = INFlessPolicy()
        infless.bind(context_a)
        fast = FaSTGSharePolicy()
        fast.bind(context_b)
        queue = make_loaded_queue(small_store, jobs=2, slo_factor=2.0)
        infless_cfg = infless.plan(queue, 1.0).best
        fast_cfg = fast.plan(queue, 1.0).best
        assert fast_cfg.vgpus <= infless_cfg.vgpus

    def test_placement_minimises_gpu_fragmentation(self, small_store):
        policy = FaSTGSharePolicy()
        policy.bind(make_context(small_store))
        cluster = policy.context.cluster
        cluster.invoker(2).reserve(Configuration(1, 2, 5))  # only 2 vGPUs left
        queue = make_loaded_queue(small_store)
        chosen = policy.select_invoker(Configuration(1, 1, 2), queue, now_ms=0.0)
        assert chosen == 2

    def test_invalid_candidates_count(self):
        with pytest.raises(ValueError):
            FaSTGSharePolicy(candidates=0)

    def test_fractional_candidates_count_rejected_at_construction(self):
        with pytest.raises(TypeError, match="candidates"):
            FaSTGSharePolicy(candidates=2.5)
