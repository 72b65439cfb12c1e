"""Tests for the metrics collector and run summaries."""

from __future__ import annotations

import random

import pytest

from repro.cluster.metrics import (
    MetricsCollector,
    MetricsConfig,
    charged_cost_cents,
    charged_duration_ms,
)
from repro.cluster.tasks import Task
from repro.profiles.configuration import Configuration
from repro.workloads.applications import depth_recognition, image_classification
from repro.workloads.request import Job, Request


def make_completed_request(req_id: int, latency_ms: float, slo_ms: float = 500.0, app=None) -> Request:
    workflow = app or image_classification()
    request = Request(request_id=req_id, workflow=workflow, arrival_ms=0.0, slo_ms=slo_ms)
    t = 0.0
    per_stage = latency_ms / workflow.num_stages
    for sid in workflow.topological_order():
        t += per_stage
        request.record_stage_completion(sid, t, invoker_id=0)
    return request


def make_task(request: Request, cost: float = 1.0, cold: float = 0.0, vgpus: int = 1) -> Task:
    job = Job(request=request, stage_id="s1", ready_ms=0.0)
    task = Task(
        app_name=request.app_name,
        stage_id="s1",
        function_name="super_resolution",
        jobs=[job],
        config=Configuration(1, 1, vgpus),
        invoker_id=0,
        dispatch_ms=10.0,
        cold_start_ms=cold,
        transfer_ms=0.0,
        exec_ms=100.0,
    )
    task.cost_cents = cost
    return task


class TestSloHitRate:
    def test_hit_rate_counts_unfinished_as_misses(self):
        metrics = MetricsCollector()
        metrics.register_request(make_completed_request(0, 400.0))  # hit
        metrics.register_request(make_completed_request(1, 600.0))  # miss
        unfinished = Request(
            request_id=2, workflow=image_classification(), arrival_ms=0.0, slo_ms=500.0
        )
        metrics.register_request(unfinished)
        assert metrics.slo_hit_rate() == pytest.approx(1 / 3)

    def test_per_app_hit_rate(self):
        metrics = MetricsCollector()
        metrics.register_request(make_completed_request(0, 400.0))
        metrics.register_request(make_completed_request(1, 900.0, app=depth_recognition()))
        assert metrics.slo_hit_rate("image_classification") == 1.0
        assert metrics.slo_hit_rate("depth_recognition") == 0.0

    def test_empty_collector_rates_are_zero(self):
        metrics = MetricsCollector()
        assert metrics.slo_hit_rate() == 0.0
        assert metrics.cost_per_request_cents() == 0.0
        assert metrics.plan_miss_rate() == 0.0


class TestCostAndTasks:
    def test_total_cost_sums_task_costs(self):
        metrics = MetricsCollector()
        request = make_completed_request(0, 400.0)
        metrics.register_request(request)
        metrics.record_task(make_task(request, cost=1.5))
        metrics.record_task(make_task(request, cost=2.5))
        assert metrics.total_cost_cents() == pytest.approx(4.0)
        assert metrics.cost_per_request_cents() == pytest.approx(4.0)

    def test_cold_and_warm_start_counters(self):
        metrics = MetricsCollector()
        request = make_completed_request(0, 400.0)
        metrics.record_task(make_task(request, cold=0.0))
        metrics.record_task(make_task(request, cold=1000.0))
        assert metrics.warm_starts == 1
        assert metrics.cold_starts == 1

    def test_vgpu_time_accumulates(self):
        metrics = MetricsCollector()
        request = make_completed_request(0, 400.0)
        metrics.record_task(make_task(request, vgpus=2))
        assert metrics.total_vgpu_ms() == pytest.approx(2 * 100.0)

    def test_latencies_sorted_by_completion(self):
        metrics = MetricsCollector()
        metrics.register_request(make_completed_request(0, 300.0))
        metrics.register_request(make_completed_request(1, 200.0))
        assert metrics.latencies_ms() == [200.0, 300.0]


class TestPlanAndTransfers:
    def test_plan_miss_rate(self):
        metrics = MetricsCollector()
        metrics.record_plan_attempt(miss=True)
        metrics.record_plan_attempt(miss=False)
        metrics.record_plan_attempt(miss=True)
        assert metrics.plan_miss_rate() == pytest.approx(2 / 3)

    def test_transfer_counters(self):
        metrics = MetricsCollector()
        metrics.record_transfer(local=True)
        metrics.record_transfer(local=False)
        metrics.record_transfer(local=True)
        assert metrics.local_transfers == 2
        assert metrics.remote_transfers == 1

    @pytest.mark.parametrize("overhead", [-1.0, float("nan"), float("inf")])
    def test_overhead_outside_zero_to_inf_rejected(self, overhead):
        metrics = MetricsCollector(policy_name="INFless")
        with pytest.raises(ValueError, match=f"policy 'INFless' reported .*{overhead!r} ms"):
            metrics.record_overhead(overhead)


class TestSummary:
    def test_summary_aggregates(self):
        metrics = MetricsCollector(policy_name="ESG", setting_name="strict-light")
        request_hit = make_completed_request(0, 400.0)
        request_miss = make_completed_request(1, 700.0)
        metrics.register_request(request_hit)
        metrics.register_request(request_miss)
        metrics.record_task(make_task(request_hit, cost=1.0))
        metrics.record_overhead(5.0)
        metrics.record_plan_attempt(miss=True)
        summary = metrics.summary()
        assert summary.policy == "ESG"
        assert summary.setting == "strict-light"
        assert summary.num_requests == 2
        assert summary.num_completed == 2
        assert summary.slo_hit_rate == pytest.approx(0.5)
        assert summary.total_cost_cents == pytest.approx(1.0)
        assert summary.plan_miss_rate == 1.0
        assert summary.mean_overhead_ms == pytest.approx(5.0)
        assert "image_classification" in summary.per_app_slo_hit_rate

    def test_summary_as_dict_round_trip(self):
        metrics = MetricsCollector(policy_name="X", setting_name="s")
        metrics.register_request(make_completed_request(0, 100.0))
        data = metrics.summary().as_dict()
        assert data["policy"] == "X"
        assert data["num_requests"] == 1


STREAMING = MetricsConfig(mode="streaming")


def streaming_collector(**kwargs) -> MetricsCollector:
    return MetricsCollector(config=STREAMING, **kwargs)


class TestMetricsConfig:
    def test_default_mode_is_retained(self):
        assert MetricsConfig().mode == "retained"
        assert not MetricsCollector().is_streaming

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics mode"):
            MetricsConfig(mode="compressed")


class TestStreamingMode:
    def test_retains_no_objects(self):
        metrics = streaming_collector()
        request = make_completed_request(0, 400.0)
        metrics.register_request(request)
        metrics.record_task(make_task(request))
        assert metrics.requests == []
        assert metrics.tasks == []
        with pytest.raises(RuntimeError, match="does not retain"):
            metrics.completed_requests()

    def test_register_folds_already_completed_requests(self):
        metrics = streaming_collector()
        metrics.register_request(make_completed_request(0, 400.0))  # hit
        metrics.register_request(make_completed_request(1, 600.0))  # miss
        assert metrics.num_requests() == 2
        assert metrics.num_completed() == 2
        assert metrics.slo_hit_rate() == pytest.approx(0.5)

    def test_double_fold_is_rejected(self):
        """A request registered pre-completed must not also be notified via
        record_completion — that would corrupt rates (slo_hit_rate > 1)."""
        metrics = streaming_collector()
        request = make_completed_request(0, 400.0)
        metrics.register_request(request)  # folds immediately
        with pytest.raises(ValueError, match="recorded only once"):
            metrics.record_completion(request)
        assert metrics.slo_hit_rate() == 1.0

    def test_completion_of_unregistered_request_is_rejected(self):
        metrics = streaming_collector()
        with pytest.raises(ValueError, match="registered"):
            metrics.record_completion(make_completed_request(0, 400.0))

    def test_placeholder_refuses_recording(self):
        summary = MetricsCollector(policy_name="p", setting_name="s").summary()
        placeholder = MetricsCollector.placeholder_from_summary(summary)
        with pytest.raises(RuntimeError, match="summary_only placeholder"):
            placeholder.register_request(make_completed_request(0, 100.0))
        with pytest.raises(RuntimeError, match="summary_only placeholder"):
            placeholder.record_overhead(1.0)

    def test_record_completion_requires_a_completed_request(self):
        metrics = streaming_collector()
        unfinished = Request(
            request_id=0, workflow=image_classification(), arrival_ms=0.0, slo_ms=500.0
        )
        metrics.register_request(unfinished)
        with pytest.raises(ValueError, match="has not completed"):
            metrics.record_completion(unfinished)
        assert metrics.num_completed() == 0

    def test_incremental_completion_flow(self):
        metrics = streaming_collector()
        request = Request(
            request_id=7, workflow=image_classification(), arrival_ms=10.0, slo_ms=500.0
        )
        metrics.register_request(request)
        assert metrics.slo_hit_rate() == 0.0
        t = 10.0
        for sid in request.workflow.topological_order():
            t += 50.0
            request.record_stage_completion(sid, t, invoker_id=0)
        metrics.record_completion(request)
        assert metrics.num_completed() == 1
        assert metrics.latencies_ms() == [t - 10.0]
        assert metrics.latency_running_stats().count == 1

    def test_latencies_in_canonical_completion_order(self):
        metrics = streaming_collector()
        # Fold in reverse completion order: the buffers must re-order.
        metrics.register_request(make_completed_request(0, 300.0))
        metrics.register_request(make_completed_request(1, 200.0))
        assert metrics.latencies_ms() == [200.0, 300.0]

    def test_per_app_accumulators(self):
        metrics = streaming_collector()
        metrics.register_request(make_completed_request(0, 400.0))
        metrics.register_request(make_completed_request(1, 900.0, app=depth_recognition()))
        assert metrics.app_names() == ["depth_recognition", "image_classification"]
        assert metrics.slo_hit_rate("image_classification") == 1.0
        assert metrics.slo_hit_rate("depth_recognition") == 0.0
        assert metrics.latencies_ms("depth_recognition") == [900.0]

    def test_overhead_buffer_is_compact_but_summarizable(self):
        metrics = streaming_collector()
        metrics.record_overhead(5.0)
        metrics.record_overhead(15.0)
        assert list(metrics.overhead_ms_samples) == [5.0, 15.0]
        assert metrics.overhead_summary().mean == pytest.approx(10.0)

    def test_unknown_app_queries_are_empty(self):
        metrics = streaming_collector()
        assert metrics.slo_hit_rate("nope") == 0.0
        assert metrics.latencies_ms("nope") == []
        assert metrics.total_cost_cents("nope") == 0.0
        assert metrics.num_requests("nope") == 0


class TestHorizonClamp:
    """Regression: truncated runs must not overcharge resource-time.

    A task dispatched before the horizon whose ``finish_ms`` lands past
    ``max_time_ms`` used to contribute its full cost/vGPU-ms/vCPU-ms.
    """

    def straddling_task(self) -> Task:
        request = make_completed_request(0, 400.0)
        # dispatch 10, exec 100 -> holds [10, 110).
        return make_task(request, cost=2.0, vgpus=2)

    @pytest.mark.parametrize("config", [MetricsConfig(), STREAMING])
    def test_straddling_task_charged_pro_rata(self, config):
        metrics = MetricsCollector(config=config, horizon_ms=60.0)
        metrics.record_task(self.straddling_task())
        # 50 of the 100 held ms fall inside the horizon.
        assert metrics.total_vgpu_ms() == pytest.approx(2 * 50.0)
        assert metrics.total_vcpu_ms() == pytest.approx(1 * 50.0)
        assert metrics.total_cost_cents() == pytest.approx(1.0)

    @pytest.mark.parametrize("config", [MetricsConfig(), STREAMING])
    def test_task_inside_horizon_fully_charged(self, config):
        metrics = MetricsCollector(config=config, horizon_ms=500.0)
        metrics.record_task(self.straddling_task())
        assert metrics.total_vgpu_ms() == pytest.approx(2 * 100.0)
        assert metrics.total_cost_cents() == pytest.approx(2.0)

    @pytest.mark.parametrize("config", [MetricsConfig(), STREAMING])
    def test_task_entirely_past_horizon_charged_nothing(self, config):
        metrics = MetricsCollector(config=config, horizon_ms=5.0)
        metrics.record_task(self.straddling_task())
        assert metrics.total_vgpu_ms() == 0.0
        assert metrics.total_cost_cents() == 0.0

    def test_default_horizon_is_unbounded(self):
        metrics = MetricsCollector()
        metrics.record_task(self.straddling_task())
        assert metrics.total_cost_cents() == pytest.approx(2.0)

    def test_charged_helpers_agree_with_unclamped_task(self):
        task = self.straddling_task()
        assert charged_duration_ms(task, float("inf")) == task.duration_ms
        assert charged_cost_cents(task, float("inf")) == task.cost_cents


class TestPlaceholder:
    def test_placeholder_carries_summary_flags_and_counters(self):
        metrics = MetricsCollector(policy_name="ESG", setting_name="s", truncated=True)
        metrics.register_request(make_completed_request(0, 100.0))
        metrics.record_task(make_task(make_completed_request(1, 100.0), cold=5.0))
        metrics.record_plan_attempt(miss=True)
        metrics.record_transfer(local=False)
        summary = metrics.summary()

        placeholder = MetricsCollector.placeholder_from_summary(summary)
        assert placeholder.placeholder
        assert placeholder.truncated is summary.truncated is True
        assert placeholder.policy_name == "ESG"
        assert placeholder.plan_attempts == summary.plan_attempts == 1
        assert placeholder.plan_misses == 1
        assert placeholder.cold_starts == 1
        assert placeholder.remote_transfers == 1

    def test_regular_collectors_are_not_placeholders(self):
        assert not MetricsCollector().placeholder

    def test_placeholder_refuses_derived_metrics(self):
        summary = MetricsCollector(policy_name="p", setting_name="s").summary()
        placeholder = MetricsCollector.placeholder_from_summary(summary)
        for query in (
            placeholder.summary,
            placeholder.num_requests,
            placeholder.slo_hit_rate,
            placeholder.latencies_ms,
            placeholder.total_cost_cents,
            placeholder.app_names,
            placeholder.total_vgpu_ms,
            placeholder.waiting_ms_samples,
        ):
            with pytest.raises(RuntimeError, match="summary_only placeholder"):
                query()
        # Direct reads of the observation containers fail just as loudly.
        for container in (
            placeholder.requests,
            placeholder.tasks,
            placeholder.overhead_ms_samples,
        ):
            with pytest.raises(RuntimeError, match="summary_only placeholder"):
                len(container)
            with pytest.raises(RuntimeError, match="summary_only placeholder"):
                list(container)
        # Carried counters stay directly readable.
        assert placeholder.plan_miss_rate() == summary.plan_miss_rate


class TestRecordOrderFuzz:
    """Randomized record-order fuzz on the per-app accumulators.

    Feeds the same observations to a retained and a streaming collector with
    completions folded in a random order (and deliberate completed_ms ties),
    then requires byte-identical summaries.
    """

    APPS = (image_classification, depth_recognition)

    def build_observations(self, rng: random.Random, n: int):
        requests, tasks = [], []
        for i in range(n):
            workflow = self.APPS[rng.randrange(len(self.APPS))]()
            request = Request(
                request_id=i,
                workflow=workflow,
                arrival_ms=rng.uniform(0.0, 50.0),
                slo_ms=rng.choice([200.0, 500.0]),
            )
            if rng.random() < 0.85:  # some requests never finish
                t = request.arrival_ms
                for sid in workflow.topological_order():
                    # Coarse grid => frequent completed_ms ties across requests.
                    t += rng.choice([50.0, 100.0, 150.0])
                    request.record_stage_completion(sid, t, invoker_id=0)
            requests.append(request)
            if rng.random() < 0.7:
                task = make_task(request, cost=rng.uniform(0.5, 3.0), vgpus=rng.choice([1, 2]))
                task.dispatch_ms = rng.uniform(0.0, 80.0)
                tasks.append(task)
        return requests, tasks

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_interleavings_stay_byte_identical(self, seed):
        rng = random.Random(seed)
        requests, tasks = self.build_observations(rng, n=60)
        horizon = rng.choice([float("inf"), 120.0])

        retained = MetricsCollector(policy_name="p", setting_name="s", horizon_ms=horizon)
        streaming = streaming_collector(
            policy_name="p", setting_name="s", horizon_ms=horizon
        )

        # Identical registration and task-record order for both collectors...
        for request in requests:
            retained.register_request(request)
        for task in tasks:
            retained.record_task(task)
        completed = [r for r in requests if r.is_complete]
        rng.shuffle(completed)  # ...but a scrambled completion-event order.
        incomplete = [r for r in requests if not r.is_complete]
        for request in incomplete:
            streaming.register_request(request)
        for request in completed:
            streaming.register_request(request)
        for task in tasks:
            streaming.record_task(task)
        for sample in (0.5, 1.5, 2.5):
            retained.record_overhead(sample)
            streaming.record_overhead(sample)

        assert retained.summary() == streaming.summary()
