"""Tests for the metrics collector and run summaries."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from metrics_oracle import RetainedMetrics, charged_cost_cents, charged_duration_ms

from repro.cluster.metrics import MetricsCollector, MetricsConfig
from repro.cluster.tasks import Task
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    build_profile_store,
    run_experiment,
)
from repro.profiles.configuration import Configuration
from repro.workloads.applications import depth_recognition, image_classification
from repro.workloads.request import Job, Request

PAPER_SCENARIOS = ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")


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

    def test_record_transfers_adds_both_counts(self):
        metrics = MetricsCollector()
        metrics.record_transfers(2, 1)
        metrics.record_transfers(0, 3)
        metrics.record_transfers(0, 0)
        assert (metrics.local_transfers, metrics.remote_transfers) == (2, 4)
        summary = metrics.summary()
        assert (summary.local_transfers, summary.remote_transfers) == (2, 4)

    @pytest.mark.parametrize("counts", [(-1, 0), (0, -1)])
    def test_record_transfers_rejects_negative_counts(self, counts):
        with pytest.raises(ValueError, match="transfer counts must be >= 0"):
            MetricsCollector().record_transfers(*counts)

    def test_each_dispatched_job_counts_one_transfer(self, task_log):
        """The controller counts one local or remote transfer per job it dispatches."""
        log = task_log()
        with log.capturing():
            result = run_experiment(
                "ESG",
                config=ExperimentConfig(num_requests=12),
                profile_store=build_profile_store(),
                scenario="paper-moderate-normal",
            )
        summary = result.summary
        jobs = sum(len(task.jobs) for task in log.tasks + log.in_flight_tasks())
        assert summary.local_transfers + summary.remote_transfers == jobs
        assert summary.local_transfers > 0 and summary.remote_transfers > 0

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


class TestMetricsConfig:
    def test_default_mode_is_streaming(self):
        assert MetricsConfig().mode == "streaming"
        assert MetricsConfig(mode="streaming") == MetricsConfig()

    def test_retained_mode_was_removed(self):
        with pytest.raises(ValueError, match="metrics mode 'retained' was removed"):
            MetricsConfig(mode="retained")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics mode"):
            MetricsConfig(mode="compressed")


class TestStreamingMode:
    def test_keeps_no_request_or_task_objects(self):
        metrics = MetricsCollector()
        request = make_completed_request(0, 400.0)
        metrics.register_request(request)
        metrics.record_task(make_task(request))
        kept = [value for value in vars(metrics).values() if isinstance(value, (Request, Task))]
        assert kept == []
        assert not hasattr(metrics, "requests") and not hasattr(metrics, "tasks")

    def test_register_folds_already_completed_requests(self):
        metrics = MetricsCollector()
        metrics.register_request(make_completed_request(0, 400.0))  # hit
        metrics.register_request(make_completed_request(1, 600.0))  # miss
        assert metrics.num_requests() == 2
        assert metrics.num_completed() == 2
        assert metrics.slo_hit_rate() == pytest.approx(0.5)

    def test_double_fold_is_rejected(self):
        """A request registered pre-completed must not also be notified via
        record_completion — that would corrupt rates (slo_hit_rate > 1)."""
        metrics = MetricsCollector()
        request = make_completed_request(0, 400.0)
        metrics.register_request(request)  # folds immediately
        with pytest.raises(ValueError, match="recorded only once"):
            metrics.record_completion(request)
        assert metrics.slo_hit_rate() == 1.0

    def test_completion_of_unregistered_request_is_rejected(self):
        metrics = MetricsCollector()
        with pytest.raises(ValueError, match="registered"):
            metrics.record_completion(make_completed_request(0, 400.0))

    def test_record_completion_requires_a_completed_request(self):
        metrics = MetricsCollector()
        unfinished = Request(
            request_id=0, workflow=image_classification(), arrival_ms=0.0, slo_ms=500.0
        )
        metrics.register_request(unfinished)
        with pytest.raises(ValueError, match="has not completed"):
            metrics.record_completion(unfinished)
        assert metrics.num_completed() == 0

    def test_incremental_completion_flow(self):
        metrics = MetricsCollector()
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
        metrics = MetricsCollector()
        # Fold in reverse completion order: the buffers must re-order.
        metrics.register_request(make_completed_request(0, 300.0))
        metrics.register_request(make_completed_request(1, 200.0))
        assert metrics.latencies_ms() == [200.0, 300.0]

    def test_per_app_accumulators(self):
        metrics = MetricsCollector()
        metrics.register_request(make_completed_request(0, 400.0))
        metrics.register_request(make_completed_request(1, 900.0, app=depth_recognition()))
        assert metrics.app_names() == ["depth_recognition", "image_classification"]
        assert metrics.slo_hit_rate("image_classification") == 1.0
        assert metrics.slo_hit_rate("depth_recognition") == 0.0
        assert metrics.latencies_ms("depth_recognition") == [900.0]

    def test_overhead_buffer_is_compact_but_summarizable(self):
        metrics = MetricsCollector()
        metrics.record_overhead(5.0)
        metrics.record_overhead(15.0)
        assert list(metrics.overhead_ms_samples) == [5.0, 15.0]
        assert metrics.overhead_summary().mean == pytest.approx(10.0)

    def test_unknown_app_queries_are_empty(self):
        metrics = MetricsCollector()
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

    def test_straddling_task_charged_pro_rata(self):
        metrics = MetricsCollector(horizon_ms=60.0)
        metrics.record_task(self.straddling_task())
        # 50 of the 100 held ms fall inside the horizon.
        assert metrics.total_vgpu_ms() == pytest.approx(2 * 50.0)
        assert metrics.total_vcpu_ms() == pytest.approx(1 * 50.0)
        assert metrics.total_cost_cents() == pytest.approx(1.0)

    def test_task_inside_horizon_fully_charged(self):
        metrics = MetricsCollector(horizon_ms=500.0)
        metrics.record_task(self.straddling_task())
        assert metrics.total_vgpu_ms() == pytest.approx(2 * 100.0)
        assert metrics.total_cost_cents() == pytest.approx(2.0)

    def test_task_entirely_past_horizon_charged_nothing(self):
        metrics = MetricsCollector(horizon_ms=5.0)
        metrics.record_task(self.straddling_task())
        assert metrics.total_vgpu_ms() == 0.0
        assert metrics.total_cost_cents() == 0.0

    def test_default_horizon_is_unbounded(self):
        metrics = MetricsCollector()
        metrics.record_task(self.straddling_task())
        assert metrics.total_cost_cents() == pytest.approx(2.0)

    @staticmethod
    def task_at(dispatch_ms: float, exec_ms: float, cost: float) -> Task:
        task = make_task(make_completed_request(0, 400.0), cost=cost, vgpus=2)
        task.dispatch_ms = dispatch_ms
        task.exec_ms = exec_ms
        return task

    @pytest.mark.parametrize(
        "dispatch_ms, exec_ms, horizon_ms",
        [
            (10.0, 100.0, float("inf")),
            (10.0, 100.0, 110.0),
            # A finish exactly at the horizon is charged in full, even where
            # ``horizon - start`` rounds away from the duration...
            (0.1, 0.2, 0.1 + 0.2),
            # ... and even for a zero-length task.
            (10.0, 0.0, 10.0),
            (10.0, 0.0, 9.0),
            (10.0, 100.0, 109.99),
            (10.0, 100.0, 10.0),
        ],
    )
    def test_fold_matches_the_oracle_clamp(self, dispatch_ms, exec_ms, horizon_ms):
        task = self.task_at(dispatch_ms, exec_ms, cost=1.5)
        metrics = MetricsCollector(horizon_ms=horizon_ms)
        metrics.record_task(task)
        assert metrics.total_cost_cents() == charged_cost_cents(task, horizon_ms)
        assert metrics.total_vgpu_ms() == 2 * charged_duration_ms(task, horizon_ms)
        assert metrics.total_vcpu_ms() == charged_duration_ms(task, horizon_ms)
        if task.finish_ms <= horizon_ms:
            assert metrics.total_cost_cents() == 1.5

    def test_fold_task_is_what_record_task_folds(self):
        task = self.task_at(10.0, 100.0, cost=2.0)
        direct = MetricsCollector(horizon_ms=60.0)
        direct.fold_task(task.app_name, 2.0, task.start_ms, task.duration_ms, 1, 2, task.waiting_ms())
        via_task = MetricsCollector(horizon_ms=60.0)
        via_task.record_task(task)
        assert via_task.warm_starts == 1 and direct.warm_starts == 0
        via_task.warm_starts = 0
        assert direct.summary() == via_task.summary()


class TestRecordOrderFuzz:
    """Randomized record-order fuzz of the collector against the oracle.

    The oracle (``metrics_oracle.RetainedMetrics``) keeps every request and
    task and scans them.  The collector sees the same observations with
    registrations and completions in a random order (and deliberate
    completed_ms ties), some requests registered already complete and the
    rest notified through ``record_completion``, and must render the same
    summary byte for byte.
    """

    APPS = (image_classification, depth_recognition)

    def build_observations(self, rng: random.Random, n: int):
        requests, finishes, tasks = [], [], []
        for i in range(n):
            workflow = self.APPS[rng.randrange(len(self.APPS))]()
            request = Request(
                request_id=i,
                workflow=workflow,
                arrival_ms=rng.uniform(0.0, 50.0),
                slo_ms=rng.choice([200.0, 500.0]),
            )
            requests.append(request)
            if rng.random() < 0.85:  # some requests never finish
                stages, t = [], request.arrival_ms
                for sid in workflow.topological_order():
                    # Coarse grid => frequent completed_ms ties across requests.
                    t += rng.choice([50.0, 100.0, 150.0])
                    stages.append((sid, t))
                finishes.append((request, stages))
            if rng.random() < 0.7:
                task = make_task(request, cost=rng.uniform(0.5, 3.0), vgpus=rng.choice([1, 2]))
                task.dispatch_ms = rng.uniform(0.0, 80.0)
                task.cold_start_ms = rng.choice([0.0, 0.0, 25.0])
                tasks.append(task)
        return requests, finishes, tasks

    @staticmethod
    def finish(request: Request, stages) -> None:
        for sid, t in stages:
            request.record_stage_completion(sid, t, invoker_id=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_interleavings_stay_byte_identical(self, seed):
        rng = random.Random(seed)
        requests, finishes, tasks = self.build_observations(rng, n=60)
        horizon = rng.choice([float("inf"), 120.0])
        oracle = RetainedMetrics(policy_name="p", setting_name="s", horizon_ms=horizon)
        metrics = MetricsCollector(policy_name="p", setting_name="s", horizon_ms=horizon)

        # Half the finishing requests complete before they register (the
        # registration folds them), the rest after, in a scrambled order.
        rng.shuffle(finishes)
        early, late = finishes[::2], finishes[1::2]
        for request, stages in early:
            self.finish(request, stages)
        order = list(requests)
        rng.shuffle(order)
        for request in order:
            metrics.register_request(request)
        for request, stages in late:
            self.finish(request, stages)
            metrics.record_completion(request)
        for request in requests:
            oracle.register_request(request)
        # Tasks fold in record order on both sides (the waiting-time mean
        # is an order-sensitive float sum).
        for task in tasks:
            oracle.record_task(task)
            metrics.record_task(task)
        for sample in (0.5, 1.5, 2.5):
            oracle.record_overhead(sample)
            metrics.record_overhead(sample)

        assert metrics.summary() == oracle.summary()


class TestWholeRunsMatchTheOracle:
    """Whole simulated runs: the collector's summary against the oracle's scans.

    The oracle is fed what the run's events show: every arrived request,
    and every dispatched task in dispatch order (completed, lazily
    cancelled by an eviction, or still in flight at the horizon).  It also
    gets the collector's own overhead samples.  The counters that are plain
    increments are copied over; every other field must match byte for byte.
    """

    COUNTERS = (
        "plan_attempts",
        "plan_misses",
        "local_transfers",
        "remote_transfers",
        "forced_min_dispatches",
        "truncated",
        "evicted_tasks",
        "requeued_jobs",
    )
    BASE = ExperimentConfig(num_requests=16)
    #: Only the home invoker starts warm, so runs cold-start.
    WARM_AT_HOME = BASE.with_overrides(controller=replace(BASE.controller, initial_warm="home"))
    #: Two invokers under 24 diurnal requests: the backlog makes both
    #: autoscalers prewarm (on the paper's 16 they hold inside the band).
    AUTOSCALED = WARM_AT_HOME.with_overrides(
        num_requests=24, cluster=replace(BASE.cluster, num_invokers=2)
    )

    @pytest.fixture(scope="class")
    def store(self):
        return build_profile_store()

    def run_against_oracle(self, store, task_log, policy, scenario, config=BASE):
        log = task_log()
        with log.capturing():
            result = run_experiment(policy, config=config, profile_store=store, scenario=scenario)
        metrics = result.metrics
        tasks = sorted(log.tasks + log.in_flight_tasks(), key=lambda task: task.task_id)
        assert len(tasks) == metrics.cold_starts + metrics.warm_starts > 0
        oracle = RetainedMetrics(
            policy_name=metrics.policy_name,
            setting_name=metrics.setting_name,
            horizon_ms=metrics.horizon_ms,
        )
        for request in log.requests:
            oracle.register_request(request)
        for task in tasks:
            oracle.record_task(task)
        for sample in metrics.overhead_ms_samples:
            oracle.record_overhead(sample)
        summary = result.summary
        counters = {name: getattr(summary, name) for name in self.COUNTERS}
        assert summary == replace(oracle.summary(), **counters)
        return result, tasks

    @pytest.mark.parametrize("scenario", PAPER_SCENARIOS)
    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_paper_scenarios(self, store, task_log, policy, scenario):
        result, _ = self.run_against_oracle(store, task_log, policy, scenario)
        assert result.summary.num_completed == result.summary.num_requests == 16

    def test_truncated_run_clamps_like_the_oracle(self, store, task_log):
        config = self.BASE.with_overrides(num_requests=40, max_time_ms=300.0)
        result, tasks = self.run_against_oracle(
            store, task_log, "ESG", "paper-moderate-normal", config
        )
        assert result.summary.truncated
        assert result.summary.num_requests < 40
        assert any(task.finish_ms > 300.0 for task in tasks)

    @pytest.mark.parametrize("scenario", ["churn-eviction-fail", "harvest-severe-normal"])
    def test_churn_folds_evictions_like_the_oracle(self, store, task_log, scenario):
        result, _ = self.run_against_oracle(store, task_log, "ESG", scenario)
        assert result.summary.evicted_tasks > 0

    @pytest.mark.parametrize("spec", ["threshold-default", "pid-default"])
    def test_autoscaled_runs(self, store, task_log, spec):
        config = self.AUTOSCALED.with_overrides(autoscale=spec)
        result, _ = self.run_against_oracle(store, task_log, "ESG", "diurnal-normal", config)
        assert result.metrics.prewarm_count > 0

    def test_short_keep_alive_cold_starts_like_the_oracle(self, store, task_log):
        config = self.WARM_AT_HOME.with_overrides(
            cluster=replace(self.BASE.cluster, keep_alive_ms=2.0)
        )
        result, _ = self.run_against_oracle(
            store, task_log, "ESG", "paper-moderate-normal", config
        )
        assert result.summary.cold_starts > result.summary.warm_starts
