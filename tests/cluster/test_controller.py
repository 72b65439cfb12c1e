"""Tests for the controller and the end-to-end simulation loop.

A deterministic fixed-configuration policy exercises the controller's
mechanics (queue management, dispatch, cold starts, resource release,
recheck list) without depending on the ESG search.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from recording_loop import RecordingLoop

from repro.cluster.controller import ControllerConfig
from repro.cluster.cluster import ClusterConfig
from repro.cluster.policy_api import SchedulingDecision, SchedulingPolicy
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileStore
from repro.workloads.applications import image_classification
from repro.workloads.request import Request


class FixedConfigPolicy(SchedulingPolicy):
    """Always proposes the same configuration (default: the minimum)."""

    name = "fixed"

    def __init__(self, config: Configuration | None = None):
        super().__init__()
        self._config = config
        self.plan_calls = 0

    def plan(self, queue, now_ms):
        self.plan_calls += 1
        config = self._config or self.context.config_space.minimum
        return SchedulingDecision(candidates=[config])


class RefusingPolicy(SchedulingPolicy):
    """Proposes a configuration no invoker can ever host."""

    name = "refusing"

    def plan(self, queue, now_ms):
        return SchedulingDecision(candidates=[Configuration(1, 64, 7)])

    def select_invoker(self, config, queue, now_ms):
        return None


def make_requests(n: int, spacing_ms: float = 50.0, slo_ms: float = 2000.0) -> list[Request]:
    return [
        Request(
            request_id=i,
            workflow=image_classification(),
            arrival_ms=1.0 + i * spacing_ms,
            slo_ms=slo_ms,
        )
        for i in range(n)
    ]


def build_simulation(policy, requests, store, *, initial_warm="all", noise=0.0, cluster=None):
    return Simulation(
        policy=policy,
        requests=requests,
        profile_store=store,
        config=SimulationConfig(
            seed=7,
            noise_sigma=noise,
            cluster=cluster or ClusterConfig(num_invokers=4),
            controller=ControllerConfig(initial_warm=initial_warm),
        ),
        setting_name="test",
    )


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore.build()


class TestEndToEndMechanics:
    def test_all_requests_complete(self, store):
        requests = make_requests(5)
        sim = build_simulation(FixedConfigPolicy(), requests, store)
        summary = sim.run()
        assert summary.num_requests == 5
        assert summary.num_completed == 5
        assert all(r.is_complete for r in requests)

    def test_stage_ordering_respected(self, store):
        requests = make_requests(3)
        sim = build_simulation(FixedConfigPolicy(), requests, store)
        sim.run()
        for request in requests:
            s1 = request.stage_completion_ms["s1"]
            s2 = request.stage_completion_ms["s2"]
            s3 = request.stage_completion_ms["s3"]
            assert s1 < s2 < s3
            assert request.completed_ms == s3

    def test_latency_accounts_for_execution(self, store):
        requests = make_requests(1)
        sim = build_simulation(FixedConfigPolicy(), requests, store)
        sim.run()
        base = store.minimum_config_latency_ms(requests[0].workflow.function_names())
        assert requests[0].latency_ms >= base  # execution plus transfers and ticks

    def test_resources_fully_released_at_end(self, store):
        sim = build_simulation(FixedConfigPolicy(), make_requests(4), store)
        sim.run()
        for invoker in sim.cluster:
            assert invoker.used_vcpus == 0
            assert invoker.used_vgpus == 0

    def test_cost_positive_and_matches_tasks(self, store, task_log):
        log = task_log()
        sim = log.attach(build_simulation(FixedConfigPolicy(), make_requests(3), store))
        summary = sim.run()
        assert summary.total_cost_cents > 0
        assert summary.total_cost_cents == pytest.approx(sum(t.cost_cents for t in log.tasks))

    def test_warm_cluster_has_no_cold_starts(self, store):
        sim = build_simulation(FixedConfigPolicy(), make_requests(3), store, initial_warm="all")
        summary = sim.run()
        assert summary.cold_starts == 0

    def test_cold_cluster_pays_cold_starts(self, store):
        sim = build_simulation(
            FixedConfigPolicy(), make_requests(2, slo_ms=100000.0), store, initial_warm="none"
        )
        summary = sim.run()
        assert summary.cold_starts > 0
        # The function stays resident afterwards, so there are at most as
        # many cold starts as (function, node) pairs actually used.
        assert summary.cold_starts <= 3 * len(sim.cluster)

    def test_batching_groups_jobs(self, store, task_log):
        # Ten requests arriving (almost) simultaneously with a batch-4 policy
        # must be grouped into fewer, larger tasks at the first stage.
        requests = make_requests(10, spacing_ms=0.1, slo_ms=20000.0)
        policy = FixedConfigPolicy(Configuration(4, 2, 2))
        log = task_log()
        log.attach(build_simulation(policy, requests, store)).run()
        s1_tasks = [t for t in log.tasks if t.stage_id == "s1"]
        assert any(t.batch_size > 1 for t in s1_tasks)
        assert len(s1_tasks) < 10

    def test_local_transfer_when_stages_colocate(self, store):
        sim = build_simulation(FixedConfigPolicy(), make_requests(2), store)
        summary = sim.run()
        assert summary.local_transfers + summary.remote_transfers > 0

    def test_decision_without_overhead_is_charged_zero_and_reproducible(self, store, task_log):
        """The controller reads no clock: a decision that models no overhead
        is charged 0.0, and a run is a function of its seed."""

        def run_once():
            log = task_log()
            sim = log.attach(
                build_simulation(FixedConfigPolicy(), make_requests(4), store, noise=0.05)
            )
            summary = sim.run()
            assert log.tasks and all(task.overhead_ms == 0.0 for task in log.tasks)
            assert set(sim.metrics.overhead_ms_samples) == {0.0}
            return json.dumps(asdict(summary), sort_keys=True)

        assert run_once() == run_once()


class TestRecheckAndForcedDispatch:
    def test_refusing_policy_triggers_forced_min_dispatch(self, store):
        requests = make_requests(1, slo_ms=100000.0)
        sim = build_simulation(RefusingPolicy(), requests, store)
        summary = sim.run()
        assert summary.forced_min_dispatches > 0
        assert requests[0].is_complete

    def test_overhead_recorded_per_plan_call(self, store):
        sim = build_simulation(FixedConfigPolicy(), make_requests(2), store)
        summary = sim.run()
        assert len(sim.metrics.overhead_ms_samples) >= 6  # at least one per stage dispatch


def _many_app_requests(num_apps: int, slo_ms: float = 500_000.0) -> list[Request]:
    from repro.workloads.dag import Workflow

    requests = []
    for i in range(num_apps):
        workflow = Workflow(name=f"app-{i:04d}")
        workflow.add_stage("s1", "classification")
        requests.append(
            Request(
                request_id=i,
                workflow=workflow,
                arrival_ms=1.0 + 0.01 * i,
                slo_ms=slo_ms,
            )
        )
    return requests


def _standalone_controller(store, policy, num_invokers: int = 1):
    """A controller wired up outside a Simulation (pushed events also collected to a list)."""
    from repro.cluster.cluster import ClusterState
    from repro.cluster.controller import Controller
    from repro.cluster.metrics import MetricsCollector
    from repro.cluster.policy_api import SchedulingContext
    from repro.profiles.perf_model import AnalyticalPerformanceModel

    cluster = ClusterState(config=ClusterConfig(num_invokers=num_invokers))
    events: list = []
    controller = Controller(
        policy=policy,
        cluster=cluster,
        profile_store=store,
        runtime_perf_model=AnalyticalPerformanceModel(),
        pricing=store.pricing,
        metrics=MetricsCollector(policy_name=policy.name, setting_name="test"),
        events=RecordingLoop(events),
    )
    policy.bind(
        SchedulingContext(
            profile_store=store,
            cluster=cluster,
            config_space=store.space,
            pricing=store.pricing,
            workflows={},
        )
    )
    return controller, events


class TestManyQueues:
    """Recheck-list and dirty-set behaviour with hundreds of AFW queues."""

    def test_hundreds_of_queues_park_in_recheck_and_force_dispatch(self, store):
        # 300 single-stage apps, a policy whose plan never fits anywhere:
        # every queue must park in the recheck list, age through
        # recheck_rounds_before_min rounds, then drain via forced minimum
        # dispatches — with the dirty-set bookkeeping settling to empty.
        policy = RefusingPolicy()
        controller, events = _standalone_controller(store, policy, num_invokers=4)
        for request in _many_app_requests(300):
            controller.on_request_arrival(request, now_ms=1.0)
        assert controller.pending_jobs() == 300
        assert len(controller._nonempty) == 300

        controller.run_scheduling_pass(now_ms=2.0)
        assert len(controller._recheck) > 0  # most queues parked waiting
        total_completions = 0
        rounds = 0
        while controller.has_pending_work() and rounds < 60:
            now = 3.0 + rounds
            controller.run_scheduling_pass(now_ms=now)
            # Stand in for the event loop: complete dispatched tasks so their
            # resources free up for the remaining parked queues (completions
            # also arm keep-alive expiry timers, which we ignore here).
            from repro.cluster.events import TaskCompletionEvent

            completions = [e for e in events if isinstance(e, TaskCompletionEvent)]
            total_completions += len(completions)
            for event in completions:
                controller.on_task_completion(event.task, now + 0.5)
            events.clear()
            rounds += 1
        assert controller.pending_jobs() == 0
        assert controller._nonempty == set()
        assert controller._recheck == []
        assert controller.metrics.forced_min_dispatches == 300
        assert total_completions == 300  # one completion event per forced dispatch

    def test_pending_jobs_counter_and_dirty_set_follow_queue_mutations(self, store):
        from repro.workloads.request import Job

        controller, _ = _standalone_controller(store, RefusingPolicy())
        requests = _many_app_requests(5)
        for request in requests:
            controller.register_workflow(request.workflow)
        queue = controller.queue_for(requests[0].app_name, "s1")
        assert controller.pending_jobs() == 0
        queue.push(Job(request=requests[0], stage_id="s1", ready_ms=0.0))
        queue.push(Job(request=requests[0], stage_id="s1", ready_ms=0.0))
        assert controller.pending_jobs() == 2
        assert queue.key in controller._nonempty
        queue.pop_batch(1)
        assert controller.pending_jobs() == 1
        assert queue.key in controller._nonempty
        queue.pop_batch(1)
        assert controller.pending_jobs() == 0
        assert queue.key not in controller._nonempty
        assert not controller.has_pending_work()


class TestConfigValidation:
    @pytest.mark.parametrize("tick_ms", [0.0, -1.0, float("nan"), float("inf")])
    def test_tick_interval_must_be_positive_and_finite(self, tick_ms):
        with pytest.raises(ValueError, match=f"tick_interval_ms must be .*, got {tick_ms!r}"):
            ControllerConfig(tick_interval_ms=tick_ms)

    @pytest.mark.parametrize("rounds", [0, -1, 2.5, True])
    def test_recheck_rounds_must_be_a_positive_int(self, rounds):
        with pytest.raises((TypeError, ValueError), match=f"recheck_rounds_before_min .*{rounds!r}"):
            ControllerConfig(recheck_rounds_before_min=rounds)

    def test_nan_noise_sigma_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma must be >= 0, got nan"):
            SimulationConfig(noise_sigma=float("nan"))

    @pytest.mark.parametrize("horizon", [float("nan"), 0.0, -1.0])
    def test_max_time_must_be_positive(self, horizon):
        with pytest.raises(ValueError, match=f"max_time_ms must be > 0, got {horizon!r}"):
            SimulationConfig(max_time_ms=horizon)

    @pytest.mark.parametrize("cap", [2.5, True, "3"])
    def test_max_events_must_be_an_int(self, cap):
        with pytest.raises(TypeError, match="max_events must be an int"):
            SimulationConfig(max_events=cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_events_must_be_positive(self, cap):
        with pytest.raises(ValueError, match="max_events must be a positive integer"):
            SimulationConfig(max_events=cap)

    def test_experiment_config_rejects_a_nan_horizon(self):
        # A NaN horizon compares false with every time, so a run would
        # neither stop at it nor charge any task cost against it.
        from repro.experiments import ExperimentConfig

        with pytest.raises(ValueError, match="max_time_ms must be > 0, got nan"):
            ExperimentConfig(max_time_ms=float("nan"))


class OverheadPolicy(FixedConfigPolicy):
    """Reports a fixed scheduling overhead."""

    name = "overhead-probe"

    def __init__(self, overhead_ms: float):
        super().__init__()
        self.overhead_ms = overhead_ms

    def plan(self, queue, now_ms):
        decision = super().plan(queue, now_ms)
        decision.reported_overhead_ms = self.overhead_ms
        return decision


class TestReportedOverhead:
    @pytest.mark.parametrize("overhead", [float("nan"), float("inf"), -1.0])
    def test_controller_rejects_overhead_outside_zero_to_inf(self, store, overhead):
        sim = build_simulation(OverheadPolicy(overhead), make_requests(2), store)
        with pytest.raises(ValueError, match=f"policy 'overhead-probe' reported .*{overhead!r} ms"):
            sim.run()

    @pytest.mark.parametrize("overhead", [None, "0.5"], ids=repr)
    def test_non_number_fails_at_the_first_plan(self, store, overhead):
        """The controller reads no clock: a policy must model its overhead."""
        policy = OverheadPolicy(overhead)
        sim = build_simulation(policy, make_requests(2), store)
        with pytest.raises(TypeError, match=f"policy 'overhead-probe' reported .*{overhead!r}"):
            sim.run()
        assert policy.plan_calls == 1

    def test_reported_overhead_delays_the_task(self, store, task_log):
        log = task_log()
        log.attach(build_simulation(OverheadPolicy(2.5), make_requests(1), store)).run()
        assert log.tasks and all(task.overhead_ms == 2.5 for task in log.tasks)

    def test_nan_overhead_of_a_baseline_fails_the_run(self, store):
        """A NaN overhead passes an ``overhead < 0`` check and would poison
        every task's start time and the run's cost."""
        from dataclasses import replace

        from repro.baselines import INFlessPolicy
        from repro.experiments import ExperimentConfig, run_experiment

        class NaNOverheadINFless(INFlessPolicy):
            def plan(self, queue, now_ms):
                decision = super().plan(queue, now_ms)
                return None if decision is None else replace(decision, reported_overhead_ms=float("nan"))

        with pytest.raises(ValueError, match="policy 'INFless' reported a scheduling overhead of nan"):
            run_experiment(
                NaNOverheadINFless(),
                config=ExperimentConfig(num_requests=12),
                scenario="paper-moderate-normal",
            )


class TestSimulationGuards:
    def test_empty_request_list_rejected(self, store):
        with pytest.raises(ValueError):
            Simulation(policy=FixedConfigPolicy(), requests=[], profile_store=store)

    def test_max_events_stops_run(self, store):
        sim = build_simulation(FixedConfigPolicy(), make_requests(3), store)
        sim.config = SimulationConfig(max_events=2, cluster=ClusterConfig(num_invokers=4))
        sim.run()
        assert sim.processed_events <= 2
