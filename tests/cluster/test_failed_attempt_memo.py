"""The controller's failed-attempt memo (``SchedulingPolicy.pure_decisions``).

Every failed attempt is remembered with a stamp: the cluster's capacity
epoch, the queue's length and head job, and the scheduling pass.  Within
one pass ``now_ms`` is fixed and only a dispatch changes the queues, the
capacity or the containers, and every dispatch bumps the epoch, so a
retry in a matching stamp fails again; the controller replays its records
instead of calling the policy.  A policy with time-invariant decisions
(``SchedulingPolicy.time_invariant_decisions``) leaves the pass out of the
stamp, so its records outlive the pass, and a pass in which every attempt
would replay a failure is applied in bulk.  Every run must stay
byte-identical to one with the memo off, with fewer ``plan()`` calls.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict

import pytest
from recording_loop import RecordingLoop

from repro.baselines import AquatopePolicy, FaSTGSharePolicy, INFlessPolicy, OrionPolicy
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.controller import Controller, ControllerConfig
from repro.cluster.events import TaskCompletionEvent
from repro.cluster.metrics import MetricsCollector
from repro.cluster.policy_api import SchedulingContext, SchedulingDecision, SchedulingPolicy
from repro.core.esg import ESGPolicy
from repro.experiments import ExperimentConfig, run_experiment
from repro.profiles.configuration import Configuration
from repro.profiles.perf_model import AnalyticalPerformanceModel
from repro.profiles.profiler import ProfileStore
from repro.workloads.dag import Workflow
from repro.workloads.request import Request

PURE_POLICIES = {"INFless": INFlessPolicy, "FaST-GShare": FaSTGSharePolicy, "ESG": ESGPolicy}


def memo_off(cls: type[SchedulingPolicy]) -> type[SchedulingPolicy]:
    """``cls`` with the memo turned off: the reference of the differential."""

    class Reference(cls):
        def __init__(self) -> None:
            super().__init__()
            self.pure_decisions = False

    return Reference


def counted_run(
    policy: SchedulingPolicy, scenario: str, config: ExperimentConfig
) -> tuple[str, Counter]:
    """Run ``policy`` and return the summary as canonical JSON and the call
    counts of the policy's ``plan`` and ``select_invoker`` and of the
    plan-and-place attempts.  Attempts are counted from what they record,
    one overhead sample each (no built-in pure policy declines a non-empty
    queue), less the sample of every forced-minimum dispatch."""
    calls: Counter = Counter()
    for name in ("plan", "select_invoker"):
        method = getattr(policy, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        setattr(policy, name, counted)
    result = run_experiment(policy, config=config, scenario=scenario)
    calls["attempts"] = (
        len(result.metrics.overhead_ms_samples) - result.summary.forced_min_dispatches
    )
    return json.dumps(asdict(result.summary), sort_keys=True), calls


def retry_run(policy: SchedulingPolicy) -> tuple[str, Counter]:
    """A saturated 4-node run that parks queues and tries a forced-minimum
    dispatch on every failed retry (see :func:`counted_run`)."""
    config = ExperimentConfig(
        num_requests=30,
        seed=1,
        cluster=ClusterConfig(num_invokers=4),
        cluster_pinned=True,
        controller=ControllerConfig(initial_warm="all", recheck_rounds_before_min=1),
    )
    return counted_run(policy, "overload-spike", config)


#: Churn scenarios that resize, join and evict nodes while queues are
#: parked, and the autoscaler each runs with.
CHURN_SCENARIOS = {"churn-eviction-storm": "pid-default", "harvest-severe-normal": None}


class TestDifferential:
    @pytest.mark.parametrize("name", list(PURE_POLICIES))
    def test_memo_is_byte_identical_with_fewer_plans(self, name: str) -> None:
        policy = PURE_POLICIES[name]()
        assert policy.pure_decisions
        summary, calls = retry_run(policy)
        reference = memo_off(PURE_POLICIES[name])()
        ref_summary, ref_calls = retry_run(reference)
        assert summary == ref_summary
        assert calls["attempts"] == ref_calls["attempts"]
        assert ref_calls["plan"] == ref_calls["attempts"]  # the reference plans every attempt
        assert calls["plan"] < ref_calls["plan"]
        assert calls["select_invoker"] < ref_calls["select_invoker"]

    @pytest.mark.parametrize("scenario", list(CHURN_SCENARIOS))
    @pytest.mark.parametrize("name", ["INFless", "FaST-GShare"])
    def test_cross_pass_memo_is_byte_identical_under_churn(self, name: str, scenario: str) -> None:
        policy = PURE_POLICIES[name]()
        assert policy.time_invariant_decisions
        config = ExperimentConfig(
            num_requests=100,
            seed=1,
            autoscale=CHURN_SCENARIOS[scenario],
        )
        summary, calls = counted_run(policy, scenario, config)
        ref_summary, ref_calls = counted_run(memo_off(PURE_POLICIES[name])(), scenario, config)
        assert summary == ref_summary
        assert calls["attempts"] == ref_calls["attempts"]
        assert calls["plan"] < ref_calls["plan"]
        assert calls["select_invoker"] < ref_calls["select_invoker"]


# ----------------------------------------------------------------------
# Unit tests on a standalone controller
# ----------------------------------------------------------------------
#: A configuration no 16-vCPU node can host.
TOO_BIG = Configuration(1, 32, 7)
SMALL = Configuration(1, 1, 1)


class PerAppPolicy(SchedulingPolicy):
    """Pure test policy: one fixed candidate per application (``None``
    declines to plan), calls counted."""

    name = "per-app"
    pure_decisions = True

    def __init__(self, configs: dict[str, Configuration | None], *, pure: bool = True) -> None:
        super().__init__()
        self.configs = configs
        self.pure_decisions = pure
        self.plans: Counter = Counter()
        self.selects: Counter = Counter()

    def plan(self, queue, now_ms):
        self.plans[queue.app_name] += 1
        config = self.configs[queue.app_name]
        if config is None:
            return None
        return SchedulingDecision(candidates=[config], reported_overhead_ms=0.5)

    def select_invoker(self, config, queue, now_ms):
        self.selects[queue.app_name, config] += 1
        return super().select_invoker(config, queue, now_ms)


class PerQueuePolicy(SchedulingPolicy):
    """Pure, time-invariant test policy: a fixed candidate (``None``
    declines to plan) and a fixed overhead per queue, and the lowest-id node
    with room, so decisions read only the queue key and the free capacity.
    ``misses`` marks queues whose decision counts as a pre-planned attempt,
    with its miss flag.  Plans are counted per queue; ``pure=False`` turns
    the memo off."""

    name = "per-queue"
    pure_decisions = True
    time_invariant_decisions = True

    def __init__(
        self,
        configs: dict[tuple[str, str], Configuration | None],
        overheads: dict[tuple[str, str], float] | None = None,
        misses: dict[tuple[str, str], bool] | None = None,
        *,
        pure: bool = True,
    ) -> None:
        super().__init__()
        self.configs = configs
        self.overheads = overheads or {}
        self.misses = misses or {}
        self.pure_decisions = pure
        self.time_invariant_decisions = pure
        self.plans: Counter = Counter()

    def plan(self, queue, now_ms):
        self.plans[queue.key] += 1
        config = self.configs[queue.key]
        if config is None:
            return None
        return SchedulingDecision(
            candidates=[config],
            used_preplanned=queue.key in self.misses,
            plan_miss=self.misses.get(queue.key, False),
            reported_overhead_ms=self.overheads.get(queue.key, 0.5),
        )

    def select_invoker(self, config, queue, now_ms):
        fitting = self.context.cluster.invokers_that_fit(config)
        return fitting[0].invoker_id if fitting else None


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore.build()


def single_stage(app: str) -> Workflow:
    workflow = Workflow(name=app)
    workflow.add_stage("s1", "classification")
    return workflow


def build_controller(
    store,
    policy,
    workflows,
    *,
    num_invokers: int = 1,
    events: list | None = None,
    controller_cls: type[Controller] = Controller,
    **controller_config,
) -> Controller:
    """A controller over 16-vCPU nodes with no queued work; every event it
    pushes is also appended to ``events`` (when given)."""
    cluster = ClusterState(config=ClusterConfig(num_invokers=num_invokers))
    controller = controller_cls(
        policy=policy,
        cluster=cluster,
        profile_store=store,
        runtime_perf_model=AnalyticalPerformanceModel(),
        pricing=store.pricing,
        metrics=MetricsCollector(policy_name=policy.name, setting_name="test"),
        events=RecordingLoop(events),
        config=ControllerConfig(**controller_config),
    )
    policy.bind(
        SchedulingContext(
            profile_store=store,
            cluster=cluster,
            config_space=store.space,
            pricing=store.pricing,
            workflows={workflow.name: workflow for workflow in workflows},
        )
    )
    return controller


def arrive(controller: Controller, workflow: Workflow, request_id: int, now_ms: float) -> Request:
    request = Request(
        request_id=request_id, workflow=workflow, arrival_ms=now_ms, slo_ms=500_000.0
    )
    controller.on_request_arrival(request, now_ms=now_ms)
    return request


def standalone(store, policy, apps, **controller_config) -> Controller:
    """One 16-vCPU node, events discarded, one queued single-stage request per app."""
    workflows = [single_stage(app) for app in apps]
    controller = build_controller(
        store, policy, workflows, **controller_config
    )
    for i, workflow in enumerate(workflows):
        arrive(controller, workflow, i, 1.0)
    return controller


#: A configuration that fills the whole node.
WHOLE_NODE = Configuration(1, 16, 7)


class TestInvalidation:
    CONFIGS = {"a": TOO_BIG, "b": TOO_BIG, "c": SMALL}

    def run_two_passes(self, store, *, pure: bool):
        policy = PerAppPolicy(self.CONFIGS, pure=pure)
        controller = standalone(
            store, policy, self.CONFIGS, recheck_rounds_before_min=100
        )
        # Visit order a, b, c: a and b fail and park, then c dispatches.
        assert controller.run_scheduling_pass(now_ms=2.0) == 1
        first = dict(policy.plans)
        assert controller.run_scheduling_pass(now_ms=3.0) == 0
        rounds = {key: controller.queue_for(*key).recheck_rounds for key in controller._recheck}
        return policy, first, rounds, list(controller.metrics.overhead_ms_samples)

    def test_dispatch_mid_pass_forgets_every_failure(self, store) -> None:
        policy, first, _, _ = self.run_two_passes(store, pure=True)
        # a and b each fail once before c's dispatch and once after it;
        # every other retry in that pass is replayed.
        assert first == {"a": 2, "b": 2, "c": 1}
        # The next pass plans every parked queue again, once.
        assert policy.plans == Counter({"a": 3, "b": 3, "c": 1})
        # A replay calls no policy method: one placement try per plan.
        assert policy.selects[("a", TOO_BIG)] == policy.plans["a"]
        assert policy.selects[("b", TOO_BIG)] == policy.plans["b"]

    def test_replay_records_what_the_reference_records(self, store) -> None:
        _, _, rounds, samples = self.run_two_passes(store, pure=True)
        _, ref_first, ref_rounds, ref_samples = self.run_two_passes(store, pure=False)
        assert ref_first == {"a": 4, "b": 3, "c": 1}
        assert rounds == ref_rounds
        assert samples == ref_samples

    def test_declined_plan_is_replayed_without_records(self, store) -> None:
        def run(pure: bool):
            policy = PerAppPolicy({"a": None, "b": TOO_BIG}, pure=pure)
            controller = standalone(store, policy, ("a", "b"))
            assert controller.run_scheduling_pass(now_ms=2.0) == 0
            return policy.plans, list(controller.metrics.overhead_ms_samples)

        plans, samples = run(pure=True)
        ref_plans, ref_samples = run(pure=False)
        assert plans == {"a": 1, "b": 1} and ref_plans == {"a": 3, "b": 2}
        # Only b's plans record overhead: its attempt and its replayed retry.
        assert samples == ref_samples == [0.5, 0.5]


class TestForcedMinimum:
    def test_failed_forced_minimum_is_not_repeated_in_the_pass(self, store) -> None:
        def run(pure: bool):
            policy = PerAppPolicy({"a": TOO_BIG, "b": TOO_BIG}, pure=pure)
            controller = standalone(
                store, policy, ("a", "b"), recheck_rounds_before_min=1
            )
            controller.cluster.invoker(0).reserve(WHOLE_NODE)
            fallbacks = 0
            most_available = controller.cluster.most_available_invoker

            def counted(config):
                nonlocal fallbacks
                fallbacks += 1
                return most_available(config)

            controller.cluster.most_available_invoker = counted
            assert controller.run_scheduling_pass(now_ms=2.0) == 0
            minimum = store.space.minimum
            forced = {app: policy.selects[app, minimum] for app in ("a", "b")}
            rounds = [controller.queue_for(app, "s1").recheck_rounds for app in ("a", "b")]
            return forced, fallbacks, rounds

        forced, fallbacks, rounds = run(pure=True)
        ref_forced, ref_fallbacks, ref_rounds = run(pure=False)
        # a is retried twice in the pass (after a and after b), b once.
        assert ref_forced == {"a": 2, "b": 1} and ref_fallbacks == 3
        assert forced == {"a": 1, "b": 1} and fallbacks == 2
        assert rounds == ref_rounds == [2, 1]

    def test_next_pass_tries_the_forced_minimum_again(self, store) -> None:
        policy = PerAppPolicy({"a": TOO_BIG})
        controller = standalone(
            store, policy, ("a",), recheck_rounds_before_min=1
        )
        node = controller.cluster.invoker(0)
        node.reserve(WHOLE_NODE)
        assert controller.run_scheduling_pass(now_ms=2.0) == 0
        node.release(WHOLE_NODE)
        assert controller.run_scheduling_pass(now_ms=3.0) == 1
        assert controller.metrics.forced_min_dispatches == 1


class TestImpurePolicies:
    @pytest.mark.parametrize(
        "make",
        [
            OrionPolicy,
            lambda: AquatopePolicy(bootstrap=5, rounds=1, samples_per_round=1),
            lambda: ESGPolicy(adaptive=False),
        ],
        ids=["Orion", "Aquatope", "ESG-static"],
    )
    def test_every_retry_calls_plan(self, store, make) -> None:
        policy = make()
        assert not policy.pure_decisions
        controller = standalone(store, policy, ("a", "b"), recheck_rounds_before_min=100)
        assert controller._failed_attempts is None and controller._failed_forced is None
        controller.cluster.invoker(0).reserve(WHOLE_NODE)
        plans = 0
        plan = policy.plan

        def counted(queue, now_ms):
            nonlocal plans
            plans += 1
            return plan(queue, now_ms)

        policy.plan = counted
        assert controller.run_scheduling_pass(now_ms=2.0) == 0
        # a: its visit and two retries; b: its visit and one retry.
        assert plans == 5


# ----------------------------------------------------------------------
# Records that outlive the pass (time-invariant policies)
# ----------------------------------------------------------------------
A, B = ("a", "s1"), ("b", "s1")


def parked_b(store, a_config, b_config):
    """Pass 1 dispatches a's task and parks b; pass 2 replays b's failure."""
    policy = PerQueuePolicy({A: a_config, B: b_config})
    events: list = []
    workflows = {app: single_stage(app) for app in ("a", "b")}
    controller = build_controller(
        store,
        policy,
        workflows.values(),
        events=events,
        recheck_rounds_before_min=100,
    )
    arrive(controller, workflows["a"], 0, 1.0)
    arrive(controller, workflows["b"], 1, 1.0)
    assert controller.run_scheduling_pass(now_ms=2.0) == 1
    assert controller.run_scheduling_pass(now_ms=3.0) == 0
    assert policy.plans == {A: 1, B: 1}
    return controller, policy, events, workflows


#: Between-pass events that change what b's failed attempt read, with the
#: configurations of a and b they are staged with and how many tasks the
#: pass after them dispatches.
BETWEEN_PASS_EVENTS = {
    "completion": (
        WHOLE_NODE,
        SMALL,
        lambda controller, events, workflows: controller.on_task_completion(events[0].task, 3.5),
        1,
    ),
    "arrival": (
        WHOLE_NODE,
        SMALL,
        lambda controller, events, workflows: arrive(controller, workflows["b"], 2, 3.5),
        0,
    ),
    "join": (
        WHOLE_NODE,
        SMALL,
        lambda controller, events, workflows: controller.on_invoker_join(None, None, 3.5),
        1,
    ),
    "resize": (
        WHOLE_NODE,
        SMALL,
        lambda controller, events, workflows: controller.on_invoker_resize(0, 32, 14, 3.5),
        1,
    ),
    "leave-with-free-capacity": (
        SMALL,
        TOO_BIG,
        lambda controller, events, workflows: controller.on_invoker_leave(0, 3.5),
        0,
    ),
}


class TestCrossPass:
    @pytest.mark.parametrize("event", list(BETWEEN_PASS_EVENTS))
    def test_between_pass_event_forces_a_replan(self, store, event) -> None:
        a_config, b_config, apply, dispatches = BETWEEN_PASS_EVENTS[event]
        controller, policy, events, workflows = parked_b(
            store, a_config, b_config
        )
        apply(controller, events, workflows)
        assert controller.run_scheduling_pass(now_ms=4.0) == dispatches
        assert policy.plans[B] == 2

    def test_an_unrelated_arrival_keeps_the_record(self, store) -> None:
        controller, policy, _, workflows = parked_b(store, WHOLE_NODE, SMALL)
        arrive(controller, workflows["a"], 2, 3.5)
        assert controller.run_scheduling_pass(now_ms=4.0) == 0
        assert policy.plans == {A: 2, B: 1}

    def test_purge_that_changes_the_head_forces_a_replan(self, store) -> None:
        """A fail-mode leave of a node with no free capacity left bumps no
        epoch; it purges the queued job of the evicted request, and an
        arrival restores the queue's length, so only the head job changed."""
        workflow = Workflow(name="w")
        workflow.add_stage("s1", "classification")
        workflow.add_stage("s2", "classification")
        s1, s2 = ("w", "s1"), ("w", "s2")
        policy = PerQueuePolicy({s1: WHOLE_NODE, s2: SMALL})
        controller = build_controller(
            store,
            policy,
            [workflow],
            recheck_rounds_before_min=100,
        )
        controller.enable_churn("fail")
        evicted = arrive(controller, workflow, 0, 1.0)
        arrive(controller, workflow, 1, 1.0)
        # Pass 1 runs the first request's s1 on the whole node; s2 parks.
        assert controller.run_scheduling_pass(now_ms=2.0) == 1
        assert controller.run_scheduling_pass(now_ms=3.0) == 0
        epoch = controller.cluster.capacity_epoch
        queue = controller.queue_for(*s2)
        assert queue.oldest_job().request is evicted and policy.plans[s2] == 1
        controller.on_invoker_leave(0, now_ms=3.5)
        arrive(controller, workflow, 2, 3.5)
        assert controller.cluster.capacity_epoch == epoch
        assert len(queue) == 2 and queue.oldest_job().request is not evicted
        assert controller.run_scheduling_pass(now_ms=4.0) == 0
        assert policy.plans[s2] == 2

    def test_forced_minimum_record_is_replayed_across_passes(
        self, store
    ) -> None:
        policy = PerQueuePolicy({A: TOO_BIG})
        workflow = single_stage("a")
        controller = build_controller(
            store,
            policy,
            [workflow],
            recheck_rounds_before_min=1,
        )
        arrive(controller, workflow, 0, 1.0)
        node = controller.cluster.invoker(0)
        node.reserve(WHOLE_NODE)
        fallbacks = 0
        most_available = controller.cluster.most_available_invoker

        def counted(config):
            nonlocal fallbacks
            fallbacks += 1
            return most_available(config)

        controller.cluster.most_available_invoker = counted
        for now_ms in (2.0, 3.0, 4.0):
            assert controller.run_scheduling_pass(now_ms=now_ms) == 0
        assert policy.plans[A] == 1 and fallbacks == 1
        assert controller.queue_for(*A).recheck_rounds == 3
        node.release(WHOLE_NODE)
        assert controller.run_scheduling_pass(now_ms=5.0) == 1
        assert controller.metrics.forced_min_dispatches == 1

    def test_pure_esg_replans_in_every_pass(self, store) -> None:
        policy = ESGPolicy()
        assert policy.pure_decisions and not policy.time_invariant_decisions
        workflows = [single_stage(app) for app in ("a", "b")]
        controller = build_controller(
            store,
            policy,
            workflows,
            recheck_rounds_before_min=100,
        )
        for i, workflow in enumerate(workflows):
            arrive(controller, workflow, i, 1.0)
        controller.cluster.invoker(0).reserve(WHOLE_NODE)
        plans = 0
        plan = policy.plan

        def counted(queue, now_ms):
            nonlocal plans
            plans += 1
            return plan(queue, now_ms)

        policy.plan = counted
        for passes, now_ms in enumerate((2.0, 3.0, 4.0), start=1):
            assert controller.run_scheduling_pass(now_ms=now_ms) == 0
            # Each queue is planned on its first attempt of every pass.
            assert plans == 2 * passes


# ----------------------------------------------------------------------
# Passes that cannot dispatch, applied in bulk
# ----------------------------------------------------------------------
class PerAttempt(Controller):
    """The reference: every pass takes the per-attempt loop."""

    def _replay_failed_pass(self, order):
        return False


def record_bulk(controller: Controller) -> list[bool]:
    """Wrap the controller's bulk path; returns the list of its outcomes."""
    outcomes: list[bool] = []
    replay = controller._replay_failed_pass

    def recorded(order):
        outcomes.append(replay(order))
        return outcomes[-1]

    controller._replay_failed_pass = recorded
    return outcomes


#: Two-thirds and one third of a node; with WHOLE_NODE they fill the
#: two-node cluster of the bulk test quickly.
LARGE = Configuration(1, 10, 4)
MEDIUM = Configuration(1, 5, 2)


class TestBulkReplay:
    APPS = tuple(f"app{i}" for i in range(6))

    def script(self, seed: int) -> tuple[dict, dict, list[tuple[str, int]]]:
        rng = random.Random(seed)
        keys = [(app, "s1") for app in self.APPS]
        configs = {
            key: rng.choice([SMALL, MEDIUM, LARGE, WHOLE_NODE, TOO_BIG, None]) for key in keys
        }
        misses = {key: rng.random() < 0.5 for key in keys if rng.random() < 0.5}
        # Mostly idle gaps, so the cluster saturates and queues stay parked.
        kinds = ["idle"] * 5 + ["arrive"] * 2 + ["complete", "purge"]
        actions = [(rng.choice(kinds), rng.randrange(6)) for _ in range(120)]
        return configs, misses, actions

    def trace(self, store, seed, controller_cls, *, pure=True):
        """Run the seed's script; return what every pass left behind, the
        plan count and how many passes were applied in bulk."""
        configs, misses, actions = self.script(seed)
        # A different overhead per queue, so a misordered sample shows.
        overheads = {(app, "s1"): 0.25 * (i + 1) for i, app in enumerate(self.APPS)}
        policy = PerQueuePolicy(configs, overheads, misses, pure=pure)
        events: list = []
        workflows = {app: single_stage(app) for app in self.APPS}
        controller = build_controller(
            store,
            policy,
            workflows.values(),
            num_invokers=2,
            events=events,
            controller_cls=controller_cls,
            recheck_rounds_before_min=3,
        )
        bulk = record_bulk(controller)
        for i, app in enumerate(self.APPS):
            arrive(controller, workflows[app], i, 1.0)
        completed = 0
        passes = []
        for step, (action, k) in enumerate(actions):
            now_ms = 2.0 + step
            app = self.APPS[k]
            queue = controller.queue_for(app, "s1")
            tasks = [event.task for event in events if isinstance(event, TaskCompletionEvent)]
            if action == "arrive":
                arrive(controller, workflows[app], 100 + step, now_ms - 0.5)
            elif action == "complete" and completed < len(tasks):
                # Tasks complete in dispatch order.
                controller.on_task_completion(tasks[completed], now_ms - 0.5)
                completed += 1
            elif action == "purge" and not queue.is_empty:
                controller._evict_request(queue.oldest_job().request, now_ms - 0.5)
            dispatched = controller.run_scheduling_pass(now_ms=now_ms)
            passes.append(
                (
                    dispatched,
                    list(controller._recheck),
                    {key: q.recheck_rounds for key, q in controller._queues.items()},
                    list(controller.metrics.overhead_ms_samples),
                    controller.metrics.forced_min_dispatches,
                    controller.metrics.plan_attempts,
                    controller.metrics.plan_misses,
                )
            )
        return passes, sum(policy.plans.values()), sum(bulk)

    @pytest.mark.parametrize("seed", range(4))
    def test_bulk_replay_matches_the_per_attempt_loop(
        self, store, seed
    ) -> None:
        passes, plans, bulk = self.trace(store, seed, Controller)
        ref_passes, ref_plans, ref_bulk = self.trace(
            store, seed, PerAttempt
        )
        off_passes, off_plans, _ = self.trace(
            store, seed, Controller, pure=False
        )
        assert passes == ref_passes == off_passes
        assert plans == ref_plans < off_plans
        assert ref_bulk == 0 and 0 < bulk < len(passes)

    def test_queue_that_dispatched_before_failing_is_parked_in_bulk(
        self, store
    ) -> None:
        """c's visit dispatches once and fails, so c is not parked and its
        record is the newest; the next pass visits b, c, a and parks c at
        its second visit, all in bulk."""
        keys = [(app, "s1") for app in "abc"]
        configs = dict(zip(keys, [TOO_BIG, TOO_BIG, LARGE]))
        overheads = dict(zip(keys, [0.25, 0.5, 0.75]))

        def run(controller_cls):
            policy = PerQueuePolicy(configs, overheads)
            workflows = [single_stage(app) for app in "abc"]
            controller = build_controller(
                store,
                policy,
                workflows,
                controller_cls=controller_cls,
                recheck_rounds_before_min=100,
            )
            # One job each for a and b, two for c.
            for i, workflow in enumerate([*workflows, workflows[2]]):
                arrive(controller, workflow, i, 1.0)
            assert controller.run_scheduling_pass(now_ms=2.0) == 1
            assert controller._recheck == keys[:2]
            bulk = record_bulk(controller)
            assert controller.run_scheduling_pass(now_ms=3.0) == 0
            rounds = [controller.queue_for(*key).recheck_rounds for key in keys]
            return bulk, controller._recheck, rounds, list(controller.metrics.overhead_ms_samples)

        bulk, recheck, rounds, samples = run(Controller)
        ref_bulk, ref_recheck, ref_rounds, ref_samples = run(PerAttempt)
        assert bulk == [True] and ref_bulk == [False]
        assert recheck == ref_recheck == keys
        assert rounds == ref_rounds == [6, 5, 2]
        assert samples == ref_samples
