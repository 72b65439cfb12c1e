"""The controller's failed-attempt memo (``SchedulingPolicy.pure_decisions``).

Within one scheduling pass ``now_ms`` is fixed and only a dispatch changes
the queues, the capacity or the containers, so a queue whose attempt
failed fails again until the next dispatch.  For a policy with pure
decisions the controller replays such a retry from the memo instead of
calling the policy: the run must stay byte-identical to one with the memo
off, with fewer ``plan()`` calls.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict

import pytest

from repro.baselines import AquatopePolicy, FaSTGSharePolicy, INFlessPolicy, OrionPolicy
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.controller import Controller, ControllerConfig
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


def retry_run(
    policy: SchedulingPolicy, monkeypatch: pytest.MonkeyPatch, loop_mode: str = "fast"
) -> tuple[str, Counter]:
    """A saturated 4-node run that parks queues and tries a forced-minimum
    dispatch on every failed retry.  Returns the summary as canonical JSON
    and the call counts of the policy's ``plan`` and ``select_invoker`` and
    of the controller's plan-and-place attempts."""
    calls: Counter = Counter()
    for name in ("plan", "select_invoker"):
        method = getattr(policy, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        setattr(policy, name, counted)
    attempt = Controller._try_schedule_queue

    def counted_attempt(controller, queue, now_ms):
        calls["attempts"] += 1
        return attempt(controller, queue, now_ms)

    with monkeypatch.context() as patch:
        patch.setattr(Controller, "_try_schedule_queue", counted_attempt)
        result = run_experiment(
            policy,
            config=ExperimentConfig(
                num_requests=30,
                seed=1,
                cluster=ClusterConfig(num_invokers=4),
                cluster_pinned=True,
                controller=ControllerConfig(initial_warm="all", recheck_rounds_before_min=1),
                loop_mode=loop_mode,
            ),
            scenario="overload-spike",
        )
    return json.dumps(asdict(result.summary), sort_keys=True), calls


class TestDifferential:
    @pytest.mark.parametrize("loop_mode", ["fast", "compat"])
    @pytest.mark.parametrize("name", list(PURE_POLICIES))
    def test_memo_is_byte_identical_with_fewer_plans(
        self, name: str, loop_mode: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        policy = PURE_POLICIES[name]()
        assert policy.pure_decisions
        summary, calls = retry_run(policy, monkeypatch, loop_mode)
        reference = memo_off(PURE_POLICIES[name])()
        ref_summary, ref_calls = retry_run(reference, monkeypatch, loop_mode)
        assert summary == ref_summary
        assert calls["attempts"] == ref_calls["attempts"]
        assert ref_calls["plan"] == ref_calls["attempts"]  # the reference plans every attempt
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
    deterministic_overhead = True
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


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore.build()


def standalone(store, policy, apps, *, fast_mode: bool = False, **controller_config) -> Controller:
    """One 16-vCPU node, events discarded, one queued single-stage request per app."""
    cluster = ClusterState(config=ClusterConfig(num_invokers=1))
    controller = Controller(
        policy=policy,
        cluster=cluster,
        profile_store=store,
        runtime_perf_model=AnalyticalPerformanceModel(),
        pricing=store.pricing,
        metrics=MetricsCollector(policy_name=policy.name, setting_name="test"),
        config=ControllerConfig(**controller_config),
        event_sink=lambda event: None,
        fast_mode=fast_mode,
    )
    workflows = {app: Workflow(name=app) for app in apps}
    for workflow in workflows.values():
        workflow.add_stage("s1", "classification")
    policy.bind(
        SchedulingContext(
            profile_store=store,
            cluster=cluster,
            config_space=store.space,
            pricing=store.pricing,
            workflows=workflows,
        )
    )
    for i, workflow in enumerate(workflows.values()):
        request = Request(request_id=i, workflow=workflow, arrival_ms=1.0, slo_ms=500_000.0)
        controller.on_request_arrival(request, now_ms=1.0)
    return controller


#: A configuration that fills the whole node.
WHOLE_NODE = Configuration(1, 16, 7)
both_loop_modes = pytest.mark.parametrize("fast_mode", [False, True], ids=["compat", "fast"])


@both_loop_modes
class TestInvalidation:
    CONFIGS = {"a": TOO_BIG, "b": TOO_BIG, "c": SMALL}

    def run_two_passes(self, store, fast_mode: bool, *, pure: bool):
        policy = PerAppPolicy(self.CONFIGS, pure=pure)
        controller = standalone(
            store, policy, self.CONFIGS, fast_mode=fast_mode, recheck_rounds_before_min=100
        )
        # Visit order a, b, c: a and b fail and park, then c dispatches.
        assert controller.run_scheduling_pass(now_ms=2.0) == 1
        first = dict(policy.plans)
        assert controller.run_scheduling_pass(now_ms=3.0) == 0
        rounds = {key: controller.queue_for(*key).recheck_rounds for key in controller._recheck}
        return policy, first, rounds, list(controller.metrics.overhead_ms_samples)

    def test_dispatch_mid_pass_forgets_every_failure(self, store, fast_mode) -> None:
        policy, first, _, _ = self.run_two_passes(store, fast_mode, pure=True)
        # a and b each fail once before c's dispatch and once after it;
        # every other retry in that pass is replayed.
        assert first == {"a": 2, "b": 2, "c": 1}
        # The next pass plans every parked queue again, once.
        assert policy.plans == Counter({"a": 3, "b": 3, "c": 1})
        # A replay calls no policy method: one placement try per plan.
        assert policy.selects[("a", TOO_BIG)] == policy.plans["a"]
        assert policy.selects[("b", TOO_BIG)] == policy.plans["b"]

    def test_replay_records_what_the_reference_records(self, store, fast_mode) -> None:
        _, _, rounds, samples = self.run_two_passes(store, fast_mode, pure=True)
        _, ref_first, ref_rounds, ref_samples = self.run_two_passes(store, fast_mode, pure=False)
        assert ref_first == {"a": 4, "b": 3, "c": 1}
        assert rounds == ref_rounds
        assert samples == ref_samples

    def test_declined_plan_is_replayed_without_records(self, store, fast_mode) -> None:
        def run(pure: bool):
            policy = PerAppPolicy({"a": None, "b": TOO_BIG}, pure=pure)
            controller = standalone(store, policy, ("a", "b"), fast_mode=fast_mode)
            assert controller.run_scheduling_pass(now_ms=2.0) == 0
            return policy.plans, controller.metrics.overhead_ms_samples

        plans, samples = run(pure=True)
        ref_plans, ref_samples = run(pure=False)
        assert plans == {"a": 1, "b": 1} and ref_plans == {"a": 3, "b": 2}
        # Only b's plans record overhead: its attempt and its replayed retry.
        assert samples == ref_samples == [0.5, 0.5]


@both_loop_modes
class TestForcedMinimum:
    def test_failed_forced_minimum_is_not_repeated_in_the_pass(self, store, fast_mode) -> None:
        def run(pure: bool):
            policy = PerAppPolicy({"a": TOO_BIG, "b": TOO_BIG}, pure=pure)
            controller = standalone(
                store, policy, ("a", "b"), fast_mode=fast_mode, recheck_rounds_before_min=1
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

    def test_next_pass_tries_the_forced_minimum_again(self, store, fast_mode) -> None:
        policy = PerAppPolicy({"a": TOO_BIG})
        controller = standalone(
            store, policy, ("a",), fast_mode=fast_mode, recheck_rounds_before_min=1
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
            lambda: ESGPolicy(per_expansion_ms=None),
        ],
        ids=["Orion", "Aquatope", "ESG-static", "ESG-measured-overhead"],
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
