"""Unit tests for the adaptive feedback prewarm layer (specs, controllers,
registry, and the Autoscaler's attach/decide/actuate mechanics)."""

from __future__ import annotations

import dataclasses

import pytest
from recording_loop import RecordingLoop

from repro.cluster.autoscale import (
    AUTOSCALE_SPECS,
    AutoscalePolicy,
    AutoscaleSpec,
    AutoscaleState,
    Autoscaler,
    PIDController,
    ThresholdController,
    autoscale_spec_names,
    get_autoscale_spec,
    register_autoscale_spec,
    resolve_autoscale,
)
from repro.cluster.cluster import ClusterConfig
from repro.cluster.container import Container, ContainerState
from repro.cluster.controller import ControllerConfig
from repro.cluster.events import PrewarmCompleteEvent
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import build_profile_store, make_policy
from repro.workloads.scenarios import get_scenario


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


def make_state(**overrides) -> AutoscaleState:
    defaults = dict(
        now_ms=100.0,
        function_name="f",
        queue_depth=0,
        arrival_rate_per_s=0.0,
        residents=1,
        active_invokers=4,
    )
    defaults.update(overrides)
    return AutoscaleState(**defaults)


def build_simulation(store, *, num_invokers: int = 4, seed: int = 3) -> Simulation:
    return Simulation(
        policy=make_policy("ESG"),
        requests=get_scenario("paper-moderate-normal").build_requests(2, seed, store),
        profile_store=store,
        config=SimulationConfig(
            seed=seed, cluster=ClusterConfig(num_invokers=num_invokers)
        ),
        setting_name="moderate-normal",
    )


# ----------------------------------------------------------------------
# Spec validation and registry
# ----------------------------------------------------------------------
class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"kind": "dqn"},
            {"kind": "learned"},
            {"decide_interval_ms": 0.0},
            {"min_residents": -1},
            {"max_residents": 0},
            {"min_residents": 5, "max_residents": 4},
            {"low_watermark": 3.0, "high_watermark": 3.0},
            {"step_up": 0},
            {"step_down": 0},
            {"low_rate_per_s": -1.0},
            {"down_patience": 0},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"integral_clamp": -0.1},
            {"max_step": 0},
            {"setpoint": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        kwargs = {"name": "t", **overrides}
        with pytest.raises(ValueError):
            AutoscaleSpec(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("decide_interval_ms", float("nan")),
            ("decide_interval_ms", float("inf")),
            ("high_watermark", float("nan")),
            ("low_watermark", float("nan")),
            ("low_rate_per_s", float("nan")),
            ("kp", float("nan")),
            ("ki", float("inf")),
            ("kd", float("nan")),
            ("setpoint", float("nan")),
            ("ewma_alpha", float("nan")),
            ("integral_clamp", float("nan")),
        ],
    )
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
            AutoscaleSpec(name="t", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_step", 2.5),
            ("step_up", 1.5),
            ("step_down", 1.5),
            ("down_patience", 2.5),
            ("min_residents", 0.5),
            ("max_residents", 4.5),
            ("max_residents", True),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an int, got {value!r}"):
            AutoscaleSpec(name="t", **{field: value})

    def test_every_registered_spec_constructs(self):
        for spec in AUTOSCALE_SPECS.values():
            assert dataclasses.replace(spec) == spec

    def test_build_controller_dispatches_on_kind(self):
        assert isinstance(
            AutoscaleSpec(name="a", kind="threshold").build_controller(),
            ThresholdController,
        )
        assert isinstance(
            AutoscaleSpec(name="b", kind="pid").build_controller(), PIDController
        )

    def test_controllers_are_fresh_per_build(self):
        spec = AutoscaleSpec(name="fresh", kind="pid")
        assert spec.build_controller() is not spec.build_controller()


class TestRegistry:
    def test_builtins_are_registered(self):
        for name in (
            "threshold-default",
            "threshold-conservative",
            "pid-default",
        ):
            assert get_autoscale_spec(name).name == name
        assert autoscale_spec_names() == sorted(AUTOSCALE_SPECS)
        assert "learned-stub" not in AUTOSCALE_SPECS

    def test_unknown_name_lists_known_specs(self):
        with pytest.raises(KeyError, match="known specs"):
            get_autoscale_spec("no-such-controller")

    def test_duplicate_registration_rejected(self):
        spec = get_autoscale_spec("pid-default")
        with pytest.raises(ValueError, match="already registered"):
            register_autoscale_spec(spec)
        # Explicit overwrite is the escape hatch and round-trips.
        assert register_autoscale_spec(spec, overwrite=True) is spec

    def test_resolve_forms(self):
        assert resolve_autoscale(None) is None
        by_name = resolve_autoscale("threshold-default")
        assert by_name is get_autoscale_spec("threshold-default")
        assert resolve_autoscale(by_name) is by_name
        with pytest.raises(TypeError):
            resolve_autoscale(42)


# ----------------------------------------------------------------------
# Controllers
# ----------------------------------------------------------------------
class TestThresholdController:
    def _controller(self, **overrides) -> ThresholdController:
        params = dict(
            high_watermark=3.0,
            low_watermark=0.0,
            step_up=2,
            step_down=1,
            low_rate_per_s=0.0,
            down_patience=3,
        )
        params.update(overrides)
        return ThresholdController(**params)

    def test_scales_up_at_high_watermark(self):
        action = self._controller().decide(make_state(queue_depth=3))
        assert action.delta == 2

    def test_holds_inside_the_band(self):
        controller = self._controller()
        for depth in (1, 2):
            assert controller.decide(make_state(queue_depth=depth)).delta == 0

    def test_scale_down_requires_consecutive_patience(self):
        controller = self._controller(down_patience=3)
        idle = make_state(queue_depth=0, arrival_rate_per_s=0.0)
        assert controller.decide(idle).delta == 0
        assert controller.decide(idle).delta == 0
        assert controller.decide(idle).delta == -1
        # The counter resets after firing: the next idle round starts over.
        assert controller.decide(idle).delta == 0

    def test_traffic_resets_patience(self):
        controller = self._controller(down_patience=2)
        idle = make_state(queue_depth=0, arrival_rate_per_s=0.0)
        busy = make_state(queue_depth=1)
        assert controller.decide(idle).delta == 0
        assert controller.decide(busy).delta == 0  # in band, resets the count
        assert controller.decide(idle).delta == 0  # count restarts at 1
        assert controller.decide(idle).delta == -1

    def test_arrival_rate_gates_scale_down(self):
        controller = self._controller(down_patience=1, low_rate_per_s=5.0)
        draining = make_state(queue_depth=0, arrival_rate_per_s=50.0)
        assert controller.decide(draining).delta == 0
        quiet = make_state(queue_depth=0, arrival_rate_per_s=2.0)
        assert controller.decide(quiet).delta == -1


class TestPIDController:
    def _controller(self, **overrides) -> PIDController:
        params = dict(
            kp=1.0,
            ki=0.5,
            kd=0.0,
            setpoint=1.0,
            ewma_alpha=1.0,
            integral_clamp=2.0,
            max_step=2,
        )
        params.update(overrides)
        return PIDController(**params)

    def test_first_sample_seeds_the_ewma(self):
        controller = self._controller(ewma_alpha=0.5)
        controller.decide(make_state(queue_depth=5))
        assert controller.smoothed == pytest.approx(4.0)  # raw error, unmixed

    def test_ewma_smooths_subsequent_samples(self):
        controller = self._controller(ewma_alpha=0.5)
        controller.decide(make_state(queue_depth=5))  # smoothed = 4.0
        controller.decide(make_state(queue_depth=1))  # raw 0.0 -> 0.5*0 + 0.5*4
        assert controller.smoothed == pytest.approx(2.0)

    def test_integral_clamps_both_ways(self):
        controller = self._controller(integral_clamp=2.0)
        for _ in range(10):
            controller.decide(make_state(queue_depth=9))
        assert controller.integral == pytest.approx(2.0)
        for _ in range(20):
            controller.decide(make_state(queue_depth=0))
        assert controller.integral == pytest.approx(-2.0)

    def test_delta_is_integer_and_step_clamped(self):
        controller = self._controller(kp=10.0, max_step=2)
        action = controller.decide(make_state(queue_depth=9))
        assert action.delta == 2
        action = controller.decide(make_state(queue_depth=0))
        assert action.delta == -2

    def test_small_control_rounds_to_hold(self):
        controller = self._controller(kp=0.1, ki=0.0)
        assert controller.decide(make_state(queue_depth=2)).delta == 0


class TestBasePolicy:
    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            AutoscalePolicy().decide(make_state())


# ----------------------------------------------------------------------
# Autoscaler runtime
# ----------------------------------------------------------------------
class TestAutoscalerWiring:
    def test_attach_disables_static_prewarmer(self, store):
        simulation = build_simulation(store)
        assert simulation.controller.prewarmer.enabled
        autoscaler = Autoscaler(spec=get_autoscale_spec("threshold-default"))
        assert not autoscaler.attached
        assert autoscaler.attach(simulation) is autoscaler
        assert autoscaler.attached
        assert simulation.controller.prewarmer.enabled is False

    def test_double_attach_rejected(self, store):
        autoscaler = Autoscaler(spec=get_autoscale_spec("threshold-default"))
        autoscaler.attach(build_simulation(store))
        with pytest.raises(RuntimeError, match="exactly one simulation"):
            autoscaler.attach(build_simulation(store))


class TestActuation:
    def _attached(self, store, spec=None):
        simulation = build_simulation(store)
        spec = spec or get_autoscale_spec("threshold-default")
        return simulation, Autoscaler(spec=spec).attach(simulation)

    def test_scale_up_places_starting_containers_and_events(self, store):
        simulation, autoscaler = self._attached(store)
        fn = simulation.profile_store.function_names()[0]
        before = simulation.cluster.resident_container_count(fn)
        state = make_state(function_name=fn, queue_depth=9, residents=before)
        pushed: list = []
        simulation.events = RecordingLoop(pushed)
        applied, targets = autoscaler._actuate(simulation, state, 2)
        assert applied == 2
        assert len(targets) == 2
        assert simulation.cluster.resident_container_count(fn) == before + 2
        assert [type(e) for e in pushed] == [PrewarmCompleteEvent, PrewarmCompleteEvent]
        cold_ms = simulation.profile_store.profile(fn).spec.cold_start_ms
        for event in pushed:
            assert event.container.state is ContainerState.STARTING
            assert event.time_ms == pytest.approx(state.now_ms + cold_ms)

    def test_scale_up_clamps_at_max_residents(self, store):
        spec = dataclasses.replace(
            get_autoscale_spec("threshold-default"), name="clamped", max_residents=1
        )
        simulation, autoscaler = self._attached(store, spec)
        fn = simulation.profile_store.function_names()[0]
        residents = simulation.cluster.resident_container_count(fn)
        state = make_state(function_name=fn, queue_depth=9, residents=residents)
        applied, targets = autoscaler._actuate(simulation, state, 5)
        assert applied == max(0, 1 - residents)
        assert len(targets) == applied

    def test_scale_down_retires_only_warm_idle_and_spares_starting(self, store):
        simulation, autoscaler = self._attached(store)
        fn = simulation.profile_store.function_names()[0]
        warm = [
            simulation.cluster.invoker(0).create_warm_container(fn, 0.0),
            simulation.cluster.invoker(1).create_warm_container(fn, 0.0),
        ]
        starting = Container(
            function_name=fn,
            invoker_id=2,
            state=ContainerState.STARTING,
            warm_at_ms=50.0,
        )
        simulation.cluster.invoker(2).add_container(starting)
        residents = simulation.cluster.resident_container_count(fn)
        assert residents == 3
        state = make_state(
            function_name=fn, now_ms=0.0, queue_depth=0, residents=residents
        )
        applied, targets = autoscaler._actuate(simulation, state, -residents)
        # Only the two warm idle containers are reclaimable: the in-flight
        # prewarm is never touched.
        assert applied == -2
        assert sorted(targets) == [0, 1]
        assert all(c.state is ContainerState.STOPPED for c in warm)
        assert starting.state is ContainerState.STARTING

    def test_scale_down_respects_min_residents_floor(self, store):
        spec = dataclasses.replace(
            get_autoscale_spec("threshold-default"), name="floored", min_residents=1
        )
        simulation, autoscaler = self._attached(store, spec)
        fn = simulation.profile_store.function_names()[0]
        for invoker_id in (0, 1):
            simulation.cluster.invoker(invoker_id).create_warm_container(fn, 0.0)
        residents = simulation.cluster.resident_container_count(fn)
        assert residents == 2
        applied, _targets = autoscaler._actuate(
            simulation,
            make_state(function_name=fn, now_ms=0.0, residents=residents),
            -10,
        )
        assert applied == -1  # the floor keeps one resident
        assert simulation.cluster.resident_container_count(fn) == 1

    def test_end_to_end_run_decides(self, store):
        simulation, autoscaler = self._attached(store)
        simulation.run()
        assert autoscaler.decisions > 0
        assert set(autoscaler.controllers) <= set(
            simulation.profile_store.function_names()
        )

    @pytest.mark.parametrize("spec_name", ["threshold-default", "pid-default"])
    def test_decisions_never_count_an_expired_container(self, store, spec_name):
        """A decision can fall between ticks (after an idle gap, say).  The
        containers whose keep-alive ran out by then stop first, so no
        ``residents`` snapshot counts one."""
        scenario = get_scenario("bursty-onoff-heavy")
        simulation = Simulation(
            policy=make_policy("ESG"),
            requests=scenario.build_requests(120, 5, store),
            profile_store=store,
            config=SimulationConfig(
                seed=5,
                cluster=ClusterConfig(keep_alive_ms=2.0),
                controller=ControllerConfig(initial_warm="home"),
            ),
            setting_name=scenario.setting,
        )
        autoscaler = Autoscaler(spec=get_autoscale_spec(spec_name)).attach(simulation)
        functions = simulation.profile_store.function_names()
        decided = [0]
        expired_but_live: list[tuple[float, str]] = []

        def after_each_decision(sim: Simulation, event: object) -> None:
            if autoscaler.decisions == decided[0]:
                return
            decided[0] = autoscaler.decisions
            now = sim.now_ms
            expired_but_live.extend(
                (now, container.function_name)
                for invoker in sim.cluster
                for fn in functions
                for container in invoker.containers_for(fn)
                if container.state is ContainerState.WARM and container.expires_at_ms <= now
            )

        simulation.on_event(after_each_decision)
        simulation.run()
        assert autoscaler.decisions > 0
        assert not expired_but_live, expired_but_live[:5]
