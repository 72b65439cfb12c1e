"""Tests for the scenario registry and scenario-built workloads."""

from __future__ import annotations

import pickle

import pytest

from repro.utils.rng import derive_rng
from repro.workloads.applications import build_application, register_application
from repro.workloads.arrival import PoissonProcess
from repro.workloads.dag import Workflow
from repro.workloads.generator import WORKLOAD_SETTINGS, WorkloadGenerator
from repro.workloads.scenarios import (
    PAPER_SCENARIOS,
    SCENARIOS,
    Scenario,
    ScenarioRegistry,
    get_scenario,
    scenario_names,
)
from repro.workloads.applications import build_paper_applications


class TestRegistry:
    def test_builtin_registry_has_at_least_six_scenarios(self):
        assert len(SCENARIOS) >= 6

    def test_paper_scenarios_cover_all_settings(self):
        assert PAPER_SCENARIOS == tuple(f"paper-{setting}" for setting in WORKLOAD_SETTINGS)
        for setting in WORKLOAD_SETTINGS:
            scenario = get_scenario(f"paper-{setting}")
            assert scenario.setting == setting
            assert scenario.arrival is None
            assert scenario.stream == setting

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="paper-moderate-normal"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        scenario = Scenario(name="dup", description="d", setting="moderate-normal")
        registry.register(scenario)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(scenario)
        registry.register(scenario.with_overrides(description="d2"), replace=True)
        assert registry.get("dup").description == "d2"

    def test_contains_and_iter(self):
        assert "paper-strict-light" in SCENARIOS
        assert "nope" not in SCENARIOS
        assert {s.name for s in SCENARIOS} == set(scenario_names())


class TestScenarioValidation:
    def test_unknown_setting_rejected(self):
        with pytest.raises(KeyError, match="unknown workload setting"):
            Scenario(name="x", description="d", setting="nope")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Scenario(name="", description="d", setting="moderate-normal")

    def test_empty_applications_rejected(self):
        with pytest.raises(ValueError, match="applications"):
            Scenario(name="x", description="d", setting="moderate-normal", applications=())

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon_ms"):
            Scenario(name="x", description="d", setting="moderate-normal", horizon_ms=0.0)

    def test_mismatched_app_weights_rejected(self):
        with pytest.raises(ValueError, match="one weight per application"):
            Scenario(
                name="x",
                description="d",
                setting="moderate-normal",
                applications=("vision_diamond", "single_stage_classification"),
                app_weights=(1.0,),
            )
        # None applications means the four paper apps.
        with pytest.raises(ValueError, match="one weight per application"):
            Scenario(name="x", description="d", setting="moderate-normal", app_weights=(1.0,))

    def test_negative_or_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Scenario(
                name="x",
                description="d",
                setting="moderate-normal",
                applications=("vision_diamond",),
                app_weights=(-1.0,),
            )
        with pytest.raises(ValueError, match="not all be zero"):
            Scenario(
                name="x",
                description="d",
                setting="moderate-normal",
                applications=("vision_diamond",),
                app_weights=(0.0,),
            )

    def test_nonpositive_num_requests_rejected(self):
        with pytest.raises(ValueError, match="num_requests"):
            Scenario(name="x", description="d", setting="moderate-normal", num_requests=0)

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("applications", "image_classification", TypeError, "applications must be a tuple"),
            ("applications", ("nope",), KeyError, "applications: unknown application 'nope'"),
            ("app_weights", (1.0, float("nan"), 1.0, 1.0), ValueError, "app_weights"),
            ("app_weights", (1.0, float("inf"), 1.0, 1.0), ValueError, "app_weights"),
            ("app_weights", (1.0, "2", 1.0, 1.0), TypeError, "app_weights"),
            ("num_requests", 2.5, TypeError, "num_requests"),
            ("num_requests", True, TypeError, "num_requests"),
            ("horizon_ms", float("nan"), ValueError, "horizon_ms"),
            ("horizon_ms", "100", TypeError, "horizon_ms"),
        ],
    )
    def test_bad_fields_fail_at_construction(self, field, value, error, message):
        with pytest.raises(error, match=message):
            Scenario(name="x", description="d", setting="moderate-normal", **{field: value})

    def test_scenarios_pickle(self):
        for scenario in SCENARIOS:
            assert pickle.loads(pickle.dumps(scenario)) == scenario


class TestScenarioWorkloads:
    def test_paper_scenario_requests_are_the_setting_stream(self, small_store):
        """A paper scenario draws the paper apps under Azure arrivals from
        the RNG stream labelled with its setting's name."""
        scenario = get_scenario("paper-moderate-normal")
        via_scenario = scenario.build_requests(30, 42, small_store)

        legacy = WorkloadGenerator(
            applications=build_paper_applications(),
            setting=WORKLOAD_SETTINGS["moderate-normal"],
            profile_store=small_store,
            rng=derive_rng(42, "workload", "moderate-normal"),
        ).generate(30)

        assert len(via_scenario) == len(legacy)
        for a, b in zip(via_scenario, legacy):
            assert a.arrival_ms == b.arrival_ms
            assert a.slo_ms == b.slo_ms
            assert a.app_name == b.app_name

    def test_build_requests_deterministic(self, small_store):
        scenario = get_scenario("bursty-onoff-heavy")
        a = scenario.build_requests(20, 7, small_store)
        b = scenario.build_requests(20, 7, small_store)
        assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
        assert [r.app_name for r in a] == [r.app_name for r in b]

    def test_distinct_streams_for_distinct_scenarios(self, small_store):
        a = get_scenario("poisson-normal").build_requests(20, 7, small_store)
        b = get_scenario("diurnal-normal").build_requests(20, 7, small_store)
        assert [r.arrival_ms for r in a] != [r.arrival_ms for r in b]

    def test_mixed_dag_scenario_uses_registered_applications(self, small_store):
        scenario = get_scenario("mixed-dags-normal")
        requests = scenario.build_requests(60, 5, small_store)
        seen = {r.app_name for r in requests}
        assert seen <= set(scenario.applications)
        # The heavily weighted non-paper DAGs actually dominate the mix.
        non_paper = sum(
            r.app_name in ("vision_diamond", "single_stage_classification") for r in requests
        )
        assert non_paper > len(requests) / 2

    def test_trace_scenario_generates(self, small_store):
        requests = get_scenario("trace-replay-azure").build_requests(60, 3, small_store)
        assert len(requests) == 60
        arrivals = [r.arrival_ms for r in requests]
        assert arrivals == sorted(arrivals)

    def test_custom_application_registration_roundtrip(self, small_store):
        register_application(
            "test_only_linear",
            lambda: Workflow.linear("test_only_linear", ["deblur", "classification"]),
            replace=True,
        )
        assert build_application("test_only_linear").num_stages == 2
        scenario = Scenario(
            name="test-custom-app",
            description="t",
            setting="moderate-normal",
            applications=("test_only_linear",),
            arrival=PoissonProcess(rate_per_s=30.0),
        )
        requests = scenario.build_requests(10, 1, small_store)
        assert {r.app_name for r in requests} == {"test_only_linear"}

    def test_unknown_application_name_fails_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown application 'no_such_app'.*vision_diamond"):
            Scenario(
                name="test-bad-app",
                description="t",
                setting="moderate-normal",
                applications=("no_such_app",),
            )

    def test_duplicate_application_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_application("image_classification", lambda: None)
