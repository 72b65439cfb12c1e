"""Tests for the shared experiment runner."""

from __future__ import annotations

import pytest

from repro import quick_simulation
from repro.baselines.aquatope import AquatopePolicy
from repro.baselines.fastgshare import FaSTGSharePolicy
from repro.baselines.infless import INFlessPolicy
from repro.baselines.orion import OrionPolicy
from repro.core.esg import ESGPolicy
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    EXPERIMENT_SPACE,
    POLICY_ALIASES,
    POLICY_CLASSES,
    ExperimentConfig,
    canonical_policy_key,
    make_policy,
    run_experiment,
    run_matrix,
)
from repro.workloads.generator import WORKLOAD_SETTINGS
from repro.workloads.scenarios import PAPER_SCENARIOS, get_scenario


class TestMakePolicy:
    @pytest.mark.parametrize("name", DEFAULT_POLICIES)
    def test_all_paper_policies_constructible(self, name):
        policy = make_policy(name)
        assert policy.name == name

    def test_name_is_case_insensitive(self):
        assert isinstance(make_policy("esg"), ESGPolicy)
        assert isinstance(make_policy("INFLESS"), INFlessPolicy)

    def test_overrides_forwarded(self):
        policy = make_policy("ESG", k=7)
        assert policy.k == 7

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("made-up")

    @pytest.mark.parametrize(
        "spelling, cls",
        [
            ("ESG", ESGPolicy),
            ("esg", ESGPolicy),
            (" INFless ", INFlessPolicy),
            ("FaST-GShare", FaSTGSharePolicy),
            ("fast_gshare", FaSTGSharePolicy),
            ("FastGShare", FaSTGSharePolicy),
            ("fast gshare", FaSTGSharePolicy),
            ("Orion", OrionPolicy),
            ("best_first", OrionPolicy),
            ("BFS", OrionPolicy),
            ("Aquatope", AquatopePolicy),
            ("bo", AquatopePolicy),
        ],
    )
    def test_every_spelling_builds_the_class_its_key_names(self, spelling, cls):
        # make_policy and the store's key read one table: a spelling that
        # builds a class addresses that class's cache cells.
        assert type(make_policy(spelling)) is cls
        assert POLICY_CLASSES[canonical_policy_key(spelling)] is cls

    @pytest.mark.parametrize("alias", sorted(POLICY_ALIASES))
    def test_every_alias_names_a_policy_class(self, alias):
        assert type(make_policy(alias)) is POLICY_CLASSES[POLICY_ALIASES[alias]]


class TestBuilders:
    def test_experiment_space_has_64_configs(self):
        assert EXPERIMENT_SPACE.size == 64

    def test_experiment_config_overrides(self):
        config = ExperimentConfig(num_requests=10).with_overrides(seed=9)
        assert config.seed == 9
        assert config.num_requests == 10

    def test_workload_mode_is_streaming_only(self):
        assert ExperimentConfig().workload_mode == "streaming"
        assert ExperimentConfig(workload_mode="streaming") == ExperimentConfig()
        with pytest.raises(ValueError, match="workload mode 'materialized' was removed"):
            ExperimentConfig(workload_mode="materialized")
        with pytest.raises(ValueError, match="unknown workload mode"):
            ExperimentConfig(workload_mode="bogus")

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("num_requests", 0, ValueError),
            ("num_requests", -5, ValueError),
            ("num_requests", True, TypeError),
            ("num_requests", 2.5, TypeError),
            ("seed", 1.5, TypeError),
            ("seed", True, TypeError),
            ("seed", -1, ValueError),
            ("noise_sigma", -1.0, ValueError),
            ("noise_sigma", float("nan"), ValueError),
            ("noise_sigma", "0.1", TypeError),
        ],
    )
    def test_bad_fields_fail_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            ExperimentConfig(**{field: value})


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def small_run(self):
        config = ExperimentConfig(num_requests=25, seed=3)
        return run_experiment("ESG", "paper-moderate-normal", config=config)

    def test_summary_counts(self, small_run):
        assert small_run.summary.num_requests == 25
        assert small_run.summary.num_completed == 25
        assert 0.0 <= small_run.slo_hit_rate <= 1.0
        assert small_run.total_cost_cents > 0

    def test_metrics_accessible(self, small_run):
        # At least one task per request; every dispatched task is a warm or
        # a cold start.
        assert small_run.summary.warm_starts + small_run.summary.cold_starts >= 25
        assert small_run.metrics.app_names()
        assert small_run.metrics.latencies_ms()

    def test_result_names_its_scenario_and_setting(self, small_run):
        assert small_run.scenario_name == "paper-moderate-normal"
        assert small_run.setting is WORKLOAD_SETTINGS["moderate-normal"]
        assert small_run.summary.setting == "moderate-normal"

    def test_scenario_keyword_and_object(self, small_run):
        config = ExperimentConfig(num_requests=25, seed=3)
        by_keyword = run_experiment("ESG", scenario="paper-moderate-normal", config=config)
        by_object = run_experiment(
            "ESG", get_scenario("paper-moderate-normal"), config=config
        )
        assert by_keyword.summary == small_run.summary == by_object.summary

    def test_quick_simulation_runs_a_paper_scenario(self):
        summary = quick_simulation("INFless", num_requests=15, seed=2)
        assert summary.policy == "INFless"
        assert summary.setting == "strict-light"
        assert summary.num_requests == 15

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_experiment("ESG", "no-such-scenario", config=ExperimentConfig(num_requests=5))

    def test_bare_setting_name_rejected(self):
        # A bare setting name is not a scenario name.
        with pytest.raises(KeyError, match="unknown scenario 'strict-light'"):
            run_experiment("ESG", "strict-light", config=ExperimentConfig(num_requests=5))

    @pytest.mark.parametrize("bad", [None, WORKLOAD_SETTINGS["strict-light"]])
    def test_anything_but_a_scenario_rejected(self, bad):
        with pytest.raises(TypeError, match="scenario name or a Scenario"):
            run_experiment("ESG", bad, config=ExperimentConfig(num_requests=5))


class TestRunMatrix:
    def test_matrix_covers_requested_cells(self):
        config = ExperimentConfig(num_requests=12, seed=1)
        results = run_matrix(["paper-strict-light"], ["ESG", "INFless"], config=config)
        assert list(results) == [
            ("paper-strict-light", "ESG"),
            ("paper-strict-light", "INFless"),
        ]
        assert [result.policy_name for result in results.values()] == ["ESG", "INFless"]

    def test_matrix_uses_identical_workloads_per_policy(self, task_log):
        config = ExperimentConfig(num_requests=10, seed=4)
        with task_log().capturing() as log:
            run_matrix(["paper-moderate-normal"], ["ESG", "FaST-GShare"], config=config)
        # The two cells run one after the other, each arriving all 10.
        arrivals = [(r.arrival_ms, r.app_name) for r in log.requests]
        assert len(arrivals) == 20
        assert arrivals[:10] == arrivals[10:]

    def test_paper_scenarios_cover_every_setting(self):
        assert set(WORKLOAD_SETTINGS) == {"strict-light", "moderate-normal", "relaxed-heavy"}
        assert [get_scenario(name).setting for name in PAPER_SCENARIOS] == list(
            WORKLOAD_SETTINGS
        )

    def test_duplicate_policy_names_rejected_before_running(self):
        config = ExperimentConfig(num_requests=6, seed=1)
        with pytest.raises(
            ValueError, match="colliding cells: \\('paper-strict-light', 'ESG'\\)"
        ):
            run_matrix(["paper-strict-light"], ["ESG", "esg"], config=config)

    def test_duplicate_scenario_names_rejected_before_running(self):
        config = ExperimentConfig(num_requests=6, seed=1)
        scenario = get_scenario("paper-strict-light")
        with pytest.raises(ValueError, match="colliding cells"):
            run_matrix([scenario, "paper-strict-light"], ["ESG"], config=config)
