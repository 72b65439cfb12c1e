"""Tests for the shared experiment runner."""

from __future__ import annotations

import pytest

from repro.baselines.infless import INFlessPolicy
from repro.core.esg import ESGPolicy
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    EXPERIMENT_SPACE,
    ExperimentConfig,
    build_profile_store,
    build_requests,
    make_policy,
    run_experiment,
    run_matrix,
    run_setting,
    summaries_by_policy,
)
from repro.workloads.generator import WORKLOAD_SETTINGS


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


class TestBuilders:
    def test_experiment_space_has_64_configs(self):
        assert EXPERIMENT_SPACE.size == 64

    def test_build_requests_identical_across_calls(self):
        store = build_profile_store()
        a = build_requests("strict-light", 20, seed=5, profile_store=store)
        b = build_requests("strict-light", 20, seed=5, profile_store=store)
        assert [(r.arrival_ms, r.app_name, r.slo_ms) for r in a] == [
            (r.arrival_ms, r.app_name, r.slo_ms) for r in b
        ]

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


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def small_run(self):
        config = ExperimentConfig(num_requests=25, seed=3)
        return run_experiment("ESG", "moderate-normal", config=config)

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

    def test_run_setting_wrapper(self):
        summary = run_setting("INFless", "relaxed-heavy", num_requests=15, seed=2)
        assert summary.policy == "INFless"
        assert summary.setting == "relaxed-heavy"

    def test_unknown_setting_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("ESG", "no-such-setting", config=ExperimentConfig(num_requests=5))


class TestRunMatrix:
    def test_matrix_covers_requested_cells(self):
        config = ExperimentConfig(num_requests=12, seed=1)
        results = run_matrix(["ESG", "INFless"], ["strict-light"], config=config)
        assert set(results) == {("strict-light", "ESG"), ("strict-light", "INFless")}
        by_policy = summaries_by_policy(results, "strict-light")
        assert set(by_policy) == {"ESG", "INFless"}

    def test_matrix_uses_identical_workloads_per_policy(self, task_log):
        config = ExperimentConfig(num_requests=10, seed=4)
        with task_log().capturing() as log:
            run_matrix(["ESG", "FaST-GShare"], ["moderate-normal"], config=config)
        # The two cells run one after the other, each arriving all 10.
        arrivals = [(r.arrival_ms, r.app_name) for r in log.requests]
        assert len(arrivals) == 20
        assert arrivals[:10] == arrivals[10:]

    def test_all_settings_registered(self):
        assert set(WORKLOAD_SETTINGS) == {"strict-light", "moderate-normal", "relaxed-heavy"}

    def test_duplicate_policy_names_rejected_before_running(self):
        config = ExperimentConfig(num_requests=6, seed=1)
        with pytest.raises(ValueError, match="colliding cells: \\('strict-light', 'ESG'\\)"):
            run_matrix(["ESG", "esg"], ["strict-light"], config=config)

    def test_duplicate_setting_names_rejected_before_running(self):
        config = ExperimentConfig(num_requests=6, seed=1)
        setting = WORKLOAD_SETTINGS["strict-light"]
        with pytest.raises(ValueError, match="colliding cells"):
            run_matrix(["ESG"], [setting, "strict-light"], config=config)
