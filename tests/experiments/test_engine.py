"""Tests for the parallel experiment engine (RunSpec / ExperimentEngine)."""

from __future__ import annotations

import os
import pickle
from dataclasses import replace

import pytest

from repro.core.esg import ESGPolicy
from repro.experiments.engine import (
    ExperimentEngine,
    RunSpec,
    execute_spec,
    resolve_n_jobs,
)
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    run_experiment,
    run_matrix,
)
from repro.workloads.generator import WORKLOAD_SETTINGS
from repro.workloads.scenarios import PAPER_SCENARIOS, get_scenario

SMALL = ExperimentConfig(num_requests=6, seed=11)


class TestRunSpec:
    def test_round_trips_through_pickle(self):
        spec = RunSpec(
            policy="ESG",
            scenario="paper-strict-light",
            config=SMALL,
            policy_overrides={"k": 7, "group_size": 2},
            label="esg-k7",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.policy_overrides == {"k": 7, "group_size": 2}

    def test_build_policy_applies_overrides(self):
        spec = RunSpec(policy="ESG", scenario="paper-strict-light", policy_overrides={"k": 9})
        policy = spec.build_policy()
        assert isinstance(policy, ESGPolicy)
        assert policy.k == 9

    def test_rejects_live_policy_objects(self):
        with pytest.raises(TypeError, match="policy name"):
            RunSpec(policy=ESGPolicy(), scenario="paper-strict-light")

    def test_rejects_unknown_scenario_names(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            RunSpec(policy="ESG", scenario="no-such-scenario")

    @pytest.mark.parametrize("bad", [None, WORKLOAD_SETTINGS["strict-light"], 3])
    def test_rejects_anything_but_a_scenario(self, bad):
        with pytest.raises(TypeError, match="scenario name or a Scenario"):
            RunSpec(policy="ESG", scenario=bad)

    def test_accepts_scenario_objects(self):
        scenario = get_scenario("paper-relaxed-heavy")
        spec = RunSpec("ESG", scenario, config=SMALL)
        assert spec.scenario is scenario
        assert spec.setting_name == "relaxed-heavy"
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestExecuteSpec:
    def test_matches_run_experiment(self):
        spec = RunSpec(policy="INFless", scenario="paper-moderate-normal", config=SMALL)
        direct = run_experiment("INFless", "paper-moderate-normal", config=SMALL)
        via_spec = execute_spec(spec)
        assert via_spec.summary == direct.summary


class TestResolveNJobs:
    def test_positive_passes_through(self):
        assert resolve_n_jobs(3) == 3

    @pytest.mark.parametrize("value", [None, 0, -1])
    def test_none_and_nonpositive_mean_all_cores(self, value):
        assert resolve_n_jobs(value) == (os.cpu_count() or 1)


class TestExperimentEngine:
    def test_empty_spec_list(self):
        assert ExperimentEngine(n_jobs=2).run([]) == []

    def test_results_come_back_in_spec_order(self):
        specs = [
            RunSpec(policy=policy, scenario="paper-strict-light", config=SMALL)
            for policy in ("INFless", "ESG", "FaST-GShare")
        ]
        results = ExperimentEngine(n_jobs=2).run(specs)
        assert [r.policy_name for r in results] == ["INFless", "ESG", "FaST-GShare"]

    def test_run_keyed_uses_reported_policy_name(self):
        specs = [
            RunSpec(
                policy="ESG",
                scenario="paper-strict-light",
                config=SMALL,
                policy_overrides={"batching": False, "name": "ESG w/o batching"},
            )
        ]
        keyed = ExperimentEngine(n_jobs=1).run_keyed(specs)
        assert set(keyed) == {("paper-strict-light", "ESG w/o batching")}

    def test_run_keyed_rejects_colliding_cells(self):
        """Two ablation variants without a rename must not silently
        overwrite each other; the error names the colliding cell."""
        specs = [
            RunSpec(policy="ESG", scenario="paper-strict-light", config=SMALL),
            RunSpec(
                policy="ESG",
                scenario="paper-strict-light",
                config=SMALL,
                policy_overrides={"batching": False},  # forgot to rename
            ),
        ]
        with pytest.raises(ValueError, match=r"\('paper-strict-light', 'ESG'\)"):
            ExperimentEngine(n_jobs=1).run_keyed(specs)

    def test_run_keyed_accepts_renamed_variants(self):
        specs = [
            RunSpec(policy="ESG", scenario="paper-strict-light", config=SMALL),
            RunSpec(
                policy="ESG",
                scenario="paper-strict-light",
                config=SMALL,
                policy_overrides={"batching": False, "name": "ESG w/o batching"},
            ),
        ]
        keyed = ExperimentEngine(n_jobs=1).run_keyed(specs)
        assert set(keyed) == {
            ("paper-strict-light", "ESG"),
            ("paper-strict-light", "ESG w/o batching"),
        }


class TestSummaryOnlyResults:
    def test_summary_only_results_carry_the_summary_alone(self):
        spec = RunSpec(
            policy="INFless", scenario="paper-moderate-normal", config=SMALL, summary_only=True
        )
        result = execute_spec(spec)
        assert result.metrics is None
        full = execute_spec(replace(spec, summary_only=False))
        assert full.metrics is not None
        assert result.summary == full.summary

    def test_truncated_runs_say_so_in_the_summary(self):
        config = SMALL.with_overrides(num_requests=30, max_time_ms=200.0)
        spec = RunSpec(
            policy="INFless", scenario="paper-moderate-normal", config=config, summary_only=True
        )
        result = execute_spec(spec)
        assert result.summary.truncated
        assert result.metrics is None


class TestParallelParity:
    def test_full_matrix_parallel_summaries_identical_to_sequential(self):
        """The acceptance check: n_jobs=4 reproduces n_jobs=1 byte-for-byte."""
        sequential = run_matrix(PAPER_SCENARIOS, DEFAULT_POLICIES, config=SMALL, n_jobs=1)
        parallel = run_matrix(PAPER_SCENARIOS, DEFAULT_POLICIES, config=SMALL, n_jobs=4)
        assert set(sequential) == set(parallel)
        assert len(sequential) == len(DEFAULT_POLICIES) * len(PAPER_SCENARIOS)
        for key in sequential:
            assert sequential[key].summary == parallel[key].summary, key

    def test_spawned_workers_reproduce_in_process_results(self):
        """Spawn workers share nothing with the parent (no fork inheritance
        masking hash-seed or global-state dependence), so this guards the
        strongest form of cross-process determinism."""
        specs = [
            RunSpec(policy=policy, scenario="paper-strict-light", config=SMALL)
            for policy in ("ESG", "Orion")
        ]
        in_process = ExperimentEngine(n_jobs=1).run(specs)
        spawned = ExperimentEngine(n_jobs=2, mp_context="spawn").run(specs)
        for seq, par in zip(in_process, spawned):
            assert seq.summary == par.summary

    def test_policy_objects_rejected_when_parallel(self):
        with pytest.raises(TypeError, match="policy name"):
            run_matrix(["paper-strict-light"], [ESGPolicy()], config=SMALL, n_jobs=2)

    def test_policy_objects_rejected_sequentially(self):
        with pytest.raises(TypeError, match="policy name"):
            run_matrix(["poisson-normal"], [ESGPolicy(k=2)], config=SMALL, n_jobs=1)
