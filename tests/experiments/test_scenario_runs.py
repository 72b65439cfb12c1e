"""Scenario execution through the runner, engine and CLI.

Covers scenario specs, cross-process (spawn) determinism parity of every
arrival process, and how horizon truncation interacts with the
``truncated`` flag.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.engine import ExperimentEngine, RunSpec, execute_spec
from repro.experiments.runner import ExperimentConfig, run_experiment, run_matrix
from repro.experiments.scenario_sweep import (
    render_scenario_comparison,
    render_scenario_list,
    run_scenario_sweep,
    scenario_rows,
)
from repro.workloads.scenarios import SCENARIOS, get_scenario

SMALL = ExperimentConfig(num_requests=6, seed=11)

#: One scenario per new arrival process (the spawn-parity acceptance set).
NEW_PROCESS_SCENARIOS = (
    "poisson-normal",
    "bursty-onoff-heavy",
    "diurnal-normal",
    "trace-replay-azure",
)


class TestRunSpecScenarios:
    def test_scenario_spec_round_trips_through_pickle(self):
        spec = RunSpec(policy="ESG", scenario="poisson-normal", config=SMALL)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rejects_unknown_scenario_eagerly(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            RunSpec(policy="ESG", scenario="no-such-scenario")

    def test_names_resolve_through_the_scenario(self):
        spec = RunSpec(policy="ESG", scenario="bursty-onoff-heavy", config=SMALL)
        assert spec.setting_name == "relaxed-heavy"
        assert spec.scenario.name == "bursty-onoff-heavy"


class TestExecuteSpec:
    def test_execute_spec_matches_run_experiment(self):
        spec = RunSpec(policy="INFless", scenario="poisson-normal", config=SMALL)
        direct = run_experiment("INFless", scenario="poisson-normal", config=SMALL)
        assert execute_spec(spec).summary == direct.summary
        assert direct.scenario_name == "poisson-normal"


class TestCrossProcessParity:
    def test_registry_scenario_n_jobs_4_matches_n_jobs_1(self):
        """Acceptance: n_jobs=4 parity on a registry scenario."""
        scenarios = ("paper-moderate-normal", "mixed-dags-normal")
        sequential = run_matrix(scenarios, ("ESG", "INFless"), config=SMALL, n_jobs=1)
        parallel = run_matrix(scenarios, ("ESG", "INFless"), config=SMALL, n_jobs=4)
        assert set(sequential) == set(parallel)
        for key in sequential:
            assert sequential[key].summary == parallel[key].summary, key

    @pytest.mark.parametrize("scenario", NEW_PROCESS_SCENARIOS)
    def test_every_new_arrival_process_spawn_parity(self, scenario):
        """Acceptance: spawn workers (no fork inheritance) reproduce each
        new arrival process byte-for-byte."""
        specs = [RunSpec(policy="ESG", scenario=scenario, config=SMALL)]
        in_process = ExperimentEngine(n_jobs=1).run(specs)
        spawned = ExperimentEngine(n_jobs=2, mp_context="spawn").run(specs * 2)
        assert spawned[0].summary == in_process[0].summary
        assert spawned[1].summary == in_process[0].summary

    def test_keyed_results_use_scenario_names(self):
        results = run_matrix(("poisson-normal",), ("ESG",), config=SMALL)
        assert set(results) == {("poisson-normal", "ESG")}
        assert results[("poisson-normal", "ESG")].scenario_name == "poisson-normal"

    def test_unregistered_scenario_object_runs_even_in_spawn_workers(self):
        """Specs carry the resolved Scenario object, so a user-defined
        scenario that only exists in the parent process (or was never
        registered at all) still executes in spawn workers."""
        from repro.workloads.arrival import PoissonProcess
        from repro.workloads.scenarios import SCENARIOS, Scenario

        adhoc = Scenario(
            name="test-adhoc-unregistered",
            description="never registered",
            setting="strict-light",
            arrival=PoissonProcess(rate_per_s=30.0),
        )
        assert adhoc.name not in SCENARIOS
        results = run_matrix([adhoc], ("ESG",), config=SMALL, n_jobs=1)
        assert set(results) == {(adhoc.name, "ESG")}
        spec = RunSpec(policy="ESG", scenario=adhoc, config=SMALL)
        spawned = ExperimentEngine(n_jobs=2, mp_context="spawn").run([spec, spec])
        assert spawned[0].summary == results[(adhoc.name, "ESG")].summary
        assert spawned[1].summary == spawned[0].summary

    def test_scenario_names_normalise_to_objects_in_specs(self):
        spec = RunSpec(policy="ESG", scenario="poisson-normal", config=SMALL)
        assert spec.scenario == get_scenario("poisson-normal")


class TestHorizonTruncation:
    OVERLOAD = ExperimentConfig(num_requests=120, seed=3)

    def test_scenario_horizon_sets_truncated_flag(self):
        result = run_experiment("INFless", scenario="overload-spike", config=self.OVERLOAD)
        assert result.summary.truncated
        assert result.summary.num_completed < self.OVERLOAD.num_requests

    def test_config_horizon_overrides_scenario_horizon(self):
        # A generous explicit horizon lets the whole spike drain.
        config = self.OVERLOAD.with_overrides(max_time_ms=10_000_000.0)
        result = run_experiment("INFless", scenario="overload-spike", config=config)
        assert not result.summary.truncated

    def test_unbounded_scenarios_do_not_truncate(self):
        result = run_experiment("ESG", scenario="paper-strict-light", config=SMALL)
        assert not result.summary.truncated

    def test_config_horizon_applies_to_unbounded_scenarios(self):
        config = SMALL.with_overrides(max_time_ms=30.0)
        result = run_experiment("ESG", "paper-relaxed-heavy", config=config)
        assert result.summary.truncated


class TestScenarioSweep:
    def test_sweep_defaults_to_whole_registry(self):
        tiny = ExperimentConfig(num_requests=2, seed=1)
        results = run_scenario_sweep(policies=("ESG",), config=tiny)
        assert {scenario for scenario, _ in results} == set(SCENARIOS.names())
        rows = scenario_rows(results)
        assert len(rows) == len(SCENARIOS)
        rendered = render_scenario_comparison(rows)
        assert "Scenario comparison" in rendered
        for name in SCENARIOS.names():
            assert name in rendered

    def test_summary_only_results_skip_the_collector(self):
        results = run_scenario_sweep(("poisson-normal",), ("ESG",), config=SMALL)
        result = results[("poisson-normal", "ESG")]
        assert result.metrics is None
        assert result.summary.num_requests > 0


class TestScenarioCli:
    def test_list_scenarios_flag_parses_without_experiment(self):
        args = build_parser().parse_args(["--list-scenarios"])
        assert args.list_scenarios and args.experiment is None

    def test_scenario_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["compare", "--scenario", "poisson-normal", "--scenario", "diurnal-normal"]
        )
        assert args.scenario == ["poisson-normal", "diurnal-normal"]

    def test_list_scenarios_prints_the_registry(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        listed = [name for name in SCENARIOS.names() if name in out]
        assert len(listed) >= 6

    def test_missing_experiment_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_compare_command_runs_a_scenario(self, capsys):
        assert main(["compare", "--scenario", "poisson-normal", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "poisson-normal" in out and "ESG" in out

    def test_render_scenario_list_contains_descriptions(self):
        rendered = render_scenario_list()
        assert "MMPP" in rendered
        assert "paper-relaxed-heavy" in rendered
