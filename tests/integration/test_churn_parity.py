"""Acceptance parity: churn runs are byte-identical across worker processes.

Capacity churn mutates the cluster mid-run.  These tests extend the
parity matrices to churn scenarios: for identical ``(scenario, seed)`` the
RunSummary must be byte-identical across

* the workload given as an explicit request list vs. the default stream,
* engine ``n_jobs`` 1 vs. 4 and the spawn multiprocessing context.

The summaries themselves, for every policy on both churn scenarios, are
pinned by the golden corpus (``tests/golden/lattice/``).
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.runner import (
    ExperimentConfig,
    build_profile_store,
    run_experiment,
)
from repro.workloads.scenarios import get_scenario

CHURN_SCENARIOS = ("harvest-severe-normal", "churn-eviction-fail")

BASE = ExperimentConfig(num_requests=16)


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


class TestChurnActuallyBites:
    def test_churn_actually_bites(self, store):
        """Guard against vacuous parity: on this workload the fail-mode
        scenario terminally evicts at least one request, and the harvest
        scenario drops and requeues at least one in-flight task."""
        failed = run_experiment(
            "ESG", config=BASE, profile_store=store, scenario="churn-eviction-fail"
        )
        assert failed.summary.num_evicted > 0
        assert failed.summary.evicted_tasks > 0
        assert (
            failed.summary.num_completed + failed.summary.num_evicted
            == failed.summary.num_requests
        )
        harvested = run_experiment(
            "ESG", config=BASE, profile_store=store, scenario="harvest-severe-normal"
        )
        assert harvested.summary.evicted_tasks > 0
        assert harvested.summary.requeued_jobs > 0
        assert harvested.summary.num_evicted == 0  # requeue mode never fails requests
        assert harvested.summary.num_completed == harvested.summary.num_requests


class TestChurnWorkloadParity:
    @pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
    def test_fully_streaming_matches_materialized(self, store, scenario):
        streamed = run_experiment("ESG", config=BASE, profile_store=store, scenario=scenario)
        requests = get_scenario(scenario).build_requests(BASE.num_requests, BASE.seed, store)
        materialized = run_experiment(
            "ESG", config=BASE, profile_store=store, scenario=scenario, requests=requests
        )
        assert asdict(streamed.summary) == asdict(materialized.summary)
        assert streamed.summary == materialized.summary


class TestChurnEngineParity:
    def _specs(self, config: ExperimentConfig) -> list[RunSpec]:
        return [
            RunSpec(policy="ESG", scenario=scenario, config=config)
            for scenario in CHURN_SCENARIOS
        ]

    def test_worker_fanout_matches_in_process(self):
        in_process = ExperimentEngine(n_jobs=1).run(self._specs(BASE))
        fanned_out = ExperimentEngine(n_jobs=4).run(self._specs(BASE))
        for a, b in zip(in_process, fanned_out):
            assert asdict(a.summary) == asdict(b.summary)

    def test_spawn_context_reproduces_churn_summaries(self):
        in_process = ExperimentEngine(n_jobs=1).run(self._specs(BASE))
        spawned = ExperimentEngine(n_jobs=2, mp_context="spawn").run(self._specs(BASE))
        for a, b in zip(in_process, spawned):
            assert asdict(a.summary) == asdict(b.summary)


class TestChurnConfigPrecedence:
    def test_config_churn_overrides_scenario_churn(self, store):
        """An explicit ExperimentConfig.churn wins over the scenario's:
        overriding the fail-mode scenario with a requeue-mode spec makes
        terminal evictions impossible (the scenario's own schedule evicts
        at least one request — pinned by test_churn_actually_bites)."""
        override = run_experiment(
            "ESG",
            config=BASE.with_overrides(churn="harvest-mild"),
            profile_store=store,
            scenario="churn-eviction-fail",
        )
        assert override.summary.num_evicted == 0

    def test_static_scenarios_unchanged_by_churn_plumbing(self, store):
        """A churn-free run must not even enable churn bookkeeping: the
        summary carries all-zero churn counters."""
        result = run_experiment(
            "ESG", config=BASE, profile_store=store, scenario="paper-moderate-normal"
        )
        assert result.summary.num_evicted == 0
        assert result.summary.evicted_tasks == 0
        assert result.summary.requeued_jobs == 0
