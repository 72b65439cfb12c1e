"""Acceptance parity: streamed workloads vs. explicit request lists.

Every run pulls its arrivals through the simulator's one chunked stream
path.  A workload handed over as an explicit, materialized request list
(``Scenario.build_requests`` passed to ``run_experiment(requests=...)``)
is wrapped once into a list-backed stream, while the default workload is
the generator's lazy :class:`~repro.workloads.stream.RequestStream`.  For
the same ``(scenario, seed)`` both must give byte-identical RunSummaries,
for every policy, on the paper scenarios and on arrival processes with
their own RNG paths, including truncated-horizon runs — and the queue
must not care which of the two it was fed.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.cluster import simulator
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    RunResult,
    build_profile_store,
    make_policy,
    run_experiment,
)
from repro.utils.rng import derive_rng
from repro.workloads.applications import build_paper_applications
from repro.workloads.generator import MODERATE_NORMAL, WorkloadGenerator
from repro.workloads.scenarios import PAPER_SCENARIOS, get_scenario

CONFIG = ExperimentConfig(num_requests=16)


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


def materialized_run(policy: str, scenario_name: str, store, config=CONFIG) -> RunResult:
    """The scenario's workload built up front as a list, then replayed."""
    scenario = get_scenario(scenario_name)
    requests = scenario.build_requests(
        scenario.num_requests or config.num_requests, config.seed, store
    )
    return run_experiment(
        policy, config=config, profile_store=store, scenario=scenario, requests=requests
    )


def streamed_run(policy: str, scenario_name: str, store, config=CONFIG) -> RunResult:
    return run_experiment(policy, config=config, profile_store=store, scenario=scenario_name)


class TestStreamingVsMaterializedSummaries:
    """The full acceptance matrix: 5 policies x 3 paper scenarios."""

    @pytest.mark.parametrize("scenario", PAPER_SCENARIOS)
    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_policy_scenario_byte_identical(self, store, policy, scenario):
        materialized = materialized_run(policy, scenario, store)
        streaming = streamed_run(policy, scenario, store)
        assert materialized.summary == streaming.summary

    def test_streaming_run_retains_no_requests(self, store):
        result = streamed_run("ESG", "paper-strict-light", store)
        assert not hasattr(result, "requests")
        # ... while the collector still serves the figure modules.
        assert result.metrics.app_names()
        assert result.metrics.latencies_ms()

    def test_truncated_horizon_runs_stay_identical(self, store):
        """Arrivals beyond the horizon are never handled, whether the
        workload came as a list or as a stream."""
        config = CONFIG.with_overrides(num_requests=40, max_time_ms=300.0)
        materialized = materialized_run("ESG", "paper-moderate-normal", store, config)
        streaming = streamed_run("ESG", "paper-moderate-normal", store, config)
        assert materialized.summary.truncated
        assert materialized.summary == streaming.summary

    def test_figure7_curves_identical_across_modes(self, store):
        """Figure 7 derives per-app SLOs from the collector, so a run that
        keeps no request list reports the same curves as one fed an
        explicit list — not silently-zero SLOs."""
        from repro.experiments.end_to_end import figure7_curves

        key = ("relaxed-heavy", "ESG")
        materialized_curves = figure7_curves(
            {key: materialized_run("ESG", "paper-relaxed-heavy", store)}
        )
        streaming_curves = figure7_curves(
            {key: streamed_run("ESG", "paper-relaxed-heavy", store)}
        )
        assert materialized_curves == streaming_curves
        assert all(curve.slo_ms > 0 for curve in streaming_curves)

    def test_non_paper_scenarios_stay_identical(self, store):
        """Arrival processes with their own RNG paths stream identically."""
        for scenario in ("poisson-normal", "trace-replay-azure", "mixed-dags-normal"):
            materialized = materialized_run("ESG", scenario, store)
            streaming = streamed_run("ESG", scenario, store)
            assert materialized.summary == streaming.summary, scenario


class TestStreamingSimulationMechanics:
    def test_event_queue_stays_small(self, store, monkeypatch):
        """A list is pulled chunk by chunk like a stream, so both queues
        peak at the same size: the list's not-yet-arrived requests are
        never pending on top of the in-flight events."""
        scenario = get_scenario("paper-moderate-normal")
        num_requests = 120
        # The loop pulls
        # arrivals in chunks of ARRIVAL_CHUNK, larger than this workload,
        # so the chunk is shrunk to keep the bound observable.
        monkeypatch.setattr(simulator, "ARRIVAL_CHUNK", 4)
        config = SimulationConfig(seed=42)

        def peak_queue(workload) -> int:
            simulation = Simulation(
                policy=make_policy("ESG"),
                requests=workload,
                profile_store=store,
                config=config,
                setting_name=scenario.setting,
            )
            peak = len(simulation.events)

            @simulation.on_event
            def watch(sim, event):
                nonlocal peak
                peak = max(peak, len(sim.events))

            summary = simulation.run()
            assert summary.num_requests == num_requests
            return peak

        streaming_peak = peak_queue(scenario.build_stream(num_requests, 42, store))
        materialized_peak = peak_queue(scenario.build_requests(num_requests, 42, store))
        assert materialized_peak == streaming_peak


class TestDurationStreams:
    """A duration stream declares only the applications it can draw.

    The simulator registers, warms and binds every declared application
    before the first arrival, so declaring a zero-weight application would
    warm containers for requests that can never come and make the streamed
    run differ from the same window materialized as a list.
    """

    DURATION_MS = 2_000.0

    def generator(self, store) -> WorkloadGenerator:
        return WorkloadGenerator(
            applications=build_paper_applications(),
            setting=MODERATE_NORMAL,
            profile_store=store,
            rng=derive_rng(5, "duration-parity"),
            app_weights=(1, 0, 0, 0),
        )

    def run(self, store, workload):
        return Simulation(
            policy=make_policy("ESG"),
            requests=workload,
            profile_store=store,
            config=SimulationConfig(seed=5),
            setting_name="moderate-normal",
        ).run()

    def test_zero_weight_applications_are_not_declared(self, store):
        stream = self.generator(store).stream_for_duration(self.DURATION_MS)
        first = build_paper_applications()[0].name
        assert list(stream.workflows()) == [first]

    def test_list_and_stream_give_identical_summaries(self, store):
        listed = self.run(store, self.generator(store).generate_for_duration(self.DURATION_MS))
        streamed = self.run(store, self.generator(store).stream_for_duration(self.DURATION_MS))
        assert listed.num_requests > 0
        assert asdict(listed) == asdict(streamed)
