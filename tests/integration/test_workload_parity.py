"""Acceptance parity: streaming workloads vs. materialized request lists.

The tentpole guarantee of the streaming-workload refactor: switching
``ExperimentConfig.workload_mode`` between ``"materialized"`` (the full
request list built up front, every arrival event pre-registered) and
``"streaming"`` (the simulator pulls arrivals on demand from a lazy
:class:`~repro.workloads.stream.RequestStream`) changes *memory behaviour
only* — every RunSummary is byte-identical, for every policy, on the paper
scenarios, across worker processes and spawn contexts, including
truncated-horizon runs.
"""

from __future__ import annotations

import pytest

from repro.cluster import simulator
from repro.cluster.cluster import ClusterConfig
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    build_profile_store,
    make_policy,
    run_experiment,
)
from repro.workloads.scenarios import get_scenario

PAPER_SCENARIOS = (
    "paper-strict-light",
    "paper-moderate-normal",
    "paper-relaxed-heavy",
)

MATERIALIZED = ExperimentConfig(num_requests=16)
STREAMING = ExperimentConfig(num_requests=16, workload_mode="streaming")


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


class TestStreamingVsMaterializedSummaries:
    """The full acceptance matrix: 5 policies x 3 paper scenarios."""

    @pytest.mark.parametrize("scenario", PAPER_SCENARIOS)
    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_policy_scenario_byte_identical(self, store, policy, scenario):
        materialized = run_experiment(
            policy, config=MATERIALIZED, profile_store=store, scenario=scenario
        )
        streaming = run_experiment(
            policy, config=STREAMING, profile_store=store, scenario=scenario
        )
        assert materialized.summary == streaming.summary

    def test_streaming_run_retains_no_requests(self, store):
        result = run_experiment(
            "ESG", config=STREAMING, profile_store=store, scenario="paper-strict-light"
        )
        assert result.requests == []
        # ... while the collector still serves the figure modules.
        assert result.metrics.app_names()
        assert result.metrics.latencies_ms()

    def test_truncated_horizon_runs_stay_identical(self, store):
        """Arrivals beyond the horizon are never pulled in streaming mode,
        exactly as pre-registered ones are never processed."""
        materialized_cfg = MATERIALIZED.with_overrides(num_requests=40, max_time_ms=300.0)
        streaming_cfg = materialized_cfg.with_overrides(workload_mode="streaming")
        materialized = run_experiment(
            "ESG", "moderate-normal", config=materialized_cfg, profile_store=store
        )
        streaming = run_experiment(
            "ESG", "moderate-normal", config=streaming_cfg, profile_store=store
        )
        assert materialized.summary.truncated
        assert materialized.summary == streaming.summary

    def test_figure7_curves_identical_across_modes(self, store):
        """Figure 7 derives per-app SLOs from the collector, so streaming
        runs (no retained request list) report the same curves — not
        silently-zero SLOs."""
        from repro.experiments.end_to_end import figure7_curves

        key = ("relaxed-heavy", "ESG")
        materialized = {
            key: run_experiment(
                "ESG", "relaxed-heavy", config=MATERIALIZED, profile_store=store
            )
        }
        streaming = {
            key: run_experiment(
                "ESG", "relaxed-heavy", config=STREAMING, profile_store=store
            )
        }
        materialized_curves = figure7_curves(materialized)
        streaming_curves = figure7_curves(streaming)
        assert materialized_curves == streaming_curves
        assert all(curve.slo_ms > 0 for curve in streaming_curves)

    def test_non_paper_scenarios_stay_identical(self, store):
        """Arrival processes with their own RNG paths stream identically."""
        for scenario in ("poisson-normal", "trace-replay-azure", "mixed-dags-normal"):
            materialized = run_experiment(
                "ESG", config=MATERIALIZED, profile_store=store, scenario=scenario
            )
            streaming = run_experiment(
                "ESG", config=STREAMING, profile_store=store, scenario=scenario
            )
            assert materialized.summary == streaming.summary, scenario


class TestStreamingSimulationMechanics:
    def test_event_queue_stays_small(self, store, monkeypatch):
        """At most one chunk of pending arrivals: the queue scales with
        in-flight work (plus lazily-cancelled keep-alive timers), not the
        workload length — a materialized run starts with every arrival
        pending."""
        scenario = get_scenario("paper-moderate-normal")
        num_requests = 120
        # An infinite keep-alive arms no expiry timers, isolating the
        # workload's own contribution to the queue: lazily cancelled
        # ten-minute timers would pile up equally in both modes and
        # dominate the peaks.  The loop pulls arrivals in chunks of
        # ARRIVAL_CHUNK, larger than this workload, so the chunk is shrunk
        # to keep the bound observable.
        monkeypatch.setattr(simulator, "ARRIVAL_CHUNK", 4)
        config = SimulationConfig(seed=42, cluster=ClusterConfig(keep_alive_ms=float("inf")))

        def peak_queue(workload):
            simulation = Simulation(
                policy=make_policy("ESG"),
                requests=workload,
                profile_store=store,
                config=config,
                setting_name=scenario.setting,
            )
            peak = 0

            @simulation.on_event
            def watch(sim, event):
                nonlocal peak
                peak = max(peak, len(sim.events))

            summary = simulation.run()
            assert summary.num_requests == num_requests
            return peak, simulation

        streaming_peak, streaming_sim = peak_queue(
            scenario.build_generator(store, seed=42).stream(num_requests)
        )
        materialized_peak, materialized_sim = peak_queue(
            scenario.build_generator(store, seed=42).generate(num_requests)
        )
        assert streaming_sim.streaming_workload
        assert not materialized_sim.streaming_workload
        # The materialized queue carries the whole not-yet-arrived workload
        # on top of the same in-flight events; streaming carries one
        # pending arrival in its place.
        assert streaming_peak < materialized_peak - num_requests / 2

    def test_arrival_count_parity_events(self, store):
        """Streaming schedules each arrival exactly once."""
        scenario = get_scenario("paper-moderate-normal")
        generator = scenario.build_generator(store, seed=7)
        simulation = Simulation(
            policy=make_policy("INFless"),
            requests=generator.stream(30),
            profile_store=store,
            config=SimulationConfig(seed=7),
            setting_name=scenario.setting,
        )
        summary = simulation.run()
        assert summary.num_requests == 30
        assert summary.num_completed == 30

    def test_empty_stream_rejected(self, store):
        from repro.workloads.stream import RequestStream

        class EmptyStream(RequestStream):
            def __iter__(self):
                return iter(())

            def workflows(self):
                return {}

        with pytest.raises(ValueError, match="at least one request"):
            Simulation(
                policy=make_policy("ESG"),
                requests=EmptyStream(),
                profile_store=store,
                config=SimulationConfig(seed=1),
            )


class TestEngineParityAcrossModes:
    """Workload mode composes with the engine's n_jobs / spawn guarantees."""

    def _specs(self, config: ExperimentConfig) -> list[RunSpec]:
        return [
            RunSpec(policy="ESG", scenario=scenario, config=config)
            for scenario in PAPER_SCENARIOS
        ]

    def test_streaming_specs_in_workers_match_materialized_in_process(self):
        materialized = ExperimentEngine(n_jobs=1).run(self._specs(MATERIALIZED))
        streaming_parallel = ExperimentEngine(n_jobs=4).run(self._specs(STREAMING))
        for a, b in zip(materialized, streaming_parallel):
            assert a.summary == b.summary

    def test_spawn_context_reproduces_streaming_summaries(self):
        in_process = ExperimentEngine(n_jobs=1).run(self._specs(STREAMING))
        spawned = ExperimentEngine(n_jobs=2, mp_context="spawn").run(self._specs(STREAMING))
        for a, b in zip(in_process, spawned):
            assert a.summary == b.summary

    def test_summary_only_auto_streams_the_workload(self):
        """summary_only upgrades workers to streaming workloads; summaries
        still equal the full materialized runs."""
        full = ExperimentEngine(n_jobs=1).run(self._specs(MATERIALIZED))
        summary_only = ExperimentEngine(n_jobs=2).run(
            [
                RunSpec(
                    policy="ESG", scenario=scenario, config=MATERIALIZED, summary_only=True
                )
                for scenario in PAPER_SCENARIOS
            ]
        )
        for a, b in zip(full, summary_only):
            assert a.summary == b.summary
            assert b.requests == []
