"""Event-driven container expiry: boundary, racing and staleness edges.

Containers expire through
:class:`~repro.cluster.events.ContainerExpireEvent` timers with lazy
cancellation, plus the controller's tick-time drain.  These tests pin the
edge semantics: expiry exactly at the keep-alive boundary, busy->warm
transitions racing a stale expiry event, and a capped run whose containers
expire mid-run.  Whole runs with an 80 ms and a 2 ms keep-alive are golden
cells (``tests/golden/lattice/esg-paper-moderate-normal-warm-home-ka*``).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.container import Container, ContainerState
from repro.cluster.controller import ControllerConfig
from repro.cluster.events import ContainerExpireEvent, SchedulerTickEvent
from repro.cluster.simulator import EventLoop, Simulation, SimulationConfig
from repro.experiments.runner import (
    ExperimentConfig,
    build_requests,
    make_policy,
    run_experiment,
)
from repro.profiles.profiler import ProfileStore


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore.build()


def warm_container(keep_alive_ms: float = 100.0) -> Container:
    cluster = ClusterState(config=ClusterConfig(num_invokers=1, keep_alive_ms=keep_alive_ms))
    return cluster.invoker(0).create_warm_container("classification", 0.0)


class TestExpiryBoundary:
    def test_expiry_exactly_at_the_keep_alive_boundary(self):
        container = warm_container(keep_alive_ms=100.0)
        event = ContainerExpireEvent(time_ms=container.expires_at_ms, container=container)
        assert event.time_ms == 100.0
        # At the boundary the container is already non-resident for queries
        # (``now >= expires_at`` expires) ...
        assert container.is_warm_idle(99.999)
        assert not container.is_warm_idle(100.0)
        # ... and the event firing at exactly that time stops it.
        event.apply(None)
        assert container.state is ContainerState.STOPPED

    def test_event_is_housekeeping(self):
        container = warm_container()
        event = ContainerExpireEvent(time_ms=container.expires_at_ms, container=container)
        assert event.housekeeping
        assert not SchedulerTickEvent(time_ms=0.0).housekeeping


class TestStaleExpiryEvents:
    def test_busy_transition_races_a_pending_expiry_event(self):
        container = warm_container(keep_alive_ms=100.0)
        stale = ContainerExpireEvent(time_ms=container.expires_at_ms, container=container)
        # A task grabs the container before the timer elapses: the armed
        # deadline is cleared, so the stale event must be a no-op.
        container.assign_task()
        stale.apply(None)
        assert container.state is ContainerState.BUSY
        # busy -> warm re-arms a fresh deadline relative to the release time.
        container.release_task(40.0, 100.0)
        assert container.expires_at_ms == 140.0
        stale.apply(None)  # still stale: 100.0 != 140.0
        assert container.state is ContainerState.WARM
        fresh = ContainerExpireEvent(time_ms=container.expires_at_ms, container=container)
        fresh.apply(None)
        assert container.state is ContainerState.STOPPED

    def test_rearmed_keep_alive_outlives_the_original_deadline(self):
        container = warm_container(keep_alive_ms=100.0)
        stale = ContainerExpireEvent(time_ms=container.expires_at_ms, container=container)
        container.mark_warm(50.0, 100.0)  # re-armed: expires at 150 now
        stale.apply(None)
        assert container.state is ContainerState.WARM

    def test_event_on_stopped_container_is_a_no_op(self):
        container = warm_container(keep_alive_ms=100.0)
        event = ContainerExpireEvent(time_ms=container.expires_at_ms, container=container)
        container.mark_stopped()
        event.apply(None)  # no raise, no resurrection
        assert container.state is ContainerState.STOPPED


class TestHousekeepingEventLoop:
    def test_housekeeping_events_do_not_keep_the_loop_alive(self):
        loop = EventLoop()
        container = warm_container()
        loop.push(ContainerExpireEvent(time_ms=600.0, container=container))
        assert not loop.has_real
        assert not loop.empty
        loop.push(SchedulerTickEvent(time_ms=5.0))
        assert loop.has_real
        assert loop.peek_real_time() == 5.0
        assert loop.pop().time_ms == 5.0  # global order: tick first
        assert not loop.has_real

    def test_pop_interleaves_housekeeping_in_time_order(self):
        loop = EventLoop()
        container = warm_container()
        loop.push(SchedulerTickEvent(time_ms=10.0))
        loop.push(ContainerExpireEvent(time_ms=4.0, container=container))
        assert loop.peek_time() == 4.0
        assert loop.peek_real_time() == 10.0
        assert isinstance(loop.pop(), ContainerExpireEvent)
        assert isinstance(loop.pop(), SchedulerTickEvent)


class TestWholeRunEquivalence:
    """Runs whose containers expire mid-simulation."""

    def test_max_events_cap_binds_on_productive_events_only(self, store):
        # Housekeeping expiry events must not consume the max_events budget,
        # or the timers would move where a capped run stops.  The expected
        # values are those of the run before event-driven expiry replaced
        # the per-tick sweep (which had no housekeeping events at all).
        sim = Simulation(
            policy=make_policy("ESG"),
            requests=build_requests("moderate-normal", 8, 3, store),
            profile_store=store,
            config=SimulationConfig(
                cluster=ClusterConfig(keep_alive_ms=80.0),
                controller=ControllerConfig(initial_warm="home"),
                max_events=120,
            ),
            setting_name="moderate-normal",
        )
        summary = sim.run()
        assert sim.processed_events == 120
        assert summary.truncated  # the cap genuinely bound
        assert (summary.num_completed, summary.cold_starts, summary.warm_starts) == (5, 10, 12)
        assert (summary.local_transfers, summary.remote_transfers) == (10, 12)
        assert summary.total_cost_cents == 9.174021587622644
        assert summary.mean_latency_ms == 12343.902076316648
        assert summary.total_vgpu_ms == 444310.52065099176

    def test_expiry_timers_do_not_trip_the_horizon(self, store):
        # Horizon far below the keep-alive: pending expiry timers beyond the
        # horizon must not mark a drained run truncated (scan mode has no
        # such events, so parity requires ignoring them).
        config = ExperimentConfig(
            num_requests=4,
            cluster=ClusterConfig(keep_alive_ms=600_000.0),
            controller=ControllerConfig(initial_warm="all"),
            max_time_ms=50_000.0,
        )
        summary = run_experiment("ESG", "moderate-normal", config=config, profile_store=store).summary
        assert summary.num_completed == summary.num_requests
        assert not summary.truncated


class TestIndexedSimulationExpires:
    def test_containers_actually_stop_during_an_indexed_run(self, store):
        requests = build_requests("moderate-normal", 10, 5, store)
        sim = Simulation(
            policy=make_policy("ESG"),
            requests=requests,
            profile_store=store,
            config=SimulationConfig(
                cluster=ClusterConfig(keep_alive_ms=60.0),
                controller=ControllerConfig(initial_warm="all"),
            ),
            setting_name="moderate-normal",
        )
        # The initial warm pool: every function on every invoker.
        initial = [
            container
            for invoker in sim.cluster
            for fn in store.function_names()
            for container in invoker.containers_for(fn)
        ]
        assert initial
        sim.run()
        stopped = sum(1 for c in initial if c.state is ContainerState.STOPPED)
        assert stopped > 0
