"""Container keep-alive expiry: boundary, racing and staleness edges.

An idle warm container arms its keep-alive deadline once, on the
controller's expiry heap; the tick-time drain calls
:meth:`~repro.cluster.container.Container.expire` with that deadline, and
a stale deadline (the container was re-armed, went busy or was stopped) is
a no-op.  Between ticks :meth:`Container.is_resident` already reads an
expired container as gone.  These tests pin the edge semantics: expiry
exactly at the keep-alive boundary, busy->warm transitions racing a stale
deadline, capped and horizon-bounded runs, and an event queue that does
not grow with the keep-alive.  Whole runs with an 80 ms and a 2 ms
keep-alive are golden cells
(``tests/golden/lattice/esg-paper-moderate-normal-warm-home-ka*``).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.container import Container, ContainerState
from repro.cluster.controller import ControllerConfig
from repro.cluster.events import InvokerResizeEvent, SchedulerTickEvent
from repro.cluster.simulator import EventLoop, Simulation, SimulationConfig
from repro.experiments.runner import ExperimentConfig, make_policy, run_experiment
from repro.profiles.profiler import ProfileStore
from repro.workloads.scenarios import get_scenario


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore.build()


def warm_container(keep_alive_ms: float = 100.0) -> Container:
    cluster = ClusterState(config=ClusterConfig(num_invokers=1, keep_alive_ms=keep_alive_ms))
    return cluster.invoker(0).create_warm_container("classification", 0.0)


def paper_requests(num_requests: int, seed: int, store: ProfileStore):
    return get_scenario("paper-moderate-normal").build_requests(num_requests, seed, store)


class TestExpiryBoundary:
    def test_expiry_exactly_at_the_keep_alive_boundary(self):
        container = warm_container(keep_alive_ms=100.0)
        deadline = container.expires_at_ms
        assert deadline == 100.0
        # At the boundary the container is already non-resident for queries
        # (``now >= expires_at`` expires) ...
        assert container.is_warm_idle(99.999)
        assert not container.is_warm_idle(100.0)
        # ... and expiring at exactly that deadline stops it.
        container.expire(deadline)
        assert container.state is ContainerState.STOPPED

    def test_churn_events_are_the_housekeeping_events(self):
        assert InvokerResizeEvent(time_ms=0.0, invoker_id=0, vcpus=1, vgpus=1).housekeeping
        assert not SchedulerTickEvent(time_ms=0.0).housekeeping


class TestStaleDeadlines:
    def test_busy_transition_races_a_pending_deadline(self):
        container = warm_container(keep_alive_ms=100.0)
        stale = container.expires_at_ms
        # A task grabs the container before the deadline: the armed
        # deadline is cleared, so expiring at the stale one is a no-op.
        container.assign_task()
        container.expire(stale)
        assert container.state is ContainerState.BUSY
        # busy -> warm re-arms a fresh deadline relative to the release time.
        container.release_task(40.0, 100.0)
        assert container.expires_at_ms == 140.0
        container.expire(stale)  # still stale: 100.0 != 140.0
        assert container.state is ContainerState.WARM
        container.expire(container.expires_at_ms)
        assert container.state is ContainerState.STOPPED

    def test_rearmed_keep_alive_outlives_the_original_deadline(self):
        container = warm_container(keep_alive_ms=100.0)
        stale = container.expires_at_ms
        container.mark_warm(50.0, 100.0)  # re-armed: expires at 150 now
        container.expire(stale)
        assert container.state is ContainerState.WARM

    def test_expiring_a_stopped_container_is_a_no_op(self):
        container = warm_container(keep_alive_ms=100.0)
        deadline = container.expires_at_ms
        container.mark_stopped()
        container.expire(deadline)  # no raise, no resurrection
        assert container.state is ContainerState.STOPPED


class TestHousekeepingEventLoop:
    @staticmethod
    def resize(time_ms: float) -> InvokerResizeEvent:
        return InvokerResizeEvent(time_ms=time_ms, invoker_id=0, vcpus=4, vgpus=2)

    def test_housekeeping_events_do_not_keep_the_loop_alive(self):
        loop = EventLoop()
        loop.push(self.resize(600.0))
        assert not loop.has_real
        assert not loop.empty
        loop.push(SchedulerTickEvent(time_ms=5.0))
        assert loop.has_real
        assert loop.peek_real_time() == 5.0
        assert loop.pop().time_ms == 5.0  # global order: tick first
        assert not loop.has_real

    def test_pop_interleaves_housekeeping_in_time_order(self):
        loop = EventLoop()
        loop.push(SchedulerTickEvent(time_ms=10.0))
        loop.push(self.resize(4.0))
        assert loop.peek_time() == 4.0
        assert loop.peek_real_time() == 10.0
        assert isinstance(loop.pop(), InvokerResizeEvent)
        assert isinstance(loop.pop(), SchedulerTickEvent)


class TestWholeRuns:
    """Runs whose containers expire mid-simulation."""

    def test_max_events_cap_binds_on_productive_events_only(self, store):
        # Pinned values: keep-alive expiry must not move where a capped run
        # stops (only productive events count toward max_events).
        sim = Simulation(
            policy=make_policy("ESG"),
            requests=paper_requests(8, 3, store),
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

    def test_pending_deadlines_do_not_trip_the_horizon(self, store):
        # Horizon far below the keep-alive: deadlines armed beyond the
        # horizon must not mark a drained run truncated.
        config = ExperimentConfig(
            num_requests=4,
            cluster=ClusterConfig(keep_alive_ms=600_000.0),
            controller=ControllerConfig(initial_warm="all"),
            max_time_ms=50_000.0,
        )
        summary = run_experiment(
            "ESG", "paper-moderate-normal", config=config, profile_store=store
        ).summary
        assert summary.num_completed == summary.num_requests
        assert not summary.truncated

    def test_containers_actually_stop_during_a_run(self, store):
        sim = Simulation(
            policy=make_policy("ESG"),
            requests=paper_requests(10, 5, store),
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

    def test_pending_events_do_not_grow_with_the_keep_alive(self, store):
        """Keep-alive deadlines live on the controller's heap alone.

        In a run short of the default 10-minute keep-alive no container
        expires, so it schedules exactly like a run whose containers never
        expire; the event queue holds the same events at every step, with
        no timer per idle transition on top.
        """
        def peak_pending(keep_alive_ms: float) -> tuple[int, object]:
            sim = Simulation(
                policy=make_policy("ESG"),
                requests=paper_requests(200, 42, store),
                profile_store=store,
                config=SimulationConfig(
                    cluster=ClusterConfig(keep_alive_ms=keep_alive_ms),
                    controller=ControllerConfig(initial_warm="all"),
                ),
                setting_name="moderate-normal",
            )
            sizes = [len(sim.events)]
            sim.on_event(lambda simulation, event: sizes.append(len(simulation.events)))
            return max(sizes), sim.run()

        default_peak, default_summary = peak_pending(600_000.0)
        never_peak, never_summary = peak_pending(float("inf"))
        assert default_summary == never_summary
        assert default_peak == never_peak
