"""Tests for the event types, the event loop and the simulation driver."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import pytest

from repro.cluster import simulator
from repro.cluster.controller import ControllerConfig
from repro.cluster.events import (
    Event,
    RequestArrivalEvent,
    SchedulerTickEvent,
)
from repro.cluster.simulator import EventLoop, Simulation, SimulationConfig
from repro.experiments.runner import EXPERIMENT_SPACE, build_profile_store, make_policy
from repro.workloads.applications import image_classification
from repro.workloads.request import Request
from repro.workloads.scenarios import get_scenario
from repro.workloads.stream import RequestStream

#: The paper's moderate-normal workload, the requests these tests replay.
PAPER = get_scenario("paper-moderate-normal")


def make_request(arrival_ms: float = 0.0) -> Request:
    return Request(
        request_id=0, workflow=image_classification(), arrival_ms=arrival_ms, slo_ms=1000.0
    )


class TestEvents:
    @pytest.mark.parametrize("time_ms", [-1.0, float("nan")])
    def test_negative_or_nan_time_rejected_at_push(self, time_ms):
        # Events are slotted and validation-free per instance; the
        # ``time_ms >= 0`` invariant is enforced once at the scheduling
        # boundary.  NaN compares false both ways, so it must be caught too.
        with pytest.raises(ValueError, match="event time must be >= 0"):
            EventLoop().push(SchedulerTickEvent(time_ms=time_ms))

    def test_arrival_event_holds_request(self):
        request = make_request(5.0)
        event = RequestArrivalEvent(time_ms=5.0, request=request)
        assert event.request is request
        assert isinstance(event, Event)


class TestEventLoop:
    def test_pops_in_time_order(self):
        loop = EventLoop()
        loop.push(SchedulerTickEvent(time_ms=30.0))
        loop.push(SchedulerTickEvent(time_ms=10.0))
        loop.push(SchedulerTickEvent(time_ms=20.0))
        times = [loop.pop().time_ms for _ in range(3)]
        assert times == [10.0, 20.0, 30.0]

    def test_ties_broken_by_insertion_order(self):
        loop = EventLoop()
        first = RequestArrivalEvent(time_ms=5.0, request=make_request())
        second = SchedulerTickEvent(time_ms=5.0)
        loop.push(first)
        loop.push(second)
        assert loop.pop() is first
        assert loop.pop() is second

    def test_len_and_empty(self):
        loop = EventLoop()
        assert loop.empty
        loop.push(SchedulerTickEvent(time_ms=1.0))
        assert len(loop) == 1
        assert not loop.empty
        loop.pop()
        assert loop.empty

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventLoop().pop()

    def test_peek_time(self):
        loop = EventLoop()
        loop.push(SchedulerTickEvent(time_ms=42.0))
        assert loop.peek_time() == 42.0
        with pytest.raises(IndexError):
            EventLoop().peek_time()

    def test_peek_does_not_consume(self):
        loop = EventLoop()
        loop.push(SchedulerTickEvent(time_ms=7.0))
        assert loop.peek_time() == 7.0
        assert len(loop) == 1
        assert loop.pop().time_ms == 7.0


class TestEventLoopDeterminism:
    """The event loop must be a deterministic total order: time, then FIFO."""

    def test_fifo_preserved_among_many_equal_times(self):
        loop = EventLoop()
        events = [RequestArrivalEvent(time_ms=5.0, request=make_request(5.0)) for _ in range(10)]
        for event in events:
            loop.push(event)
        assert [loop.pop() for _ in range(10)] == events

    def test_heap_order_under_interleaved_pushes_and_pops(self):
        loop = EventLoop()
        loop.push(SchedulerTickEvent(time_ms=30.0))
        loop.push(SchedulerTickEvent(time_ms=10.0))
        assert loop.pop().time_ms == 10.0
        loop.push(SchedulerTickEvent(time_ms=5.0))
        loop.push(SchedulerTickEvent(time_ms=20.0))
        assert loop.pop().time_ms == 5.0
        loop.push(SchedulerTickEvent(time_ms=15.0))
        assert [loop.pop().time_ms for _ in range(3)] == [15.0, 20.0, 30.0]

    def test_ties_stay_fifo_across_interleaved_pops(self):
        loop = EventLoop()
        first = SchedulerTickEvent(time_ms=5.0)
        second = SchedulerTickEvent(time_ms=5.0)
        loop.push(first)
        loop.push(SchedulerTickEvent(time_ms=1.0))
        loop.push(second)
        assert loop.pop().time_ms == 1.0
        third = SchedulerTickEvent(time_ms=5.0)
        loop.push(third)
        assert loop.pop() is first
        assert loop.pop() is second
        assert loop.pop() is third

    def test_two_identically_fed_loops_drain_identically(self):
        feed = [30.0, 10.0, 10.0, 20.0, 10.0, 30.0]
        drains = []
        for _ in range(2):
            loop = EventLoop()
            events = [SchedulerTickEvent(time_ms=t) for t in feed]
            for event in events:
                loop.push(event)
            drains.append([loop.pop() for _ in range(len(events))])
        assert drains[0] == drains[1]
        assert [e.time_ms for e in drains[0]] == sorted(feed)


# ----------------------------------------------------------------------
# Simulation driver: dispatch, hooks and the horizon
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_store():
    return build_profile_store(EXPERIMENT_SPACE)


def make_simulation(sim_store, **config_kwargs) -> Simulation:
    requests = PAPER.build_requests(6, 3, sim_store)
    config = SimulationConfig(
        seed=3, controller=ControllerConfig(initial_warm="all"), **config_kwargs
    )
    return Simulation(
        policy=make_policy("ESG"),
        requests=requests,
        profile_store=sim_store,
        config=config,
        setting_name="moderate-normal",
    )


class TestHorizonTruncation:
    def test_untruncated_run_drains_all_productive_events(self, sim_store):
        simulation = make_simulation(sim_store)
        summary = simulation.run()
        assert not summary.truncated
        assert not simulation.truncated
        # Every productive event drains; only housekeeping events (the
        # containers' keep-alive expiry timers) may remain queued.
        assert not simulation.events.has_real
        assert summary.num_completed == summary.num_requests

    def test_horizon_stops_the_clock_and_keeps_the_crossing_event(self, sim_store):
        full = make_simulation(sim_store).run()
        horizon_ms = full.mean_latency_ms  # well inside the busy part of the run
        simulation = make_simulation(sim_store, max_time_ms=horizon_ms)
        hook_calls: list[float] = []
        simulation.on_horizon_reached(lambda sim: hook_calls.append(sim.now_ms))
        summary = simulation.run()

        assert summary.truncated
        assert simulation.truncated
        # The clock never advances past the horizon ...
        assert simulation.now_ms <= horizon_ms
        # ... and the event that crosses it stays queued instead of being lost.
        assert not simulation.events.empty
        assert simulation.events.peek_time() > horizon_ms
        assert summary.num_completed < summary.num_requests
        assert hook_calls == [simulation.now_ms]

    def test_max_events_cap_marks_truncated(self, sim_store):
        simulation = make_simulation(sim_store, max_events=3)
        summary = simulation.run()
        assert summary.truncated
        assert simulation.processed_events == 3


class TestSimulationHooks:
    def test_event_and_progress_hooks_fire(self, sim_store):
        simulation = make_simulation(sim_store)
        seen_events: list[Event] = []
        progress_ticks: list[int] = []
        simulation.on_event(lambda sim, event: seen_events.append(event))
        simulation.on_progress(
            lambda sim: progress_ticks.append(sim.processed_events), every_events=10
        )
        summary = simulation.run()
        assert len(seen_events) == simulation.processed_events
        assert isinstance(seen_events[0], RequestArrivalEvent)
        assert progress_ticks == list(range(10, simulation.processed_events + 1, 10))
        assert not summary.truncated

    @pytest.mark.parametrize(
        "every_events, error",
        [(0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError)],
    )
    def test_progress_hook_rejects_nonpositive_interval(self, sim_store, every_events, error):
        simulation = make_simulation(sim_store)
        with pytest.raises(error, match="every_events"):
            simulation.on_progress(lambda sim: None, every_events=every_events)
        assert simulation.run().num_completed > 0  # the rejected hook never fires


@dataclass(frozen=True)
class ProbeEvent(Event):
    """A custom event type exercising the open dispatch path."""

    def apply(self, simulation: Simulation) -> None:
        simulation.probe_applied = True  # type: ignore[attr-defined]


@dataclass(frozen=True)
class OpaqueEvent(Event):
    """A custom event with no apply() and no registered handler."""


class TestEventDispatch:
    def test_unknown_event_type_dispatches_via_apply(self, sim_store):
        simulation = make_simulation(sim_store)
        simulation.probe_applied = False
        simulation.events.push(ProbeEvent(time_ms=0.0))
        simulation.run()
        assert simulation.probe_applied

    def test_event_without_apply_raises(self, sim_store):
        simulation = make_simulation(sim_store)
        simulation.events.push(OpaqueEvent(time_ms=0.0))
        with pytest.raises(NotImplementedError, match="OpaqueEvent does not implement apply"):
            simulation.run()


class TestInstrumentingByWrapping:
    """A run is instrumented by wrapping the owner's method on the instance.

    Every core event's ``apply`` calls its owner through the simulation
    (``simulation.controller.on_tick(...)``), so a wrapper installed on the
    controller instance sees every call, and a wrapper that forwards leaves
    the run unchanged.
    """

    def _make_simulation(self, store):
        requests = PAPER.build_requests(8, 3, store)
        return Simulation(
            policy=make_policy("ESG"),
            requests=requests,
            profile_store=store,
            config=SimulationConfig(seed=3),
            setting_name="moderate-normal",
        )

    def _wrap(self, owner, name: str, calls: list[float]) -> None:
        inner = getattr(owner, name)

        def counting(*args):
            calls.append(args[-1])
            return inner(*args)

        setattr(owner, name, counting)

    def test_arrival_wrapper_sees_every_arrival(self, sim_store):
        baseline = self._make_simulation(sim_store).run()
        instrumented = self._make_simulation(sim_store)
        seen: list[float] = []
        self._wrap(instrumented.controller, "on_request_arrival", seen)
        summary = instrumented.run()
        assert len(seen) == summary.num_requests
        assert asdict(summary) == asdict(baseline)

    def test_tick_wrapper_sees_every_tick(self, sim_store):
        baseline = self._make_simulation(sim_store).run()
        instrumented = self._make_simulation(sim_store)
        ticks: list[float] = []
        self._wrap(instrumented.controller, "on_tick", ticks)
        popped: list[float] = []
        instrumented.on_event(
            lambda sim, event: popped.append(event.time_ms)
            if isinstance(event, SchedulerTickEvent)
            else None
        )
        summary = instrumented.run()
        assert ticks and ticks == popped
        assert asdict(summary) == asdict(baseline)

    def test_completion_wrapper_sees_every_task(self, sim_store):
        baseline = self._make_simulation(sim_store).run()
        instrumented = self._make_simulation(sim_store)
        finished: list[float] = []
        self._wrap(instrumented.controller, "on_task_completion", finished)
        summary = instrumented.run()
        assert len(finished) == summary.cold_starts + summary.warm_starts
        assert asdict(summary) == asdict(baseline)


# ----------------------------------------------------------------------
# The arrival stream: chunked refill, arrival order, empty workloads
# ----------------------------------------------------------------------
class ListedStream(RequestStream):
    """Yields the given requests in the given order, sorted or not."""

    def __init__(self, requests) -> None:
        self._requests = list(requests)

    def __iter__(self):
        return ((request.arrival_ms, request) for request in self._requests)

    def workflows(self):
        return {request.app_name: request.workflow for request in self._requests}


def pending_arrivals(simulation: Simulation) -> int:
    return sum(isinstance(entry[3], RequestArrivalEvent) for entry in simulation.events._real)


class TestArrivalStream:
    def _simulation(self, store, workload, policy: str = "ESG") -> Simulation:
        return Simulation(
            policy=make_policy(policy),
            requests=workload,
            profile_store=store,
            config=SimulationConfig(seed=3),
            setting_name="moderate-normal",
        )

    @pytest.mark.parametrize("kind", ["list", "stream"])
    def test_pending_arrivals_never_exceed_one_chunk(self, sim_store, monkeypatch, kind):
        """The queue holds at most ARRIVAL_CHUNK arrivals, however long the
        workload: the next chunk is pulled only when the last one fires."""
        monkeypatch.setattr(simulator, "ARRIVAL_CHUNK", 4)
        build = PAPER.build_requests if kind == "list" else PAPER.build_stream
        simulation = self._simulation(sim_store, build(120, 42, sim_store))
        peaks = [pending_arrivals(simulation)]
        simulation.on_event(lambda sim, event: peaks.append(pending_arrivals(sim)))
        summary = simulation.run()
        assert summary.num_completed == summary.num_requests == 120
        assert max(peaks) == 4

    def test_every_arrival_is_handled_once_at_its_time(self, sim_store, monkeypatch):
        monkeypatch.setattr(simulator, "ARRIVAL_CHUNK", 4)
        requests = PAPER.build_requests(30, 7, sim_store)
        simulation = self._simulation(sim_store, requests, policy="INFless")
        handled: list[tuple[int, float]] = []

        @simulation.on_event
        def watch(sim, event):
            if isinstance(event, RequestArrivalEvent):
                handled.append((event.request.request_id, sim.now_ms))

        summary = simulation.run()
        assert summary.num_completed == summary.num_requests == 30
        assert handled == [(r.request_id, r.arrival_ms) for r in requests]

    @pytest.mark.parametrize("order", ["reversed", "swapped-across-chunks"])
    def test_backwards_stream_raises(self, sim_store, monkeypatch, order):
        """An arrival earlier than the one before it would be handled late;
        the simulation refuses it, at construction or mid-run."""
        monkeypatch.setattr(simulator, "ARRIVAL_CHUNK", 2)
        requests = PAPER.build_requests(8, 3, sim_store)
        if order == "reversed":
            listed, before, early = requests[::-1], requests[7], requests[6]
        else:
            listed = [requests[0], requests[2], requests[1], *requests[3:]]
            before, early = requests[2], requests[1]
        with pytest.raises(ValueError, match="non-decreasing") as excinfo:
            self._simulation(sim_store, ListedStream(listed)).run()
        message = str(excinfo.value)
        assert f"request {early.request_id} arrives at {early.arrival_ms!r} ms" in message
        assert f"previous arrival at {before.arrival_ms!r} ms" in message

    def test_explicit_list_is_replayed_in_arrival_order(self, sim_store):
        ordered = self._simulation(sim_store, PAPER.build_requests(12, 3, sim_store))
        backwards = PAPER.build_requests(12, 3, sim_store)[::-1]
        assert asdict(self._simulation(sim_store, backwards).run()) == asdict(ordered.run())

    @pytest.mark.parametrize("workload", [[], ListedStream([])], ids=["list", "stream"])
    def test_empty_workload_rejected(self, sim_store, workload):
        with pytest.raises(ValueError, match="at least one request"):
            self._simulation(sim_store, workload)
