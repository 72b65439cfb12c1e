"""The discrete-event simulation driver.

:class:`Simulation` wires a workload (a request stream or list), a
scheduling policy and the platform substrate (cluster, controller,
prewarmer, metrics) into one reproducible run and executes events until
every request has completed (or a configurable horizon is reached).
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.cluster.churn import ChurnSchedule
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.controller import Controller, ControllerConfig
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.events import Event, RequestArrivalEvent, SchedulerTickEvent
from repro.cluster.metrics import MetricsCollector, MetricsConfig, RunSummary
from repro.cluster.policy_api import SchedulingContext, SchedulingPolicy
from repro.cluster.prewarm import PrewarmManager
from repro.profiles.configuration import ConfigurationSpace
from repro.profiles.perf_model import (
    AnalyticalPerformanceModel,
    NoisyPerformanceModel,
    PerformanceModel,
)
from repro.profiles.pricing import PricingModel
from repro.profiles.profiler import ProfileStore
from repro.utils.rng import derive_rng
from repro.utils.validation import ensure_non_negative, ensure_positive, ensure_positive_int
from repro.workloads.request import Request
from repro.workloads.stream import ListRequestStream, RequestStream

__all__ = [
    "EventLoop",
    "SimulationConfig",
    "Simulation",
    "SimulationHook",
    "EventHook",
]

#: An observer invoked with only the simulation (progress / horizon hooks).
SimulationHook = Callable[["Simulation"], None]
#: An observer invoked after every handled event.
EventHook = Callable[["Simulation", Event], None]

#: How many arrivals the loop pulls from the workload's RequestStream per
#: refill.  Bounded (the queue holds at most this many pending arrivals on
#: top of in-flight work) but large enough to amortise stream re-entry;
#: non-decreasing arrival times and the arrivals-outrank-ties
#: ``sort_priority`` make the chunked push order-equivalent to pushing
#: every arrival up front.
ARRIVAL_CHUNK = 256


class EventLoop:
    """A split-heap event queue ordered by ``(time_ms, sort_priority, counter)``.

    Ties at one instant break by the event's ``sort_priority``, then by
    insertion order.  The priority rank exists for one reason: request
    arrivals must pop ahead of any other event scheduled for the same
    instant, although the simulator pushes them in chunks mid-run, so a
    run pops the same sequence as if every arrival had been pushed up
    front, even on exact time collisions.

    Housekeeping events (``event.housekeeping``: the churn schedule's
    join/leave/resize events) live in their own heap.  Both heaps draw from
    one shared counter, so always popping the smaller head reproduces the
    pop sequence of a single heap exactly (keys are unique because the
    counter is, so the head comparison never ties).  The split makes the real-only queries
    (:attr:`has_real`, :meth:`peek_real_time`) O(1) list checks: the
    simulator ends a run, and applies the horizon check, on *productive*
    events only.  Without this, a drained workload would be kept "running"
    until the end of its churn schedule.
    """

    __slots__ = ("_real", "_housekeeping", "_counter")

    def __init__(self) -> None:
        self._real: list[tuple[float, int, int, Event]] = []
        self._housekeeping: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> None:
        """Schedule an event (``time_ms`` must be a number >= 0)."""
        time_ms = event.time_ms
        if not time_ms >= 0:
            raise ValueError(f"event time must be >= 0, got {time_ms!r}")
        entry = (time_ms, event.sort_priority, next(self._counter), event)
        if event.housekeeping:
            heapq.heappush(self._housekeeping, entry)
        else:
            heapq.heappush(self._real, entry)

    def push_real(self, event: Event) -> None:
        """Schedule a productive event of the default sort priority.

        For callers whose event times are >= 0 by construction: the same
        entry :meth:`push` makes for such an event, without its time check
        and routing.
        """
        heapq.heappush(self._real, (event.time_ms, 1, next(self._counter), event))

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        real = self._real
        hk = self._housekeeping
        if hk:
            # Counters are globally unique, so comparing the two head
            # 4-tuples never reaches the (incomparable) event payload.
            if real:
                if hk[0] < real[0]:
                    return heapq.heappop(hk)[3]
                return heapq.heappop(real)[3]
            return heapq.heappop(hk)[3]
        if not real:
            raise IndexError("event loop is empty")
        return heapq.heappop(real)[3]

    def peek_time(self) -> float:
        """Time of the earliest pending event."""
        real = self._real
        hk = self._housekeeping
        if real:
            if hk and hk[0] < real[0]:
                return hk[0][0]
            return real[0][0]
        if hk:
            return hk[0][0]
        raise IndexError("event loop is empty")

    def peek_real_time(self) -> float:
        """Time of the earliest pending non-housekeeping event."""
        if not self._real:
            raise IndexError("no productive event is pending")
        return self._real[0][0]

    @property
    def has_real(self) -> bool:
        """True while a non-housekeeping event is pending."""
        return bool(self._real)

    def __len__(self) -> int:
        return len(self._real) + len(self._housekeeping)

    @property
    def empty(self) -> bool:
        """True when no event is pending."""
        return not self._real and not self._housekeeping


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible configuration of one simulated run."""

    seed: int = 42
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    noise_sigma: float = 0.05
    #: Hard stop (ms of simulated time); inf = run until all events drain.
    max_time_ms: float = float("inf")
    #: Safety valve on the number of processed events.
    max_events: int = 5_000_000
    #: How the run's metrics are stored (``"streaming"``, the only mode).
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    #: Optional cluster-churn schedule (timed invoker join/leave/resize
    #: housekeeping events).  ``None`` keeps the paper's static testbed.
    churn: "ChurnSchedule | None" = None

    def __post_init__(self) -> None:
        ensure_non_negative(self.noise_sigma, "noise_sigma")
        ensure_positive(self.max_time_ms, "max_time_ms")
        ensure_positive_int(self.max_events, "max_events")


class Simulation:
    """One run: a policy scheduling a request stream on the emulated cluster.

    The workload is a :class:`~repro.workloads.stream.RequestStream` or a
    ``Sequence[Request]``, which is wrapped once in a
    :class:`~repro.workloads.stream.ListRequestStream` (stable-sorted by
    arrival time).  The simulation pulls the stream *on demand*: at most
    one chunk of :data:`ARRIVAL_CHUNK` arrivals is pending at any time, and
    popping the last one schedules the next chunk.  With the streaming
    metrics collector this bounds the whole run's footprint — no request
    list, no upfront event flood — while popping the same sequence as an
    upfront push would (arrivals outrank same-time events via
    ``Event.sort_priority``).  A stream whose arrivals go backwards raises
    ``ValueError``.

    Every event performs its own state transition: the loop calls
    ``event.apply(simulation)``, so a new event type only has to implement
    :meth:`Event.apply`.  Observers can watch a run without subclassing
    through the hook API (:meth:`on_event`, :meth:`on_progress`,
    :meth:`on_horizon_reached`); to instrument a layer, wrap the method
    of the instance that owns it (``simulation.controller.on_tick``, for
    example).
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        requests: Sequence[Request] | RequestStream,
        profile_store: ProfileStore,
        *,
        config: SimulationConfig | None = None,
        runtime_perf_model: PerformanceModel | None = None,
        transfer_model: DataTransferModel | None = None,
        setting_name: str = "",
    ) -> None:
        stream = requests if isinstance(requests, RequestStream) else ListRequestStream(requests)
        self.config = config or SimulationConfig()
        self.policy = policy
        self.profile_store = profile_store
        self.cluster = ClusterState(config=self.config.cluster)
        self.metrics = MetricsCollector(
            policy_name=policy.name,
            setting_name=setting_name,
            horizon_ms=self.config.max_time_ms,
        )
        self.events = EventLoop()
        self.now_ms = 0.0
        self._tick_scheduled = False
        self._processed_events = 0
        self._truncated = False
        self._event_hooks: list[EventHook] = []
        self._progress_hooks: list[tuple[SimulationHook, int]] = []
        self._horizon_hooks: list[SimulationHook] = []

        if runtime_perf_model is None:
            runtime_perf_model = NoisyPerformanceModel(
                base=AnalyticalPerformanceModel(),
                rng=derive_rng(self.config.seed, "runtime-noise", policy.name),
                sigma=self.config.noise_sigma,
            )
        self.runtime_perf_model = runtime_perf_model
        self.transfer_model = transfer_model or DataTransferModel()

        prewarmer = PrewarmManager(profile_store=profile_store)
        self.controller = Controller(
            policy=policy,
            cluster=self.cluster,
            profile_store=profile_store,
            runtime_perf_model=self.runtime_perf_model,
            pricing=profile_store.pricing,
            metrics=self.metrics,
            events=self.events,
            transfer_model=self.transfer_model,
            config=self.config.controller,
            prewarmer=prewarmer,
        )

        workflows = dict(stream.workflows())
        for workflow in workflows.values():
            self.controller.register_workflow(workflow)
        self.controller.initialize_warm_pool()

        context = SchedulingContext(
            profile_store=profile_store,
            cluster=self.cluster,
            config_space=profile_store.space,
            pricing=profile_store.pricing,
            workflows=workflows,
            transfer_model=self.transfer_model,
        )
        policy.bind(context)

        self._arrival_source: Iterator[list[tuple[float, Request]]] | None = (
            stream.iter_chunks(ARRIVAL_CHUNK)
        )
        self._pending_arrivals = 0
        self._last_arrival_ms = float("-inf")
        if not self._push_arrival_chunk():
            raise ValueError("a simulation needs at least one request")

        # Churn events go in last, at a fixed point of construction, so their
        # tie-break counters sit after the first arrival chunk and before
        # anything emitted mid-run.  Equal-time collisions with arrivals are
        # resolved by sort_priority (arrivals rank 0, churn 1), which also
        # covers the later arrival chunks, pushed mid-run.
        churn = self.config.churn
        if churn is not None:
            self.controller.enable_churn(churn.on_evict)
            for action in churn.actions:
                self.events.push(action.to_event())

    def _push_arrival_chunk(self) -> bool:
        """Pull up to :data:`ARRIVAL_CHUNK` requests and schedule them all.

        The refill, pushed when the previous chunk's last arrival pops.
        Order-equivalent to pushing the whole workload up front: arrivals
        come off the stream in non-decreasing time with equal
        ``sort_priority`` and increasing counters, so every not-yet-due
        arrival sits strictly behind the next due one in the queue and the
        pop sequence is unchanged; the queue simply holds at most one chunk
        of future arrivals.  An arrival earlier than the one pushed before
        it would be handled late, so it raises ``ValueError`` instead.
        Returns False once the stream is exhausted.
        """
        source = self._arrival_source
        if source is None:
            return False
        chunk = next(source, None)
        if not chunk:
            self._arrival_source = None
            return False
        # Inlined ``EventLoop.push``: arrival times are validated finite and
        # non-negative by the Request constructor, and arrivals carry sort
        # priority 0.
        events = self.events
        real = events._real
        counter = events._counter
        heappush = heapq.heappush
        last_ms = self._last_arrival_ms
        for arrival_ms, request in chunk:
            if arrival_ms < last_ms:
                raise ValueError(
                    f"request {request.request_id} arrives at {arrival_ms!r} ms, "
                    f"before the previous arrival at {last_ms!r} ms; a request "
                    "stream must yield arrivals in non-decreasing time"
                )
            last_ms = arrival_ms
            heappush(
                real,
                (
                    arrival_ms,
                    0,
                    next(counter),
                    RequestArrivalEvent(time_ms=arrival_ms, request=request),
                ),
            )
        self._last_arrival_ms = last_ms
        self._pending_arrivals = len(chunk)
        return True

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_event(self, hook: EventHook) -> EventHook:
        """Call ``hook(simulation, event)`` after every handled event."""
        self._event_hooks.append(hook)
        return hook

    def on_progress(self, hook: SimulationHook, *, every_events: int = 1000) -> SimulationHook:
        """Call ``hook(simulation)`` every ``every_events`` processed events."""
        ensure_positive_int(every_events, "every_events")
        self._progress_hooks.append((hook, every_events))
        return hook

    def on_horizon_reached(self, hook: SimulationHook) -> SimulationHook:
        """Call ``hook(simulation)`` once if the run truncates at ``max_time_ms``."""
        self._horizon_hooks.append(hook)
        return hook

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunSummary:
        """Process events until the workload drains; returns the run summary.

        The run stops early — marking the summary ``truncated`` — when the
        next pending event lies beyond ``max_time_ms`` (the event stays in
        the queue and ``now_ms`` never advances past the horizon) or when
        ``max_events`` is exhausted.  Housekeeping events (churn) neither
        keep the run alive nor count toward the horizon: the loop drains
        them only while productive events remain.

        Per-event constant costs are stripped: the split heaps are popped
        inline instead of through :meth:`EventLoop.pop`, and the heap an
        event came from tells whether it is housekeeping; the tick and
        arrival engine invariants are keyed on the event's exact type; hook
        loops are skipped outright while no hooks are registered; and the
        cyclic garbage collector is paused for the duration of the drain —
        the loop allocates and drops large object graphs (jobs, tasks,
        events) that are all acyclic, so collector sweeps only add pauses.
        """
        events = self.events
        config = self.config
        controller = self.controller
        max_events = config.max_events
        max_time_ms = config.max_time_ms
        tick_interval_ms = config.controller.tick_interval_ms
        real = events._real
        housekeeping_heap = events._housekeeping
        heappop = heapq.heappop
        heappush = heapq.heappush
        counter = events._counter
        has_pending_work = controller.has_pending_work

        event_hooks = self._event_hooks
        progress_hooks = self._progress_hooks

        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            processed = self._processed_events
            while real:
                if processed >= max_events:
                    self._truncated = True
                    break
                if real[0][0] > max_time_ms:
                    self._truncated = True
                    for horizon_hook in self._horizon_hooks:
                        horizon_hook(self)
                    break
                if housekeeping_heap and housekeeping_heap[0] < real[0]:
                    event = heappop(housekeeping_heap)[3]
                    housekeeping = True
                else:
                    event = heappop(real)[3]
                    housekeeping = False
                time_ms = event.time_ms
                if time_ms > self.now_ms:
                    self.now_ms = time_ms
                kind = type(event)
                if kind is SchedulerTickEvent:
                    # Engine-owned invariant: the pending tick is consumed the
                    # moment it is popped.
                    self._tick_scheduled = False
                elif kind is RequestArrivalEvent:
                    # Popping the last arrival of a chunk pushes the next
                    # chunk, ahead of anything the arrival itself pushes.
                    self._pending_arrivals -= 1
                    if self._pending_arrivals == 0:
                        self._push_arrival_chunk()
                event.apply(self)
                # Housekeeping events are free: counting them against
                # max_events (or the progress cadence) would let the churn
                # schedule move where a capped run stops.
                if not housekeeping:
                    processed += 1
                    self._processed_events = processed
                if event_hooks:
                    for event_hook in event_hooks:
                        event_hook(self, event)
                if progress_hooks and not housekeeping:
                    for progress_hook, every in progress_hooks:
                        if processed % every == 0:
                            progress_hook(self)
                if not self._tick_scheduled and has_pending_work():
                    self._tick_scheduled = True
                    # Inlined ``events.push_real`` (tick times are never
                    # negative; ticks have the default sort priority).
                    tick_time = self.now_ms + tick_interval_ms
                    heappush(
                        real,
                        (tick_time, 1, next(counter), SchedulerTickEvent(time_ms=tick_time)),
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
        self.metrics.truncated = self._truncated
        return self.metrics.summary()

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------
    @property
    def processed_events(self) -> int:
        """Number of productive (non-housekeeping) events handled so far."""
        return self._processed_events

    @property
    def truncated(self) -> bool:
        """True when the run stopped at the horizon or the event cap."""
        return self._truncated

    def config_space(self) -> ConfigurationSpace:
        """The configuration space the run uses."""
        return self.profile_store.space

    def pricing(self) -> PricingModel:
        """The pricing model the run uses."""
        return self.profile_store.pricing
