"""The discrete-event simulation driver.

:class:`Simulation` wires a workload (a list of requests), a scheduling
policy and the platform substrate (cluster, controller, prewarmer, metrics)
into one reproducible run and executes events until every request has
completed (or a configurable horizon is reached).
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

from repro.cluster.churn import ChurnSchedule
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.controller import Controller, ControllerConfig
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.container import ContainerState
from repro.cluster.events import (
    ContainerExpireEvent,
    Event,
    PrewarmCompleteEvent,
    RequestArrivalEvent,
    SchedulerTickEvent,
    TaskCompletionEvent,
)
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
from repro.utils.validation import ensure_non_negative
from repro.workloads.dag import Workflow
from repro.workloads.request import Request
from repro.workloads.stream import RequestStream

__all__ = [
    "LOOP_MODES",
    "EventLoop",
    "FastEventLoop",
    "SimulationConfig",
    "Simulation",
    "EventHandler",
    "SimulationHook",
    "EventHook",
]

#: A registered event handler: receives the simulation and the event.
EventHandler = Callable[["Simulation", Event], None]
#: An observer invoked with only the simulation (progress / horizon hooks).
SimulationHook = Callable[["Simulation"], None]
#: An observer invoked after every handled event.
EventHook = Callable[["Simulation", Event], None]

#: Event-loop implementations accepted by :class:`SimulationConfig`:
#: ``"fast"`` (default) runs the split-heap queue, cached handler dispatch
#: and chunked arrival pulls; ``"compat"`` keeps the original single-heap
#: loop as the byte-identity parity anchor (same discipline as
#: ``ClusterConfig.index_mode="scan"``).  Summaries are byte-identical.
LOOP_MODES = ("fast", "compat")

#: How many arrivals the fast loop pulls from a RequestStream per refill.
#: Bounded (the queue holds at most this many pending arrivals on top of
#: in-flight work) but large enough to amortise stream re-entry; relative
#: arrival order and the arrivals-outrank-ties ``sort_priority`` make the
#: chunked push order-equivalent to the one-pending-arrival compat scheme.
ARRIVAL_CHUNK = 256


class EventLoop:
    """A min-heap of events ordered by time (ties broken by the event's
    ``sort_priority``, then insertion order).

    The priority rank exists for one reason: request arrivals must pop
    ahead of any other event scheduled for the same instant, whether they
    were pushed up front (materialized workloads push every arrival before
    the run starts, so their insertion order alone used to guarantee this)
    or lazily mid-run (streaming workloads push arrival *k+1* only when
    arrival *k* fires).  Making the rank part of the key keeps the two
    scheduling styles byte-identical even on exact time collisions.

    Housekeeping events (``event.housekeeping``, e.g. container-expiry
    timers) are tracked separately: they are popped in global time order
    like any other event, but the loop exposes :attr:`has_real` /
    :meth:`peek_real_time` so the simulator can end a run — and apply the
    horizon check — based only on *productive* events.  Without this, a
    drained workload would be kept "running" for ten more simulated minutes
    of keep-alive timers.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Mirror heap of the (time, priority, counter) keys of
        #: non-housekeeping events.  ``None`` until the first housekeeping
        #: event is pushed: a run that never schedules expiry timers (scan
        #: mode) never pays for the mirror at all, and while every pending
        #: event is real the main heap answers the real-only queries
        #: directly.
        self._real_keys: list[tuple[float, int, int]] | None = None
        self._counter = itertools.count()

    def push(self, event: Event) -> None:
        """Schedule an event (``time_ms`` must be non-negative)."""
        time_ms = event.time_ms
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        key = (time_ms, event.sort_priority, next(self._counter))
        if event.housekeeping and self._real_keys is None:
            # First housekeeping event: materialize the mirror from the
            # current heap, which at this point holds only real events.
            # Projecting each 4-tuple entry to its unique 3-tuple key
            # preserves the heap invariant, so no re-heapify is needed.
            self._real_keys = [entry[:3] for entry in self._heap]
        heapq.heappush(self._heap, (*key, event))
        if self._real_keys is not None and not event.housekeeping:
            heapq.heappush(self._real_keys, key)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("event loop is empty")
        time_ms, priority, counter, event = heapq.heappop(self._heap)
        if self._real_keys is not None and not event.housekeeping:
            # The popped event is the global minimum, so when it is a real
            # event it is also the minimum of the real-key mirror heap.
            heapq.heappop(self._real_keys)
        return event

    def peek_time(self) -> float:
        """Time of the earliest pending event."""
        if not self._heap:
            raise IndexError("event loop is empty")
        return self._heap[0][0]

    def peek_real_time(self) -> float:
        """Time of the earliest pending non-housekeeping event."""
        if self._real_keys is None:
            if not self._heap:
                raise IndexError("no productive event is pending")
            return self._heap[0][0]
        if not self._real_keys:
            raise IndexError("no productive event is pending")
        return self._real_keys[0][0]

    @property
    def has_real(self) -> bool:
        """True while a non-housekeeping event is pending."""
        if self._real_keys is None:
            return bool(self._heap)
        return bool(self._real_keys)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        """True when no event is pending."""
        return not self._heap


class FastEventLoop:
    """Split-heap event queue: the ``loop_mode="fast"`` implementation.

    Totally order-equivalent to :class:`EventLoop`: both order events by
    ``(time_ms, sort_priority, counter)`` with a single shared counter, so
    interleaving two heaps — one for productive events, one for
    housekeeping timers — and always popping the smaller head reproduces
    the single-heap pop sequence exactly (keys are unique because the
    counter is, so the head comparison never ties).  The split removes the
    compat loop's mirror-heap double bookkeeping and makes the real-only
    queries (:attr:`has_real`, :meth:`peek_real_time`) O(1) list checks.
    """

    __slots__ = ("_real", "_housekeeping", "_counter")

    def __init__(self) -> None:
        self._real: list[tuple[float, int, int, Event]] = []
        self._housekeeping: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> None:
        """Schedule an event (``time_ms`` must be non-negative)."""
        time_ms = event.time_ms
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        entry = (time_ms, event.sort_priority, next(self._counter), event)
        if event.housekeeping:
            heapq.heappush(self._housekeeping, entry)
        else:
            heapq.heappush(self._real, entry)

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
    #: How the run's metrics are stored: retained object lists (default) or
    #: streaming per-app accumulators.  Summaries are byte-identical.
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    #: Event-loop implementation: ``"fast"`` (split-heap queue, cached
    #: dispatch, chunked arrival pulls, memoized hot-path lookups) or
    #: ``"compat"`` (the original loop, kept as the parity anchor).
    #: Summaries are byte-identical.
    loop_mode: str = "fast"
    #: Optional cluster-churn schedule (timed invoker join/leave/resize
    #: housekeeping events).  ``None`` keeps the paper's static testbed.
    churn: "ChurnSchedule | None" = None

    def __post_init__(self) -> None:
        ensure_non_negative(self.noise_sigma, "noise_sigma")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.loop_mode not in LOOP_MODES:
            raise ValueError(
                f"loop_mode must be one of {LOOP_MODES}, got {self.loop_mode!r}"
            )


class Simulation:
    """One run: a policy scheduling a request stream on the emulated cluster.

    The workload is either a materialized ``Sequence[Request]`` (every
    arrival event pre-registered up front — the default, debuggable path)
    or a lazy :class:`~repro.workloads.stream.RequestStream`, which the
    simulation pulls *on demand*: exactly one arrival event is pending at
    any time, and popping it schedules the next one from the stream.  With
    a streaming metrics collector this bounds the whole run's footprint —
    no request list, no upfront event flood — while remaining
    byte-identical to the materialized run (arrivals outrank same-time
    events via ``Event.sort_priority``, mirroring the upfront push order).

    Event dispatch is table-driven: :meth:`register_handler` maps an event
    type to a handler, and the base :class:`Event` entry falls back to the
    event's own :meth:`Event.apply`.  Observers can watch a run without
    subclassing through the hook API (:meth:`on_event`, :meth:`on_progress`,
    :meth:`on_horizon_reached`).
    """

    #: Class-level handler registry; the base ``Event`` entry dispatches to
    #: ``event.apply(simulation)`` so new event types work out of the box.
    _handlers: ClassVar[dict[type, EventHandler]] = {}
    #: Bumped on every :meth:`register_handler` call; the fast loop's
    #: per-instance dispatch cache compares against it each event so
    #: registrations made mid-run take effect immediately.
    _handlers_version: ClassVar[int] = 0

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
        stream = requests if isinstance(requests, RequestStream) else None
        if stream is None and not requests:
            raise ValueError("a simulation needs at least one request")
        self.config = config or SimulationConfig()
        fast = self.config.loop_mode == "fast"
        self._loop_fast = fast
        self.policy = policy
        #: The materialized workload; stays empty for streaming runs (the
        #: stream is consumed, never retained).
        self.requests = [] if stream is not None else list(requests)
        self.profile_store = profile_store
        self.cluster = ClusterState(config=self.config.cluster)
        if fast:
            self.cluster.enable_home_cache()
            self.cluster.enable_lazy_capacity()
        self.metrics = MetricsCollector(
            policy_name=policy.name,
            setting_name=setting_name,
            config=self.config.metrics,
            horizon_ms=self.config.max_time_ms,
        )
        self.events = FastEventLoop() if fast else EventLoop()
        self.now_ms = 0.0
        self._tick_scheduled = False
        self._processed_events = 0
        self._truncated = False
        self._instance_handlers: dict[type, EventHandler] = {}
        self._event_hooks: list[EventHook] = []
        self._progress_hooks: list[tuple[SimulationHook, int]] = []
        self._horizon_hooks: list[SimulationHook] = []
        #: Fast-loop dispatch cache: concrete event type -> resolved
        #: dispatch record (see :meth:`_dispatch_record`).  Invalidated
        #: whenever the class registry version moves or an instance
        #: handler is added.
        self._dispatch_cache: dict[
            type, tuple[EventHandler | None, bool, bool, bool]
        ] = {}
        self._dispatch_version = Simulation._handlers_version

        if runtime_perf_model is None:
            runtime_perf_model = NoisyPerformanceModel(
                base=AnalyticalPerformanceModel(),
                rng=derive_rng(self.config.seed, "runtime-noise", policy.name),
                sigma=self.config.noise_sigma,
                buffered=fast,
            )
        self.runtime_perf_model = runtime_perf_model
        self.transfer_model = transfer_model or DataTransferModel()

        prewarmer = PrewarmManager(
            profile_store=profile_store, enabled=self.config.controller.prewarm_enabled
        )
        if fast:
            prewarmer.enable_profile_cache()
        policy.fast_mode = fast
        self.controller = Controller(
            policy=policy,
            cluster=self.cluster,
            profile_store=profile_store,
            runtime_perf_model=self.runtime_perf_model,
            pricing=profile_store.pricing,
            metrics=self.metrics,
            transfer_model=self.transfer_model,
            config=self.config.controller,
            prewarmer=prewarmer,
            event_sink=self.events.push,
            fast_events=self.events if fast else None,
            fast_mode=fast,
        )

        if stream is not None:
            workflows = dict(stream.workflows())
            for workflow in workflows.values():
                self.controller.register_workflow(workflow)
        else:
            workflows: dict[str, Workflow] = {}
            for request in self.requests:
                workflows.setdefault(request.app_name, request.workflow)
                self.controller.register_workflow(request.workflow)
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

        self._streaming_workload = stream is not None
        self._pending_arrivals = 0
        if stream is not None and fast:
            self._arrival_source = stream.iter_chunks(ARRIVAL_CHUNK)
            if not self._push_arrival_chunk():
                raise ValueError("a simulation needs at least one request")
        elif stream is not None:
            self._arrival_source = iter(stream)
            if not self._schedule_next_arrival():
                raise ValueError("a simulation needs at least one request")
        else:
            self._arrival_source = None
            for request in self.requests:
                self.events.push(
                    RequestArrivalEvent(time_ms=request.arrival_ms, request=request)
                )

        # Churn events go in last, at a fixed point of construction, so both
        # loop modes assign them identical tie-break counters: they sit after
        # every arrival pushed at init and before anything emitted mid-run.
        # Equal-time collisions with arrivals are resolved by sort_priority
        # (arrivals rank 0, churn 1), which also covers compat streaming
        # runs, where later arrivals are pushed one at a time mid-run.
        churn = self.config.churn
        if churn is not None:
            self.controller.enable_churn(churn.on_evict)
            for action in churn.actions:
                self.events.push(action.to_event())

    def _schedule_next_arrival(self) -> bool:
        """Pull one request from the workload stream and schedule its arrival.

        Compat streaming runs keep exactly one pending arrival event: the
        next one is scheduled when the current one pops (see :meth:`run`),
        so the event queue holds in-flight work only, never the whole
        workload.  Returns False once the stream is exhausted.
        """
        if self._arrival_source is None:
            return False
        pair = next(self._arrival_source, None)
        if pair is None:
            self._arrival_source = None
            return False
        arrival_ms, request = pair
        self.events.push(RequestArrivalEvent(time_ms=arrival_ms, request=request))
        return True

    def _push_arrival_chunk(self) -> bool:
        """Pull up to :data:`ARRIVAL_CHUNK` requests and schedule them all.

        The fast loop's streaming refill.  Order-equivalent to the
        one-pending-arrival compat scheme: arrivals come off the stream in
        non-decreasing time with equal ``sort_priority`` and increasing
        counters, so every not-yet-due arrival sits strictly behind the
        next due one in the queue and the pop sequence is unchanged; the
        queue simply holds at most one chunk of future arrivals instead of
        exactly one.  Returns False once the stream is exhausted.
        """
        source = self._arrival_source
        if source is None:
            return False
        chunk = next(source, None)
        if not chunk:
            self._arrival_source = None
            return False
        # Inlined ``FastEventLoop.push`` (this refill only runs in fast
        # mode): arrival times are validated non-negative by the Request
        # constructor, and arrivals carry sort priority 0.
        events = self.events
        real = events._real
        counter = events._counter
        heappush = heapq.heappush
        for arrival_ms, request in chunk:
            heappush(
                real,
                (
                    arrival_ms,
                    0,
                    next(counter),
                    RequestArrivalEvent(time_ms=arrival_ms, request=request),
                ),
            )
        self._pending_arrivals = len(chunk)
        return True

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    @classmethod
    def register_handler(
        cls, event_type: type[Event], handler: EventHandler | None = None
    ) -> Callable[[EventHandler], EventHandler] | EventHandler:
        """Register ``handler`` for ``event_type`` (usable as a decorator).

        The most derived registered type along the event's MRO wins, so a
        handler for a subclass shadows the base :class:`Event` entry (which
        dispatches to :meth:`Event.apply`).
        """
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"event_type must be an Event subclass, got {event_type!r}")

        def _register(fn: EventHandler) -> EventHandler:
            cls._handlers[event_type] = fn
            # Assign on Simulation explicitly (not ``cls``): a subclass
            # bump would shadow the class variable and hide later updates
            # from instances comparing against Simulation._handlers_version.
            Simulation._handlers_version += 1
            return fn

        if handler is not None:
            return _register(handler)
        return _register

    def add_handler(self, event_type: type[Event], handler: EventHandler) -> None:
        """Register ``handler`` for ``event_type`` on this simulation only.

        Instance handlers take precedence over the class-level registry,
        so one experiment can instrument its run without changing dispatch
        for every other :class:`Simulation` in the process.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"event_type must be an Event subclass, got {event_type!r}")
        self._instance_handlers[event_type] = handler
        self._dispatch_cache.clear()

    def _dispatch(self, event: Event) -> None:
        """Route ``event`` to a handler: instance registrations win outright.

        All of this simulation's handlers are consulted (walking the event's
        MRO) before any class-registered one, so a per-instance handler for a
        base type beats a process-wide handler for the exact type — matching
        :meth:`add_handler`'s precedence promise.
        """
        mro = type(event).__mro__
        for klass in mro:
            handler = self._instance_handlers.get(klass)
            if handler is not None:
                handler(self, event)
                return
        for klass in mro:
            handler = self._handlers.get(klass)
            if handler is not None:
                handler(self, event)
                return
        raise TypeError(f"no handler registered for event type {type(event).__name__}")

    def _dispatch_record(
        self, event_type: type
    ) -> tuple[EventHandler | None, bool, bool, bool]:
        """Resolve and cache dispatch for one concrete event type.

        The record is ``(handler, housekeeping, is_tick, is_arrival)``.
        Resolution walks the instance registrations first, then the class
        registry — the exact precedence of :meth:`_dispatch`, so an
        instance handler for a *base* type still beats a class handler for
        the exact type.  When resolution lands on the default base-Event
        entry, ``handler`` is stored as ``None`` and the fast loop calls
        ``event.apply(self)`` directly, skipping one indirection on the
        hot path.  The two ``isinstance`` checks of the compat loop are
        folded into the cached booleans.
        """
        mro = event_type.__mro__
        handler: EventHandler | None = None
        for klass in mro:
            handler = self._instance_handlers.get(klass)
            if handler is not None:
                break
        if handler is None:
            for klass in mro:
                handler = self._handlers.get(klass)
                if handler is not None:
                    break
        if handler is None:
            raise TypeError(
                f"no handler registered for event type {event_type.__name__}"
            )
        if handler is _apply_dispatch:
            # The default entry would call ``event.apply(self)``, which for
            # the core event types just forwards to a controller method.
            # Dispatching straight to a module-level trampoline saves that
            # intermediate frame on every event; exact-type keying means any
            # subclass with an overridden ``apply`` (or a registered
            # handler, resolved above) is untouched.
            handler = _FAST_APPLY.get(event_type) if self._loop_fast else None
        record = (
            handler,
            bool(event_type.housekeeping),
            issubclass(event_type, SchedulerTickEvent),
            issubclass(event_type, RequestArrivalEvent),
        )
        self._dispatch_cache[event_type] = record
        return record

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_event(self, hook: EventHook) -> EventHook:
        """Call ``hook(simulation, event)`` after every handled event."""
        self._event_hooks.append(hook)
        return hook

    def on_progress(self, hook: SimulationHook, *, every_events: int = 1000) -> SimulationHook:
        """Call ``hook(simulation)`` every ``every_events`` processed events."""
        if every_events <= 0:
            raise ValueError(f"every_events must be positive, got {every_events}")
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
        ``max_events`` is exhausted.  Housekeeping events (container-expiry
        timers) neither keep the run alive nor count toward the horizon:
        the loop drains them only while productive events remain, exactly
        like the per-tick expiry scan stops when the workload does.
        """
        if self._loop_fast:
            return self._run_fast()
        while self.events.has_real:
            if self._processed_events >= self.config.max_events:
                self._truncated = True
                break
            if self.events.peek_real_time() > self.config.max_time_ms:
                self._truncated = True
                for horizon_hook in self._horizon_hooks:
                    horizon_hook(self)
                break
            event = self.events.pop()
            self.now_ms = max(self.now_ms, event.time_ms)
            if isinstance(event, SchedulerTickEvent):
                # Engine-owned invariant: the pending tick is consumed the
                # moment it is popped, no matter which handler processes it.
                self._tick_scheduled = False
            elif isinstance(event, RequestArrivalEvent) and self._arrival_source is not None:
                # Engine-owned invariant for streaming workloads: popping an
                # arrival schedules the next one, regardless of which
                # handler processes the event.
                self._schedule_next_arrival()
            self._dispatch(event)
            # Housekeeping events are free: counting them against
            # max_events (or the progress cadence) would make indexed runs
            # (which schedule expiry timers) diverge from scan runs.
            if not event.housekeeping:
                self._processed_events += 1
            for event_hook in self._event_hooks:
                event_hook(self, event)
            if not event.housekeeping:
                for progress_hook, every in self._progress_hooks:
                    if self._processed_events % every == 0:
                        progress_hook(self)
            self._maybe_schedule_tick()
        self.metrics.truncated = self._truncated
        return self.metrics.summary()

    def _run_fast(self) -> RunSummary:
        """The ``loop_mode="fast"`` drain loop.

        Semantically identical to the compat loop in :meth:`run` — same
        stop conditions, same per-event bookkeeping, same hook cadence —
        but with the per-event constant costs stripped: handlers, the
        housekeeping flag and the tick/arrival engine invariants come from
        the per-type dispatch cache instead of MRO walks and ``isinstance``
        checks; hook loops are skipped outright while no hooks are
        registered; the split heaps are popped inline instead of through
        :meth:`FastEventLoop.pop`; the tick reschedule check reads the
        controller's pending-job counter without a method call; and the
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
        dispatch_cache = self._dispatch_cache
        real = events._real
        housekeeping_heap = events._housekeeping
        heappop = heapq.heappop
        heappush = heapq.heappush
        counter = events._counter

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
                else:
                    event = heappop(real)[3]
                time_ms = event.time_ms
                if time_ms > self.now_ms:
                    self.now_ms = time_ms
                if self._dispatch_version != Simulation._handlers_version:
                    dispatch_cache.clear()
                    self._dispatch_version = Simulation._handlers_version
                record = dispatch_cache.get(type(event))
                if record is None:
                    record = self._dispatch_record(type(event))
                handler, housekeeping, is_tick, is_arrival = record
                if is_tick:
                    self._tick_scheduled = False
                elif is_arrival and self._arrival_source is not None:
                    self._pending_arrivals -= 1
                    if self._pending_arrivals <= 0:
                        self._push_arrival_chunk()
                if handler is None:
                    event.apply(self)
                else:
                    handler(self, event)
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
                if not self._tick_scheduled and controller._pending_jobs > 0:
                    self._tick_scheduled = True
                    # Inlined ``events.push`` (tick times are never negative;
                    # ticks are real events with the default sort priority 1).
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

    def _maybe_schedule_tick(self) -> None:
        """Keep the controller ticking while work is pending."""
        if self._tick_scheduled:
            return
        if not self.controller.has_pending_work():
            return
        self._tick_scheduled = True
        self.events.push(
            SchedulerTickEvent(time_ms=self.now_ms + self.config.controller.tick_interval_ms)
        )

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

    @property
    def streaming_workload(self) -> bool:
        """True when the workload is pulled lazily from a RequestStream."""
        return self._streaming_workload

    def config_space(self) -> ConfigurationSpace:
        """The configuration space the run uses."""
        return self.profile_store.space

    def pricing(self) -> PricingModel:
        """The pricing model the run uses."""
        return self.profile_store.pricing


# Default dispatch: any event type without a more specific handler applies
# itself.  Registered once at import time; experiments can shadow it for
# individual event types via ``Simulation.register_handler``.  Named (not a
# lambda) so the fast loop's dispatch cache can recognise it by identity and
# call ``event.apply`` without the extra indirection.
def _apply_dispatch(simulation: Simulation, event: Event) -> None:
    event.apply(simulation)


Simulation.register_handler(Event, _apply_dispatch)


# Fast-loop trampolines: each mirrors the corresponding ``Event.apply`` body
# exactly, skipping the ``apply`` frame.  Keyed by *exact* concrete type in
# ``_FAST_APPLY`` — subclasses (which may override ``apply``) never match and
# keep the default ``event.apply`` route.
def _fast_arrival_apply(simulation: Simulation, event: "RequestArrivalEvent") -> None:
    simulation.controller.on_request_arrival(event.request, simulation.now_ms)


def _fast_completion_apply(simulation: Simulation, event: "TaskCompletionEvent") -> None:
    # These trampolines are only installed for fast-mode simulations, whose
    # controller always runs in fast mode — skip the ``on_task_completion``
    # mode branch as well.
    simulation.controller._on_task_completion_fast(event.task, simulation.now_ms)


def _fast_tick_apply(simulation: Simulation, event: SchedulerTickEvent) -> None:
    simulation.controller.on_tick(simulation.now_ms)


def _fast_prewarm_apply(simulation: Simulation, event: "PrewarmCompleteEvent") -> None:
    simulation.controller.on_prewarm_complete(event.container, simulation.now_ms)


def _fast_expire_apply(simulation: Simulation, event: "ContainerExpireEvent") -> None:
    container = event.container
    if (
        container.state is ContainerState.WARM
        and container.expires_at_ms == event.time_ms
    ):
        container.mark_stopped()


_FAST_APPLY: dict[type, EventHandler] = {
    RequestArrivalEvent: _fast_arrival_apply,
    TaskCompletionEvent: _fast_completion_apply,
    SchedulerTickEvent: _fast_tick_apply,
    PrewarmCompleteEvent: _fast_prewarm_apply,
    ContainerExpireEvent: _fast_expire_apply,
}
