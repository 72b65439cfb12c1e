"""Adaptive feedback prewarm: autoscaled resident containers.

The EWMA prewarmer (:mod:`repro.cluster.prewarm`) sizes resident containers
from a *fixed* demand model and never closes the loop on what the cluster is
actually experiencing: on diurnal or on/off-burst traffic it either wastes
cold starts when load ramps or keeps capacity it no longer needs.  This
module adds a feedback layer in the spirit of the DQN scaling-agent +
global-optimizer pattern from the serverless-autoscaling literature, but
fully deterministic: per-function controllers observe live signals (queue
depth, recent arrival rate, resident count), decide an integer capacity
delta, and actuate through the exact prewarm mechanism the static path uses.

Architecture
------------
The :class:`Autoscaler` is a pure *observer*: it attaches to a built
:class:`~repro.cluster.simulator.Simulation` through the ``on_event`` hook
API — the simulator core is untouched — and takes over prewarm authority by
disabling the static :class:`~repro.cluster.prewarm.PrewarmManager`
(``prewarmer.enabled = False``; observation continues, plans stop).  Every
``decide_interval_ms`` of *virtual* time (on the first event at or after
the pass is due) it stops the containers whose keep-alive has run out,
snapshots an :class:`AutoscaleState` per observed function, asks its
:class:`AutoscalePolicy` for an :class:`AutoscaleAction`, and applies the
clamped delta:

* scale **up**: place a ``STARTING`` container on the invoker chosen by
  :meth:`~repro.cluster.prewarm.PrewarmManager.pick_invoker` (which skips
  churn tombstones) and push a
  :class:`~repro.cluster.events.PrewarmCompleteEvent` onto the simulation's
  event loop — exactly the plan mechanism of the static prewarmer, so the
  container participates in keep-alive, eviction and metrics identically;
* scale **down**: retire warm *idle* containers (most-loaded invokers
  first; busy and starting containers are never touched).

Determinism contract
--------------------
Controllers read virtual time from events only — no wall clock, no RNG.
Event hooks fire after every handled event, and actuations go onto the
one shared event loop, so they receive identical ``(time_ms,
sort_priority, counter)`` keys everywhere: adaptive runs are byte-identical
across workload modes and worker processes, like every other run (pinned by
``tests/integration/test_autoscale_parity.py`` and the golden corpus).

>>> spec = get_autoscale_spec("threshold-default")
>>> spec.kind
'threshold'
>>> spec.build_controller().decide(AutoscaleState(
...     now_ms=10.0, function_name="f", queue_depth=3,
...     arrival_rate_per_s=40.0, residents=1, active_invokers=8)).delta
2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.utils.validation import ensure_non_negative_int, ensure_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import Simulation

__all__ = [
    "AutoscaleAction",
    "AutoscaleActuation",
    "AutoscalePolicy",
    "AutoscaleSpec",
    "AutoscaleState",
    "Autoscaler",
    "AUTOSCALE_KINDS",
    "AUTOSCALE_SPECS",
    "PIDController",
    "ThresholdController",
    "autoscale_spec_names",
    "get_autoscale_spec",
    "register_autoscale_spec",
    "resolve_autoscale",
]

#: Controller families a spec can name.
AUTOSCALE_KINDS = ("threshold", "pid")


# ----------------------------------------------------------------------
# The (state, action) interface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscaleState:
    """One controller observation: everything a decision may read.

    All signals derive from the event stream (virtual time), never from the
    wall clock, so decisions are a pure function of the run's history.
    """

    now_ms: float
    function_name: str
    #: Jobs of this function waiting across all AFW queues right now.
    queue_depth: int
    #: Arrivals of this function over the last decision window, as a rate.
    arrival_rate_per_s: float
    #: Cluster-wide resident containers (warm + busy + starting) — starting
    #: containers count so back-to-back decisions never double-prewarm.
    residents: int
    #: Non-tombstoned invokers at decision time.
    active_invokers: int


@dataclass(frozen=True)
class AutoscaleAction:
    """A controller's verdict: change the resident count by ``delta``."""

    delta: int
    reason: str = ""


@dataclass(frozen=True)
class AutoscaleActuation:
    """One applied decision, recorded for the invariant harness.

    ``requested`` is the controller's raw delta; ``applied`` is what the
    clamps and the cluster allowed (signed like ``requested``); ``targets``
    are the invoker ids that received a prewarm container (scale-up) or had
    one retired (scale-down).
    """

    state: AutoscaleState
    requested: int
    applied: int
    targets: tuple[int, ...]


class AutoscalePolicy:
    """Base controller: ``decide(state) -> action``.

    Subclasses must be deterministic: same state sequence, same actions.
    """

    def decide(self, state: AutoscaleState) -> AutoscaleAction:
        raise NotImplementedError


class ThresholdController(AutoscalePolicy):
    """Hysteresis band on queue depth, rate-gated scale-down.

    Scale up by ``step_up`` when the queue depth reaches ``high_watermark``;
    scale down by ``step_down`` only after ``down_patience`` *consecutive*
    decisions in which the depth sat at ``low_watermark`` or below *and*
    the observed arrival rate was at most ``low_rate_per_s`` (one short
    window with no arrivals is noise, not a trough — without the patience
    element a sparse arrival process makes the controller shed warm
    capacity it pays a cold start to win back moments later).  Strictly
    inside the band the controller always holds — the no-oscillation
    invariant the fuzz harness checks.
    """

    def __init__(
        self,
        *,
        high_watermark: float,
        low_watermark: float,
        step_up: int,
        step_down: int,
        low_rate_per_s: float,
        down_patience: int,
    ) -> None:
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.step_up = step_up
        self.step_down = step_down
        self.low_rate_per_s = low_rate_per_s
        self.down_patience = down_patience
        #: Consecutive down-eligible decisions seen so far (harness-visible).
        self.idle_rounds = 0

    def decide(self, state: AutoscaleState) -> AutoscaleAction:
        if state.queue_depth >= self.high_watermark:
            self.idle_rounds = 0
            return AutoscaleAction(delta=self.step_up, reason="queue above high watermark")
        if (
            state.queue_depth <= self.low_watermark
            and state.arrival_rate_per_s <= self.low_rate_per_s
        ):
            self.idle_rounds += 1
            if self.idle_rounds >= self.down_patience:
                self.idle_rounds = 0
                return AutoscaleAction(delta=-self.step_down, reason="sustained idle")
            return AutoscaleAction(delta=0, reason="idle, awaiting patience")
        self.idle_rounds = 0
        return AutoscaleAction(delta=0, reason="inside hysteresis band")


class PIDController(AutoscalePolicy):
    """Discrete PID on EWMA-smoothed queue-depth error.

    The error is ``smoothed_depth - setpoint``; the integral term
    accumulates one error sample per decision and is clamped to
    ``[-integral_clamp, +integral_clamp]`` (anti-windup — the bound the
    fuzz harness asserts after every decision); the derivative is the
    first difference of the smoothed error.  The continuous control value
    is rounded to an integer delta and clamped to ``±max_step``.
    """

    def __init__(
        self,
        *,
        kp: float,
        ki: float,
        kd: float,
        setpoint: float,
        ewma_alpha: float,
        integral_clamp: float,
        max_step: int,
    ) -> None:
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.setpoint = setpoint
        self.ewma_alpha = ewma_alpha
        self.integral_clamp = integral_clamp
        self.max_step = max_step
        #: Running EWMA of the raw error; ``None`` until the first sample.
        self.smoothed: float | None = None
        #: Clamped integral term (inspected by the invariant harness).
        self.integral = 0.0
        self._prev_error: float | None = None

    def decide(self, state: AutoscaleState) -> AutoscaleAction:
        raw = float(state.queue_depth) - self.setpoint
        if self.smoothed is None:
            self.smoothed = raw
        else:
            self.smoothed = self.ewma_alpha * raw + (1.0 - self.ewma_alpha) * self.smoothed
        error = self.smoothed
        self.integral += error
        if self.integral > self.integral_clamp:
            self.integral = self.integral_clamp
        elif self.integral < -self.integral_clamp:
            self.integral = -self.integral_clamp
        derivative = 0.0 if self._prev_error is None else error - self._prev_error
        self._prev_error = error
        control = self.kp * error + self.ki * self.integral + self.kd * derivative
        delta = int(round(control))
        if delta > self.max_step:
            delta = self.max_step
        elif delta < -self.max_step:
            delta = -self.max_step
        return AutoscaleAction(delta=delta, reason="pid control value %.3f" % control)


# ----------------------------------------------------------------------
# Specs and registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscaleSpec:
    """A named, picklable controller recipe.

    Specs are what scenarios and
    :class:`~repro.experiments.runner.ExperimentConfig` carry (and what the
    result store hashes): the live controller state is rebuilt per run, per
    function, from these parameters alone — no RNG, no seed input — so one
    spec reproduces the same decisions in every worker process.  Threshold
    parameters are ignored by ``kind="pid"`` and vice versa.
    """

    name: str
    kind: str = "threshold"
    #: Minimum virtual time between decision passes.
    decide_interval_ms: float = 10.0
    #: Clamp band on the per-function resident count the autoscaler steers
    #: toward; actuations never push outside it.
    min_residents: int = 0
    max_residents: int = 8
    # -- threshold family ------------------------------------------------
    high_watermark: float = 3.0
    low_watermark: float = 0.0
    step_up: int = 2
    step_down: int = 1
    #: Scale-down additionally requires the observed arrival rate at or
    #: below this (a drained queue under live traffic keeps capacity).
    low_rate_per_s: float = 0.0
    #: Consecutive down-eligible decisions required before one scale-down.
    down_patience: int = 100
    # -- pid family ------------------------------------------------------
    kp: float = 0.3
    ki: float = 0.02
    kd: float = 0.3
    setpoint: float = 1.5
    ewma_alpha: float = 0.5
    integral_clamp: float = 2.0
    max_step: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("autoscale spec name must be non-empty")
        if self.kind not in AUTOSCALE_KINDS:
            raise ValueError(
                f"unknown autoscale kind {self.kind!r}; expected one of {AUTOSCALE_KINDS}"
            )
        # NaN passes every ``<``/``>=`` check below, and a non-finite
        # decide interval silently switches the autoscaler off.
        floats = ("decide_interval_ms", "high_watermark", "low_watermark", "low_rate_per_s")
        for name in floats + ("kp", "ki", "kd", "setpoint", "ewma_alpha", "integral_clamp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("step_up", "step_down", "down_patience", "max_step", "max_residents"):
            ensure_positive_int(getattr(self, name), name)
        if self.decide_interval_ms <= 0:
            raise ValueError("decide_interval_ms must be > 0")
        ensure_non_negative_int(self.min_residents, "min_residents")
        if self.max_residents < self.min_residents:
            raise ValueError("max_residents must be >= min_residents")
        if self.low_watermark >= self.high_watermark:
            raise ValueError("low_watermark must be < high_watermark")
        if self.low_rate_per_s < 0:
            raise ValueError("low_rate_per_s must be >= 0")
        if self.ewma_alpha <= 0 or self.ewma_alpha > 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.integral_clamp < 0:
            raise ValueError("integral_clamp must be >= 0")
        if self.setpoint < 0:
            raise ValueError("setpoint must be >= 0")

    def build_controller(self) -> AutoscalePolicy:
        """A fresh (per-function) controller instance for one run."""
        if self.kind == "threshold":
            return ThresholdController(
                high_watermark=self.high_watermark,
                low_watermark=self.low_watermark,
                step_up=self.step_up,
                step_down=self.step_down,
                low_rate_per_s=self.low_rate_per_s,
                down_patience=self.down_patience,
            )
        return PIDController(
            kp=self.kp,
            ki=self.ki,
            kd=self.kd,
            setpoint=self.setpoint,
            ewma_alpha=self.ewma_alpha,
            integral_clamp=self.integral_clamp,
            max_step=self.max_step,
        )


AUTOSCALE_SPECS: dict[str, AutoscaleSpec] = {}


def register_autoscale_spec(spec: AutoscaleSpec, *, overwrite: bool = False) -> AutoscaleSpec:
    """Add ``spec`` to the registry under ``spec.name``."""
    if not overwrite and spec.name in AUTOSCALE_SPECS:
        raise ValueError(f"autoscale spec {spec.name!r} is already registered")
    AUTOSCALE_SPECS[spec.name] = spec
    return spec


def get_autoscale_spec(name: str) -> AutoscaleSpec:
    """Look up a registered autoscale spec by name."""
    try:
        return AUTOSCALE_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(AUTOSCALE_SPECS))
        raise KeyError(f"unknown autoscale spec {name!r}; known specs: {known}") from None


def autoscale_spec_names() -> list[str]:
    """Sorted names of every registered autoscale spec."""
    return sorted(AUTOSCALE_SPECS)


def resolve_autoscale(autoscale: "AutoscaleSpec | str | None") -> AutoscaleSpec | None:
    """Normalize any accepted autoscale form into a spec (or ``None``)."""
    if autoscale is None:
        return None
    if isinstance(autoscale, str):
        return get_autoscale_spec(autoscale)
    if isinstance(autoscale, AutoscaleSpec):
        return autoscale
    raise TypeError(
        "autoscale must be None, a spec name, or an AutoscaleSpec; "
        f"got {type(autoscale).__name__}"
    )


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
@dataclass
class Autoscaler:
    """The runtime: one spec, one run, per-function controllers.

    Build one per simulation and :meth:`attach` it *after* construction and
    *before* ``run()`` — attachment flips the static prewarmer off, so the
    only resident-capacity authority is the feedback loop (plus on-demand
    cold starts, which the controller performs regardless).
    """

    spec: AutoscaleSpec
    #: Every applied decision with a nonzero requested delta, in order
    #: (the invariant harness replays these).
    actuations: list[AutoscaleActuation] = field(default_factory=list, repr=False)
    #: Number of completed decision passes.
    decisions: int = 0

    def __post_init__(self) -> None:
        self._simulation: "Simulation | None" = None
        self._controllers: dict[str, AutoscalePolicy] = {}
        self._arrivals: dict[str, int] = {}
        self._known_functions: set[str] = set()
        self._functions_sorted: list[str] | None = None
        self._cold_ms: dict[str, float] = {}
        self._last_decide_ms = 0.0
        self._next_decide_ms = self.spec.decide_interval_ms

    # -- introspection (tests and the study read these) -----------------
    @property
    def attached(self) -> bool:
        """True once :meth:`attach` has run."""
        return self._simulation is not None

    @property
    def controllers(self) -> dict[str, AutoscalePolicy]:
        """Live per-function controllers (keyed by function name)."""
        return self._controllers

    def applied_up(self) -> int:
        """Total containers launched by scale-up actuations."""
        return sum(a.applied for a in self.actuations if a.applied > 0)

    def applied_down(self) -> int:
        """Total containers retired by scale-down actuations."""
        return -sum(a.applied for a in self.actuations if a.applied < 0)

    # -- wiring ----------------------------------------------------------
    def attach(self, simulation: "Simulation") -> "Autoscaler":
        """Hook into ``simulation`` and take over prewarm authority."""
        if self._simulation is not None:
            raise RuntimeError("an Autoscaler attaches to exactly one simulation")
        # Imported lazily for the same reason as ChurnAction.to_event:
        # scenarios resolve autoscale-spec names at workloads import time,
        # which can land mid-way through ``repro.cluster.__init__``.
        from repro.cluster.events import RequestArrivalEvent

        self._simulation = simulation
        self._arrival_event_type = RequestArrivalEvent
        prewarmer = simulation.controller.prewarmer
        if prewarmer is not None:
            # The EWMA prewarmer keeps observing (its predictions stay
            # available to policies) but stops emitting plans: capacity
            # decisions now flow through the feedback loop only.
            prewarmer.enabled = False
        simulation.on_event(self._on_event)
        return self

    # -- observation -----------------------------------------------------
    def _on_event(self, simulation: "Simulation", event: object) -> None:
        """Per-event hook: count arrivals, run due decision passes.

        Fires after every handled event, so the decision cadence — and
        therefore every actuation's event-queue position — depends on
        virtual time only.
        """
        if isinstance(event, self._arrival_event_type):
            arrivals = self._arrivals
            for stage in event.request.workflow.stages():
                fn = stage.function_name
                arrivals[fn] = arrivals.get(fn, 0) + 1
                if fn not in self._known_functions:
                    self._known_functions.add(fn)
                    self._functions_sorted = None
        now_ms = simulation.now_ms
        if now_ms >= self._next_decide_ms and self._known_functions:
            self._decide(simulation, now_ms)

    # -- decision --------------------------------------------------------
    def _decide(self, simulation: "Simulation", now_ms: float) -> None:
        """One decision pass: observe, decide and actuate per function."""
        controller = simulation.controller
        # A decision can fall between ticks: stop the containers whose
        # keep-alive has run out first, so ``residents`` never counts one.
        controller.expire_due(now_ms)
        cluster = simulation.cluster
        window_ms = now_ms - self._last_decide_ms
        depths: dict[str, int] = {}
        for queue in controller.queues():
            if queue.jobs:
                fn = queue.function_name
                depths[fn] = depths.get(fn, 0) + len(queue.jobs)
        active_invokers = sum(1 for invoker in cluster if invoker.active)
        if self._functions_sorted is None:
            self._functions_sorted = sorted(self._known_functions)
        for fn in self._functions_sorted:
            arrivals = self._arrivals.get(fn, 0)
            rate_per_s = (arrivals / window_ms) * 1000.0 if window_ms > 0 else 0.0
            state = AutoscaleState(
                now_ms=now_ms,
                function_name=fn,
                queue_depth=depths.get(fn, 0),
                arrival_rate_per_s=rate_per_s,
                residents=cluster.resident_container_count(fn),
                active_invokers=active_invokers,
            )
            policy = self._controllers.get(fn)
            if policy is None:
                policy = self.spec.build_controller()
                self._controllers[fn] = policy
            action = policy.decide(state)
            if action.delta != 0:
                applied, targets = self._actuate(simulation, state, action.delta)
                self.actuations.append(
                    AutoscaleActuation(
                        state=state,
                        requested=action.delta,
                        applied=applied,
                        targets=targets,
                    )
                )
        self.decisions += 1
        self._arrivals.clear()
        self._last_decide_ms = now_ms
        self._next_decide_ms = now_ms + self.spec.decide_interval_ms

    # -- actuation -------------------------------------------------------
    def _pick_invoker(self, cluster: object, function_name: str, now_ms: float) -> int | None:
        """Placement for one prewarm container (tombstone-skipping walk).

        Delegates to the static prewarmer's picker so adaptive and static
        placement stay byte-for-byte interchangeable; an instance method so
        the harness's planted-violation self-test can corrupt it.
        """
        from repro.cluster.prewarm import PrewarmManager

        return PrewarmManager.pick_invoker(cluster, function_name)

    def _actuate(
        self, simulation: "Simulation", state: AutoscaleState, delta: int
    ) -> tuple[int, tuple[int, ...]]:
        """Apply ``delta`` within the clamp band; returns (applied, targets)."""
        spec = self.spec
        fn = state.function_name
        now_ms = state.now_ms
        cluster = simulation.cluster
        if delta > 0:
            target = min(spec.max_residents, state.residents + delta)
            missing = target - state.residents
            if missing <= 0:
                return 0, ()
            from repro.cluster.events import PrewarmCompleteEvent

            cold_ms = self._cold_ms.get(fn)
            if cold_ms is None:
                cold_ms = simulation.profile_store.profile(fn).spec.cold_start_ms
                self._cold_ms[fn] = cold_ms
            events = simulation.events
            launched: list[int] = []
            for _ in range(missing):
                invoker_id = self._pick_invoker(cluster, fn, now_ms)
                if invoker_id is None:
                    break
                container = cluster.invoker(invoker_id).start_container(fn, now_ms + cold_ms)
                events.push(PrewarmCompleteEvent(time_ms=now_ms + cold_ms, container=container))
                launched.append(invoker_id)
            return len(launched), tuple(launched)
        floor = spec.min_residents
        target = max(floor, state.residents + delta)
        surplus = state.residents - target
        if surplus <= 0:
            return 0, ()
        # Retire from the most-loaded invokers first (ties by id) so the
        # spread the up-path builds is unwound symmetrically.  Tombstoned
        # invokers hold no live containers, so they never match.
        candidates = sorted(
            (invoker for invoker in cluster if invoker.container_count(fn)),
            key=lambda invoker: (-invoker.container_count(fn), invoker.invoker_id),
        )
        retired: list[int] = []
        for invoker in candidates:
            if len(retired) >= surplus:
                break
            for container in list(invoker.containers_for(fn)):
                if len(retired) >= surplus:
                    break
                # Only warm *idle* capacity is reclaimable: busy containers
                # carry tasks, starting ones are in-flight prewarms.
                if container.is_warm_idle(now_ms):
                    container.mark_stopped()
                    retired.append(invoker.invoker_id)
        return -len(retired), tuple(retired)


def _register_builtin_specs() -> None:
    # Aggressive backlog-chaser: any queued job triggers a burst of prewarm
    # capacity; capacity is only released when the queue is empty *and* no
    # arrivals were observed in the window.  Prewarming costs nothing in
    # the pricing model while every avoided cold start removes paid
    # cold-start milliseconds from some task, so on ramping workloads this
    # dominates the static EWMA sizing on cost and SLO simultaneously.
    register_autoscale_spec(AutoscaleSpec(name="threshold-default", kind="threshold"))
    # A gentler band for keep-capacity studies: tolerates a small backlog,
    # needs near-idle traffic before shrinking.
    register_autoscale_spec(
        AutoscaleSpec(
            name="threshold-conservative",
            kind="threshold",
            high_watermark=5.0,
            low_watermark=1.0,
            step_up=1,
            step_down=1,
            low_rate_per_s=5.0,
            down_patience=10,
        )
    )
    register_autoscale_spec(AutoscaleSpec(name="pid-default", kind="pid"))


_register_builtin_specs()
