"""EWMA-based container prewarming.

Section 4 of the paper: "We use proxy threads to monitor the function call
intervals, predict subsequent invocations, and preemptively warm up
instances. ... We use a lightweight method for prewarming.  It uses
Exponential Weighted Moving Average (EWMA) to predict the invocation
intervals of functions and pre-warms the function instances accordingly.
After pre-warming, ESG uses the same keep-alive policy as OpenWhisk, to keep
the instance alive for 10 minutes."

The manager tracks, per (application, function), the EWMA of observed
inter-arrival intervals and the observed mean service time, derives the
number of concurrently needed instances (Little's law style:
``rate x service_time``), and asks the controller to launch prewarm
containers whenever fewer instances than that are resident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.cluster import ClusterState
from repro.cluster.container import Container
from repro.profiles.profiler import ProfileStore
from repro.utils.stats import EWMA
from repro.utils.validation import ensure_non_negative, ensure_positive

__all__ = ["PrewarmManager", "PrewarmPlan"]


@dataclass(frozen=True)
class PrewarmPlan:
    """One container started ahead of demand, and when it turns warm."""

    function_name: str
    invoker_id: int
    ready_at_ms: float
    #: The STARTING container the plan created: its completion event goes
    #: to this container, not to another cold start of the function.
    container: Container = field(compare=False)


@dataclass
class _FunctionDemand:
    """Per-(app, function) observation state."""

    interval_ewma: EWMA = field(default_factory=lambda: EWMA(alpha=0.3))
    last_arrival_ms: float | None = None
    observed_arrivals: int = 0


@dataclass
class PrewarmManager:
    """Predicts demand per function and emits prewarm plans.

    Parameters
    ----------
    profile_store:
        Used for cold-start and service-time estimates.
    safety_factor:
        Multiplier on the estimated concurrency (headroom for burstiness).
    max_warm_per_function:
        Cap on the number of resident containers the prewarmer will create
        for a single function (cluster-wide).
    enabled:
        When False the manager observes but never emits plans (for
        ablations and tests).
    """

    profile_store: ProfileStore
    safety_factor: float = 1.2
    max_warm_per_function: int = 8
    enabled: bool = True
    _demand: dict[tuple[str, str], _FunctionDemand] = field(default_factory=dict, repr=False)
    #: Memos, each a pure function of state that only changes when a *new*
    #: (app, function) key appears: the per-function minimum-config service
    #: time, the sorted function list, and the per-function demand grouping
    #: (keyed in first-arrival order, never in hash order).
    _service_ms: dict[str, float] = field(default_factory=dict, repr=False)
    _functions_sorted: list[str] | None = field(default=None, repr=False)
    _by_function: dict[str, list[_FunctionDemand]] = field(default_factory=dict, repr=False)
    #: Memo of :meth:`desired_warm_instances`: the result is a pure
    #: function of the function's demand entries, which only change on
    #: arrivals — ``observe_arrival`` marks the function dirty and every
    #: other tick reuses the cached count.
    _desired_cache: dict[str, int] = field(default_factory=dict, repr=False)
    _desired_dirty: set[str] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        ensure_positive(self.safety_factor, "safety_factor")
        if self.max_warm_per_function < 1:
            raise ValueError("max_warm_per_function must be >= 1")

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_arrival(self, app_name: str, function_name: str, now_ms: float) -> None:
        """Record one job arrival for (application, function) at ``now_ms``.

        ``now_ms`` comes from the event loop, which already validated it.
        """
        demand = self._demand.get((app_name, function_name))
        if demand is None:
            ensure_non_negative(now_ms, "now_ms")
            demand = _FunctionDemand()
            self._demand[(app_name, function_name)] = demand
            self._by_function.setdefault(function_name, []).append(demand)
            self._functions_sorted = None
        last = demand.last_arrival_ms
        if last is not None:
            interval = now_ms - last
            if interval < 0.1:
                interval = 0.1
            demand.interval_ewma.update(interval)
        demand.last_arrival_ms = now_ms
        demand.observed_arrivals += 1
        self._desired_dirty.add(function_name)

    def predicted_interval_ms(self, app_name: str, function_name: str) -> float | None:
        """EWMA-predicted inter-arrival interval, or ``None`` if unobserved."""
        demand = self._demand.get((app_name, function_name))
        if demand is None:
            return None
        return demand.interval_ewma.value

    def predicted_next_arrival_ms(self, app_name: str, function_name: str) -> float | None:
        """Predicted absolute time of the next arrival, or ``None``."""
        demand = self._demand.get((app_name, function_name))
        if demand is None or demand.last_arrival_ms is None:
            return None
        interval = demand.interval_ewma.value
        if interval is None:
            return None
        return demand.last_arrival_ms + interval

    # ------------------------------------------------------------------
    # Demand estimation
    # ------------------------------------------------------------------
    def desired_warm_instances(self, function_name: str) -> int:
        """Number of resident containers the function should have cluster-wide.

        Aggregates the predicted arrival rate of the function over all
        applications that invoke it and multiplies by the (minimum
        configuration) service time — the steady-state number of busy
        instances — padded by ``safety_factor``.
        """
        dirty = self._desired_dirty
        if function_name not in dirty:
            cached = self._desired_cache.get(function_name)
            if cached is not None:
                return cached
        total_rate_per_ms = 0.0
        # The function's demands in first-arrival order.
        for demand in self._by_function.get(function_name, ()):
            interval = demand.interval_ewma.value
            if interval is None or demand.observed_arrivals < 2:
                # Too few observations: assume one instance is enough.
                continue
            total_rate_per_ms += 1.0 / interval
        if total_rate_per_ms == 0.0:
            desired = 1
        else:
            service_ms = self._service_ms.get(function_name)
            if service_ms is None:
                service_ms = self.profile_store.profile(function_name).latency_ms(
                    self.profile_store.space.minimum
                )
                self._service_ms[function_name] = service_ms
            concurrency = total_rate_per_ms * service_ms * self.safety_factor
            desired = int(min(self.max_warm_per_function, max(1, math.ceil(concurrency))))
        self._desired_cache[function_name] = desired
        dirty.discard(function_name)
        return desired

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, cluster: ClusterState, now_ms: float) -> list[PrewarmPlan]:
        """Emit prewarm plans for functions short on resident containers.

        A function's resident count includes warm, busy and currently
        starting containers anywhere in the cluster, so repeated calls do
        not double-prewarm.
        """
        if not self.enabled:
            return []
        plans: list[PrewarmPlan] = []
        if self._functions_sorted is None:
            self._functions_sorted = sorted(self._by_function)
        for fn in self._functions_sorted:
            desired = self.desired_warm_instances(fn)
            resident = cluster.resident_container_count(fn)
            missing = desired - resident
            if missing <= 0:
                continue
            cold_start_ms = self.profile_store.profile(fn).spec.cold_start_ms
            for _ in range(missing):
                invoker_id = self.pick_invoker(cluster, fn)
                if invoker_id is None:
                    break
                ready_at_ms = now_ms + cold_start_ms
                # Registered at once, so the next iteration sees it as resident.
                container = cluster.invoker(invoker_id).start_container(fn, ready_at_ms)
                plans.append(PrewarmPlan(fn, invoker_id, ready_at_ms, container))
        return plans

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def pick_invoker(cluster: ClusterState, function_name: str) -> int | None:
        """Choose a node for a new container: fewest containers of the function, then most free vGPUs.

        This linear walk only runs when a prewarm container is actually
        launched (rare); the per-tick shortage check above it is the hot
        path and is served by :meth:`ClusterState.resident_container_count`.
        """
        best_id: int | None = None
        best_key: tuple[int, float] | None = None
        for invoker in cluster:
            if not invoker.active:
                # Departed (churn-evicted) nodes stay in the list as
                # zero-capacity tombstones; never prewarm on them.
                continue
            existing = invoker.container_count(function_name)
            key = (existing, -invoker.available_vgpus)
            if best_key is None or key < best_key:
                best_key = key
                best_id = invoker.invoker_id
        return best_id
