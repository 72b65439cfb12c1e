"""Metrics collection and run summaries.

Everything the paper's evaluation reports is derived from the quantities
collected here: SLO hit rates and costs (Figures 6 and 8), per-application
end-to-end latencies (Figure 7), pre-planned configuration miss rates
(Table 4), scheduling overhead distributions (Figures 9-11) and
GPU-efficiency indicators for the ablation (Figure 12).

The collector streams: each observation is folded into per-application
accumulators at record time (counters, cost sums, Welford
:class:`~repro.utils.stats.RunningStats`, and compact ``array('d')``
buffers holding exactly the samples the paper's quantiles need), and no
:class:`Request` or :class:`Task` object is kept.  Its memory per request
is a few dozen bytes; the workload's own request list, when one is
materialized, still scales with the run size.

Completed requests are ordered canonically by ``(completed_ms,
request_id)``, so the summary does not depend on the order in which
completions were folded.  Resource-holding metrics (cost, vGPU-ms,
vCPU-ms) are clamped to the run horizon: a task dispatched before
``max_time_ms`` but finishing past it is only charged for the resource time
that falls inside the measured window (see :meth:`MetricsCollector.fold_task`).
``tests/cluster/metrics_oracle.py`` recomputes every summary field from
retained request and task lists, and the collector is fuzzed against it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.cluster.tasks import Task
from repro.utils.stats import RunningStats, SummaryStats, summarize
from repro.workloads.request import Request

__all__ = [
    "MetricsCollector",
    "MetricsConfig",
    "RunSummary",
]


@dataclass(frozen=True)
class MetricsConfig:
    """How the :class:`MetricsCollector` stores its observations.

    ``mode="streaming"``, the default, is the only mode: the collector folds
    observations into compact per-application accumulators at record time.
    """

    mode: str = "streaming"

    def __post_init__(self) -> None:
        if self.mode == "retained":
            raise ValueError(
                "metrics mode 'retained' was removed; the streaming collector "
                "is the only one (mode='streaming')"
            )
        if self.mode != "streaming":
            raise ValueError(f"unknown metrics mode {self.mode!r}; expected 'streaming'")


@dataclass(frozen=True)
class RunSummary:
    """Aggregate results of one simulated run (one policy, one setting)."""

    policy: str
    setting: str
    num_requests: int
    num_completed: int
    slo_hit_rate: float
    total_cost_cents: float
    cost_per_request_cents: float
    mean_latency_ms: float
    p95_latency_ms: float
    mean_overhead_ms: float
    p95_overhead_ms: float
    plan_attempts: int
    plan_misses: int
    cold_starts: int
    warm_starts: int
    local_transfers: int
    remote_transfers: int
    forced_min_dispatches: int
    mean_waiting_ms: float
    total_vgpu_ms: float
    total_vcpu_ms: float
    per_app_slo_hit_rate: dict[str, float]
    per_app_cost_cents: dict[str, float]
    per_app_mean_latency_ms: dict[str, float]
    #: True when the run stopped before the event queue drained (horizon
    #: ``max_time_ms`` reached or ``max_events`` exhausted).
    truncated: bool = False
    #: Requests terminally failed by node evictions (churn, ``on_evict="fail"``).
    num_evicted: int = 0
    #: In-flight tasks dropped by node evictions (both eviction policies).
    evicted_tasks: int = 0
    #: Jobs pushed back on the AFW queues after an eviction (``on_evict="requeue"``).
    requeued_jobs: int = 0

    @property
    def plan_miss_rate(self) -> float:
        """Fraction of scheduling attempts whose pre-planned config failed."""
        if self.plan_attempts == 0:
            return 0.0
        return self.plan_misses / self.plan_attempts

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary used by the report renderers."""
        return {
            "policy": self.policy,
            "setting": self.setting,
            "num_requests": self.num_requests,
            "num_completed": self.num_completed,
            "slo_hit_rate": self.slo_hit_rate,
            "total_cost_cents": self.total_cost_cents,
            "cost_per_request_cents": self.cost_per_request_cents,
            "mean_latency_ms": self.mean_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "mean_overhead_ms": self.mean_overhead_ms,
            "p95_overhead_ms": self.p95_overhead_ms,
            "plan_miss_rate": self.plan_miss_rate,
            "cold_starts": self.cold_starts,
            "warm_starts": self.warm_starts,
            "local_transfers": self.local_transfers,
            "remote_transfers": self.remote_transfers,
            "forced_min_dispatches": self.forced_min_dispatches,
            "mean_waiting_ms": self.mean_waiting_ms,
            "total_vgpu_ms": self.total_vgpu_ms,
            "total_vcpu_ms": self.total_vcpu_ms,
            "truncated": self.truncated,
            "num_evicted": self.num_evicted,
            "evicted_tasks": self.evicted_tasks,
            "requeued_jobs": self.requeued_jobs,
        }


class _AppAccumulator:
    """Accumulator for one application (or the whole run).

    Holds exactly what the summary needs: integer counters, the running cost
    sum, three parallel compact buffers — ``completed_ms`` / ``request_ids``
    / ``latency_ms`` — from which the exact latency quantiles are computed in
    canonical completion order, and a Welford :class:`RunningStats` over
    the latencies (cheap mean/std introspection without a sort), brought up
    to date from the buffer on read.
    """

    __slots__ = (
        "registered",
        "completed",
        "slo_hits",
        "cost_cents",
        "completed_ms",
        "request_ids",
        "latency_ms",
        "latency_stats",
        "slo_ms",
    )

    def __init__(self) -> None:
        self.registered = 0
        self.completed = 0
        self.slo_hits = 0
        self.cost_cents = 0.0
        self.completed_ms = array("d")
        self.request_ids = array("q")
        self.latency_ms = array("d")
        self.latency_stats = RunningStats()
        #: SLO budget of the first registered request (all requests of one
        #: application share one SLO within a run); None until one arrives.
        self.slo_ms: float | None = None

    def ordered_latencies(self) -> list[float]:
        """Latencies in canonical ``(completed_ms, request_id)`` order.

        Completion events fold in event-processing order; one lexsort puts
        them in the canonical order, so every order-sensitive float
        reduction downstream (numpy pairwise means, left-to-right sums)
        does not depend on how same-time completions were processed.
        """
        if not self.latency_ms:
            return []
        order = np.lexsort(
            (np.asarray(self.request_ids), np.frombuffer(self.completed_ms, dtype=float))
        )
        return np.frombuffer(self.latency_ms, dtype=float)[order].tolist()


@dataclass
class MetricsCollector:
    """Folds per-request and per-task observations into accumulators.

    The collector relies on :meth:`record_completion` being called exactly
    once when a request finishes (the controller does this); a request that
    is already complete when registered is folded immediately.
    """

    policy_name: str = ""
    setting_name: str = ""
    plan_attempts: int = 0
    plan_misses: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    local_transfers: int = 0
    remote_transfers: int = 0
    forced_min_dispatches: int = 0
    prewarm_count: int = 0
    #: In-flight tasks dropped by node evictions (cluster churn).
    evicted_tasks: int = 0
    #: Jobs requeued after node evictions (``on_evict="requeue"``).
    requeued_jobs: int = 0
    #: Set by the simulator when the run stops before the queue drains.
    truncated: bool = False
    #: The run's ``max_time_ms``; resource-holding metrics (cost, vGPU-ms,
    #: vCPU-ms) are clamped to it so truncated runs are not overcharged.
    horizon_ms: float = math.inf

    def __post_init__(self) -> None:
        #: One scheduling-overhead sample per plan() call, 8 bytes each.
        self.overhead_ms_samples = array("d")
        self._total = _AppAccumulator()
        self._per_app: dict[str, _AppAccumulator] = {}
        self._waiting_ms = array("d")
        self._vgpu_ms = 0.0
        self._vcpu_ms = 0.0
        self._evicted = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _app(self, app_name: str) -> _AppAccumulator:
        acc = self._per_app.get(app_name)
        if acc is None:
            acc = self._per_app[app_name] = _AppAccumulator()
        return acc

    def register_request(self, request: Request) -> None:
        """Register an arriving request (the SLO hit-rate denominator)."""
        self._total.registered += 1
        acc = self._per_app.get(request.workflow.name)
        if acc is None:
            acc = self._app(request.workflow.name)
        acc.registered += 1
        if acc.slo_ms is None:
            acc.slo_ms = request.slo_ms
        if request.completed_ms is not None:
            # Synthetic feeds may register pre-completed requests; fold
            # them now (record_completion must then not be called again).
            self._fold_completion(request)

    def record_completion(self, request: Request) -> None:
        """Notify the collector that a registered request just completed.

        The controller calls this exactly once, at the moment the final sink
        stage finishes; the latency sample is folded here.
        """
        if request.completed_ms is None:
            raise ValueError(
                f"request {request.request_id} has not completed; "
                "record_completion must be called after the final stage finishes"
            )
        self._fold_completion(request)

    def _fold_completion(self, request: Request) -> None:
        """Fold one completed request into the accumulators.

        The latency/SLO properties are inlined (``latency = completed -
        arrival``, ``hit = latency <= slo``) and the Welford
        :class:`RunningStats` update is deferred:
        :meth:`latency_running_stats` replays the buffered samples in fold
        order on first read.
        """
        app_name = request.workflow.name
        acc = self._per_app.get(app_name)
        if acc is None:
            acc = self._per_app[app_name] = _AppAccumulator()
        if acc.completed >= acc.registered:
            # Cheap misuse guard: catches a request folded twice (registered
            # pre-completed *and* notified via record_completion) and
            # completions of never-registered requests, both of which would
            # otherwise silently corrupt rates (e.g. slo_hit_rate > 1).
            raise ValueError(
                f"completion of request {request.request_id} would exceed the "
                f"registered request count of app {app_name!r}; was the "
                "request registered, and its completion recorded only once?"
            )
        completed_ms = request.completed_ms
        latency = completed_ms - request.arrival_ms
        hit = latency <= request.slo_ms
        request_id = request.request_id
        total = self._total
        total.completed += 1
        acc.completed += 1
        if hit:
            total.slo_hits += 1
            acc.slo_hits += 1
        total.completed_ms.append(completed_ms)
        acc.completed_ms.append(completed_ms)
        total.request_ids.append(request_id)
        acc.request_ids.append(request_id)
        total.latency_ms.append(latency)
        acc.latency_ms.append(latency)

    def fold_task(
        self,
        app_name: str,
        cost_cents: float,
        start_ms: float,
        duration_ms: float,
        vcpus: int,
        vgpus: int,
        waiting_ms: float,
    ) -> None:
        """Fold one dispatched task's resource use into the accumulators.

        The task holds ``vcpus`` and ``vgpus`` from ``start_ms`` for
        ``duration_ms`` at a cost of ``cost_cents``; ``waiting_ms`` is the
        mean queueing delay of its jobs.  A task finishing past the horizon
        is charged only the part of ``[start, finish]`` inside it (pro rata
        for the cost; nothing for a zero-length task past it), so truncated
        runs are not billed for resource time the measured window never saw.
        """
        finish_ms = start_ms + duration_ms
        horizon = self.horizon_ms
        if finish_ms <= horizon:
            cost = cost_cents
            held_ms = duration_ms
        else:
            held_ms = horizon - start_ms
            if held_ms < 0.0:
                held_ms = 0.0
            cost = cost_cents * (held_ms / duration_ms) if duration_ms > 0.0 else 0.0
        self._total.cost_cents += cost
        acc = self._per_app.get(app_name)
        if acc is None:
            acc = self._app(app_name)
        acc.cost_cents += cost
        self._vgpu_ms += vgpus * held_ms
        self._vcpu_ms += vcpus * held_ms
        self._waiting_ms.append(waiting_ms)

    def record_task(self, task: Task) -> None:
        """Record a dispatched task: its start kind and :meth:`fold_task`.

        The task's derived times are computed here from its fields, with
        the same float operations as :attr:`Task.start_ms`,
        :attr:`Task.duration_ms` and :meth:`Task.waiting_ms` (whose
        ``sum`` starts at int 0, so its first addition is exact).
        """
        cold_ms = task.cold_start_ms
        if cold_ms > 0.0:
            self.cold_starts += 1
        else:
            self.warm_starts += 1
        dispatch_ms = task.dispatch_ms
        jobs = task.jobs
        waiting = 0
        for job in jobs:
            delay = dispatch_ms - job.ready_ms
            waiting += delay if delay > 0.0 else 0.0
        config = task.config
        self.fold_task(
            task.app_name,
            task.cost_cents,
            dispatch_ms + task.overhead_ms,
            cold_ms + task.transfer_ms + task.exec_ms,
            config.vcpus,
            config.vgpus,
            waiting / len(jobs),
        )

    def record_overhead(self, overhead_ms: float) -> None:
        """Record one scheduling-overhead sample (one plan() invocation)."""
        try:
            valid = 0.0 <= overhead_ms < math.inf
        except TypeError:
            # None or a string: the controller reads no clock, so a policy
            # must model its overhead.
            raise TypeError(
                f"policy {self.policy_name!r} reported a scheduling overhead of "
                f"{overhead_ms!r}; it must be a number of ms (0.0 when not modeled)"
            ) from None
        if not valid:
            raise ValueError(
                f"policy {self.policy_name!r} reported a scheduling overhead of "
                f"{overhead_ms!r} ms; it must be finite and >= 0"
            )
        self.overhead_ms_samples.append(overhead_ms)

    def record_plan_attempt(self, *, miss: bool) -> None:
        """Record one attempt to apply a pre-planned configuration."""
        self.plan_attempts += 1
        if miss:
            self.plan_misses += 1

    def record_transfers(self, local: int, remote: int) -> None:
        """Record one dispatch's input transfers: ``local`` jobs whose
        predecessor ran on the task's node and ``remote`` others."""
        if local < 0 or remote < 0:
            raise ValueError(f"transfer counts must be >= 0, got {local} and {remote}")
        self.local_transfers += local
        self.remote_transfers += remote

    def record_forced_min_dispatch(self) -> None:
        """Record a queue dispatched with the minimum config after rechecks."""
        self.forced_min_dispatches += 1

    def record_prewarm(self) -> None:
        """Record one prewarm container launch."""
        self.prewarm_count += 1

    def record_task_evicted(self) -> None:
        """Record one in-flight task dropped by a node eviction."""
        self.evicted_tasks += 1

    def record_requeued_jobs(self, count: int) -> None:
        """Record ``count`` jobs requeued after a node eviction."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.requeued_jobs += count

    def record_request_evicted(self, request: Request) -> None:
        """Notify the collector that ``request`` was terminally evicted.

        The controller calls this exactly once, right after stamping
        ``request.evicted_ms``.
        """
        self._evicted += 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def _scope(self, app_name: str | None) -> _AppAccumulator | None:
        return self._total if app_name is None else self._per_app.get(app_name)

    def num_requests(self, app_name: str | None = None) -> int:
        """Number of registered requests (optionally of one application)."""
        acc = self._scope(app_name)
        return acc.registered if acc is not None else 0

    def num_completed(self, app_name: str | None = None) -> int:
        """Number of completed requests (optionally of one application)."""
        acc = self._scope(app_name)
        return acc.completed if acc is not None else 0

    def num_evicted(self) -> int:
        """Number of requests terminally failed by node evictions."""
        return self._evicted

    def app_slo_ms(self, app_name: str) -> float | None:
        """SLO budget of ``app_name``'s requests in this run (None if unseen).

        Every request of one application carries the same SLO within a run
        (setting factor x the app's base latency), so the first registered
        request's value stands for the app.  No ``Request`` object survives
        the run, so the figure modules read the SLO here.
        """
        acc = self._per_app.get(app_name)
        return acc.slo_ms if acc is not None else None

    def slo_hit_rate(self, app_name: str | None = None) -> float:
        """Fraction of *all* registered requests that completed within SLO."""
        acc = self._scope(app_name)
        if acc is None or acc.registered == 0:
            return 0.0
        return acc.slo_hits / acc.registered

    def latencies_ms(self, app_name: str | None = None) -> list[float]:
        """End-to-end latencies of completed requests.

        In canonical ``(completed_ms, request_id)`` ascending order.
        """
        acc = self._scope(app_name)
        return acc.ordered_latencies() if acc is not None else []

    def latency_running_stats(self, app_name: str | None = None) -> RunningStats:
        """Welford running mean/std of latencies."""
        acc = self._scope(app_name)
        if acc is None:
            return RunningStats()
        if acc.latency_stats.count != len(acc.latency_ms):
            # Folds defer the Welford updates; replay the buffered samples
            # in fold order.
            stats = RunningStats()
            for sample in acc.latency_ms:
                stats.update(sample)
            acc.latency_stats = stats
        return acc.latency_stats

    def total_cost_cents(self, app_name: str | None = None) -> float:
        """Sum of task costs (optionally of one application).

        Each task is charged only for the resource time it held inside the
        run horizon (see :meth:`fold_task`).
        """
        acc = self._scope(app_name)
        return acc.cost_cents if acc is not None else 0.0

    def cost_per_request_cents(self, app_name: str | None = None) -> float:
        """Total cost divided by the number of registered requests."""
        registered = self.num_requests(app_name)
        if registered == 0:
            return 0.0
        return self.total_cost_cents(app_name) / registered

    def plan_miss_rate(self) -> float:
        """Fraction of plan applications that missed (Table 4)."""
        if self.plan_attempts == 0:
            return 0.0
        return self.plan_misses / self.plan_attempts

    def overhead_summary(self) -> SummaryStats:
        """Distribution of scheduling overhead per plan() call (Figure 10)."""
        return summarize(self.overhead_ms_samples)

    def waiting_ms_samples(self) -> list[float]:
        """Queueing delay of every dispatched task (task-record order)."""
        return list(self._waiting_ms)

    def total_vgpu_ms(self) -> float:
        """vGPU-milliseconds consumed inside the horizon (GPU efficiency)."""
        return self._vgpu_ms

    def total_vcpu_ms(self) -> float:
        """vCPU-milliseconds consumed inside the horizon."""
        return self._vcpu_ms

    def app_names(self) -> list[str]:
        """Applications observed in this run (sorted).

        Apps are observed through *requests*: an accumulator created only
        by task records (possible in synthetic feeds) is not an observed
        application.
        """
        return sorted(app for app, acc in self._per_app.items() if acc.registered > 0)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> RunSummary:
        """Condense the run into a :class:`RunSummary`.

        A single pass over the compact buffers (one lexsort per scope).
        """
        latencies = self.latencies_ms()
        latency_stats = summarize(latencies) if latencies else None
        overheads = self.overhead_ms_samples
        overhead_stats = summarize(overheads) if len(overheads) else None
        waiting = self.waiting_ms_samples()
        per_app_hit = {app: self.slo_hit_rate(app) for app in self.app_names()}
        per_app_cost = {app: self.total_cost_cents(app) for app in self.app_names()}
        per_app_latency = {}
        for app in self.app_names():
            app_lat = self.latencies_ms(app)
            per_app_latency[app] = sum(app_lat) / len(app_lat) if app_lat else 0.0

        return RunSummary(
            policy=self.policy_name,
            setting=self.setting_name,
            num_requests=self.num_requests(),
            num_completed=self.num_completed(),
            slo_hit_rate=self.slo_hit_rate(),
            total_cost_cents=self.total_cost_cents(),
            cost_per_request_cents=self.cost_per_request_cents(),
            mean_latency_ms=latency_stats.mean if latency_stats else 0.0,
            p95_latency_ms=latency_stats.p95 if latency_stats else 0.0,
            mean_overhead_ms=overhead_stats.mean if overhead_stats else 0.0,
            p95_overhead_ms=overhead_stats.p95 if overhead_stats else 0.0,
            plan_attempts=self.plan_attempts,
            plan_misses=self.plan_misses,
            cold_starts=self.cold_starts,
            warm_starts=self.warm_starts,
            local_transfers=self.local_transfers,
            remote_transfers=self.remote_transfers,
            forced_min_dispatches=self.forced_min_dispatches,
            mean_waiting_ms=(sum(waiting) / len(waiting)) if waiting else 0.0,
            total_vgpu_ms=self.total_vgpu_ms(),
            total_vcpu_ms=self.total_vcpu_ms(),
            per_app_slo_hit_rate=per_app_hit,
            per_app_cost_cents=per_app_cost,
            per_app_mean_latency_ms=per_app_latency,
            truncated=self.truncated,
            num_evicted=self.num_evicted(),
            evicted_tasks=self.evicted_tasks,
            requeued_jobs=self.requeued_jobs,
        )
