"""Metrics collection and run summaries.

Everything the paper's evaluation reports is derived from the quantities
collected here: SLO hit rates and costs (Figures 6 and 8), per-application
end-to-end latencies (Figure 7), pre-planned configuration miss rates
(Table 4), scheduling overhead distributions (Figures 9-11) and
GPU-efficiency indicators for the ablation (Figure 12).

The collector runs in one of two modes (:class:`MetricsConfig`):

* ``"retained"`` (default) — every :class:`Request` and :class:`Task` object
  is kept for the whole run and the derived metrics re-scan them.  Fully
  debuggable: after a run you can inspect any individual request.
* ``"streaming"`` — each observation is folded into per-application
  accumulators at record time (counters, cost sums, Welford
  :class:`~repro.utils.stats.RunningStats`, and compact ``array('d')``
  buffers holding exactly the samples the paper's quantiles need) and the
  ``Request``/``Task`` objects are never retained.  The *collector's*
  memory per request drops from whole object graphs to a few dozen bytes:
  the Task/Job graphs (which only the collector keeps alive in retained
  mode) are freed as the run drains, and nothing survives the run beyond
  the accumulators.  The workload's own request list still scales with the
  run size — streaming removes the metrics layer from the memory equation,
  not the simulation input.

The two modes are **byte-identical**: every accumulator applies the same
floating-point operations in the same order as the retained scans, so
``summary()`` produces an equal :class:`RunSummary` either way (asserted by
the tier-1 parity suite, mirroring the cluster core's ``index_mode="scan"``
precedent).

Completed requests are ordered canonically by ``(completed_ms,
request_id)`` in both modes.  Resource-holding metrics (cost, vGPU-ms,
vCPU-ms) are clamped to the run horizon: a task dispatched before
``max_time_ms`` but finishing past it is only charged for the resource time
that falls inside the measured window (see :func:`charged_duration_ms`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.tasks import Task
from repro.utils.stats import RunningStats, SummaryStats, summarize
from repro.workloads.request import Request

__all__ = [
    "METRICS_MODES",
    "MetricsCollector",
    "MetricsConfig",
    "RunSummary",
    "charged_cost_cents",
    "charged_duration_ms",
]

#: Collector modes accepted by :class:`MetricsConfig`.
METRICS_MODES = ("retained", "streaming")


@dataclass(frozen=True)
class MetricsConfig:
    """How the :class:`MetricsCollector` stores its observations.

    ``mode="retained"`` keeps every request/task object alive (the default,
    debuggable path); ``mode="streaming"`` folds observations into compact
    per-application accumulators at record time and never retains the
    objects.  Summaries are byte-identical across modes.
    """

    mode: str = "retained"

    def __post_init__(self) -> None:
        if self.mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {self.mode!r}; expected one of {METRICS_MODES}"
            )


# ----------------------------------------------------------------------
# Horizon clamping
# ----------------------------------------------------------------------
def charged_duration_ms(task: Task, horizon_ms: float) -> float:
    """Resource-holding time of ``task`` clamped to the run horizon.

    A truncated run stops the clock at ``horizon_ms`` but tasks dispatched
    shortly before it keep their full ``duration_ms``; charging that full
    duration would bill resource time the measured window never observed
    (and inflate cost-per-request for truncated sweeps).  Only the portion
    of ``[start_ms, finish_ms]`` that lies inside the horizon is charged.
    """
    if task.finish_ms <= horizon_ms:
        return task.duration_ms
    return max(0.0, horizon_ms - task.start_ms)


def charged_cost_cents(task: Task, horizon_ms: float) -> float:
    """``task.cost_cents`` scaled to the fraction held inside the horizon."""
    if task.finish_ms <= horizon_ms:
        return task.cost_cents
    duration = task.duration_ms
    if duration <= 0.0:
        # A zero-length task past the horizon held nothing inside it.
        return 0.0
    return task.cost_cents * (max(0.0, horizon_ms - task.start_ms) / duration)


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
    """Streaming-mode accumulator for one application (or the whole run).

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

        Completion events fold in event-processing order; re-ordering via a
        single lexsort reproduces exactly the sequence the retained path
        builds, so every order-sensitive float reduction downstream (numpy
        pairwise means, left-to-right sums) is bit-identical.
        """
        if not self.latency_ms:
            return []
        order = np.lexsort(
            (np.asarray(self.request_ids), np.frombuffer(self.completed_ms, dtype=float))
        )
        return np.frombuffer(self.latency_ms, dtype=float)[order].tolist()


#: Error raised for any read of / record into a placeholder collector.
_PLACEHOLDER_ERROR = (
    "this MetricsCollector is a summary_only placeholder: no observations "
    "were recorded in it (only the counters and the truncated flag mirror "
    "the run); read the result's RunSummary for derived metrics"
)


class _PlaceholderSamples:
    """Stand-in for a placeholder collector's observation containers.

    Any attempt to read it — length, iteration, indexing, truthiness —
    raises the same explicit error as the guarded accessors, so code that
    reads ``metrics.overhead_ms_samples`` (or ``requests``/``tasks``)
    directly cannot silently compute from empty data.
    """

    def _raise(self):
        raise RuntimeError(_PLACEHOLDER_ERROR)

    def __len__(self):
        self._raise()

    def __iter__(self):
        self._raise()

    def __getitem__(self, index):
        self._raise()

    def __bool__(self):
        self._raise()

    def __repr__(self) -> str:
        return "<placeholder: no observations recorded>"


@dataclass
class MetricsCollector:
    """Collects per-request and per-task observations during a run.

    In retained mode (the default) ``requests`` and ``tasks`` hold every
    observed object and the derived metrics scan them; in streaming mode
    (``config.mode == "streaming"``) both lists stay empty and the same
    quantities are folded into accumulators at record time.  Streaming mode
    relies on :meth:`record_completion` being called exactly once when a
    request finishes (the controller does this); a request that is already
    complete when registered is folded immediately.
    """

    policy_name: str = ""
    setting_name: str = ""
    requests: list[Request] = field(default_factory=list)
    tasks: list[Task] = field(default_factory=list)
    overhead_ms_samples: list[float] = field(default_factory=list)
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
    #: Storage mode (retained vs streaming accumulators).
    config: MetricsConfig = field(default_factory=MetricsConfig)
    #: The run's ``max_time_ms``; resource-holding metrics (cost, vGPU-ms,
    #: vCPU-ms) are clamped to it so truncated runs are not overcharged.
    horizon_ms: float = math.inf
    #: True for the stand-in collectors attached to ``summary_only`` engine
    #: results: counters and flags mirror the run's summary, but no request
    #: or task observations were ever recorded here.
    placeholder: bool = False

    def __post_init__(self) -> None:
        self._total = _AppAccumulator()
        self._per_app: dict[str, _AppAccumulator] = {}
        self._waiting_ms = array("d")
        self._vgpu_ms = 0.0
        self._vcpu_ms = 0.0
        #: Streaming-mode eviction counter (retained mode scans requests).
        self._evicted = 0
        if self.is_streaming:
            # Same append/iterate surface as the list, 8 bytes per sample.
            self.overhead_ms_samples = array("d", self.overhead_ms_samples)

    @property
    def is_streaming(self) -> bool:
        """True when observations fold into accumulators at record time."""
        return self.config.mode == "streaming"

    @classmethod
    def placeholder_from_summary(cls, summary: RunSummary) -> "MetricsCollector":
        """An explicit stand-in collector consistent with ``summary``.

        ``summary_only`` engine results do not ship per-request data back
        from workers, but code that inspects ``result.metrics`` must not be
        misled by a default-constructed collector whose ``truncated``/counter
        fields contradict the attached summary.  The placeholder carries the
        summary's flags and counters and sets :attr:`placeholder`; every
        observation-derived read — accessor methods (``num_requests``,
        ``slo_hit_rate``, ``latencies_ms``, ``summary()``, ...) *and* the
        raw ``requests``/``tasks``/``overhead_ms_samples`` containers —
        raises instead of silently answering from empty data
        (``prewarm_count`` is not part of the summary and stays 0).
        """
        collector = cls(
            policy_name=summary.policy,
            setting_name=summary.setting,
            plan_attempts=summary.plan_attempts,
            plan_misses=summary.plan_misses,
            cold_starts=summary.cold_starts,
            warm_starts=summary.warm_starts,
            local_transfers=summary.local_transfers,
            remote_transfers=summary.remote_transfers,
            forced_min_dispatches=summary.forced_min_dispatches,
            evicted_tasks=summary.evicted_tasks,
            requeued_jobs=summary.requeued_jobs,
            truncated=summary.truncated,
            placeholder=True,
        )
        # Direct field reads must fail as loudly as the guarded accessors.
        collector.requests = _PlaceholderSamples()
        collector.tasks = _PlaceholderSamples()
        collector.overhead_ms_samples = _PlaceholderSamples()
        return collector

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _check_not_placeholder(self) -> None:
        if self.placeholder:
            raise RuntimeError(_PLACEHOLDER_ERROR)

    def _app(self, app_name: str) -> _AppAccumulator:
        acc = self._per_app.get(app_name)
        if acc is None:
            acc = self._per_app[app_name] = _AppAccumulator()
        return acc

    def register_request(self, request: Request) -> None:
        """Register an arriving request (the SLO hit-rate denominator)."""
        self._check_not_placeholder()
        if self.is_streaming:
            self._total.registered += 1
            acc = self._app(request.app_name)
            acc.registered += 1
            if acc.slo_ms is None:
                acc.slo_ms = request.slo_ms
            if request.is_complete:
                # Synthetic feeds may register pre-completed requests; fold
                # them now (record_completion must then not be called again).
                self._fold_completion(request)
            return
        self.requests.append(request)

    def record_completion(self, request: Request) -> None:
        """Notify the collector that a registered request just completed.

        The controller calls this exactly once, at the moment the final sink
        stage finishes.  Retained mode derives completion by scanning, so the
        call is a no-op there; streaming mode folds the latency sample here.
        """
        self._check_not_placeholder()
        if not self.is_streaming:
            return
        if not request.is_complete:
            raise ValueError(
                f"request {request.request_id} has not completed; "
                "record_completion must be called after the final stage finishes"
            )
        self._fold_completion(request)

    def _fold_completion(self, request: Request) -> None:
        """Fold one completed request into the streaming accumulators.

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

    def record_task(self, task: Task) -> None:
        """Record a dispatched task and its latency breakdown."""
        self._check_not_placeholder()
        if task.was_cold_start:
            self.cold_starts += 1
        else:
            self.warm_starts += 1
        if self.is_streaming:
            cost = charged_cost_cents(task, self.horizon_ms)
            held_ms = charged_duration_ms(task, self.horizon_ms)
            self._total.cost_cents += cost
            self._app(task.app_name).cost_cents += cost
            self._vgpu_ms += task.config.vgpus * held_ms
            self._vcpu_ms += task.config.vcpus * held_ms
            self._waiting_ms.append(task.waiting_ms())
            return
        self.tasks.append(task)

    def record_overhead(self, overhead_ms: float) -> None:
        """Record one scheduling-overhead sample (one plan() invocation)."""
        self._check_not_placeholder()
        if not 0.0 <= overhead_ms < float("inf"):
            raise ValueError(
                f"policy {self.policy_name!r} reported a scheduling overhead of "
                f"{overhead_ms!r} ms; it must be finite and >= 0"
            )
        self.overhead_ms_samples.append(overhead_ms)

    def record_plan_attempt(self, *, miss: bool) -> None:
        """Record one attempt to apply a pre-planned configuration."""
        self._check_not_placeholder()
        self.plan_attempts += 1
        if miss:
            self.plan_misses += 1

    def record_transfer(self, *, local: bool) -> None:
        """Record one inter-stage data transfer."""
        self._check_not_placeholder()
        if local:
            self.local_transfers += 1
        else:
            self.remote_transfers += 1

    def record_forced_min_dispatch(self) -> None:
        """Record a queue dispatched with the minimum config after rechecks."""
        self._check_not_placeholder()
        self.forced_min_dispatches += 1

    def record_prewarm(self) -> None:
        """Record one prewarm container launch."""
        self._check_not_placeholder()
        self.prewarm_count += 1

    def record_task_evicted(self) -> None:
        """Record one in-flight task dropped by a node eviction."""
        self._check_not_placeholder()
        self.evicted_tasks += 1

    def record_requeued_jobs(self, count: int) -> None:
        """Record ``count`` jobs requeued after a node eviction."""
        self._check_not_placeholder()
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.requeued_jobs += count

    def record_request_evicted(self, request: Request) -> None:
        """Notify the collector that ``request`` was terminally evicted.

        The controller calls this exactly once, right after stamping
        ``request.evicted_ms``.  Retained mode derives the count by scanning
        the request list, so only streaming mode counts here — mirroring
        :meth:`record_completion`.
        """
        self._check_not_placeholder()
        if self.is_streaming:
            self._evicted += 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def completed_requests(self, app_name: str | None = None) -> list[Request]:
        """Requests that finished (optionally filtered by application)."""
        self._check_not_placeholder()
        if self.is_streaming:
            raise RuntimeError(
                "a streaming MetricsCollector does not retain Request objects; "
                "use MetricsConfig(mode='retained') to inspect individual requests"
            )
        return [
            r
            for r in self.requests
            if r.is_complete and (app_name is None or r.app_name == app_name)
        ]

    def num_requests(self, app_name: str | None = None) -> int:
        """Number of registered requests (optionally of one application)."""
        self._check_not_placeholder()
        if self.is_streaming:
            acc = self._total if app_name is None else self._per_app.get(app_name)
            return acc.registered if acc is not None else 0
        return sum(1 for r in self.requests if app_name is None or r.app_name == app_name)

    def num_completed(self, app_name: str | None = None) -> int:
        """Number of completed requests (optionally of one application)."""
        self._check_not_placeholder()
        if self.is_streaming:
            acc = self._total if app_name is None else self._per_app.get(app_name)
            return acc.completed if acc is not None else 0
        return len(self.completed_requests(app_name))

    def num_evicted(self) -> int:
        """Number of requests terminally failed by node evictions."""
        self._check_not_placeholder()
        if self.is_streaming:
            return self._evicted
        return sum(1 for r in self.requests if r.evicted_ms is not None)

    def app_slo_ms(self, app_name: str) -> float | None:
        """SLO budget of ``app_name``'s requests in this run (None if unseen).

        Every request of one application carries the same SLO within a run
        (setting factor x the app's base latency), so the first registered
        request's value stands for the app.  Served in both modes — in
        streaming mode no ``Request`` object survives, so the figure
        modules must read the SLO here rather than from a request list.
        """
        self._check_not_placeholder()
        if self.is_streaming:
            acc = self._per_app.get(app_name)
            return acc.slo_ms if acc is not None else None
        for request in self.requests:
            if request.app_name == app_name:
                return request.slo_ms
        return None

    def slo_hit_rate(self, app_name: str | None = None) -> float:
        """Fraction of *all* registered requests that completed within SLO."""
        self._check_not_placeholder()
        if self.is_streaming:
            acc = self._total if app_name is None else self._per_app.get(app_name)
            if acc is None or acc.registered == 0:
                return 0.0
            return acc.slo_hits / acc.registered
        relevant = [r for r in self.requests if app_name is None or r.app_name == app_name]
        if not relevant:
            return 0.0
        hits = sum(1 for r in relevant if r.slo_hit)
        return hits / len(relevant)

    def latencies_ms(self, app_name: str | None = None) -> list[float]:
        """End-to-end latencies of completed requests.

        Canonical order in both modes: ``(completed_ms, request_id)``
        ascending, so streaming buffers and retained scans produce the same
        sequence bit-for-bit.
        """
        self._check_not_placeholder()
        if self.is_streaming:
            acc = self._total if app_name is None else self._per_app.get(app_name)
            return acc.ordered_latencies() if acc is not None else []
        done = sorted(
            self.completed_requests(app_name),
            key=lambda r: (r.completed_ms, r.request_id),
        )
        return [r.latency_ms for r in done]

    def latency_running_stats(self, app_name: str | None = None) -> RunningStats:
        """Welford running mean/std of latencies (streaming mode only)."""
        self._check_not_placeholder()
        if not self.is_streaming:
            raise RuntimeError(
                "running latency stats are maintained in streaming mode only; "
                "retained mode can summarize(latencies_ms()) instead"
            )
        acc = self._total if app_name is None else self._per_app.get(app_name)
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
        run horizon (:func:`charged_cost_cents`).
        """
        self._check_not_placeholder()
        if self.is_streaming:
            acc = self._total if app_name is None else self._per_app.get(app_name)
            return acc.cost_cents if acc is not None else 0.0
        return sum(
            charged_cost_cents(t, self.horizon_ms)
            for t in self.tasks
            if app_name is None or t.app_name == app_name
        )

    def cost_per_request_cents(self, app_name: str | None = None) -> float:
        """Total cost divided by the number of registered requests."""
        self._check_not_placeholder()
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
        self._check_not_placeholder()
        return summarize(self.overhead_ms_samples)

    def waiting_ms_samples(self) -> list[float]:
        """Queueing delay of every dispatched task (task-record order)."""
        self._check_not_placeholder()
        if self.is_streaming:
            return list(self._waiting_ms)
        return [t.waiting_ms() for t in self.tasks]

    def total_vgpu_ms(self) -> float:
        """vGPU-milliseconds consumed inside the horizon (GPU efficiency)."""
        self._check_not_placeholder()
        if self.is_streaming:
            return self._vgpu_ms
        return sum(
            t.config.vgpus * charged_duration_ms(t, self.horizon_ms) for t in self.tasks
        )

    def total_vcpu_ms(self) -> float:
        """vCPU-milliseconds consumed inside the horizon."""
        self._check_not_placeholder()
        if self.is_streaming:
            return self._vcpu_ms
        return sum(
            t.config.vcpus * charged_duration_ms(t, self.horizon_ms) for t in self.tasks
        )

    def app_names(self) -> list[str]:
        """Applications observed in this run (sorted).

        Apps are observed through *requests* in both modes: an accumulator
        created only by task records (possible in synthetic feeds) is not an
        observed application, matching the retained scan's semantics.
        """
        self._check_not_placeholder()
        if self.is_streaming:
            return sorted(app for app, acc in self._per_app.items() if acc.registered > 0)
        return sorted({r.app_name for r in self.requests})

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> RunSummary:
        """Condense the run into a :class:`RunSummary`.

        The same code path serves both modes: every accessor above reads the
        streaming accumulators or scans the retained objects, applying
        identical float operations in an identical order — the foundation of
        the byte-identical parity guarantee.  In streaming mode this is a
        single pass over the compact buffers (one lexsort per scope) rather
        than O(apps x n) re-scans of the request/task lists.
        """
        self._check_not_placeholder()
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
