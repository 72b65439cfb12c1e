"""Test oracle: a run summary recomputed from retained requests and tasks.

The metrics collector folds every observation into accumulators at record
time and keeps no ``Request`` or ``Task`` object.  This oracle keeps every
one and derives each :class:`~repro.cluster.metrics.RunSummary` field by
scanning them, with the formulas the collector's folds must reproduce bit
for bit: latencies in canonical ``(completed_ms, request_id)`` order, the
horizon clamp of resource-holding time, and per-application scopes
observed through requests.
"""

from __future__ import annotations

import math

from repro.cluster.metrics import RunSummary
from repro.cluster.tasks import Task
from repro.utils.stats import summarize
from repro.workloads.request import Request


def charged_duration_ms(task: Task, horizon_ms: float) -> float:
    """Resource-holding time of ``task`` clamped to the run horizon."""
    if task.finish_ms <= horizon_ms:
        return task.duration_ms
    return max(0.0, horizon_ms - task.start_ms)


def charged_cost_cents(task: Task, horizon_ms: float) -> float:
    """``task.cost_cents`` scaled to the fraction held inside the horizon."""
    if task.finish_ms <= horizon_ms:
        return task.cost_cents
    duration = task.duration_ms
    if duration <= 0.0:
        return 0.0
    return task.cost_cents * (max(0.0, horizon_ms - task.start_ms) / duration)


class RetainedMetrics:
    """Keeps every registered request and recorded task; scans at summary."""

    def __init__(self, policy_name: str = "", setting_name: str = "", horizon_ms: float = math.inf):
        self.policy_name = policy_name
        self.setting_name = setting_name
        self.horizon_ms = horizon_ms
        self.requests: list[Request] = []
        self.tasks: list[Task] = []
        self.overhead_ms_samples: list[float] = []
        self.cold_starts = 0
        self.warm_starts = 0

    def register_request(self, request: Request) -> None:
        self.requests.append(request)

    def record_task(self, task: Task) -> None:
        if task.was_cold_start:
            self.cold_starts += 1
        else:
            self.warm_starts += 1
        self.tasks.append(task)

    def record_overhead(self, overhead_ms: float) -> None:
        self.overhead_ms_samples.append(overhead_ms)

    def _requests(self, app: str | None) -> list[Request]:
        return [r for r in self.requests if app is None or r.app_name == app]

    def latencies_ms(self, app: str | None = None) -> list[float]:
        done = sorted(
            (r for r in self._requests(app) if r.is_complete),
            key=lambda r: (r.completed_ms, r.request_id),
        )
        return [r.latency_ms for r in done]

    def slo_hit_rate(self, app: str | None = None) -> float:
        relevant = self._requests(app)
        if not relevant:
            return 0.0
        return sum(1 for r in relevant if r.slo_hit) / len(relevant)

    def total_cost_cents(self, app: str | None = None) -> float:
        return sum(
            charged_cost_cents(t, self.horizon_ms)
            for t in self.tasks
            if app is None or t.app_name == app
        )

    def summary(self) -> RunSummary:
        latencies = self.latencies_ms()
        latency_stats = summarize(latencies) if latencies else None
        overhead_stats = summarize(self.overhead_ms_samples) if self.overhead_ms_samples else None
        waiting = [t.waiting_ms() for t in self.tasks]
        apps = sorted({r.app_name for r in self.requests})
        per_app_latency = {}
        for app in apps:
            app_lat = self.latencies_ms(app)
            per_app_latency[app] = sum(app_lat) / len(app_lat) if app_lat else 0.0
        num_requests = len(self.requests)
        total_cost = self.total_cost_cents()
        return RunSummary(
            policy=self.policy_name,
            setting=self.setting_name,
            num_requests=num_requests,
            num_completed=sum(1 for r in self.requests if r.is_complete),
            slo_hit_rate=self.slo_hit_rate(),
            total_cost_cents=total_cost,
            cost_per_request_cents=total_cost / num_requests if num_requests else 0.0,
            mean_latency_ms=latency_stats.mean if latency_stats else 0.0,
            p95_latency_ms=latency_stats.p95 if latency_stats else 0.0,
            mean_overhead_ms=overhead_stats.mean if overhead_stats else 0.0,
            p95_overhead_ms=overhead_stats.p95 if overhead_stats else 0.0,
            plan_attempts=0,
            plan_misses=0,
            cold_starts=self.cold_starts,
            warm_starts=self.warm_starts,
            local_transfers=0,
            remote_transfers=0,
            forced_min_dispatches=0,
            mean_waiting_ms=(sum(waiting) / len(waiting)) if waiting else 0.0,
            total_vgpu_ms=sum(
                t.config.vgpus * charged_duration_ms(t, self.horizon_ms) for t in self.tasks
            ),
            total_vcpu_ms=sum(
                t.config.vcpus * charged_duration_ms(t, self.horizon_ms) for t in self.tasks
            ),
            per_app_slo_hit_rate={app: self.slo_hit_rate(app) for app in apps},
            per_app_cost_cents={app: self.total_cost_cents(app) for app in apps},
            per_app_mean_latency_ms=per_app_latency,
            num_evicted=sum(1 for r in self.requests if r.evicted_ms is not None),
        )
