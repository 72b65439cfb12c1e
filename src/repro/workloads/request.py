"""Runtime records for application requests and per-stage jobs.

Terminology follows Section 3.2 of the paper:

* a **request** is one invocation of an application (its end-to-end latency
  is what the SLO constrains);
* a **job** is the inference of one request at one stage (one entry in an
  AFW queue);
* a **task** is the set of jobs processed together by one batched function
  invocation (tasks live in :mod:`repro.cluster.tasks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.workloads.dag import Workflow

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.profiles.configuration import Configuration

__all__ = ["Request", "Job"]


@dataclass
class Request:
    """One end-to-end invocation of an application workflow.

    Parameters
    ----------
    request_id:
        Unique id within the experiment.
    workflow:
        The application DAG this request traverses.
    arrival_ms:
        Absolute simulation time at which the request arrived.
    slo_ms:
        The latency budget (duration, not an absolute time); the request is
        an SLO hit iff it completes within ``arrival_ms + slo_ms``.
    """

    request_id: int
    workflow: Workflow
    arrival_ms: float
    slo_ms: float

    #: Completion time of each finished stage (absolute ms).
    stage_completion_ms: dict[str, float] = field(default_factory=dict)
    #: Invoker that ran each finished stage (for data-locality decisions).
    stage_invoker: dict[str, int] = field(default_factory=dict)
    #: Full-application configuration plan computed up-front by static
    #: planners (Orion, Aquatope); ``None`` for adaptive schedulers.
    static_plan: dict[str, "Configuration"] | None = None
    #: Set when the final stage completes.
    completed_ms: float | None = None
    #: Set when the request is terminally failed because a node eviction
    #: dropped its in-flight work under ``on_evict="fail"`` (cluster churn).
    #: Mutually exclusive with ``completed_ms``; an evicted request never
    #: completes and therefore counts as an SLO miss.
    evicted_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_ms < math.inf:
            raise ValueError(f"arrival_ms must be finite and >= 0, got {self.arrival_ms!r}")
        # An infinite SLO is legal: ESG treats it as no limit.
        if not self.slo_ms > 0:
            raise ValueError(f"slo_ms must be > 0, got {self.slo_ms!r}")

    # ------------------------------------------------------------------
    # Derived times
    # ------------------------------------------------------------------
    @property
    def app_name(self) -> str:
        """Name of the application this request invokes."""
        return self.workflow.name

    @property
    def deadline_ms(self) -> float:
        """Absolute time by which the request must finish to hit its SLO."""
        return self.arrival_ms + self.slo_ms

    def remaining_budget_ms(self, now_ms: float) -> float:
        """Time left until the deadline (can be negative once missed)."""
        return self.deadline_ms - now_ms

    @property
    def latency_ms(self) -> float | None:
        """End-to-end latency, or ``None`` if the request has not finished."""
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.arrival_ms

    @property
    def is_complete(self) -> bool:
        """True once every sink stage has completed."""
        return self.completed_ms is not None

    @property
    def is_evicted(self) -> bool:
        """True if the request was terminally failed by a node eviction."""
        return self.evicted_ms is not None

    @property
    def slo_hit(self) -> bool | None:
        """Whether the request met its SLO (``None`` while still running)."""
        if self.completed_ms is None:
            return None
        return (self.completed_ms - self.arrival_ms) <= self.slo_ms

    # ------------------------------------------------------------------
    # Stage bookkeeping
    # ------------------------------------------------------------------
    def record_stage_completion(self, stage_id: str, finish_ms: float, invoker_id: int) -> bool:
        """Record that ``stage_id`` finished at ``finish_ms`` on ``invoker_id``.

        Returns True when this completion finishes the request: every sink
        stage is done, and ``completed_ms`` becomes the latest sink's
        completion time.
        """
        topo = self.workflow.topology()
        if stage_id not in topo.pred:
            raise KeyError(f"{stage_id!r} is not a stage of {self.workflow.name!r}")
        scm = self.stage_completion_ms
        if stage_id in scm:
            raise ValueError(f"stage {stage_id!r} of request {self.request_id} completed twice")
        scm[stage_id] = finish_ms
        self.stage_invoker[stage_id] = invoker_id
        sinks = topo.sinks
        for sink in sinks:
            if sink not in scm:
                return False
        was_complete = self.completed_ms is not None
        self.completed_ms = scm[sinks[0]] if len(sinks) == 1 else max(scm[s] for s in sinks)
        return not was_complete

    def ready_successors(self, stage_id: str) -> list[str]:
        """Successors of the completed ``stage_id`` whose predecessors have all completed."""
        topo = self.workflow.topology()
        scm = self.stage_completion_ms
        pred_of = topo.pred
        ready = []
        for succ in topo.succ[stage_id]:
            for pred in pred_of[succ]:
                if pred not in scm:
                    break
            else:
                ready.append(succ)
        return ready

    def remaining_stage_ids(self) -> list[str]:
        """Stages not yet completed, in topological order."""
        return [
            sid for sid in self.workflow.topological_order()
            if sid not in self.stage_completion_ms
        ]

    def predecessor_invoker(self, stage_id: str) -> int | None:
        """Invoker that ran the (latest-finishing) predecessor of ``stage_id``.

        Used by ESG_Dispatch's data-locality policy and the controller's
        transfer costing; ``None`` for source stages or when no predecessor
        has completed yet.  Ties go to the first such predecessor in edge
        order.
        """
        preds = self.workflow.topology().pred[stage_id]
        if not preds:
            return None
        stage_invoker = self.stage_invoker
        if len(preds) == 1:
            return stage_invoker.get(preds[0])
        done = [p for p in preds if p in stage_invoker]
        if not done:
            return None
        return stage_invoker[max(done, key=self.stage_completion_ms.__getitem__)]


@dataclass
class Job:
    """One request waiting at one stage (one element of an AFW queue)."""

    request: Request
    stage_id: str
    ready_ms: float

    def __post_init__(self) -> None:
        if self.stage_id not in self.request.workflow:
            raise KeyError(
                f"{self.stage_id!r} is not a stage of {self.request.workflow.name!r}"
            )
        if self.ready_ms < 0:
            raise ValueError(f"ready_ms must be >= 0, got {self.ready_ms}")

    @property
    def function_name(self) -> str:
        """The serverless function this job invokes."""
        return self.request.workflow.function_of(self.stage_id)

    @property
    def app_name(self) -> str:
        """The application the job belongs to."""
        return self.request.app_name

    def waiting_ms(self, now_ms: float) -> float:
        """How long the job has been queueing."""
        return max(0.0, now_ms - self.ready_ms)

    def remaining_budget_ms(self, now_ms: float) -> float:
        """Time left before the owning request misses its deadline."""
        return self.request.remaining_budget_ms(now_ms)
