"""The interface between the controller and scheduling policies.

The controller (the platform) owns the AFW job queues, the cluster state
and the metrics; a *scheduling policy* — ESG or one of the baselines —
implements two decisions:

1. :meth:`SchedulingPolicy.plan`: given one AFW queue, produce a priority
   queue of candidate configurations for the jobs at its head;
2. :meth:`SchedulingPolicy.select_invoker`: given a chosen configuration,
   pick the worker node to run it on.

Keeping these behind one interface lets the evaluation hold everything else
constant — the paper stresses that "the only difference is the scheduling
algorithm".
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.cluster.cluster import ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.profiles.configuration import Configuration, ConfigurationSpace
from repro.profiles.pricing import PricingModel
from repro.profiles.profiler import ProfileStore
from repro.workloads.dag import Workflow
from repro.workloads.request import Job, Request

__all__ = [
    "AFWQueue",
    "SchedulingContext",
    "SchedulingDecision",
    "SchedulingPolicy",
    "preplanned_decision",
]


@dataclass
class AFWQueue:
    """App-function-wise job queue (Section 3.1).

    One queue exists per (application, stage) pair — even if two
    applications share the same DNN function they get separate queues, which
    is what enables the per-application data-locality policy.
    """

    app_name: str
    stage_id: str
    function_name: str
    workflow: Workflow
    jobs: deque[Job] = field(default_factory=deque)
    #: How many controller rounds this queue has spent in the recheck list.
    recheck_rounds: int = 0
    #: Controller hook called as ``(queue, delta)`` after every size change,
    #: letting it maintain the non-empty-queue set and pending-job counter
    #: without rescanning all queues per event.
    size_listener: Callable[["AFWQueue", int], None] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def key(self) -> tuple[str, str]:
        """Dictionary key of the queue: (application, stage)."""
        return (self.app_name, self.stage_id)

    # ------------------------------------------------------------------
    # Mutation (controller only): every change to ``jobs`` goes through
    # these three methods, and each reports its size change.
    # ------------------------------------------------------------------
    def push(self, job: Job) -> None:
        """Append a job (jobs are kept in ready-time order)."""
        if job.stage_id != self.stage_id or job.request.workflow.name != self.app_name:
            raise ValueError(
                f"job for ({job.app_name}, {job.stage_id}) pushed to queue {self.key}"
            )
        self.jobs.append(job)
        if self.size_listener is not None:
            self.size_listener(self, 1)

    def pop_batch(self, batch_size: int) -> list[Job]:
        """Remove and return the ``batch_size`` oldest jobs."""
        jobs = self.jobs
        if not 0 < batch_size <= len(jobs):
            raise ValueError(
                f"queue {self.key} holds {len(jobs)} jobs; cannot pop a batch of {batch_size}"
            )
        popleft = jobs.popleft
        batch = [popleft() for _ in range(batch_size)]
        if self.size_listener is not None:
            self.size_listener(self, -batch_size)
        return batch

    def drop_request(self, request: Request) -> int:
        """Remove every job of ``request``, keeping the others' order; returns the count."""
        jobs = self.jobs
        kept = [job for job in jobs if job.request is not request]
        removed = len(jobs) - len(kept)
        if removed:
            jobs.clear()
            jobs.extend(kept)
            if self.size_listener is not None:
                self.size_listener(self, -removed)
        return removed

    # ------------------------------------------------------------------
    # Read-only views (policies)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def is_empty(self) -> bool:
        """True when no job is waiting."""
        return not self.jobs

    def oldest_job(self) -> Job:
        """The job waiting the longest (head of the queue)."""
        if not self.jobs:
            raise IndexError(f"queue {self.key} is empty")
        return self.jobs[0]

    def jobs_snapshot(self) -> tuple[Job, ...]:
        """Immutable snapshot of the queued jobs."""
        return tuple(self.jobs)

    def max_waiting_ms(self, now_ms: float) -> float:
        """Longest waiting time among queued jobs (0.0 when empty)."""
        if not self.jobs:
            return 0.0
        return max(job.waiting_ms(now_ms) for job in self.jobs)

    def min_remaining_budget_ms(self, now_ms: float) -> float:
        """Remaining SLO budget of the most urgent queued request."""
        if not self.jobs:
            raise IndexError(f"queue {self.key} is empty")
        return min(job.remaining_budget_ms(now_ms) for job in self.jobs)

    def most_urgent_request(self, now_ms: float) -> Request:
        """The queued request closest to its deadline."""
        if not self.jobs:
            raise IndexError(f"queue {self.key} is empty")
        job = min(self.jobs, key=lambda j: j.remaining_budget_ms(now_ms))
        return job.request


@dataclass
class SchedulingContext:
    """Everything a policy may consult when planning.

    Handed to the policy once via :meth:`SchedulingPolicy.bind` before the
    simulation starts, so policies can precompute (dominator trees, SLO
    distributions, offline BO training, ...).
    """

    profile_store: ProfileStore
    cluster: ClusterState
    config_space: ConfigurationSpace
    pricing: PricingModel
    workflows: dict[str, Workflow]
    transfer_model: DataTransferModel = field(default_factory=DataTransferModel)


@dataclass
class SchedulingDecision:
    """Output of :meth:`SchedulingPolicy.plan` for one AFW queue.

    Parameters
    ----------
    candidates:
        Configuration priority queue for the *current* stage, best first
        (for ESG: lowest estimated resource cost).  The controller tries
        them in order until one fits on some invoker.
    used_preplanned:
        True when the decision comes from a configuration planned ahead of
        time (see :func:`preplanned_decision`).  The controller counts these
        as "plan attempts" for the Table 4 miss-rate metric.
    plan_miss:
        True when a pre-planned configuration could not be applied (e.g. its
        batch size exceeds the queue length) — the Table 4 metric.
    reported_overhead_ms:
        The modeled scheduling overhead of the decision, a finite number of
        ms ``>= 0``: the controller records it and delays the task by it.
        The controller never reads a clock, so a decision that models no
        overhead is charged 0.0.
    """

    candidates: Sequence[Configuration]
    used_preplanned: bool = False
    plan_miss: bool = False
    reported_overhead_ms: float = 0.0

    def __post_init__(self) -> None:
        if len(self.candidates) == 0:
            raise ValueError("a SchedulingDecision needs at least one candidate configuration")

    @property
    def best(self) -> Configuration:
        """The highest-priority candidate."""
        return self.candidates[0]


def preplanned_decision(
    queue: AFWQueue, plan: Mapping[str, Configuration], overhead_ms: float = 0.0
) -> SchedulingDecision | None:
    """The decision of a static planner (Orion, Aquatope, static ESG).

    ``plan`` maps each stage to the configuration planned for it ahead of
    time; ``None`` when it plans nothing for the queue's stage.  A planned
    batch larger than the (non-empty) queue cannot be formed: it is clipped
    to the queue length and the decision counts as a plan miss (Table 4).
    """
    planned = plan.get(queue.stage_id)
    if planned is None:
        return None
    miss = planned.batch_size > len(queue)
    if miss:
        planned = planned.with_batch(len(queue))
    return SchedulingDecision(
        candidates=[planned],
        used_preplanned=True,
        plan_miss=miss,
        reported_overhead_ms=overhead_ms,
    )


class SchedulingPolicy(abc.ABC):
    """Interface implemented by ESG and by every baseline scheduler."""

    #: Human-readable policy name used in reports and figures.
    name: str = "abstract"

    #: Policies whose :meth:`plan` and :meth:`select_invoker` are
    #: deterministic functions of the queue, ``now_ms`` and the cluster
    #: state and write nothing the run can observe (private memo caches are
    #: fine) may set this.  The controller then remembers a queue's failed
    #: attempt, stamped with the cluster's capacity epoch, the queue's
    #: length and head job and the scheduling pass, and replays its records
    #: instead of calling the policy again while the stamp still matches.
    #: Planners that write per-request state (``static_plan``) must leave
    #: it ``False``.
    pure_decisions: bool = False

    #: Policies with :attr:`pure_decisions` whose :meth:`plan` and
    #: :meth:`select_invoker` read only the queue's length and head job and
    #: each node's free capacity (never ``now_ms``, containers or the rest
    #: of the queue) may set this.  The pass is then left out of the
    #: stamp, so a failed attempt is replayed across scheduling passes
    #: until a capacity change, a join or a change to the queue's length or
    #: head, and a pass in which every attempt would replay a failure is
    #: applied in bulk without trying any queue.  Like
    #: :attr:`pure_decisions` it describes the policy's code and is not a
    #: run option.
    time_invariant_decisions: bool = False

    def __init__(self) -> None:
        self._context: SchedulingContext | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, context: SchedulingContext) -> None:
        """Attach the scheduling context; called once before the run starts."""
        self._context = context
        self.on_bind(context)

    def on_bind(self, context: SchedulingContext) -> None:
        """Hook for per-run precomputation (override as needed)."""

    @property
    def context(self) -> SchedulingContext:
        """The bound context (raises if :meth:`bind` was not called)."""
        if self._context is None:
            raise RuntimeError(f"policy {self.name!r} has not been bound to a context")
        return self._context

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def plan(self, queue: AFWQueue, now_ms: float) -> SchedulingDecision | None:
        """Produce candidate configurations for the jobs in ``queue``.

        Returning ``None`` means "do not schedule this queue right now".
        """

    def select_invoker(
        self, config: Configuration, queue: AFWQueue, now_ms: float
    ) -> int | None:
        """Pick the invoker to run a task of ``config`` for ``queue``.

        The default implements OpenWhisk's behaviour: the home invoker if it
        has capacity, otherwise a deterministic scan over the other nodes,
        preferring ones with a warm container.  Policies override this —
        ESG with its locality-first dispatch, INFless/FaST-GShare with
        fragmentation-minimising placement.

        Returns the invoker id, or ``None`` if no node can host ``config``.
        """
        cluster = self.context.cluster
        home = cluster.home_invoker_id(queue.app_name, queue.function_name)
        if cluster.invoker(home).can_fit(config):
            return home
        n = len(cluster)
        warm_fallback: int | None = None
        for offset in range(1, n):
            candidate = (home + offset) % n
            invoker = cluster.invoker(candidate)
            if not invoker.can_fit(config):
                continue
            if invoker.has_warm_container(queue.function_name, now_ms):
                return candidate
            if warm_fallback is None:
                warm_fallback = candidate
        return warm_fallback

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
