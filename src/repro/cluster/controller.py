"""The OpenWhisk-like controller: AFW queues, round-robin scanning, dispatch.

This is the component the ESG paper modifies ("ESG runs on the Controller
of a serverless platform").  The controller owns the app-function-wise job
queues, scans them round-robin, asks the plugged-in scheduling policy for a
configuration priority queue, tries the candidates against the invokers,
maintains a recheck list for queues that could not be placed, charges cold
starts / data transfers / scheduling overhead, and advances requests through
their workflow DAG as tasks complete.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.cluster.cluster import ClusterState
from repro.cluster.container import Container, ContainerState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.events import PrewarmCompleteEvent, TaskCompletionEvent
from repro.cluster.metrics import MetricsCollector
from repro.cluster.policy_api import AFWQueue, SchedulingPolicy
from repro.cluster.prewarm import PrewarmManager
from repro.cluster.tasks import Task
from repro.profiles.configuration import Configuration
from repro.profiles.perf_model import PerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.specs import FunctionSpec
from repro.profiles.profiler import ProfileStore
from repro.utils.validation import ensure_positive, ensure_positive_int
from repro.workloads.dag import Workflow
from repro.workloads.request import Job, Request

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.cluster.simulator import EventLoop

__all__ = ["ControllerConfig", "Controller"]

_INF = float("inf")


def _unchanged(stamp: tuple, jobs, epoch: int) -> bool:
    """True if a stamp's capacity epoch, queue length and head job are current."""
    return stamp[0] == epoch and stamp[1] == len(jobs) and stamp[2] is jobs[0]


@dataclass(frozen=True)
class ControllerConfig:
    """Tunable behaviour of the controller (identical across policies)."""

    #: Interval between controller scheduling passes.
    tick_interval_ms: float = 2.0
    #: After this many failed recheck rounds a queue is force-dispatched with
    #: the minimum configuration ("to ensure progress", Section 3.1).
    recheck_rounds_before_min: int = 3
    #: Initial warm container placement: one per (app, stage) on its home
    #: invoker, on every invoker, or nowhere.
    initial_warm: Literal["home", "all", "none"] = "home"

    def __post_init__(self) -> None:
        ensure_positive(self.tick_interval_ms, "tick_interval_ms")
        if self.tick_interval_ms == _INF:
            raise ValueError(f"tick_interval_ms must be finite, got {self.tick_interval_ms!r}")
        ensure_positive_int(self.recheck_rounds_before_min, "recheck_rounds_before_min")
        if self.initial_warm not in ("home", "all", "none"):
            raise ValueError(f"invalid initial_warm {self.initial_warm!r}")


@dataclass
class Controller:
    """Platform controller wiring queues, policy, cluster and metrics together."""

    policy: SchedulingPolicy
    cluster: ClusterState
    profile_store: ProfileStore
    runtime_perf_model: PerformanceModel
    pricing: PricingModel
    metrics: MetricsCollector
    #: The simulation's event loop: every event the controller emits
    #: (task completions, keep-alive expiries, prewarm completions) is
    #: pushed onto it.
    events: "EventLoop" = field(repr=False)
    transfer_model: DataTransferModel = field(default_factory=DataTransferModel)
    config: ControllerConfig = field(default_factory=ControllerConfig)
    prewarmer: PrewarmManager | None = None

    _queues: dict[tuple[str, str], AFWQueue] = field(default_factory=dict, repr=False)
    _workflows: dict[str, Workflow] = field(default_factory=dict, repr=False)
    _recheck: list[tuple[str, str]] = field(default_factory=list, repr=False)
    _task_containers: dict[int, Container] = field(default_factory=dict, repr=False)
    _rr_offset: int = 0
    #: Keys of queues currently holding jobs (the scheduling "dirty set").
    _nonempty: set[tuple[str, str]] = field(default_factory=set, repr=False)
    #: Total jobs waiting across all queues (counter behind pending_jobs()).
    _pending_jobs: int = 0
    #: Cached sorted queue-key list; invalidated when a queue is created.
    _sorted_keys: list[tuple[str, str]] | None = field(default=None, repr=False)
    #: Armed keep-alive deadlines: a min-heap of
    #: ``(expires_at_ms, seq, container)`` drained at every tick so the
    #: prewarmer/scheduler never observe a stale-expired container, no
    #: matter how same-timestamp events interleave in the simulation loop.
    _expiry_heap: list[tuple[float, int, Container]] = field(default_factory=list, repr=False)
    _expiry_seq: "itertools.count[int]" = field(default_factory=itertools.count, repr=False)
    #: Memo: function name -> profiled FunctionSpec (immutable for the life
    #: of a run).
    _spec_cache: dict[str, "FunctionSpec"] = field(default_factory=dict, repr=False)
    #: Memo: one canonical :class:`Configuration` per
    #: ``(batch, vcpus, vgpus)`` shape, replacing the fresh frozen-dataclass
    #: allocation (plus validation) every clip would otherwise pay.
    _batch_cache: dict[tuple[int, int, int], Configuration] = field(
        default_factory=dict, repr=False
    )
    #: Memo: ``(vcpus, vgpus)`` -> price rate in cents/ms.
    _rate_cache: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)
    #: Memo: function name -> ``(local, remote)`` transfer latency
    #: (pure in the function's input size and the fixed transfer model).
    _transfer_cache: dict[str, tuple[float, float]] = field(
        default_factory=dict, repr=False
    )
    #: Churn (dynamic cluster membership) state, armed by
    #: :meth:`enable_churn`.  Off by default so static runs pay nothing:
    #: the in-flight task map is only maintained while a churn schedule is
    #: active.
    _churn: bool = field(default=False, repr=False)
    #: What happens to tasks in flight on an evicted node.
    _on_evict: str = field(default="requeue", repr=False)
    #: Tasks whose invoker left before their completion event fired; their
    #: TaskCompletionEvents pop as no-ops (lazy cancellation).
    _cancelled_tasks: set[int] = field(default_factory=set, repr=False)
    #: task_id -> in-flight task (only maintained when churn is enabled).
    _inflight: dict[int, Task] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Failed-attempt memo, kept only for policies with pure decisions
        # (``SchedulingPolicy.pure_decisions``).  Maps the key of each queue
        # whose last attempt failed to ``(stamp, decision)``: the stamp of
        # the state it failed in (see :meth:`_stamp`) and the decision whose
        # candidates all failed, or ``None`` when plan() declined.
        # ``_failed_forced`` maps the queues whose last forced-minimum
        # dispatch failed to the stamp of that failure.
        pure = getattr(self.policy, "pure_decisions", False)
        self._time_invariant: bool = pure and getattr(
            self.policy, "time_invariant_decisions", False
        )
        self._failed_attempts: dict[tuple[str, str], tuple] | None = {} if pure else None
        self._failed_forced: dict[tuple[str, str], tuple] | None = {} if pure else None
        #: Scheduling passes run so far (the pass part of a stamp).
        self._passes: int = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register_workflow(self, workflow: Workflow) -> None:
        """Make a workflow known (creates its AFW queues lazily)."""
        self._workflows.setdefault(workflow.name, workflow)

    def initialize_warm_pool(self) -> None:
        """Create the initial warm containers according to the config.

        ``"home"`` (default) warms one container per (application, stage) on
        its home invoker — the state a production deployment converges to
        after a few invocations under OpenWhisk's hash-based placement.
        ``"all"`` warms every function everywhere (no cold starts at all);
        ``"none"`` starts fully cold.
        """
        if self.config.initial_warm == "none":
            return
        for workflow in self._workflows.values():
            for stage in workflow.stages():
                if self.config.initial_warm == "home":
                    home = self.cluster.home_invoker_id(workflow.name, stage.function_name)
                    invoker = self.cluster.invoker(home)
                    if not invoker.has_warm_container(stage.function_name, 0.0):
                        self._arm_expiry(invoker.create_warm_container(stage.function_name, 0.0))
                else:  # "all"
                    for invoker in self.cluster:
                        if not invoker.has_warm_container(stage.function_name, 0.0):
                            self._arm_expiry(
                                invoker.create_warm_container(stage.function_name, 0.0)
                            )

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def queue_for(self, app_name: str, stage_id: str) -> AFWQueue:
        """Return (creating if needed) the AFW queue of (app, stage)."""
        queue = self._queues.get((app_name, stage_id))
        if queue is None:
            workflow = self._workflows[app_name]
            queue = AFWQueue(
                app_name=app_name,
                stage_id=stage_id,
                function_name=workflow.function_of(stage_id),
                workflow=workflow,
                size_listener=self._queue_size_changed,
            )
            self._queues[queue.key] = queue
            self._sorted_keys = None
        return queue

    def _queue_size_changed(self, queue: AFWQueue, delta: int) -> None:
        """Maintain the non-empty set and pending counter on queue mutation."""
        self._pending_jobs += delta
        key = (queue.app_name, queue.stage_id)
        if queue.jobs:
            self._nonempty.add(key)
        else:
            self._nonempty.discard(key)

    def _all_keys_sorted(self) -> list[tuple[str, str]]:
        """The sorted queue keys, cached (queues are created, never removed)."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._queues)
        return self._sorted_keys

    def queues(self) -> list[AFWQueue]:
        """All existing AFW queues (deterministic order)."""
        return [self._queues[key] for key in self._all_keys_sorted()]

    def pending_jobs(self) -> int:
        """Total number of jobs waiting across all queues."""
        return self._pending_jobs

    def has_pending_work(self) -> bool:
        """True if any queue holds a job."""
        return self._pending_jobs > 0

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_request_arrival(self, request: Request, now_ms: float) -> None:
        """Register a new request and enqueue its source-stage jobs."""
        workflow = request.workflow
        app_name = workflow.name
        self._workflows.setdefault(app_name, workflow)
        self.metrics.register_request(request)
        topo = workflow.topology()
        queues = self._queues
        for stage_id in topo.sources:
            queue = queues.get((app_name, stage_id))
            if queue is None:
                queue = self.queue_for(app_name, stage_id)
            queue.push(Job(request=request, stage_id=stage_id, ready_ms=now_ms))
        prewarmer = self.prewarmer
        if prewarmer is not None:
            for stage in topo.stages:
                prewarmer.observe_arrival(app_name, stage.function_name, now_ms)

    def on_task_completion(self, task: Task, now_ms: float) -> None:
        """Release resources, advance requests, enqueue successor jobs."""
        if self._churn:
            if task.task_id in self._cancelled_tasks:
                # The task's invoker left mid-flight: resources and container
                # are gone already, and its jobs were requeued or failed.
                self._cancelled_tasks.discard(task.task_id)
                return
            self._inflight.pop(task.task_id, None)
        invoker_id = task.invoker_id
        container = self._task_containers.pop(task.task_id)
        self.cluster.invokers[invoker_id].finish_task(container, task.config, now_ms)
        self._arm_expiry(container)

        stage_id = task.stage_id
        for job in task.jobs:
            request = job.request
            if self._churn and request.evicted_ms is not None:
                # Terminally evicted (on_evict="fail"): surviving sibling
                # tasks still release resources above, but the request's DAG
                # does not advance any further.
                continue
            if request.record_stage_completion(stage_id, now_ms, invoker_id):
                self.metrics.record_completion(request)
            else:
                for succ in request.ready_successors(stage_id):
                    self.queue_for(task.app_name, succ).push(
                        Job(request=request, stage_id=succ, ready_ms=now_ms)
                    )

    def on_prewarm_complete(self, container: Container, now_ms: float) -> None:
        """A prewarmed container finished its cold start."""
        if container.state == ContainerState.STARTING:
            keep_alive = self.cluster.invoker(container.invoker_id).keep_alive_ms
            container.mark_warm(now_ms, keep_alive)
            self._arm_expiry(container)
        self.metrics.record_prewarm()

    def _arm_expiry(self, container: Container) -> None:
        """Schedule the container's keep-alive expiry.

        The deadline goes onto the controller's expiry heap, drained by
        :meth:`expire_due` at every tick and before every autoscaler
        decision, so neither sees a container at or past its deadline;
        between them :meth:`Container.is_resident` already reads an
        expired container as gone.  Re-arming is handled lazily: a stale
        entry whose deadline no longer matches the container's
        ``expires_at_ms`` is a no-op.
        """
        if container.state is ContainerState.WARM and container.expires_at_ms != _INF:
            heapq.heappush(
                self._expiry_heap,
                (container.expires_at_ms, next(self._expiry_seq), container),
            )

    def expire_due(self, now_ms: float) -> None:
        """Stop every armed container whose deadline has passed (<= now)."""
        heap = self._expiry_heap
        while heap and heap[0][0] <= now_ms:
            deadline, _seq, container = heapq.heappop(heap)
            container.expire(deadline)

    def on_tick(self, now_ms: float) -> None:
        """One controller round: expire containers, prewarm, scan queues."""
        # Amortised O(due), and inclusive (``expires_at <= now`` expires):
        # tick-time expiry does not depend on how same-timestamp events
        # happen to be ordered in the simulation heap.
        self.expire_due(now_ms)
        if self.prewarmer is not None:
            for plan in self.prewarmer.plan(self.cluster, now_ms):
                self.events.push(
                    PrewarmCompleteEvent(time_ms=plan.ready_at_ms, container=plan.container)
                )
        self.run_scheduling_pass(now_ms)

    # ------------------------------------------------------------------
    # Cluster churn (join / leave / resize housekeeping events)
    # ------------------------------------------------------------------
    def enable_churn(self, on_evict: str = "requeue") -> None:
        """Arm the churn bookkeeping (in-flight task map, eviction policy).

        Called once by the simulation before the run when a
        :class:`~repro.cluster.churn.ChurnSchedule` is configured; static
        runs never pay for the extra per-dispatch dict write.
        """
        if on_evict not in ("requeue", "fail"):
            raise ValueError(f"on_evict must be 'requeue' or 'fail', got {on_evict!r}")
        self._churn = True
        self._on_evict = on_evict

    def on_invoker_join(self, vcpus: int | None, vgpus: int | None, now_ms: float) -> None:
        """A new node joins the cluster."""
        self.cluster.apply_join(vcpus, vgpus)

    def on_invoker_resize(
        self, invoker_id: int, vcpus: int, vgpus: int, now_ms: float
    ) -> None:
        """A node's capacity target changes (harvest shrink/grow)."""
        self.cluster.apply_resize(invoker_id, vcpus, vgpus)

    def on_invoker_leave(self, invoker_id: int, now_ms: float) -> None:
        """A node is evicted: drop its containers and settle in-flight work.

        The cluster tombstones the node (containers force-stopped through
        the lifecycle listeners, capacity zeroed); every task that was
        executing there is lazily cancelled — its pending
        ``TaskCompletionEvent`` becomes a no-op — and its jobs are either
        requeued on the AFW queues or failed with the ``evicted`` outcome,
        per the schedule's ``on_evict`` policy.
        """
        invoker = self.cluster.invoker(invoker_id)
        if not invoker.active:
            return
        doomed = sorted(
            (task for task in self._inflight.values() if task.invoker_id == invoker_id),
            key=lambda task: task.task_id,
        )
        self.cluster.apply_leave(invoker_id)
        requeued = 0
        for task in doomed:
            del self._inflight[task.task_id]
            self._cancelled_tasks.add(task.task_id)
            self._task_containers.pop(task.task_id, None)
            self.metrics.record_task_evicted()
            if self._on_evict == "requeue":
                for job in task.jobs:
                    request = job.request
                    if request.evicted_ms is not None or request.completed_ms is not None:
                        continue
                    self.queue_for(task.app_name, task.stage_id).push(
                        Job(request=request, stage_id=task.stage_id, ready_ms=now_ms)
                    )
                    requeued += 1
            else:
                for job in task.jobs:
                    self._evict_request(job.request, now_ms)
        if requeued:
            self.metrics.record_requeued_jobs(requeued)

    def _evict_request(self, request: Request, now_ms: float) -> None:
        """Terminally fail ``request`` with the ``evicted`` outcome."""
        if request.evicted_ms is not None or request.completed_ms is not None:
            return
        request.evicted_ms = now_ms
        self.metrics.record_request_evicted(request)
        self._purge_request_jobs(request)

    def _purge_request_jobs(self, request: Request) -> None:
        """Drop every queued job of ``request`` (it will never be scheduled)."""
        for key in self._all_keys_sorted():
            self._queues[key].drop_request(request)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def run_scheduling_pass(self, now_ms: float) -> int:
        """Scan the queues round-robin once; returns the number of dispatches.

        The pass visits only the queues in the non-empty "dirty" set, in the
        cyclic order of the sorted queue keys starting at the round-robin
        offset.  An empty queue would be a no-op (a visit also skips the
        recheck retry), so the walk touches O(non-empty) queues, not O(all).

        Within one pass ``now_ms`` is fixed and only a dispatch changes the
        queues, the free capacity or the containers, and every dispatch
        changes the free capacity.  For a policy with pure decisions, a
        queue's failed attempt therefore fails again while the capacity
        epoch and the pass are unchanged, and the retry replays it from the
        failed-attempt memo (see :meth:`_try_schedule_queue`).  For a
        policy with time-invariant decisions the record outlives the pass
        while the capacity epoch and the queue's length and head job are
        unchanged, and a pass whose every attempt would replay a failure is
        applied in bulk (see :meth:`_replay_failed_pass`).
        """
        self._passes += 1
        keys = self._all_keys_sorted()
        if not keys:
            return 0
        n = len(keys)
        if len(self._nonempty) <= 1:
            # Rotating a list of at most one element is the identity, so
            # the pivot lookup and bisect split are skipped outright —
            # the common shape of single-application streaming runs.
            # repro: allow[REP004] guarded by len(_nonempty) <= 1 above — every ordering of at most one element is equal
            order = list(self._nonempty)
        else:
            pivot = keys[self._rr_offset % n]
            nonempty = sorted(self._nonempty)
            split = bisect_left(nonempty, pivot)
            order = nonempty[split:] + nonempty[:split]
        dispatched = 0
        self._rr_offset = (self._rr_offset + 1) % n
        if self._time_invariant and self._replay_failed_pass(order):
            return 0

        for key in order:
            queue = self._queues[key]
            if queue.is_empty:
                continue
            # A queue may yield several tasks per visit (e.g. many small
            # batches when resources are plentiful); cap the iterations so a
            # single visit cannot starve the other queues.
            any_dispatch = False
            for _ in range(8):
                if queue.is_empty or not self._try_schedule_queue(queue, now_ms):
                    break
                any_dispatch = True
                dispatched += 1
            if any_dispatch:
                queue.recheck_rounds = 0
                if key in self._recheck:
                    self._recheck.remove(key)
            elif not queue.is_empty and key not in self._recheck:
                self._recheck.append(key)
            # After finishing a queue, retry the recheck list (Section 3.1).
            dispatched += self._process_recheck_list(now_ms)
        return dispatched

    def _process_recheck_list(self, now_ms: float) -> int:
        """Retry queues parked in the recheck list; force-dispatch stale ones."""
        if not self._recheck:
            return 0
        dispatched = 0
        for key in list(self._recheck):
            queue = self._queues[key]
            if queue.is_empty:
                self._recheck.remove(key)
                queue.recheck_rounds = 0
                continue
            if self._try_schedule_queue(queue, now_ms):
                dispatched += 1
                self._recheck.remove(key)
                queue.recheck_rounds = 0
                continue
            queue.recheck_rounds += 1
            if queue.recheck_rounds >= self.config.recheck_rounds_before_min:
                if self._force_minimum_dispatch(queue, now_ms):
                    dispatched += 1
                    self._recheck.remove(key)
                    queue.recheck_rounds = 0
        return dispatched

    def _replay_failed_pass(self, order: list[tuple[str, str]]) -> bool:
        """Apply a pass that cannot dispatch without trying any queue.

        Time-invariant policies only.  Unless every queue the pass would
        try (the non-empty queues of ``order`` and of the recheck list)
        holds a matching failed-attempt record, and every queue whose
        ``recheck_rounds`` reaches ``recheck_rounds_before_min`` in the pass
        holds a matching forced-minimum record, this changes nothing and
        returns False.  Otherwise every attempt of the pass would replay a
        failure, so nothing dispatches and nothing a stamp reads changes,
        and this applies the per-attempt loop's effects in its order and
        returns True.  After visit ``i`` the list holds the parked queues
        and the visits up to ``i`` that were not parked (a queue that
        dispatched and then failed in its last visit), so visit ``i``
        records its own sample and then the list's; each queue sees one
        recheck round per visit from the one that parked it on; and empty
        queues leave the list at the first visit.
        """
        queues = self._queues
        visits = [key for key in order if queues[key].jobs]
        if not visits:
            return False
        failed = self._failed_attempts
        forced = self._failed_forced
        epoch = self.cluster.capacity_epoch
        parked = [key for key in self._recheck if queues[key].jobs]
        # The recheck rounds each queue sees in the pass.
        n = len(visits)
        rounds = dict.fromkeys(parked, n)
        for i, key in enumerate(visits):
            rounds.setdefault(key, n - i)
        limit = self.config.recheck_rounds_before_min
        attempts = {}
        # Time-invariant records ignore the pass part of their stamps.
        for key, seen in rounds.items():
            queue = queues[key]
            entry = failed.get(key)
            if entry is None or not _unchanged(entry[0], queue.jobs, epoch):
                return False
            if queue.recheck_rounds + seen >= limit:
                stamp = forced.get(key)
                if stamp is None or not _unchanged(stamp, queue.jobs, epoch):
                    return False
            attempts[key] = entry[1]

        metrics = self.metrics
        samples = metrics.overhead_ms_samples
        was_parked = set(parked)
        newly_parked = []
        listed = [
            attempts[key].reported_overhead_ms for key in parked if attempts[key] is not None
        ]
        for key in visits:
            decision = attempts[key]
            if decision is not None:
                samples.append(decision.reported_overhead_ms)
            if key not in was_parked:
                newly_parked.append(key)
                if decision is not None:
                    listed.append(decision.reported_overhead_ms)
            samples.extend(listed)
        for key, seen in rounds.items():
            decision = attempts[key]
            if decision is not None and decision.used_preplanned:
                # Every non-empty queue is visited: one attempt, then one
                # per recheck round.
                metrics.plan_attempts += seen + 1
                if decision.plan_miss:
                    metrics.plan_misses += seen + 1
            queues[key].recheck_rounds += seen
        for key in self._recheck:
            if not queues[key].jobs:
                queues[key].recheck_rounds = 0
        self._recheck = parked + newly_parked
        return True

    def _stamp(self, queue: AFWQueue) -> tuple:
        """The state a failed attempt of the non-empty ``queue`` fails in.

        ``(capacity epoch, queue length, head job, pass)``.  A pure
        policy's attempt reads the queue, the cluster and ``now_ms``;
        inside a pass only a dispatch changes them, and every dispatch
        bumps the epoch.  A time-invariant policy's attempt reads only the
        free capacity and the queue's length and head, so its records
        ignore the pass.
        """
        jobs = queue.jobs
        return (self.cluster.capacity_epoch, len(jobs), jobs[0], self._passes)

    def _stamp_matches(self, stamp: tuple, queue: AFWQueue) -> bool:
        """True if an attempt that failed in ``stamp`` would fail again now."""
        return _unchanged(stamp, queue.jobs, self.cluster.capacity_epoch) and (
            self._time_invariant or stamp[3] == self._passes
        )

    def _try_schedule_queue(self, queue: AFWQueue, now_ms: float) -> bool:
        """Plan + dispatch one queue; returns True if a task was dispatched.

        A retry of an attempt that failed in a matching stamp (pure
        policies only, see :meth:`_stamp`) calls neither the policy nor the
        cluster: it records what the failed attempt recorded, the overhead
        sample and the plan-attempt count of a pre-planned decision, and
        fails.
        """
        failed = self._failed_attempts
        key = (queue.app_name, queue.stage_id)
        if failed is not None:
            entry = failed.get(key)
            if entry is not None and self._stamp_matches(entry[0], queue):
                decision = entry[1]
                if decision is not None:
                    self.metrics.overhead_ms_samples.append(decision.reported_overhead_ms)
                    if decision.used_preplanned:
                        self.metrics.record_plan_attempt(miss=decision.plan_miss)
                return False
        decision = self.policy.plan(queue, now_ms)
        if decision is None:
            if failed is not None:
                failed[key] = (self._stamp(queue), None)
            return False
        overhead_ms = decision.reported_overhead_ms
        self.metrics.record_overhead(overhead_ms)
        if decision.used_preplanned:
            self.metrics.record_plan_attempt(miss=decision.plan_miss)
        qlen = len(queue.jobs)
        select_invoker = self.policy.select_invoker
        invokers = self.cluster.invokers
        for candidate in decision.candidates:
            # Cap the batch size at the number of queued jobs.
            if candidate.batch_size > qlen:
                config = self._config_with_batch(candidate, qlen if qlen else 1)
            else:
                config = candidate
            invoker_id = select_invoker(config, queue, now_ms)
            if invoker_id is None or not invokers[invoker_id].can_fit(config):
                continue
            self._dispatch(queue, config, invoker_id, now_ms, overhead_ms)
            return True
        if failed is not None:
            failed[key] = (self._stamp(queue), decision)
        return False

    def _force_minimum_dispatch(self, queue: AFWQueue, now_ms: float) -> bool:
        """Dispatch the queue head with the minimum configuration if possible.

        A failure is remembered like a failed attempt (pure policies only):
        it records nothing, so a repeat in a matching stamp just fails.
        """
        failed_forced = self._failed_forced
        if failed_forced is not None:
            stamp = failed_forced.get(queue.key)
            if stamp is not None and self._stamp_matches(stamp, queue):
                return False
        config = self.profile_store.space.minimum
        invoker_id = self.policy.select_invoker(config, queue, now_ms)
        if invoker_id is None or not self.cluster.invoker(invoker_id).can_fit(config):
            fallback = self.cluster.most_available_invoker(config)
            if fallback is None:
                if failed_forced is not None:
                    failed_forced[queue.key] = self._stamp(queue)
                return False
            invoker_id = fallback.invoker_id
        self.metrics.record_forced_min_dispatch()
        self.metrics.record_overhead(0.0)
        self._dispatch(queue, config, invoker_id, now_ms, 0.0)
        return True

    def _config_with_batch(self, config: Configuration, batch_size: int) -> Configuration:
        """Canonical clipped configuration.

        Equal by value to ``config.with_batch(batch_size)``; the memo keeps
        one frozen instance per shape so repeated clips cost a dict lookup
        instead of an allocation plus field validation.
        """
        key = (batch_size, config.vcpus, config.vgpus)
        cached = self._batch_cache.get(key)
        if cached is None:
            cached = config.with_batch(batch_size)
            self._batch_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        queue: AFWQueue,
        config: Configuration,
        invoker_id: int,
        now_ms: float,
        overhead_ms: float,
    ) -> Task:
        """Create the task, charge its latency components, reserve resources.

        The invoker seats the task (a warm start if the function is resident
        on the node, else a new container cold-starts there and then stays
        resident) and reserves its resources.  Data transfer is local when
        the predecessor stage ran on this node; source stages fetch the
        user input from remote storage.  The per-dispatch constant costs
        are memoized (the function spec, the clipped configuration, the two
        possible transfer latencies and the price rate are each pure in
        run-constant inputs).  The floats are ``duration = cold + transfer +
        exec``, ``finish = (dispatch + overhead) + duration`` and ``cost =
        rate * duration``.
        """
        invoker = self.cluster.invokers[invoker_id]
        function_name = queue.function_name
        spec = self._spec_cache.get(function_name)
        if spec is None:
            spec = self.profile_store.profile(function_name).spec
            self._spec_cache[function_name] = spec
        batch = config.batch_size
        qlen = len(queue.jobs)
        njobs = batch if batch < qlen else qlen
        jobs = queue.pop_batch(njobs)
        effective = self._config_with_batch(config, njobs) if njobs != batch else config
        container, cold_ms = invoker.start_task(
            function_name, effective, now_ms, spec.cold_start_ms
        )

        transfers = self._transfer_cache.get(function_name)
        if transfers is None:
            transfers = (
                self.transfer_model.local_transfer_ms(spec.input_mb),
                self.transfer_model.remote_transfer_ms(spec.input_mb),
            )
            self._transfer_cache[function_name] = transfers
        local_transfer, remote_transfer = transfers

        stage_id = queue.stage_id
        local = 0
        for job in jobs:
            if job.request.predecessor_invoker(stage_id) == invoker_id:
                local += 1
        remote = njobs - local
        metrics = self.metrics
        metrics.record_transfers(local, remote)
        # The batch waits for its slowest input.
        transfer_ms = 0.0
        if local and local_transfer > transfer_ms:
            transfer_ms = local_transfer
        if remote and remote_transfer > transfer_ms:
            transfer_ms = remote_transfer

        exec_ms = self.runtime_perf_model.latency_ms(spec, effective)
        duration_ms = cold_ms + transfer_ms + exec_ms

        task = Task(
            app_name=queue.app_name,
            stage_id=stage_id,
            function_name=function_name,
            jobs=jobs,
            config=effective,
            invoker_id=invoker_id,
            dispatch_ms=now_ms,
            overhead_ms=overhead_ms,
            cold_start_ms=cold_ms,
            transfer_ms=transfer_ms,
            exec_ms=exec_ms,
            policy_name=self.policy.name,
        )
        rate_key = (effective.vcpus, effective.vgpus)
        rate = self._rate_cache.get(rate_key)
        if rate is None:
            rate = self.pricing.rate_cents_per_ms(effective)
            self._rate_cache[rate_key] = rate
        task.cost_cents = rate * duration_ms

        self._task_containers[task.task_id] = container
        if self._churn:
            self._inflight[task.task_id] = task
        metrics.record_task(task)
        # The finish time is >= now_ms >= 0.
        self.events.push_real(
            TaskCompletionEvent(time_ms=now_ms + overhead_ms + duration_ms, task=task)
        )
        return task
