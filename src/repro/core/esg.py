"""The ESG scheduling policy.

:class:`ESGPolicy` glues the pieces of the paper's algorithm into a
:class:`repro.cluster.policy_api.SchedulingPolicy`:

* on bind it runs the dominator-based SLO distribution once per workflow;
* on every :meth:`plan` call (i.e. before *every* stage's dispatch — the
  "optimality-guided adaptive" aspect) it derives the latency quota of the
  current function group from the request's remaining budget and runs the
  ESG_1Q dual-blade-pruned search over the group's remaining stages;
* :meth:`select_invoker` implements the locality-first ESG_Dispatch.

Two ablation switches reproduce Figure 12 (``gpu_sharing`` and ``batching``)
and one reproduces the static-planning comparison (``adaptive=False`` plans
the whole workflow at the first stage and sticks to it, as Orion/Aquatope
do).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.policy_api import (
    AFWQueue,
    SchedulingContext,
    SchedulingDecision,
    SchedulingPolicy,
    preplanned_decision,
)
from repro.core.dispatch import locality_first_invoker
from repro.core.dominator import SLODistribution, distribute_slo
from repro.core.esg_1q import IntervalStore, SearchMemo, StageSearchSpec, esg_1q_search
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import FunctionProfile, ProfileEntry
from repro.utils.validation import ensure_bool, ensure_number, ensure_positive_int
from repro.workloads.request import Request

__all__ = ["ESGPolicy"]

#: Plans the interval store holds before it is cleared.
PLAN_CACHE_LIMIT = 4096

#: ESG_1Q results shared by every policy instance of this process, keyed by
#: value (see :class:`~repro.core.esg_1q.SearchMemo`).  Policies search
#: through it only while their plan cache is on.
_SEARCH_MEMO = SearchMemo()


class ESGPolicy(SchedulingPolicy):
    """ESG: efficient serverless scheduling for shareable GPUs."""

    name = "ESG"

    def __init__(
        self,
        *,
        k: int = 5,
        group_size: int = 3,
        adaptive: bool = True,
        gpu_sharing: bool = True,
        batching: bool = True,
        safety_margin: float = 0.12,
        max_paths: int = 5000,
        per_expansion_ms: float = 0.001,
        plan_cache: bool = True,
        name: str | None = None,
    ) -> None:
        """Create the policy.

        Parameters
        ----------
        k:
            Number of solutions kept in the configuration priority queue
            (the paper's ``K``; default 5, studied in Figure 11).
        group_size:
            Maximum function-group size for the dominator-based SLO
            distribution (default 3, Section 5.4).
        adaptive:
            When True (the paper's ESG) the search is re-run before every
            stage dispatch; when False a whole-workflow plan is computed at
            the first stage and reused, like the static baselines.
        gpu_sharing:
            When False every task is forced to occupy all vGPUs of a GPU
            (the "without GPU sharing" ablation of Figure 12).
        batching:
            When False only batch size 1 is considered (the "without
            batching" ablation of Figure 12).
        safety_margin:
            Fraction of the group's latency quota reserved as head-room for
            effects the profiles do not capture (performance noise, data
            transfer, scheduling overhead).  The search target becomes
            ``quota * (1 - safety_margin)``.
        max_paths:
            Safety cap forwarded to the ESG_1Q search.
        per_expansion_ms:
            Models the per-decision scheduling overhead as
            ``expansions * per_expansion_ms`` (the same idiom Orion uses),
            keeping runs deterministic and machine-independent; the default
            is calibrated so the distribution lands in the paper's 3-8 ms
            range.  A finite number ``>= 0``.
        plan_cache:
            Answer :meth:`plan` from earlier searches where they provably
            apply.  Under a key ``(app, stage, queue length clamped to the
            largest batch option)``, which fixes the search's stage list,
            the search is a function of the latency quota ``target_ms``
            alone, and each search reports the interval ``(lo, hi]`` of
            quotas that replay it exactly (see :mod:`repro.core.esg_1q`).
            A quota inside a stored interval returns that search's decision,
            byte-identical to a fresh search's (the modeled overhead
            included).  The store is bounded (:data:`PLAN_CACHE_LIMIT`
            plans).  ``plan_cache=False`` is the reference path.
            With ``adaptive=False`` the whole-workflow search of a request's
            first stage is memoized too, keyed by (app, stage, clamped
            queue length, SLO): it reads nothing else.  While the cache is
            on, a search it cannot answer goes through a process-wide
            :class:`~repro.core.esg_1q.SearchMemo`, so another run of the
            process that searched the same stages at a target in the same
            interval answers it.
        name:
            Override the reported policy name (used by the ablation study).
        """
        super().__init__()
        if not 0.0 <= ensure_number(safety_margin, "safety_margin") < 1.0:
            raise ValueError(f"safety_margin must be in [0, 1), got {safety_margin}")
        if not 0.0 <= ensure_number(per_expansion_ms, "per_expansion_ms") < math.inf:
            raise ValueError(f"per_expansion_ms must be finite and >= 0, got {per_expansion_ms!r}")
        self.k = ensure_positive_int(k, "k")
        self.group_size = ensure_positive_int(group_size, "group_size")
        self.adaptive = ensure_bool(adaptive, "adaptive")
        self._gpu_sharing = ensure_bool(gpu_sharing, "gpu_sharing")
        self._batching = ensure_bool(batching, "batching")
        self.safety_margin = safety_margin
        self.max_paths = ensure_positive_int(max_paths, "max_paths")
        self.per_expansion_ms = per_expansion_ms
        # Adaptive plans write no request state, and a modeled overhead is
        # the same on every retry, so the controller may replay a failed
        # attempt instead of repeating it.  Static plans write
        # ``static_plan``.
        self.pure_decisions = self.adaptive
        if name is not None:
            self.name = name
        self._distributions: dict[str, SLODistribution] = {}
        self._plan_cache_enabled = ensure_bool(plan_cache, "plan_cache")
        #: The interval store: decisions by ``(app, stage, clamped queue
        #: length)``, each answering the quotas of its search's interval.
        self._plan_cache = IntervalStore()
        #: Memo for :meth:`_group_and_target`: ``(group stages, group
        #: fraction, remaining fraction)`` by (app, stage, completed stages)
        #: for requests of an app's registered workflow.
        self._group_cache: dict[tuple, tuple[tuple[str, ...], float, float]] = {}
        #: Search inputs by (function, stage, first-stage batch cap); see
        #: :meth:`_stage_specs`.
        self._spec_cache: dict[tuple[str, str, int | None], StageSearchSpec] = {}
        #: Static planning's whole-workflow searches: ``(plan or None,
        #: expansions)`` by (app, stage, clamped queue length, SLO).
        self._static_plans: dict[tuple, tuple[dict[str, Configuration] | None, int]] = {}

    # ------------------------------------------------------------------
    # SchedulingPolicy lifecycle
    # ------------------------------------------------------------------
    def on_bind(self, context: SchedulingContext) -> None:
        """Precompute the dominator-based SLO distribution of every workflow."""
        self._distributions = {
            name: distribute_slo(workflow, context.profile_store, group_size=self.group_size)
            for name, workflow in context.workflows.items()
        }
        # Queue lengths above it cap nothing (see _stage_specs).
        self._largest_batch = context.config_space.batch_options[-1]
        self.invalidate_plan_cache()

    def invalidate_plan_cache(self) -> None:
        """Drop memoized plans (call after changing profiles or distributions).

        The process-wide search memo is keyed by value and stays.
        """
        self._plan_cache.clear()
        self._group_cache.clear()
        self._spec_cache.clear()
        self._static_plans.clear()

    @property
    def _plan_cache_size(self) -> int:
        """Decisions held by the interval store, under all keys."""
        return self._plan_cache.size

    def distribution_for(self, app_name: str) -> SLODistribution:
        """The SLO distribution of an application (computed lazily if needed)."""
        if app_name not in self._distributions:
            workflow = self.context.workflows[app_name]
            self._distributions[app_name] = distribute_slo(
                workflow, self.context.profile_store, group_size=self.group_size
            )
        return self._distributions[app_name]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, queue: AFWQueue, now_ms: float) -> SchedulingDecision | None:
        """Run ESG_1Q for the queue's current function group."""
        if queue.is_empty:
            return None
        if not self.adaptive:
            preplanned = self._static_decision(queue)
            if preplanned is not None:
                return preplanned

        group_stage_ids, target_ms = self._group_and_target(queue, now_ms)
        cache_key: tuple[str, str, int] | None = None
        if self._plan_cache_enabled:
            # The key fixes the search's stages: the group follows from
            # (app, stage), and the queue length only caps the first stage's
            # batch, as in _stage_specs.  Profiles are immutable for the
            # lifetime of a bound policy, so the quota decides the rest.
            length = len(queue)
            if length > self._largest_batch:
                length = self._largest_batch
            cache_key = (queue.app_name, queue.stage_id, length)
            decision = self._plan_cache.find(cache_key, target_ms)
            if decision is not None:
                return decision
        stages = self._stage_specs(queue, group_stage_ids)
        result = esg_1q_search(
            stages, target_ms, k=self.k, max_paths=self.max_paths, memo=self._search_memo()
        )
        decision = SchedulingDecision(
            candidates=result.candidate_configs(),
            reported_overhead_ms=result.expansions * self.per_expansion_ms,
        )
        if cache_key is not None:
            self._plan_cache.add(
                cache_key, result.target_lo, result.target_hi, decision, PLAN_CACHE_LIMIT
            )
        return decision

    def _search_memo(self) -> SearchMemo | None:
        """The process-wide search memo, while the plan cache is on."""
        return _SEARCH_MEMO if self._plan_cache_enabled else None

    def _group_and_target(self, queue: AFWQueue, now_ms: float) -> tuple[tuple[str, ...], float]:
        """Determine the remaining group stages and their latency quota.

        The quota follows the dominator-based distribution but is applied to
        the *remaining* budget of the most urgent queued request, which is
        what makes ESG adaptive: delays in earlier stages automatically
        shrink (and slack grows) the quota of later groups.
        """
        jobs = queue.jobs
        if len(jobs) == 1:
            # min() over a single job is that job; skip the urgency scan.
            request = jobs[0].request
        else:
            request = queue.most_urgent_request(now_ms)
        if (
            self._context is not None
            and self._context.workflows.get(queue.app_name) is request.workflow
        ):
            # A request of the app's registered workflow: the group stages
            # and both fraction sums depend on (app, stage, completed
            # stages) alone.  Factory-built per-request workflows fail the
            # identity check and take the exact path.
            key = (queue.app_name, queue.stage_id, frozenset(request.stage_completion_ms))
            shares = self._group_cache.get(key)
            if shares is None:
                if len(self._group_cache) >= PLAN_CACHE_LIMIT:
                    self._group_cache.clear()
                shares = self._group_cache[key] = self._group_shares(queue, request)
        else:
            shares = self._group_shares(queue, request)
        group_stage_ids, group_remaining, remaining_total = shares
        # Inlined ``request.remaining_budget_ms``: the same (arrival + slo)
        # - now association as its deadline_ms composition.
        remaining_budget = request.arrival_ms + request.slo_ms - now_ms
        headroom = 1.0 - self.safety_margin
        if remaining_total <= 0.0:
            return group_stage_ids, remaining_budget * headroom
        return (
            group_stage_ids,
            remaining_budget * headroom * group_remaining / remaining_total,
        )

    def _group_shares(
        self, queue: AFWQueue, request: Request
    ) -> tuple[tuple[str, ...], float, float]:
        """The group's remaining stages, their summed fraction and the summed
        fraction of every stage the request has left."""
        dist = self.distribution_for(queue.app_name)
        group = dist.group_of(queue.stage_id)
        group_stage_ids = tuple(group.stages_from(queue.stage_id))
        remaining = set(request.remaining_stage_ids())
        remaining.add(queue.stage_id)
        # Summed in sorted order: float addition is not associative, and set
        # iteration order varies with hash randomisation across processes.
        remaining_total = sum(dist.stage_fraction(sid) for sid in sorted(remaining))
        group_remaining = sum(
            dist.stage_fraction(sid) for sid in group_stage_ids if sid in remaining
        )
        return group_stage_ids, group_remaining, remaining_total

    def _stage_specs(self, queue: AFWQueue, stage_ids: Sequence[str]) -> list[StageSearchSpec]:
        """Build the per-stage search inputs, applying the ablation filters.

        Only the queue's own stage, when it leads ``stage_ids``, is capped at
        the queue length: a larger batch cannot be formed right now.  Specs
        are memoized per (function, stage, cap); the cap is clamped to the
        largest batch option, above which it filters nothing, so the cache
        stays bounded.
        """
        store = self.context.profile_store
        workflow = queue.workflow
        largest_batch = self._largest_batch
        specs: list[StageSearchSpec] = []
        for position, stage_id in enumerate(stage_ids):
            function = workflow.function_of(stage_id)
            cap = (
                min(len(queue), largest_batch)
                if position == 0 and stage_id == queue.stage_id
                else None
            )
            key = (function, stage_id, cap)
            spec = self._spec_cache.get(key)
            if spec is None:
                profile = store.profile(function)
                spec = StageSearchSpec(
                    stage_id=stage_id,
                    function_name=profile.spec.name,
                    entries=self._filtered_entries(profile, cap),
                )
                self._spec_cache[key] = spec
            specs.append(spec)
        return specs

    def _filtered_entries(
        self, profile: FunctionProfile, max_batch: int | None
    ) -> tuple[ProfileEntry, ...]:
        """Latency-sorted entries honouring the batching / GPU-sharing switches."""
        space = self.context.config_space
        entries = profile.sorted_by_latency(max_batch=max_batch)
        if not self._batching:
            min_batch = space.batch_options[0]
            entries = tuple(e for e in entries if e.config.batch_size == min_batch)
        if not self._gpu_sharing:
            full_gpu = space.vgpu_options[-1]
            entries = tuple(e for e in entries if e.config.vgpus == full_gpu)
        if not entries:
            # The filters must never leave a stage without options.
            entries = (profile.fastest_entry,)
        return entries

    # ------------------------------------------------------------------
    # Static (non-adaptive) variant used for ablation
    # ------------------------------------------------------------------
    def _static_decision(self, queue: AFWQueue) -> SchedulingDecision | None:
        """Reuse (or create) a whole-workflow plan instead of re-searching."""
        request = queue.oldest_job().request
        # Reusing an existing plan is a dictionary lookup; only the initial
        # whole-workflow search carries a modeled cost.
        overhead_ms = 0.0
        if request.static_plan is None:
            # First stage of this request: plan the whole workflow once.  The
            # search reads the workflow, the first stage's batch cap (see
            # _stage_specs) and the SLO, so equal keys replay it.
            key = (queue.app_name, queue.stage_id, min(len(queue), self._largest_batch))
            key += (request.slo_ms,)
            memo = self._static_plans.get(key) if self._plan_cache_enabled else None
            if memo is None:
                stage_ids = queue.workflow.topological_order()
                stages = self._stage_specs(queue, stage_ids)
                result = esg_1q_search(
                    stages,
                    request.slo_ms,
                    k=self.k,
                    max_paths=self.max_paths,
                    memo=self._search_memo(),
                )
                best = result.best
                memo = (best.as_plan(stage_ids) if best is not None else None, result.expansions)
                if self._plan_cache_enabled:
                    if len(self._static_plans) >= PLAN_CACHE_LIMIT:
                        self._static_plans.clear()
                    self._static_plans[key] = memo
            plan, expansions = memo
            if plan is None:
                return None
            request.static_plan = dict(plan)
            overhead_ms = expansions * self.per_expansion_ms
        return preplanned_decision(queue, request.static_plan, overhead_ms)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def select_invoker(
        self, config: Configuration, queue: AFWQueue, now_ms: float
    ) -> int | None:
        """ESG_Dispatch: predecessor node, home node, warm nodes, cold node."""
        jobs = queue.jobs
        predecessor_id = jobs[0].request.predecessor_invoker(queue.stage_id) if jobs else None
        return locality_first_invoker(
            self.context.cluster,
            queue.app_name,
            queue.function_name,
            config,
            now_ms,
            predecessor_invoker_id=predecessor_id,
        )
