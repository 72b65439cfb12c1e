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
from bisect import bisect_left

from repro.cluster.policy_api import AFWQueue, SchedulingDecision, SchedulingContext, SchedulingPolicy
from repro.core.dispatch import locality_first_invoker
from repro.core.dominator import SLODistribution, distribute_slo
from repro.core.esg_1q import StageSearchSpec, esg_1q_search
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import FunctionProfile, ProfileEntry
from repro.utils.validation import ensure_positive_int
from repro.workloads.request import Request

__all__ = ["ESGPolicy"]

#: Plans the interval store holds before it is cleared.
PLAN_CACHE_LIMIT = 4096


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
        per_expansion_ms: float | None = 0.001,
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
            range.  Pass ``None`` to fall back to the controller's
            wall-clock measurement of ``plan()``; otherwise it must be
            finite and ``>= 0``.
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
            plans) and only active when ``per_expansion_ms`` models
            overhead deterministically — wall-clock measurement mode always
            re-runs the search.  ``plan_cache=False`` is the reference path.
            With ``adaptive=False`` the whole-workflow search of a request's
            first stage is memoized too, keyed by (app, stage, clamped
            queue length, SLO): it reads nothing else.
        name:
            Override the reported policy name (used by the ablation study).
        """
        super().__init__()
        if not 0.0 <= safety_margin < 1.0:
            raise ValueError(f"safety_margin must be in [0, 1), got {safety_margin}")
        if per_expansion_ms is not None and not (
            math.isfinite(per_expansion_ms) and per_expansion_ms >= 0
        ):
            raise ValueError(
                f"per_expansion_ms must be None or finite and >= 0, got {per_expansion_ms!r}"
            )
        self.k = ensure_positive_int(k, "k")
        self.group_size = ensure_positive_int(group_size, "group_size")
        self.adaptive = adaptive
        self._gpu_sharing = gpu_sharing
        self._batching = batching
        self.safety_margin = safety_margin
        self.max_paths = ensure_positive_int(max_paths, "max_paths")
        self.per_expansion_ms = per_expansion_ms
        # With a modeled overhead the wall-clock plan timing is discarded
        # anyway, so the controller may skip measuring it.
        self.deterministic_overhead = per_expansion_ms is not None
        # Adaptive plans write no request state, and a modeled overhead is
        # the same on every retry, so the controller may replay a failed
        # attempt instead of repeating it.  Static plans write
        # ``static_plan`` and ``plan_miss_count``.
        self.pure_decisions = adaptive and per_expansion_ms is not None
        if name is not None:
            self.name = name
        self._distributions: dict[str, SLODistribution] = {}
        self._plan_cache_enabled = plan_cache and per_expansion_ms is not None
        #: The interval store: per ``(app, stage, clamped queue length)``,
        #: parallel lists ``(his, los, decisions)`` sorted by ``hi``, where
        #: ``decisions[i]`` answers every quota in ``(los[i], his[i]]``.
        #: Distinct searches give disjoint intervals.
        self._plan_cache: dict[
            tuple[str, str, int], tuple[list[float], list[float], list[SchedulingDecision]]
        ] = {}
        self._plan_cache_size = 0
        #: Memo for :meth:`_group_and_target` on *fresh* requests
        #: (no stage completed yet): their remaining-stage set is the whole
        #: workflow, so the group stages and both fraction sums are a pure
        #: function of (app, stage).  Only the remaining-budget factor is
        #: per-request; it is applied with the original operation order.
        self._fresh_group_cache: dict[tuple[str, str], tuple[tuple[str, ...], float, float]] = {}
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
        """Drop memoized plans (call after changing profiles or distributions)."""
        self._plan_cache.clear()
        self._plan_cache_size = 0
        self._fresh_group_cache.clear()
        self._spec_cache.clear()
        self._static_plans.clear()

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
            preplanned = self._preplanned_decision(queue, now_ms)
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
            plans = self._plan_cache.get(cache_key)
            if plans is not None:
                his, los, decisions = plans
                at = bisect_left(his, target_ms)
                if at < len(his) and los[at] < target_ms:
                    return decisions[at]
        stages = self._stage_specs(queue, group_stage_ids)
        result = esg_1q_search(
            stages, target_ms, k=self.k, max_paths=self.max_paths
        )
        candidates = result.candidate_configs()
        best = result.best
        planned = best.as_plan(group_stage_ids) if best is not None else None
        decision = SchedulingDecision(
            candidates=candidates,
            planned_path=planned,
            reported_overhead_ms=self._modeled_overhead_ms(result.expansions),
        )
        if cache_key is not None:
            if self._plan_cache_size >= PLAN_CACHE_LIMIT:
                self._plan_cache.clear()
                self._plan_cache_size = 0
            plans = self._plan_cache.get(cache_key)
            if plans is None:
                plans = self._plan_cache[cache_key] = ([], [], [])
            his, los, decisions = plans
            at = bisect_left(his, result.target_hi)
            his.insert(at, result.target_hi)
            los.insert(at, result.target_lo)
            decisions.insert(at, decision)
            self._plan_cache_size += 1
        return decision

    def _modeled_overhead_ms(self, expansions: int) -> float | None:
        """Deterministic overhead estimate (None = let the controller measure)."""
        if self.per_expansion_ms is None:
            return None
        return expansions * self.per_expansion_ms

    def _group_and_target(self, queue: AFWQueue, now_ms: float) -> tuple[list[str], float]:
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
            not request.stage_completion_ms
            and self._context is not None
            and self._context.workflows.get(queue.app_name) is request.workflow
        ):
            # Fresh request of the app's registered workflow: the remaining
            # set is every stage, so everything except the budget factor is
            # memoizable per (app, stage).  Factory-built per-request
            # workflows fail the identity check and take the exact path.
            key = (queue.app_name, queue.stage_id)
            cached = self._fresh_group_cache.get(key)
            if cached is None:
                cached = self._fresh_group_and_fractions(queue, request)
                self._fresh_group_cache[key] = cached
            group_ids, group_remaining, remaining_total = cached
            group_stage_ids = list(group_ids)
            # Inlined ``request.remaining_budget_ms``: same (arrival + slo)
            # - now association as the deadline_ms property composition.
            remaining_budget = request.arrival_ms + request.slo_ms - now_ms
            headroom = 1.0 - self.safety_margin
            if remaining_total <= 0.0:
                return group_stage_ids, remaining_budget * headroom
            return (
                group_stage_ids,
                remaining_budget * headroom * group_remaining / remaining_total,
            )

        dist = self.distribution_for(queue.app_name)
        group = dist.group_of(queue.stage_id)
        group_stage_ids = list(group.stages_from(queue.stage_id))

        remaining_budget = request.remaining_budget_ms(now_ms)
        remaining = set(request.remaining_stage_ids())
        remaining.add(queue.stage_id)

        # Summed in sorted order: float addition is not associative, and set
        # iteration order varies with hash randomisation across processes.
        remaining_total = sum(dist.stage_fraction(sid) for sid in sorted(remaining))
        group_remaining = sum(
            dist.stage_fraction(sid) for sid in group_stage_ids if sid in remaining
        )
        headroom = 1.0 - self.safety_margin
        if remaining_total <= 0.0:
            return group_stage_ids, remaining_budget * headroom
        return (
            group_stage_ids,
            remaining_budget * headroom * group_remaining / remaining_total,
        )

    def _fresh_group_and_fractions(
        self, queue: AFWQueue, request: Request
    ) -> tuple[tuple[str, ...], float, float]:
        """Compute the memoized fresh-request triple with the exact float
        fold order of :meth:`_group_and_target`'s general path."""
        dist = self.distribution_for(queue.app_name)
        group = dist.group_of(queue.stage_id)
        group_stage_ids = list(group.stages_from(queue.stage_id))
        remaining = set(request.remaining_stage_ids())
        remaining.add(queue.stage_id)
        remaining_total = sum(dist.stage_fraction(sid) for sid in sorted(remaining))
        group_remaining = sum(
            dist.stage_fraction(sid) for sid in group_stage_ids if sid in remaining
        )
        return tuple(group_stage_ids), group_remaining, remaining_total

    def _stage_specs(self, queue: AFWQueue, stage_ids: list[str]) -> list[StageSearchSpec]:
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
    def _preplanned_decision(self, queue: AFWQueue, now_ms: float) -> SchedulingDecision | None:
        """Reuse (or create) a whole-workflow plan instead of re-searching."""
        job = queue.oldest_job()
        request = job.request
        # Reusing an existing plan is a dictionary lookup; only the initial
        # whole-workflow search carries a modeled cost.
        plan_overhead_ms = 0.0 if self.per_expansion_ms is not None else None
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
                result = esg_1q_search(stages, request.slo_ms, k=self.k, max_paths=self.max_paths)
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
            plan_overhead_ms = self._modeled_overhead_ms(expansions)
        planned = request.static_plan.get(queue.stage_id)
        if planned is None:
            return None
        miss = planned.batch_size > len(queue)
        if miss:
            request.plan_miss_count += 1
            planned = planned.with_batch(max(1, len(queue)))
        return SchedulingDecision(
            candidates=[planned],
            planned_path=dict(request.static_plan),
            used_preplanned=True,
            plan_miss=miss,
            reported_overhead_ms=plan_overhead_ms,
        )

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

    # ------------------------------------------------------------------
    # Ablation flags
    # ------------------------------------------------------------------
    @property
    def uses_gpu_sharing(self) -> bool:
        """False for the "without GPU sharing" ablation variant."""
        return self._gpu_sharing

    @property
    def uses_batching(self) -> bool:
        """False for the "without batching" ablation variant."""
        return self._batching
