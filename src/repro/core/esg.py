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

from repro.cluster.policy_api import AFWQueue, SchedulingDecision, SchedulingContext, SchedulingPolicy
from repro.core.dispatch import locality_first_invoker, locality_first_invoker_fast
from repro.core.dominator import SLODistribution, distribute_slo
from repro.core.esg_1q import StageSearchSpec, esg_1q_search
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import FunctionProfile, ProfileEntry
from repro.workloads.request import Request

__all__ = ["ESGPolicy"]


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
            wall-clock measurement of ``plan()``.
        plan_cache:
            Memoize :meth:`plan` keyed by the exact search inputs — the
            queue-head signature ``(queue key, queue length)`` and the
            pressure signature ``target_ms`` (the remaining-budget quota,
            which already folds in every time- and urgency-dependent
            input).  The ESG_1Q search is a pure function of those inputs,
            so cache hits return byte-identical decisions (including the
            modeled overhead); the controller's recheck retries within one
            tick are the main beneficiary.  Only active when
            ``per_expansion_ms`` models overhead deterministically —
            wall-clock measurement mode always re-runs the search.
        name:
            Override the reported policy name (used by the ablation study).
        """
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        if not 0.0 <= safety_margin < 1.0:
            raise ValueError(f"safety_margin must be in [0, 1), got {safety_margin}")
        self.k = k
        self.group_size = group_size
        self.adaptive = adaptive
        self._gpu_sharing = gpu_sharing
        self._batching = batching
        self.safety_margin = safety_margin
        self.max_paths = max_paths
        if per_expansion_ms is not None and per_expansion_ms < 0:
            raise ValueError(f"per_expansion_ms must be >= 0, got {per_expansion_ms}")
        self.per_expansion_ms = per_expansion_ms
        # With a modeled overhead the wall-clock plan timing is discarded
        # anyway, so the fast loop may skip measuring it.
        self.deterministic_overhead = per_expansion_ms is not None
        if name is not None:
            self.name = name
        self._distributions: dict[str, SLODistribution] = {}
        self._plan_cache_enabled = plan_cache and per_expansion_ms is not None
        self._plan_cache: dict[tuple, SchedulingDecision] = {}
        #: Fast-mode memo for :meth:`_group_and_target` on *fresh* requests
        #: (no stage completed yet): their remaining-stage set is the whole
        #: workflow, so the group stages and both fraction sums are a pure
        #: function of (app, stage).  Only the remaining-budget factor is
        #: per-request; it is applied with the original operation order.
        self._fresh_group_cache: dict[tuple[str, str], tuple[tuple[str, ...], float, float]] = {}
        #: Search inputs by (function, stage, first-stage batch cap); see
        #: :meth:`_stage_specs`.
        self._spec_cache: dict[tuple[str, str, int | None], StageSearchSpec] = {}

    # ------------------------------------------------------------------
    # SchedulingPolicy lifecycle
    # ------------------------------------------------------------------
    def on_bind(self, context: SchedulingContext) -> None:
        """Precompute the dominator-based SLO distribution of every workflow."""
        self._distributions = {
            name: distribute_slo(workflow, context.profile_store, group_size=self.group_size)
            for name, workflow in context.workflows.items()
        }
        self.invalidate_plan_cache()

    def invalidate_plan_cache(self) -> None:
        """Drop memoized plans (call after changing profiles or distributions)."""
        self._plan_cache.clear()
        self._fresh_group_cache.clear()
        self._spec_cache.clear()

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
        cache_key: tuple | None = None
        if self._plan_cache_enabled:
            # The search is a pure function of (stage group, queue length,
            # latency quota): the quota folds in the most urgent request's
            # remaining budget (hence now_ms), and the queue length bounds
            # the first stage's batch entries.  Profiles are immutable for
            # the lifetime of a bound policy.
            cache_key = (queue.app_name, queue.stage_id, len(queue), target_ms)
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                return cached
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
            if len(self._plan_cache) >= 4096:
                self._plan_cache.clear()
            self._plan_cache[cache_key] = decision
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
        if self.fast_mode and len(jobs) == 1:
            # min() over a single job is that job; skip the urgency scan.
            request = jobs[0].request
        else:
            request = queue.most_urgent_request(now_ms)
        if (
            self.fast_mode
            and not request.stage_completion_ms
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
        largest_batch = self.context.config_space.batch_options[-1]
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
            # First stage of this request: plan the whole workflow once.
            workflow = queue.workflow
            stage_ids = workflow.topological_order()
            stages = self._stage_specs(queue, stage_ids)
            result = esg_1q_search(
                stages, request.slo_ms, k=self.k, max_paths=self.max_paths
            )
            best = result.best
            if best is None:
                return None
            request.static_plan = best.as_plan(stage_ids)
            plan_overhead_ms = self._modeled_overhead_ms(result.expansions)
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
        if self.fast_mode:
            predecessor_id = None
            jobs = queue.jobs
            if jobs:
                request = jobs[0].request
                preds = request.workflow.topology().pred[queue.stage_id]
                if preds:
                    # Inlined Request.predecessor_invoker over the cached
                    # topology (identical latest-finishing tie-break).
                    stage_invoker = request.stage_invoker
                    if len(preds) == 1:
                        predecessor_id = stage_invoker.get(preds[0])
                    else:
                        done = [p for p in preds if p in stage_invoker]
                        if done:
                            scm = request.stage_completion_ms
                            predecessor_id = stage_invoker[max(done, key=scm.__getitem__)]
            return locality_first_invoker_fast(
                self.context.cluster,
                queue.app_name,
                queue.function_name,
                config,
                now_ms,
                predecessor_invoker_id=predecessor_id,
            )
        predecessor_id = None
        if not queue.is_empty:
            job = queue.oldest_job()
            predecessor_id = job.request.predecessor_invoker(queue.stage_id)
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
