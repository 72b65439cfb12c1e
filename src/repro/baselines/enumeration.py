"""The enumeration policy shared by the INFless and FaST-GShare baselines.

Both baselines enumerate one function's configurations, keep those whose
profiled latency meets the stage's share of the SLO (split by average
service time, :func:`service_time_fractions`), rank them by a throughput
metric and place the chosen configuration on the fitting node that leaves
the least stranded capacity.  They differ only in the rank key and in the
placement key, which subclasses supply.
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.baselines.service_time_slo import service_time_fractions
from repro.cluster.policy_api import AFWQueue, SchedulingContext, SchedulingDecision, SchedulingPolicy
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileEntry
from repro.utils.validation import ensure_positive_int

__all__ = ["EnumerationPolicy"]


class EnumerationPolicy(SchedulingPolicy):
    """Per-function enumeration under a service-time stage sub-SLO."""

    #: plan() reads the queue's length and head job and the profiles,
    #: select_invoker() the free capacity; neither reads ``now_ms`` or
    #: writes anything the run can observe.
    pure_decisions = True
    time_invariant_decisions = True

    def __init__(self, *, candidates: int = 3) -> None:
        """Create the policy.

        Parameters
        ----------
        candidates:
            How many alternative configurations to hand the controller (the
            best by the rank key first); a positive ``int``.
        """
        super().__init__()
        self.num_candidates = ensure_positive_int(candidates, "candidates")
        self._fractions: dict[str, dict[str, float]] = {}
        #: Decisions by (function, queue length capped at the largest batch
        #: option, stage sub-SLO): plan() reads nothing else.
        self._decisions: dict[tuple[str, int, float], SchedulingDecision] = {}

    def on_bind(self, context: SchedulingContext) -> None:
        """Precompute the service-time SLO fractions of every workflow."""
        self._fractions = {
            name: service_time_fractions(workflow, context.profile_store)
            for name, workflow in context.workflows.items()
        }
        self._decisions.clear()

    def stage_slo_ms(self, queue: AFWQueue, slo_ms: float) -> float:
        """The share of the end-to-end SLO this stage is allowed to use.

        The fraction is applied to the *original* SLO, not the remaining
        budget: neither baseline adjusts later stages when earlier stages
        run late, which is one of the shortcomings the paper studies.
        """
        fractions = self._fractions.get(queue.app_name)
        if fractions is None:
            fractions = service_time_fractions(queue.workflow, self.context.profile_store)
            self._fractions[queue.app_name] = fractions
        return slo_ms * fractions[queue.stage_id]

    @abc.abstractmethod
    def rank_key(self, entry: ProfileEntry) -> tuple[float, ...]:
        """Sort key of a feasible configuration (best first)."""

    @abc.abstractmethod
    def fit_key(self, config: Configuration) -> Callable[[int, int], object]:
        """Placement key over a node's free ``(vcpus, vgpus)`` (lowest wins)."""

    def plan(self, queue: AFWQueue, now_ms: float) -> SchedulingDecision | None:
        """Pick the best-ranked configurations within the stage sub-SLO."""
        if queue.is_empty:
            return None
        stage_slo = self.stage_slo_ms(queue, queue.oldest_job().request.slo_ms)
        max_batch = min(len(queue), self.context.config_space.batch_options[-1])
        key = (queue.function_name, max_batch, stage_slo)
        decision = self._decisions.get(key)
        if decision is None:
            profile = self.context.profile_store.profile(queue.function_name)
            entries = profile.sorted_by_latency(max_batch=max_batch)
            # Nothing meets the stage budget: fall back to the fastest option.
            feasible = [e for e in entries if e.latency_ms <= stage_slo] or [entries[0]]
            ranked = sorted(feasible, key=self.rank_key)
            # A single scan of the profile table: charged no overhead, like
            # Aquatope's lookup.
            decision = SchedulingDecision(
                candidates=[e.config for e in ranked[: self.num_candidates]]
            )
            if len(self._decisions) >= 4096:
                self._decisions.clear()
            self._decisions[key] = decision
        return decision

    def select_invoker(
        self, config: Configuration, queue: AFWQueue, now_ms: float
    ) -> int | None:
        """Choose the fitting node that minimises :meth:`fit_key`."""
        best = self.context.cluster.best_fitting_invoker(config, key=self.fit_key(config))
        return None if best is None else best.invoker_id
