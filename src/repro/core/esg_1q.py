"""ESG_1Q: the per-queue configuration-path search (Section 3.3, Algorithm 1).

Given the sequence of remaining stages of a function group and a target
latency (the group's SLO quota), ESG_1Q finds configuration *paths* — one
``(batch, #vCPUs, #vGPUs)`` configuration per stage — that meet the target
with the smallest per-job resource cost.  The search walks the stages in
order, extending every surviving partial path with the configurations of the
next stage (sorted by increasing latency, so time-based pruning can
``break`` out of the rest of the list), and applies the dual-blade pruning
bounds of :mod:`repro.core.bounds`:

* **time blade** — if even the fastest completion of the extended path
  exceeds the target latency, the extension (and every slower configuration
  after it) is discarded;
* **cost blade** — if even the cheapest completion of the extended path
  costs no less than the K-th best known achievable completion cost
  (``best_full_paths_maxCost``), the extension is discarded.

The output is the configuration priority queue the controller consumes: up
to K complete paths sorted by increasing cost.  When no path can meet the
target, the fallback "default path" (every stage at its fastest
configuration) is returned so the scheduler can still make progress, as in
``setDefaultPaths`` of Figure 3(b).

The search is exact but does not visit every configuration one by one.
While the cost threshold is fixed (it only moves when an extension
survives), the cost bound ``(prefix + x) + remaining`` is monotone in the
entry cost ``x`` under IEEE rounding.  So the first entry that can pass the
cost blade lies on the walk of "next strictly cheaper" entries from the
current one (a per-stage table), and every entry it skips is provably
rejected.  The search follows that walk, bisects the sorted latencies for
the time blade's break point when that comes first, and adds the skipped
entries to ``expansions`` and ``pruned_cost`` arithmetically.
Paths, their order and all three counts equal those of the entry-by-entry
scan, so the modeled scheduling overhead ``per_expansion_ms * expansions``
is unchanged; ``docs/performance.md`` gives the full argument.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from repro.core.bounds import SuffixBounds
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import FunctionProfile, ProfileEntry

__all__ = ["StageSearchSpec", "PathCandidate", "ESG1QResult", "esg_1q_search"]


@dataclass(frozen=True)
class StageSearchSpec:
    """Search input for one stage: its configuration list sorted by latency.

    The flat tables the search reads are built once here, so a spec reused
    across searches (the policy memoizes them) costs nothing per search.
    """

    stage_id: str
    function_name: str
    entries: tuple[ProfileEntry, ...]
    #: Per-job cost of the cheapest configuration.
    min_cost_cents: float = field(init=False, repr=False, compare=False)
    _latencies: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _costs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _configs: tuple[Configuration, ...] = field(init=False, repr=False, compare=False)
    _suffix_min_costs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: ``_next_cheaper[j]``: the first index after ``j`` whose per-job cost
    #: is strictly below entry ``j``'s, or ``len(entries)`` if there is none.
    _next_cheaper: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"stage {self.stage_id!r} has no configuration entries")
        lat = tuple(e.latency_ms for e in self.entries)
        if any(lat[i] > lat[i + 1] for i in range(len(lat) - 1)):
            raise ValueError(f"entries of stage {self.stage_id!r} must be sorted by latency")
        costs = tuple(e.per_job_cost_cents for e in self.entries)
        n = len(costs)
        suffix = [0.0] * n + [float("inf")]
        next_cheaper = [n] * n
        running = float("inf")
        cheaper: list[int] = []  # after the pops: j's cheaper walk, nearest on top
        for j in range(n - 1, -1, -1):
            running = min(running, costs[j])
            suffix[j] = running
            while cheaper and costs[cheaper[-1]] >= costs[j]:
                cheaper.pop()
            if cheaper:
                next_cheaper[j] = cheaper[-1]
            cheaper.append(j)
        object.__setattr__(self, "min_cost_cents", min(costs))
        object.__setattr__(self, "_latencies", lat)
        object.__setattr__(self, "_costs", costs)
        object.__setattr__(self, "_configs", tuple(e.config for e in self.entries))
        object.__setattr__(self, "_suffix_min_costs", tuple(suffix))
        object.__setattr__(self, "_next_cheaper", tuple(next_cheaper))

    @classmethod
    def from_profile(
        cls,
        stage_id: str,
        profile: FunctionProfile,
        *,
        max_batch: int | None = None,
    ) -> "StageSearchSpec":
        """Build the spec from a function profile, optionally capping the batch."""
        entries = profile.sorted_by_latency(max_batch=max_batch)
        return cls(stage_id=stage_id, function_name=profile.spec.name, entries=entries)

    @property
    def min_latency_ms(self) -> float:
        """Latency of the fastest configuration."""
        return self.entries[0].latency_ms

    @property
    def fastest_cost_cents(self) -> float:
        """Per-job cost of the fastest configuration."""
        return self.entries[0].per_job_cost_cents

    @property
    def fastest_entry(self) -> ProfileEntry:
        """The fastest configuration entry."""
        return self.entries[0]

    def suffix_min_costs(self) -> tuple[float, ...]:
        """``suffix_min_costs()[j]`` = cheapest per-job cost among ``entries[j:]``.

        Used by the search to stop scanning a stage's (latency-ordered)
        configuration list as soon as no remaining entry could pass the cost
        blade — a sound shortcut because it only skips entries whose
        ``rscLow`` is provably at least the current pruning threshold.
        """
        return self._suffix_min_costs


@dataclass(frozen=True)
class PathCandidate:
    """One complete configuration path over the searched stages."""

    configs: tuple[Configuration, ...]
    latency_ms: float
    cost_cents: float

    @property
    def first_config(self) -> Configuration:
        """Configuration of the first (currently scheduled) stage."""
        return self.configs[0]

    def as_plan(self, stage_ids: Sequence[str]) -> dict[str, Configuration]:
        """Return the path as a stage->configuration mapping."""
        if len(stage_ids) != len(self.configs):
            raise ValueError(
                f"path covers {len(self.configs)} stages but {len(stage_ids)} ids were given"
            )
        return dict(zip(stage_ids, self.configs))


@dataclass
class ESG1QResult:
    """Output of one ESG_1Q invocation, plus search statistics."""

    paths: list[PathCandidate]
    target_latency_ms: float
    feasible: bool
    expansions: int
    pruned_time: int
    pruned_cost: int
    search_time_ms: float
    stage_ids: tuple[str, ...] = ()

    @property
    def best(self) -> PathCandidate | None:
        """The cheapest feasible path (or the fallback path when infeasible)."""
        return self.paths[0] if self.paths else None

    def candidate_configs(self) -> list[Configuration]:
        """First-stage configurations in priority order, de-duplicated."""
        seen: set[Configuration] = set()
        out: list[Configuration] = []
        for path in self.paths:
            cfg = path.first_config
            if cfg not in seen:
                seen.add(cfg)
                out.append(cfg)
        return out


#: Sort keys of the search's ``(cost, latency, configs)`` path tuples.  Sorting
#: on the whole tuple would compare configurations and reorder cost ties.
_BY_COST = itemgetter(0)
_BY_COST_THEN_LATENCY = itemgetter(0, 1)


def _suffix_bounds(stages: Sequence[StageSearchSpec]) -> SuffixBounds:
    return SuffixBounds.from_stages(
        [s.min_latency_ms for s in stages],
        [s.min_cost_cents for s in stages],
        [s.fastest_cost_cents for s in stages],
    )


def _default_paths(stages: Sequence[StageSearchSpec]) -> list[PathCandidate]:
    """The fallback path: every stage runs its fastest configuration."""
    configs = tuple(s.fastest_entry.config for s in stages)
    latency = sum(s.fastest_entry.latency_ms for s in stages)
    cost = sum(s.fastest_entry.per_job_cost_cents for s in stages)
    return [PathCandidate(configs=configs, latency_ms=latency, cost_cents=cost)]


def esg_1q_search(
    stages: Sequence[StageSearchSpec],
    target_latency_ms: float,
    *,
    k: int = 5,
    max_paths: int = 5000,
    max_expansions: int = 2_000_000,
) -> ESG1QResult:
    """Run the ESG_1Q search over ``stages`` with a latency target.

    Parameters
    ----------
    stages:
        The remaining stages of the function group, in execution order.  The
        first stage's entries should already be restricted to batch sizes
        that the queue can currently form.
    target_latency_ms:
        The group's latency quota (``GSLO`` in Algorithm 1).  ``+inf`` means
        no time limit; NaN is rejected.
    k:
        Number of solutions kept in the configuration priority queue
        (the paper's ``K``, default 5).
    max_paths:
        Safety cap on the number of surviving partial paths per stage; when
        exceeded, only the cheapest are kept (the paper's pruning normally
        keeps the frontier far below this).
    max_expansions:
        Safety cap on the total number of path extensions examined, checked
        before each partial path is extended.

    Returns
    -------
    ESG1QResult
        Up to ``k`` complete paths sorted by increasing cost.  If no path
        meets the target, ``feasible`` is False and the fallback
        fastest-configuration path is returned instead.
    """
    if not stages:
        raise ValueError("esg_1q_search needs at least one stage")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if math.isnan(target_latency_ms):
        raise ValueError(f"target_latency_ms must not be NaN, got {target_latency_ms!r}")
    if target_latency_ms <= 0:
        # A non-positive budget can legitimately happen when a request has
        # already blown its deadline; nothing can meet it, so return the
        # fastest path as the damage-control default.
        return ESG1QResult(
            paths=_default_paths(stages),
            target_latency_ms=target_latency_ms,
            feasible=False,
            expansions=0,
            pruned_time=0,
            pruned_cost=0,
            search_time_ms=0.0,
            stage_ids=tuple(s.stage_id for s in stages),
        )

    # repro: allow[REP001] search_time_ms is a diagnostic on the result (figures 10/11 report real search cost); scheduling overhead in simulations is modeled via per_expansion_ms, never this measurement
    start_time = _time.perf_counter()
    suffix = _suffix_bounds(stages)
    min_latency_suffix = suffix.min_latency_suffix
    min_cost_suffix = suffix.min_cost_suffix
    fastest_cost_suffix = suffix.fastest_cost_suffix

    # best_full_paths_maxCost in the paper: the K smallest achievable
    # completion costs seen so far (ascending); min_rsc[-1] is the threshold.
    min_rsc: list[float] = [float("inf")] * k

    # Partial paths as (cost, latency, configs) tuples.
    paths: list[tuple[float, float, tuple[Configuration, ...]]] = [(0.0, 0.0, ())]
    complete: list[tuple[float, float, tuple[Configuration, ...]]] = []
    expansions = 0
    pruned_time = 0
    pruned_cost = 0
    truncated = False

    last_index = len(stages) - 1
    for stage_index, stage in enumerate(stages):
        is_last = stage_index == last_index
        new_paths = complete if is_last else []
        # Expanding cheap prefixes first lets their rscFastest values tighten
        # the cost blade before expensive prefixes are considered.
        paths.sort(key=_BY_COST)
        latencies = stage._latencies
        costs = stage._costs
        configs = stage._configs
        suffix_min_cost = stage._suffix_min_costs
        next_cheaper = stage._next_cheaper
        num_entries = len(costs)
        # The bounds' suffix terms, with the scan's association order:
        # (prefix + entry) + remaining.
        rest_latency = min_latency_suffix[stage_index + 1]
        rest_cost = min_cost_suffix[stage_index + 1]
        rest_fastest_cost = fastest_cost_suffix[stage_index + 1]
        latency_room = target_latency_ms - rest_latency  # bisection guesses only
        for position, (path_cost, path_latency, path_configs) in enumerate(paths):
            if expansions >= max_expansions:
                truncated = True
                break
            # Early exit on the cost blade: if even the cheapest entry cannot
            # beat the current K-th best completion cost, none can survive.
            # Paths are sorted by cost and the threshold only falls, so every
            # later path fails at its first entry too.
            if path_cost + suffix_min_cost[0] + rest_cost >= min_rsc[-1]:
                pruned_cost += len(paths) - position
                break
            j = 0
            while True:
                threshold = min_rsc[-1]
                # Some entry at or after j passes the cost blade; find the
                # first one, p, on the walk of strictly cheaper entries: every
                # entry the walk skips costs at least as much as one seen to
                # fail, so it fails too (the bound is monotone in cost).
                p = j
                while path_cost + costs[p] + rest_cost >= threshold:
                    p = next_cheaper[p]
                if path_latency + latencies[p] + rest_latency >= target_latency_ms:
                    # The time blade breaks at some b in j..p.  Bisecting the
                    # sorted latencies on the rearranged bound gives a guess;
                    # the exact bound decides by stepping from it.
                    b = bisect_left(latencies, latency_room - path_latency, j, p)
                    while b > j and (
                        path_latency + latencies[b - 1] + rest_latency >= target_latency_ms
                    ):
                        b -= 1
                    while path_latency + latencies[b] + rest_latency < target_latency_ms:
                        b += 1
                    # Entries j..b-1 were expanded and cost-pruned; entry b
                    # was expanded and time-pruned.
                    expansions += b - j + 1
                    pruned_cost += b - j
                    pruned_time += 1
                    break
                # Entries j..p-1 were expanded and cost-pruned; p survives
                # and tightens the cost blade with its achievable completion.
                expansions += p - j + 1
                pruned_cost += p - j
                cost = path_cost + costs[p]
                fastest_completion = cost + rest_fastest_cost
                if fastest_completion < threshold:
                    insort(min_rsc, fastest_completion)
                    min_rsc.pop()
                new_paths.append((cost, path_latency + latencies[p], path_configs + (configs[p],)))
                j = p + 1
                if j == num_entries:
                    break
                if path_cost + suffix_min_cost[j] + rest_cost >= min_rsc[-1]:
                    pruned_cost += 1
                    break
        if truncated or is_last:
            break
        if len(new_paths) > max_paths:
            new_paths.sort(key=_BY_COST)
            del new_paths[max_paths:]
        paths = new_paths
        if not paths:
            break

    # repro: allow[REP001] closes the diagnostic-only measurement started above
    search_time_ms = (_time.perf_counter() - start_time) * 1000.0

    complete.sort(key=_BY_COST_THEN_LATENCY)
    feasible = bool(complete)
    if not feasible:
        result_paths = _default_paths(stages)
    else:
        result_paths = [
            PathCandidate(configs=path_configs, latency_ms=latency, cost_cents=cost)
            for cost, latency, path_configs in complete[:k]
        ]
    return ESG1QResult(
        paths=result_paths,
        target_latency_ms=target_latency_ms,
        feasible=feasible,
        expansions=expansions,
        pruned_time=pruned_time,
        pruned_cost=pruned_cost,
        search_time_ms=search_time_ms,
        stage_ids=tuple(s.stage_id for s in stages),
    )
