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

The target ``G`` is read only by the ``G <= 0`` early exit and by the
time-blade checks ``(latency + entry) + remaining >= G``, whose left sides
are non-decreasing in the entry index.  So the search also returns the
interval ``(target_lo, target_hi]`` of targets that make every check it
made come out the same way: a surviving entry's bound raises ``target_lo``,
a time prune at ``b`` lowers ``target_hi`` to ``b``'s bound and, past the
first entry tried, raises ``target_lo`` to the bound of ``b - 1``.  (The
bisection guess is not a check.)  Every target in the interval replays the
same search, counts and truncation included, which lets
:class:`~repro.core.esg.ESGPolicy` answer nearby quotas from one search.

Most of those checks only place a break point.  The ones that decide a
path are made at ``p``, the entry that passed the cost blade: a survivor's
bound lies below ``G``, a time-pruned segment's reaches it.  Every target in
the search's *regime* ``(lo_R, hi_R]`` (``lo_R`` the largest survivor bound
or 0, ``hi_R`` the smallest bound at ``p`` of a time-pruned segment) decides
them the same way, so it keeps every survivor, the K-best threshold, the
paths, their order and ``pruned_time``; only each time-pruned segment's
break ``b`` moves, and with it the cost-pruned count and the interval.
:meth:`ESG1QResult.regime_edges` lists the bounds where a break moves, and a
:class:`SearchMemo` answers a whole regime, across runs, from one search.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Any, Hashable, Sequence

from repro.core.bounds import SuffixBounds
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import FunctionProfile, ProfileEntry
from repro.utils.validation import ensure_positive_int

__all__ = [
    "StageSearchSpec",
    "PathCandidate",
    "ESG1QResult",
    "IntervalStore",
    "SearchMemo",
    "esg_1q_search",
]

#: Stage contents a process has given a :attr:`StageSearchSpec.value_id`,
#: cleared when it holds :data:`VALUE_IDS_LIMIT` of them.  Ids come from a
#: counter that never repeats, so a key built before a clear can only miss.
_VALUE_IDS: dict[tuple, int] = {}
_NEXT_VALUE_ID = itertools.count()
VALUE_IDS_LIMIT = 1024

#: Results a :class:`SearchMemo` holds before it is cleared.
SEARCH_MEMO_LIMIT = 4096


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

    @cached_property
    def value_id(self) -> int:
        """An int shared by every spec of equal content in this process.

        The content is the stage id, the function and the ``(config,
        latency, per-job cost)`` rows: everything the search reads of the
        spec.  Computed on first use.  A :class:`SearchMemo` keys on it:
        each run builds its own specs, and a lookup then hashes a few ints
        instead of every row.
        """
        content = (
            self.stage_id,
            self.function_name,
            tuple(zip(self._configs, self._latencies, self._costs)),
        )
        value_id = _VALUE_IDS.get(content)
        if value_id is None:
            if len(_VALUE_IDS) >= VALUE_IDS_LIMIT:
                _VALUE_IDS.clear()
            value_id = _VALUE_IDS[content] = next(_NEXT_VALUE_ID)
        return value_id


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
    #: Every target in ``(target_lo, target_hi]`` makes the same comparisons
    #: come out the same way, so it returns these paths, this feasibility
    #: and these three counts.
    target_lo: float = -math.inf
    target_hi: float = math.inf
    #: The search's regime ``(lo, hi]`` and its time-pruned segments
    #: ``(path latency, remaining latency, latencies, j, b, p)`` that have
    #: entries before ``p``, which :meth:`regime_edges` turns into the break
    #: points; None means the regime is ``(target_lo, target_hi]``.
    _regime: tuple[float, float, list[tuple]] | None = field(
        default=None, repr=False, compare=False
    )

    def regime_edges(self) -> tuple[float, ...]:
        """``(lo_R, *W, hi_R)``: the regime and the sorted bounds inside it.

        Every target ``G`` in the regime ``(lo_R, hi_R]`` makes each check
        that decides a path come out as this search's did, so it keeps the
        paths, feasibility and ``pruned_time``; only a time-pruned
        segment's break point moves.  ``W`` holds, with repeats, the bounds
        in the regime of the entries before each such segment's ``p``: a
        search at ``G`` expands ``bisect_left(W, G) - bisect_left(W,
        target_latency_ms)`` more entries, all cost-pruned, and reports
        ``G``'s neighbours in the edges as its ``(target_lo, target_hi]``.
        The counts can reach ``max_expansions`` inside the regime, which
        the caller checks.
        """
        if self._regime is None:
            return (self.target_lo, self.target_hi)
        lo, hi, segments = self._regime
        bounds: list[float] = []
        for path_latency, rest_latency, latencies, j, b, p in segments:
            # Bounds are non-decreasing in the entry: those before b are
            # below the searched target, the rest reach it.
            e = b - 1
            while e >= j:
                bound = path_latency + latencies[e] + rest_latency
                if bound <= lo:
                    break
                bounds.append(bound)
                e -= 1
            e = b
            while e < p:
                bound = path_latency + latencies[e] + rest_latency
                if bound > hi:
                    break
                bounds.append(bound)
                e += 1
        bounds.sort()
        return (lo, *bounds, hi)

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


class IntervalStore(dict):
    """Values that each answer an interval ``(lo, hi]`` of targets, by key.

    Under each key it keeps parallel lists ``(his, los, values)`` sorted by
    ``hi``, where ``values[i]`` answers every target in ``(los[i],
    his[i]]``.  The intervals under one key are disjoint, as those of
    distinct searches (or regimes) are, and :meth:`add` refuses one that
    is not; so the only one that can hold a target is the first with ``hi
    >= target``: a lookup is one bisection.  :attr:`size` counts the values
    under all keys.
    """

    def __init__(self) -> None:
        super().__init__()
        self.size = 0

    def find(self, key: Hashable, target: float) -> Any:
        """The value whose interval under ``key`` holds ``target``, or None."""
        intervals = self.get(key)
        if intervals is not None:
            his, los, values = intervals
            at = bisect_left(his, target)
            if at < len(his) and los[at] < target:
                return values[at]
        return None

    def add(self, key: Hashable, lo: float, hi: float, value: Any, limit: int) -> None:
        """Store ``value`` for ``(lo, hi]`` under ``key``; a store already
        holding ``limit`` values is cleared first.

        Raises ValueError if ``(lo, hi]`` overlaps an interval stored under
        ``key``.  Only the two neighbours by ``hi`` can overlap it.
        """
        if self.size >= limit:
            self.clear()
        intervals = self.get(key)
        if intervals is None:
            intervals = self[key] = ([], [], [])
        his, los, values = intervals
        at = bisect_left(his, hi)
        # The interval below ``at`` ends before ``hi``, the one at it no earlier.
        below = at > 0 and lo < his[at - 1]
        if below or (at < len(his) and los[at] < hi):
            near = at - 1 if below else at
            raise ValueError(
                f"interval ({lo!r}, {hi!r}] overlaps ({los[near]!r}, {his[near]!r}] "
                f"stored under key {key!r}"
            )
        his.insert(at, hi)
        los.insert(at, lo)
        values.insert(at, value)
        self.size += 1

    def clear(self) -> None:
        super().clear()
        self.size = 0


class SearchMemo(IntervalStore):
    """ESG_1Q results by value, for :func:`esg_1q_search`'s ``memo``.

    The key is everything the search reads except the target: the stages'
    :attr:`~StageSearchSpec.value_id`, ``k``, ``max_paths`` and
    ``max_expansions``.  Each result answers the targets of its whole
    regime (see :meth:`ESG1QResult.regime_edges`), and a replay equals the
    search at its target, so a memo can serve every run of a process.  A
    result whose counts could reach ``max_expansions`` inside its regime
    answers only its own ``(target_lo, target_hi]``.  Holds at most
    :data:`SEARCH_MEMO_LIMIT` results and is cleared when full.
    """

    def search(
        self,
        stages: Sequence[StageSearchSpec],
        target_latency_ms: float,
        *,
        k: int,
        max_paths: int,
        max_expansions: int,
    ) -> ESG1QResult:
        """The stored result for ``target_latency_ms``, or a new search's.

        A replay is a copy of the stored result with the caller's target
        as ``target_latency_ms``, ``search_time_ms=0.0``, and the counts
        and interval of a search at that target.
        """
        key = (tuple(stage.value_id for stage in stages), k, max_paths, max_expansions)
        found = self.find(key, target_latency_ms)
        if found is None:
            result = esg_1q_search(
                stages, target_latency_ms, k=k, max_paths=max_paths, max_expansions=max_expansions
            )
            edges = result.regime_edges()
            last = len(edges) - 1
            at = bisect_left(edges, target_latency_ms, 1, last)
            # The counts grow with the target and peak at hi_R; a search
            # that truncated is at the cap already.
            if result.expansions + bisect_left(edges, edges[-1], 1, last) - at >= max_expansions:
                edges = (result.target_lo, result.target_hi)
                at = 1
            # The edges stand in for the recorded segments from here on.
            stored = replace(result, _regime=None)
            self.add(key, edges[0], edges[-1], (stored, edges, at), SEARCH_MEMO_LIMIT)
            return result
        stored, edges, at_stored = found
        at = bisect_left(edges, target_latency_ms, 1, len(edges) - 1)
        moved = at - at_stored
        return replace(
            stored,
            paths=list(stored.paths),
            target_latency_ms=target_latency_ms,
            search_time_ms=0.0,
            expansions=stored.expansions + moved,
            pruned_cost=stored.pruned_cost + moved,
            target_lo=edges[at - 1],
            target_hi=edges[at],
        )


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
    memo: SearchMemo | None = None,
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
        (the paper's ``K``, default 5).  A positive int, like both caps.
    max_paths:
        Safety cap on the number of surviving partial paths per stage; when
        exceeded, only the cheapest are kept (the paper's pruning normally
        keeps the frontier far below this).
    max_expansions:
        Safety cap on the total number of path extensions examined, checked
        before each partial path is extended.
    memo:
        Answer from, and store into, this :class:`SearchMemo`: a target
        inside a stored result's interval gets that result, with the same
        paths, feasibility, counts and interval as a search.

    Returns
    -------
    ESG1QResult
        Up to ``k`` complete paths sorted by increasing cost.  If no path
        meets the target, ``feasible`` is False and the fallback
        fastest-configuration path is returned instead.  ``target_lo`` and
        ``target_hi`` bound the targets ``G`` with ``target_lo < G <=
        target_hi`` for which the search returns this same result.
    """
    if not stages:
        raise ValueError("esg_1q_search needs at least one stage")
    ensure_positive_int(k, "k")
    ensure_positive_int(max_paths, "max_paths")
    ensure_positive_int(max_expansions, "max_expansions")
    if math.isnan(target_latency_ms):
        raise ValueError(f"target_latency_ms must not be NaN, got {target_latency_ms!r}")
    if memo is not None:
        return memo.search(
            stages, target_latency_ms, k=k, max_paths=max_paths, max_expansions=max_expansions
        )
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
            target_lo=-math.inf,
            target_hi=0.0,
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
    # The targets that replay every time-blade check made so far: a
    # survivor's bound (kept in regime_lo until the end), the bound before
    # each break and the bound at it.
    target_lo = 0.0
    target_hi = math.inf
    # The regime: the targets that decide every path as this search does.
    regime_lo = 0.0
    regime_hi = math.inf
    segments: list[tuple] = []
    no_bound = -math.inf

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
                bound = path_latency + latencies[p] + rest_latency
                if bound >= target_latency_ms:
                    if bound < regime_hi:
                        regime_hi = bound
                    # The time blade breaks at b, the first entry in j..p
                    # whose bound reaches the target.  Bisecting the sorted
                    # latencies on the rearranged bound gives a guess; the
                    # exact bound decides by stepping from it.  The checks
                    # that come out below the target end at b-1 when b > j,
                    # so every target in (bound at b-1, bound at b] breaks
                    # at b too.
                    b = bisect_left(latencies, latency_room - path_latency, j, p)
                    below = no_bound  # the bound at b-1, once b > j
                    while b > j:
                        bound = path_latency + latencies[b - 1] + rest_latency
                        if bound < target_latency_ms:
                            below = bound
                            break
                        b -= 1
                    while True:
                        bound = path_latency + latencies[b] + rest_latency
                        if bound >= target_latency_ms:
                            break
                        below = bound
                        b += 1
                    if below > target_lo:
                        target_lo = below
                    if bound < target_hi:
                        target_hi = bound
                    # Only an entry before b above the regime's lo, or one
                    # from b to p-1 not above its hi, can be a break point of
                    # the regime; both ends only tighten from here on.
                    if below > regime_lo or (b < p and bound <= regime_hi):
                        segments.append((path_latency, rest_latency, latencies, j, b, p))
                    # Entries j..b-1 were expanded and cost-pruned; entry b
                    # was expanded and time-pruned.
                    expansions += b - j + 1
                    pruned_cost += b - j
                    pruned_time += 1
                    break
                if bound > regime_lo:
                    regime_lo = bound
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
        target_lo=max(target_lo, regime_lo),
        target_hi=target_hi,
        _regime=(regime_lo, regime_hi, segments),
    )
