"""Test-only oracle: the reference ESG_1Q search, frozen.

This is the plain, entry-by-entry form of the search in
:mod:`repro.core.esg_1q`: every partial path visits every configuration of
the next stage in latency order, computes the three dual-blade bounds
through an allocated ``PathBounds``, and keeps the K best achievable
completion costs by linear insertion.  It is kept as it was, minus the
wall-clock ``search_time_ms`` measurement (always 0.0 here), so the
differential tests can check that the optimized search returns the same
paths, feasibility and work counts (``expansions``, ``pruned_time``,
``pruned_cost``) on every input.

The oracle derives every per-stage table (suffix minima, minimum and
fastest costs) from ``StageSearchSpec.entries`` itself, so it does not
depend on the tables the optimized search precomputes.  Do not optimize it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.esg_1q import ESG1QResult, PathCandidate, StageSearchSpec
from repro.profiles.configuration import Configuration


@dataclass(frozen=True)
class PathBounds:
    """The three bounds of one partial path extension."""

    t_low_ms: float
    rsc_low_cents: float
    rsc_fastest_cents: float


@dataclass(frozen=True)
class SuffixBounds:
    """Suffix sums of per-stage minimum latency, minimum cost and fastest cost."""

    min_latency_suffix: tuple[float, ...]
    min_cost_suffix: tuple[float, ...]
    fastest_cost_suffix: tuple[float, ...]

    @classmethod
    def from_stages(
        cls,
        stage_min_latency_ms: Sequence[float],
        stage_min_cost_cents: Sequence[float],
        stage_fastest_cost_cents: Sequence[float],
    ) -> "SuffixBounds":
        n = len(stage_min_latency_ms)
        if not (n == len(stage_min_cost_cents) == len(stage_fastest_cost_cents)):
            raise ValueError("per-stage minima must all have the same length")
        min_lat = [0.0] * (n + 1)
        min_cost = [0.0] * (n + 1)
        fast_cost = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            if stage_min_latency_ms[i] < 0 or stage_min_cost_cents[i] < 0 or stage_fastest_cost_cents[i] < 0:
                raise ValueError("stage minima must be non-negative")
            min_lat[i] = stage_min_latency_ms[i] + min_lat[i + 1]
            min_cost[i] = stage_min_cost_cents[i] + min_cost[i + 1]
            fast_cost[i] = stage_fastest_cost_cents[i] + fast_cost[i + 1]
        return cls(
            min_latency_suffix=tuple(min_lat),
            min_cost_suffix=tuple(min_cost),
            fastest_cost_suffix=tuple(fast_cost),
        )

    @property
    def num_stages(self) -> int:
        return len(self.min_latency_suffix) - 1

    def bounds_for_extension(
        self,
        prefix_latency_ms: float,
        prefix_cost_cents: float,
        entry_latency_ms: float,
        entry_cost_cents: float,
        next_stage_index: int,
    ) -> PathBounds:
        if not 0 <= next_stage_index <= self.num_stages:
            raise IndexError(
                f"next_stage_index {next_stage_index} out of range [0, {self.num_stages}]"
            )
        latency = prefix_latency_ms + entry_latency_ms
        cost = prefix_cost_cents + entry_cost_cents
        return PathBounds(
            t_low_ms=latency + self.min_latency_suffix[next_stage_index],
            rsc_low_cents=cost + self.min_cost_suffix[next_stage_index],
            rsc_fastest_cents=cost + self.fastest_cost_suffix[next_stage_index],
        )


@dataclass
class _PartialPath:
    """Internal: a prefix of a configuration path."""

    configs: list[Configuration] = field(default_factory=list)
    latency_ms: float = 0.0
    cost_cents: float = 0.0


def _min_cost_cents(stage: StageSearchSpec) -> float:
    return min(e.per_job_cost_cents for e in stage.entries)


def _suffix_min_costs(stage: StageSearchSpec) -> tuple[float, ...]:
    costs = [e.per_job_cost_cents for e in stage.entries]
    out = [0.0] * (len(costs) + 1)
    out[-1] = float("inf")
    running = float("inf")
    for j in range(len(costs) - 1, -1, -1):
        running = min(running, costs[j])
        out[j] = running
    return tuple(out)


def _suffix_bounds(stages: Sequence[StageSearchSpec]) -> SuffixBounds:
    return SuffixBounds.from_stages(
        [s.entries[0].latency_ms for s in stages],
        [_min_cost_cents(s) for s in stages],
        [s.entries[0].per_job_cost_cents for s in stages],
    )


def _default_paths(stages: Sequence[StageSearchSpec]) -> list[PathCandidate]:
    configs = tuple(s.entries[0].config for s in stages)
    latency = sum(s.entries[0].latency_ms for s in stages)
    cost = sum(s.entries[0].per_job_cost_cents for s in stages)
    return [PathCandidate(configs=configs, latency_ms=latency, cost_cents=cost)]


def esg_1q_search(
    stages: Sequence[StageSearchSpec],
    target_latency_ms: float,
    *,
    k: int = 5,
    max_paths: int = 5000,
    max_expansions: int = 2_000_000,
) -> ESG1QResult:
    """The reference search; same contract as :func:`repro.core.esg_1q.esg_1q_search`."""
    if not stages:
        raise ValueError("esg_1q_search needs at least one stage")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target_latency_ms <= 0:
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

    suffix = _suffix_bounds(stages)
    stage_suffix_min_costs = [_suffix_min_costs(stage) for stage in stages]

    min_rsc: list[float] = [float("inf")] * k

    paths: list[_PartialPath] = [_PartialPath()]
    complete: list[PathCandidate] = []
    expansions = 0
    pruned_time = 0
    pruned_cost = 0
    truncated = False

    num_stages = len(stages)
    for stage_index, stage in enumerate(stages):
        is_last = stage_index == num_stages - 1
        new_paths: list[_PartialPath] = []
        paths.sort(key=lambda p: p.cost_cents)
        suffix_min_cost = stage_suffix_min_costs[stage_index]
        remaining_min_cost = suffix.min_cost_suffix[stage_index + 1]
        for path in paths:
            if expansions >= max_expansions:
                truncated = True
                break
            for entry_index, entry in enumerate(stage.entries):
                if (
                    path.cost_cents + suffix_min_cost[entry_index] + remaining_min_cost
                    >= min_rsc[-1]
                ):
                    pruned_cost += 1
                    break
                expansions += 1
                bounds = suffix.bounds_for_extension(
                    path.latency_ms,
                    path.cost_cents,
                    entry.latency_ms,
                    entry.per_job_cost_cents,
                    stage_index + 1,
                )
                if bounds.t_low_ms >= target_latency_ms:
                    pruned_time += 1
                    break
                if bounds.rsc_low_cents >= min_rsc[-1]:
                    pruned_cost += 1
                    continue
                _insert_sorted_capped(min_rsc, bounds.rsc_fastest_cents)
                new_latency = path.latency_ms + entry.latency_ms
                new_cost = path.cost_cents + entry.per_job_cost_cents
                if is_last:
                    complete.append(
                        PathCandidate(
                            configs=tuple(path.configs) + (entry.config,),
                            latency_ms=new_latency,
                            cost_cents=new_cost,
                        )
                    )
                else:
                    new_paths.append(
                        _PartialPath(
                            configs=path.configs + [entry.config],
                            latency_ms=new_latency,
                            cost_cents=new_cost,
                        )
                    )
        if truncated:
            break
        if is_last:
            break
        if len(new_paths) > max_paths:
            new_paths.sort(key=lambda p: p.cost_cents)
            new_paths = new_paths[:max_paths]
        paths = new_paths
        if not paths:
            break

    complete.sort(key=lambda c: (c.cost_cents, c.latency_ms))
    feasible = bool(complete)
    if not feasible:
        result_paths = _default_paths(stages)
    else:
        result_paths = complete[:k]
    return ESG1QResult(
        paths=result_paths,
        target_latency_ms=target_latency_ms,
        feasible=feasible,
        expansions=expansions,
        pruned_time=pruned_time,
        pruned_cost=pruned_cost,
        search_time_ms=0.0,
        stage_ids=tuple(s.stage_id for s in stages),
    )


def _insert_sorted_capped(values: list[float], new_value: float) -> None:
    """Insert ``new_value`` into the ascending list, keeping its length fixed."""
    if new_value >= values[-1]:
        return
    for i, v in enumerate(values):
        if new_value < v:
            values.insert(i, new_value)
            values.pop()
            return
