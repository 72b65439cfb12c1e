"""Dual-blade pruning bounds for the ESG_1Q search (Section 3.3).

When a partial configuration path ``p`` covers the first ``i`` stages of a
function sequence, ESG_1Q computes three quantities:

* ``tLow``   — lower bound of the end-to-end time of every full path
  prefixed by ``p``: the time of the stages in ``p`` plus the minimum time
  of every remaining stage;
* ``rscLow`` — lower bound of the per-job resource cost of every full path
  prefixed by ``p``: the cost of ``p`` plus the minimum cost of every
  remaining stage;
* ``rscFastest`` — the cost of completing ``p`` with the *fastest*
  configuration of every remaining stage; this is an achievable completion
  cost, so it is used to tighten ``best_full_paths_maxCost`` (the K-th best
  known upper bound).

The suffix minima only depend on the stage list, so they are precomputed
once per search in :class:`SuffixBounds`.  The search itself evaluates the
three sums inline, without a :class:`PathBounds` per extension, but in the
association order of :meth:`SuffixBounds.bounds_for_extension` —
``(prefix + entry) + suffix`` — because float addition is not associative
and the bounds decide which paths survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["SuffixBounds", "PathBounds"]


@dataclass(frozen=True)
class PathBounds:
    """The three bounds of one partial path extension."""

    t_low_ms: float
    rsc_low_cents: float
    rsc_fastest_cents: float


@dataclass(frozen=True)
class SuffixBounds:
    """Precomputed suffix aggregates over a stage sequence.

    ``min_latency_suffix[i]`` is the sum over stages ``i..end`` of each
    stage's minimum latency (over its configuration list); likewise for the
    minimum per-job cost and for the per-job cost of each stage's *fastest*
    configuration.  Index ``len(stages)`` is 0 for all three, so the bounds
    of a complete path degenerate to its actual time and cost.
    """

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
        """Build suffix sums from per-stage minima.

        Parameters
        ----------
        stage_min_latency_ms:
            Minimum latency of each stage over its configuration list.
        stage_min_cost_cents:
            Minimum per-job cost of each stage.
        stage_fastest_cost_cents:
            Per-job cost of each stage's fastest configuration.
        """
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
        """Number of stages covered by the suffix tables."""
        return len(self.min_latency_suffix) - 1

    def minimum_total_latency_ms(self) -> float:
        """Smallest achievable end-to-end latency (every stage at its fastest)."""
        return self.min_latency_suffix[0]

    def minimum_total_cost_cents(self) -> float:
        """Smallest achievable total per-job cost (every stage at its cheapest)."""
        return self.min_cost_suffix[0]

    def bounds_for_extension(
        self,
        prefix_latency_ms: float,
        prefix_cost_cents: float,
        entry_latency_ms: float,
        entry_cost_cents: float,
        next_stage_index: int,
    ) -> PathBounds:
        """Bounds after appending one configuration entry to a partial path.

        Parameters
        ----------
        prefix_latency_ms / prefix_cost_cents:
            Accumulated time and per-job cost of the partial path before the
            extension (stages ``0..next_stage_index-2``).
        entry_latency_ms / entry_cost_cents:
            The configuration entry being appended (stage
            ``next_stage_index - 1``).
        next_stage_index:
            Index of the first stage *not* covered after the extension.
        """
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
