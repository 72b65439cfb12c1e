"""Differential fuzz: the ESG_1Q search against its frozen reference.

``esg_1q_oracle.py`` keeps the entry-by-entry form of the search.  The
optimized search jumps over entries the cost blade provably rejects,
bisects for the time blade's break point, and recovers the skipped work
counts arithmetically.  These seeded campaigns check that it returns the
same paths in the same order, the same feasibility and the same
``expansions``, ``pruned_time`` and ``pruned_cost`` on every input: the
modeled scheduling overhead is ``per_expansion_ms * expansions``, so the
counts are part of the byte-identity contract.
"""

from __future__ import annotations

import math
import random

import pytest
from esg_1q_oracle import esg_1q_search as oracle_search

from repro.core.esg_1q import StageSearchSpec, esg_1q_search
from repro.experiments.runner import EXPERIMENT_SPACE
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileEntry, ProfileStore

MAX_PATHS = (1, 3, 20, 5000)
MAX_EXPANSIONS = (1, 10, 200, 2_000_000)
#: Grids the random latencies and costs are drawn on; coarse grids make
#: ties frequent, 0.1 and 0.37 add rounding to every sum, None is continuous.
GRIDS = (1.0, 0.5, 0.1, 0.37, None)


def outcome(result) -> tuple:
    """Everything the search promises, floats compared by exact repr."""
    return (
        [(p.configs, repr(p.latency_ms), repr(p.cost_cents)) for p in result.paths],
        result.feasible,
        result.expansions,
        result.pruned_time,
        result.pruned_cost,
        result.stage_ids,
        repr(result.target_latency_ms),
    )


def assert_matches_oracle(stages: list[StageSearchSpec], target: float, **kwargs) -> None:
    got = esg_1q_search(stages, target, **kwargs)
    expected = oracle_search(stages, target, **kwargs)
    assert outcome(got) == outcome(expected), (target, kwargs, [s.entries for s in stages])


def check_case(stages: list[StageSearchSpec], target: float, rng: random.Random) -> None:
    """Compare on ``target`` with a random K and random safety caps."""
    assert_matches_oracle(
        stages,
        target,
        k=rng.randint(1, 8),
        max_paths=rng.choice(MAX_PATHS),
        max_expansions=rng.choice(MAX_EXPANSIONS),
    )


def targets_for(stages: list[StageSearchSpec], rng: random.Random) -> list[float]:
    """Targets below, at and above the minimum latency, on a path, <= 0 and +inf."""
    fastest = sum(s.min_latency_ms for s in stages)
    on_path = sum(rng.choice(s.entries).latency_ms for s in stages)
    return [
        fastest * rng.uniform(0.3, 0.999),
        fastest,
        fastest * rng.uniform(1.0, 1.5),
        fastest * rng.uniform(1.5, 6.0),
        on_path,
        rng.choice((0.0, -1.0)),
        math.inf,
    ]


def make_stage(index: int, latencies: list[float], costs: list[float]) -> StageSearchSpec:
    """Stage ``index`` with one distinct configuration per (latency, cost) pair."""
    entries = tuple(
        ProfileEntry(
            config=Configuration(batch_size=1, vcpus=index + 1, vgpus=j + 1),
            latency_ms=latency,
            task_cost_cents=cost,
            per_job_cost_cents=cost,
        )
        for j, (latency, cost) in enumerate(zip(latencies, costs))
    )
    return StageSearchSpec(stage_id=f"s{index}", function_name=f"f{index}", entries=entries)


def random_stage(rng: random.Random, index: int) -> StageSearchSpec:
    size = rng.randint(1, 40)
    grid = rng.choice(GRIDS)
    levels = rng.randint(1, 12)

    def draw(minimum: int) -> float:
        if grid is None:
            return rng.uniform(minimum * 0.05, 10.0)
        return rng.randint(minimum, levels) * grid

    latencies = sorted(draw(1) for _ in range(size))
    costs = [draw(0) for _ in range(size)]
    if rng.random() < 0.3:
        # Realistic shape: the faster a configuration, the dearer it is.
        costs.sort(reverse=True)
    return make_stage(index, latencies, costs)


def test_random_stage_lists_match_oracle():
    rng = random.Random(20240612)
    cases = 0
    for _ in range(220):
        stages = [random_stage(rng, i) for i in range(rng.randint(1, 4))]
        for target in targets_for(stages, rng):
            check_case(stages, target, rng)
            cases += 1
    assert cases == 220 * 7


#: Decimals whose sums round differently depending on association order,
#: e.g. (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3), and their neighbours.
ROUNDING_POOL = (0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 0.2000000000000001, 0.30000000000000004, 0.5)


def test_rounding_sensitive_sums_match_oracle():
    """The bounds must keep today's association order: ``(prefix + entry) + suffix``.

    With every value drawn from :data:`ROUNDING_POOL` and targets set to
    path sums, bounds often land exactly on a threshold that one order of
    addition rounds to, so regrouping a sum, or trusting a bisection on a
    rearranged bound without the exact check, changes a count or a path.
    Small K and no safety caps keep the threshold tight and every search
    complete.
    """
    rng = random.Random(1309986)
    for _ in range(400):
        stages = []
        for i in range(rng.randint(2, 4)):
            size = rng.randint(1, 8)
            latencies = sorted(rng.choice(ROUNDING_POOL) for _ in range(size))
            costs = [rng.choice(ROUNDING_POOL) for _ in range(size)]
            stages.append(make_stage(i, latencies, costs))
        picks = [rng.choice(s.entries).latency_ms for s in stages]
        left, right = 0.0, 0.0
        for value in picks:
            left = left + value
        for value in reversed(picks):
            right = value + right
        for target in (left, right, math.inf):
            assert_matches_oracle(stages, target, k=rng.randint(1, 3))


@pytest.fixture(scope="module")
def experiment_store() -> ProfileStore:
    return ProfileStore.build(space=EXPERIMENT_SPACE)


def profile_stage(
    store: ProfileStore,
    function: str,
    index: int,
    *,
    max_batch: int | None,
    batching: bool,
    gpu_sharing: bool,
) -> StageSearchSpec:
    """A stage as ESGPolicy builds it, ablation filters included."""
    space = store.space
    entries = store.profile(function).sorted_by_latency(max_batch=max_batch)
    if not batching:
        entries = tuple(e for e in entries if e.config.batch_size == space.batch_options[0])
    if not gpu_sharing:
        entries = tuple(e for e in entries if e.config.vgpus == space.vgpu_options[-1])
    return StageSearchSpec(stage_id=f"s{index}", function_name=function, entries=entries)


def test_real_profiles_match_oracle(experiment_store):
    rng = random.Random(5387)
    functions = experiment_store.function_names()
    cases = 0
    for _ in range(70):
        batching = rng.random() < 0.7
        gpu_sharing = rng.random() < 0.7
        stages = [
            profile_stage(
                experiment_store,
                rng.choice(functions),
                i,
                max_batch=rng.choice((None, 1, 2, 3, 5, 8)) if i == 0 else None,
                batching=batching,
                gpu_sharing=gpu_sharing,
            )
            for i in range(rng.randint(1, 3))
        ]
        for target in targets_for(stages, rng):
            check_case(stages, target, rng)
            cases += 1
    assert cases == 70 * 7
