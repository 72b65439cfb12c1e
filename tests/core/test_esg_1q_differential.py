"""Differential fuzz: the ESG_1Q search against its frozen reference.

``esg_1q_oracle.py`` keeps the entry-by-entry form of the search.  The
optimized search jumps over entries the cost blade provably rejects,
bisects for the time blade's break point, and recovers the skipped work
counts arithmetically.  These seeded campaigns check that it returns the
same paths in the same order, the same feasibility and the same
``expansions``, ``pruned_time`` and ``pruned_cost`` on every input: the
modeled scheduling overhead is ``per_expansion_ms * expansions``, so the
counts are part of the byte-identity contract.

The search also reports the interval ``(target_lo, target_hi]`` of targets
that replay it, which ``ESGPolicy``'s plan cache trusts.  The interval
campaigns run the oracle at both ends of it and inside it.  A
:class:`SearchMemo` answers the wider regime around it; the memo campaigns
compare every replay with a memo-less search.
"""

from __future__ import annotations

import math
import random

import pytest
from esg_1q_oracle import esg_1q_search as oracle_search

from repro.core.esg_1q import SearchMemo, StageSearchSpec, esg_1q_search
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


def replayed(result) -> tuple:
    """Everything :func:`outcome` compares except the target itself."""
    return outcome(result)[:-1]


def assert_matches_oracle(stages: list[StageSearchSpec], target: float, **kwargs) -> None:
    got = esg_1q_search(stages, target, **kwargs)
    expected = oracle_search(stages, target, **kwargs)
    assert outcome(got) == outcome(expected), (target, kwargs, [s.entries for s in stages])


def random_caps(rng: random.Random) -> dict[str, int]:
    """A random K and random safety caps."""
    return {
        "k": rng.randint(1, 8),
        "max_paths": rng.choice(MAX_PATHS),
        "max_expansions": rng.choice(MAX_EXPANSIONS),
    }


def check_case(stages: list[StageSearchSpec], target: float, rng: random.Random) -> None:
    """Compare on ``target`` with a random K and random safety caps."""
    assert_matches_oracle(stages, target, **random_caps(rng))


def interior_points(lo: float, hi: float, rng: random.Random, count: int) -> list[float]:
    """Random targets in ``(lo, hi]``; an infinite end gets a finite stand-in."""
    low = lo if lo > -math.inf else hi - 1000.0
    high = hi if hi < math.inf else low + 10.0 * (abs(low) + 1.0)
    points = [rng.uniform(low, high) for _ in range(count)]
    return [x for x in points if lo < x <= hi]


def assert_interval_replays(
    stages: list[StageSearchSpec], target: float, rng: random.Random, **kwargs
) -> int:
    """The reported interval holds ``target`` and every target in it replays.

    The oracle, run at ``hi``, just above ``lo`` and at random points in
    between, must return the paths, feasibility and counts it returns at
    ``target``, and the search must report the same interval there.
    Returns the number of targets probed.
    """
    got = esg_1q_search(stages, target, **kwargs)
    interval = (got.target_lo, got.target_hi)
    lo, hi = interval
    assert lo < target <= hi, (interval, target, kwargs, [s.entries for s in stages])
    expected = replayed(oracle_search(stages, target, **kwargs))
    probes = [hi, math.nextafter(lo, math.inf), *interior_points(lo, hi, rng, 3)]
    for probe in probes:
        replay = oracle_search(stages, probe, **kwargs)
        assert replayed(replay) == expected, (probe, interval, target, kwargs)
        again = esg_1q_search(stages, probe, **kwargs)
        assert (again.target_lo, again.target_hi) == interval, (probe, target, kwargs)
    return len(probes)


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


def random_stages(rng: random.Random) -> list[StageSearchSpec]:
    return [random_stage(rng, i) for i in range(rng.randint(1, 4))]


def test_random_stage_lists_match_oracle():
    rng = random.Random(20240612)
    cases = 0
    for _ in range(220):
        stages = random_stages(rng)
        for target in targets_for(stages, rng):
            check_case(stages, target, rng)
            cases += 1
    assert cases == 220 * 7


def test_random_stage_lists_replay_across_their_interval():
    rng = random.Random(16091)
    probes = 0
    for _ in range(400):
        stages = random_stages(rng)
        for target in targets_for(stages, rng):
            probes += assert_interval_replays(stages, target, rng, **random_caps(rng))
    assert probes >= 400 * 7 * 2


#: Decimals whose sums round differently depending on association order,
#: e.g. (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3), and their neighbours.
ROUNDING_POOL = (0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 0.2000000000000001, 0.30000000000000004, 0.5)


def rounding_stages(rng: random.Random) -> tuple[list[StageSearchSpec], tuple[float, ...]]:
    """Stages drawn from :data:`ROUNDING_POOL`, and targets on one path's sum
    in both association orders, plus ``+inf``."""
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
    return stages, (left, right, math.inf)


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
        stages, targets = rounding_stages(rng)
        for target in targets:
            assert_matches_oracle(stages, target, k=rng.randint(1, 3))


def test_rounding_sensitive_sums_replay_across_their_interval():
    """Path-sum targets put interval ends exactly on rounding-sensitive bounds."""
    rng = random.Random(60221)
    probes = 0
    for _ in range(1200):
        stages, targets = rounding_stages(rng)
        for target in (*targets, 0.0):
            probes += assert_interval_replays(stages, target, rng, k=rng.randint(1, 3))
    assert probes >= 1200 * 4 * 2


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


def profile_stages(store: ProfileStore, rng: random.Random) -> list[StageSearchSpec]:
    """One to three real stages, the first batch-capped, under random ablations."""
    functions = store.function_names()
    batching = rng.random() < 0.7
    gpu_sharing = rng.random() < 0.7
    return [
        profile_stage(
            store,
            rng.choice(functions),
            i,
            max_batch=rng.choice((None, 1, 2, 3, 5, 8)) if i == 0 else None,
            batching=batching,
            gpu_sharing=gpu_sharing,
        )
        for i in range(rng.randint(1, 3))
    ]


def test_real_profiles_match_oracle(experiment_store):
    rng = random.Random(5387)
    cases = 0
    for _ in range(70):
        stages = profile_stages(experiment_store, rng)
        for target in targets_for(stages, rng):
            check_case(stages, target, rng)
            cases += 1
    assert cases == 70 * 7


def test_real_profiles_replay_across_their_interval(experiment_store):
    rng = random.Random(74093)
    probes = 0
    for _ in range(70):
        stages = profile_stages(experiment_store, rng)
        for target in targets_for(stages, rng):
            probes += assert_interval_replays(stages, target, rng, **random_caps(rng))
    assert probes >= 70 * 7 * 2


def test_non_positive_targets_share_one_interval():
    stages = [make_stage(0, [1.0, 2.0], [2.0, 1.0])]
    for target in (0.0, -0.0, -5.0, -math.inf):
        result = esg_1q_search(stages, target)
        assert (result.target_lo, result.target_hi) == (-math.inf, 0.0)
        assert not result.feasible


def interval(result) -> tuple[float, float]:
    return (result.target_lo, result.target_hi)


def stored_interval(memo: SearchMemo) -> tuple[float, float]:
    """The ``(lo, hi]`` of a memo's only entry: a regime, or the narrow
    interval a search that could reach ``max_expansions`` falls back to."""
    ((his, los, _),) = memo.values()
    assert len(his) == 1
    return los[0], his[0]


def assert_lo_searches_again(
    stages: list[StageSearchSpec], memo: SearchMemo, target: float, **kwargs
) -> None:
    """A target at the stored entry's finite ``lo`` is outside it: the memo
    searches again, adds one entry and returns the memo-less result, whose
    interval ends at that ``lo``."""
    lo, _ = stored_interval(memo)
    if lo > -math.inf:
        at_lo = esg_1q_search(stages, lo, memo=memo, **kwargs)
        assert outcome(at_lo) == outcome(esg_1q_search(stages, lo, **kwargs)), (target, kwargs)
        assert at_lo.target_hi == lo and memo.size == 2, (target, kwargs)


def assert_memo_replays(
    stages: list[StageSearchSpec], target: float, rng: random.Random, **kwargs
) -> int:
    """A :class:`SearchMemo` answers the search's whole interval like a search.

    After one search through a fresh memo, the memo must answer ``hi``,
    just above ``lo`` and random points in between from that one result,
    with the paths, feasibility, counts and interval that a memo-less
    search returns there.  The memo's entry starts at the regime's ``lo``,
    or at the interval's: a target exactly there must search again.
    Returns the number of targets probed.
    """
    memo = SearchMemo()
    first = esg_1q_search(stages, target, memo=memo, **kwargs)
    fresh = esg_1q_search(stages, target, **kwargs)
    assert outcome(first) == outcome(fresh)
    assert interval(first) == interval(fresh)
    lo, hi = interval(first)
    probes = [hi, math.nextafter(lo, math.inf), *interior_points(lo, hi, rng, 3)]
    for probe in probes:
        replay = esg_1q_search(stages, probe, memo=memo, **kwargs)
        expected = esg_1q_search(stages, probe, **kwargs)
        assert replayed(replay) == replayed(expected), (probe, (lo, hi), target, kwargs)
        assert interval(replay) == interval(expected) == (lo, hi), (probe, target, kwargs)
        assert replay.target_latency_ms == probe
    assert memo.size == 1, (target, kwargs)
    assert_lo_searches_again(stages, memo, target, **kwargs)
    return len(probes)


def assert_regime_replays(
    stages: list[StageSearchSpec], target: float, rng: random.Random, **kwargs
) -> int:
    """One memo entry answers its whole regime exactly like a search.

    After one search through a fresh memo, the memo is probed at the
    entry's ``hi`` and just above its ``lo``, at both ends of the first
    search's narrow interval when they lie in the entry, at break points
    and at random points inside it.  Every replay must equal a memo-less
    search there in paths, tie order, feasibility, all three counts and
    ``(target_lo, target_hi)``, and the memo must still hold one entry.
    Returns the number of targets probed.
    """
    memo = SearchMemo()
    first = esg_1q_search(stages, target, memo=memo, **kwargs)
    assert outcome(first) == outcome(esg_1q_search(stages, target, **kwargs))
    lo, hi = stored_interval(memo)
    assert lo <= first.target_lo < target <= first.target_hi <= hi, (target, kwargs)
    breaks = [edge for edge in first.regime_edges() if lo < edge <= hi]
    probes = [
        hi,
        math.nextafter(lo, math.inf),
        *(end for end in interval(first) if lo < end <= hi),
        *rng.sample(breaks, min(2, len(breaks))),
        *interior_points(lo, hi, rng, 3),
    ]
    for probe in probes:
        replay = esg_1q_search(stages, probe, memo=memo, **kwargs)
        expected = esg_1q_search(stages, probe, **kwargs)
        assert replayed(replay) == replayed(expected), (probe, (lo, hi), target, kwargs)
        assert interval(replay) == interval(expected), (probe, (lo, hi), target, kwargs)
        assert replay.target_latency_ms == probe
    assert memo.size == 1, (target, kwargs)
    assert_lo_searches_again(stages, memo, target, **kwargs)
    return len(probes)


def test_random_stage_lists_replay_through_the_memo():
    rng = random.Random(27182)
    probes = 0
    for _ in range(150):
        stages = random_stages(rng)
        for target in targets_for(stages, rng):
            probes += assert_memo_replays(stages, target, rng, **random_caps(rng))
    assert probes >= 150 * 7 * 2


def test_rounding_sensitive_sums_replay_through_the_memo():
    rng = random.Random(31415)
    probes = 0
    for _ in range(400):
        stages, targets = rounding_stages(rng)
        for target in (*targets, 0.0):
            probes += assert_memo_replays(stages, target, rng, k=rng.randint(1, 3))
    assert probes >= 400 * 4 * 2


def test_real_profiles_replay_through_the_memo(experiment_store):
    rng = random.Random(16180)
    probes = 0
    for _ in range(40):
        stages = profile_stages(experiment_store, rng)
        for target in targets_for(stages, rng):
            probes += assert_memo_replays(stages, target, rng, **random_caps(rng))
    assert probes >= 40 * 7 * 2


def test_random_stage_lists_replay_across_the_regime():
    rng = random.Random(57721)
    probes = 0
    for _ in range(150):
        stages = random_stages(rng)
        for target in targets_for(stages, rng):
            probes += assert_regime_replays(stages, target, rng, **random_caps(rng))
    assert probes >= 150 * 7 * 5


def test_rounding_sensitive_sums_replay_across_the_regime():
    rng = random.Random(14142)
    probes = 0
    for _ in range(400):
        stages, targets = rounding_stages(rng)
        for target in (*targets, 0.0, -1.0):
            caps = {"k": rng.randint(1, 3), "max_expansions": rng.choice(MAX_EXPANSIONS)}
            probes += assert_regime_replays(stages, target, rng, **caps)
    assert probes >= 400 * 5 * 5


def test_real_profiles_replay_across_the_regime(experiment_store):
    rng = random.Random(26535)
    probes = 0
    for _ in range(40):
        stages = profile_stages(experiment_store, rng)
        for target in targets_for(stages, rng):
            probes += assert_regime_replays(stages, target, rng, **random_caps(rng))
    assert probes >= 40 * 7 * 5
