"""The process-wide ESG_1Q memo: value ids, replays and bounds.

Run-level checks (warm runs byte-identical to cold ones, the memo off
without the plan cache) are in ``tests/integration/test_esg_search_memo.py``;
the differential campaign probes each memoized interval against memo-less
searches in ``test_esg_1q_differential.py``.
"""

from __future__ import annotations

import math

import pytest

import repro.core.esg_1q as esg_1q
from repro.core.esg_1q import IntervalStore, SearchMemo, StageSearchSpec, esg_1q_search
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileEntry, ProfileStore


def stage(stage_id: str = "s0", function: str = "f0", rows=((1.0, 2.0), (2.0, 1.0))):
    """A stage with one configuration per ``(latency, cost)`` row."""
    entries = tuple(
        ProfileEntry(
            config=Configuration(batch_size=1, vcpus=1, vgpus=j + 1),
            latency_ms=latency,
            task_cost_cents=cost,
            per_job_cost_cents=cost,
        )
        for j, (latency, cost) in enumerate(rows)
    )
    return StageSearchSpec(stage_id=stage_id, function_name=function, entries=entries)


class TestValueId:
    def test_equal_content_shares_an_id_across_stores(self, small_space):
        first, second = ProfileStore.build(space=small_space), ProfileStore.build(space=small_space)
        a = StageSearchSpec.from_profile("s1", first.profile("deblur"), max_batch=2)
        b = StageSearchSpec.from_profile("s1", second.profile("deblur"), max_batch=2)
        assert a is not b and a.value_id == b.value_id

    def test_every_searched_field_separates_ids(self):
        base = stage()
        others = [
            stage(stage_id="s1"),
            stage(function="f1"),
            stage(rows=((1.0, 2.0), (2.0, 1.5))),
            stage(rows=((1.0, 2.0), (2.5, 1.0))),
            stage(rows=((1.0, 2.0),)),
        ]
        ids = {spec.value_id for spec in others}
        assert base.value_id not in ids and len(ids) == len(others)

    def test_a_full_registry_clears_without_reusing_ids(self, monkeypatch):
        monkeypatch.setattr(esg_1q, "_VALUE_IDS", {})
        monkeypatch.setattr(esg_1q, "VALUE_IDS_LIMIT", 2)
        seen = [stage(stage_id=f"s{i}").value_id for i in range(3)]
        assert len(esg_1q._VALUE_IDS) == 1
        again = stage(stage_id="s0").value_id
        assert len(set(seen)) == 3 and again not in seen


class TestReplay:
    def test_replay_carries_the_callers_target_and_no_search_time(self):
        memo = SearchMemo()
        stages = [stage(), stage(stage_id="s1")]
        first = esg_1q_search(stages, 3.5, memo=memo)
        replay = esg_1q_search(stages, first.target_hi, memo=memo)
        assert memo.size == 1
        assert replay is not first and replay.paths is not first.paths
        assert replay.paths == first.paths
        assert replay.target_latency_ms == first.target_hi
        assert replay.search_time_ms == 0.0
        assert first.target_latency_ms == 3.5

    def test_a_target_at_lo_searches_again(self):
        # With k=1 the first entry sets the cost threshold, the two dear
        # entries are cost-pruned and the cheap slow one is time-pruned, so
        # the break moves between 1 and 4 with the target: the search at 3.5
        # answers (3, 4], and its regime (1, 4] in the memo.
        memo = SearchMemo()
        stages = [stage(rows=((1.0, 1.0), (2.0, 5.0), (3.0, 5.0), (4.0, 0.5)))]
        first = esg_1q_search(stages, 3.5, k=1, memo=memo)
        assert (first.target_lo, first.target_hi) == (3.0, 4.0)
        for target in (3.0, 2.0, 1.5):
            replay = esg_1q_search(stages, target, k=1, memo=memo)
            fresh = esg_1q_search(stages, target, k=1)
            assert (replay.expansions, replay.pruned_cost) == (fresh.expansions, fresh.pruned_cost)
            assert (replay.target_lo, replay.target_hi) == (fresh.target_lo, fresh.target_hi)
        assert memo.size == 1
        esg_1q_search(stages, 1.0, k=1, memo=memo)
        assert memo.size == 2

    def test_the_caps_are_part_of_the_key(self):
        memo = SearchMemo()
        stages = [stage()]
        esg_1q_search(stages, 10.0, memo=memo)
        for caps in ({"k": 2}, {"max_paths": 3}, {"max_expansions": 7}):
            esg_1q_search(stages, 10.0, memo=memo, **caps)
        assert memo.size == len(memo) == 4

    def test_a_full_memo_clears(self, monkeypatch):
        monkeypatch.setattr(esg_1q, "SEARCH_MEMO_LIMIT", 2)
        memo = SearchMemo()
        for k in (1, 2):
            esg_1q_search([stage()], 10.0, k=k, memo=memo)
        assert memo.size == 2
        esg_1q_search([stage()], 10.0, k=3, memo=memo)
        assert memo.size == len(memo) == 1
        esg_1q_search([stage()], 10.0, k=1, memo=memo)
        assert memo.size == 2


class TestIntervalStore:
    def test_holds_lo_exclusive_hi_inclusive(self):
        store = IntervalStore()
        store.add("key", 1.0, 2.0, "a", limit=10)
        store.add("key", -math.inf, 0.0, "b", limit=10)
        store.add("key", 2.0, math.inf, "c", limit=10)
        assert [store.find("key", t) for t in (-5.0, 0.0, 0.5, 1.0)] == ["b", "b", None, None]
        assert [store.find("key", t) for t in (1.5, 2.0, 2.5, math.inf)] == ["a", "a", "c", "c"]
        assert store.find("other", 1.5) is None
        assert store.size == 3 and len(store) == 1

    def test_touching_intervals_are_accepted(self):
        store = IntervalStore()
        store.add("key", 1.0, 2.0, "a", limit=10)
        store.add("key", 2.0, 3.0, "b", limit=10)
        store.add("key", 0.0, 1.0, "c", limit=10)
        assert [store.find("key", t) for t in (1.0, 2.0, 3.0)] == ["c", "a", "b"]

    @pytest.mark.parametrize(
        ("lo", "hi"),
        [(0.0, 1.5), (1.5, 3.0), (1.2, 1.8), (0.0, 3.0), (1.0, 2.0)],
        ids=["low-end", "high-end", "nested", "nesting", "equal"],
    )
    def test_an_overlap_raises(self, lo, hi):
        store = IntervalStore()
        store.add("key", 1.0, 2.0, "a", limit=10)
        with pytest.raises(ValueError, match=r"overlaps \(1\.0, 2\.0\] stored under key 'key'"):
            store.add("key", lo, hi, "b", limit=10)
        store.add("other", lo, hi, "b", limit=10)
        assert store.size == 2

    def test_clear_resets_the_size(self):
        store = IntervalStore()
        store.add("key", 0.0, 1.0, "a", limit=1)
        store.add("other", 0.0, 1.0, "b", limit=1)
        assert store.size == 1 and list(store) == ["other"]
        store.clear()
        assert store.size == 0 and store == {}
