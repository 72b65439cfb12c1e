"""Tests for the ESG_1Q search, including the brute-force optimality oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_search
from repro.core.esg_1q import StageSearchSpec, esg_1q_search
from repro.profiles.configuration import Configuration, ConfigurationSpace
from repro.profiles.profiler import ProfileEntry, ProfileStore
from repro.workloads.applications import image_classification


def make_specs(store: ProfileStore, functions: list[str], *, max_batch=None) -> list[StageSearchSpec]:
    specs = []
    for i, fn in enumerate(functions):
        profile = store.profile(fn)
        specs.append(
            StageSearchSpec.from_profile(
                f"s{i+1}", profile, max_batch=max_batch if i == 0 else None
            )
        )
    return specs


IC_FUNCTIONS = ["super_resolution", "segmentation", "classification"]


class TestStageSearchSpec:
    def test_entries_sorted_by_latency(self, small_store):
        spec = StageSearchSpec.from_profile("s1", small_store.profile("deblur"))
        latencies = [e.latency_ms for e in spec.entries]
        assert latencies == sorted(latencies)

    def test_max_batch_filters_entries(self, small_store):
        spec = StageSearchSpec.from_profile("s1", small_store.profile("deblur"), max_batch=1)
        assert all(e.config.batch_size == 1 for e in spec.entries)

    def test_unsorted_entries_rejected(self, small_store):
        profile = small_store.profile("deblur")
        entries = tuple(reversed(profile.sorted_by_latency()))
        with pytest.raises(ValueError):
            StageSearchSpec(stage_id="s1", function_name="deblur", entries=entries)

    def test_nan_latency_cannot_hide_unsorted_entries(self):
        # In [slow, NaN, fast] both pairwise "a > b" checks are False, so the
        # descending list used to pass; the NaN entry can no longer be built.
        with pytest.raises(ValueError, match="nan"):
            ProfileEntry(
                Configuration(1, 1, 2),
                latency_ms=float("nan"),
                task_cost_cents=1.0,
                per_job_cost_cents=1.0,
            )

    def test_jump_tables(self):
        costs = (5.0, 7.0, 5.0, 3.0, 3.0, 8.0, 1.0)
        entries = tuple(
            ProfileEntry(
                Configuration(1, 1, j + 1),
                latency_ms=float(j + 1),
                task_cost_cents=c,
                per_job_cost_cents=c,
            )
            for j, c in enumerate(costs)
        )
        spec = StageSearchSpec(stage_id="s1", function_name="f", entries=entries)
        # The first later entry with a strictly lower cost (7 = none).
        assert spec._next_cheaper == (3, 2, 3, 6, 6, 6, 7)
        assert spec.suffix_min_costs() == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, float("inf"))
        assert spec.min_cost_cents == 1.0
        assert spec._costs == costs
        assert spec._latencies == tuple(float(j + 1) for j in range(len(costs)))

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            StageSearchSpec(stage_id="s1", function_name="deblur", entries=())

    def test_extreme_accessors(self, small_store):
        spec = StageSearchSpec.from_profile("s1", small_store.profile("segmentation"))
        assert spec.min_latency_ms == spec.fastest_entry.latency_ms
        assert spec.fastest_cost_cents == spec.fastest_entry.per_job_cost_cents
        assert spec.min_cost_cents <= spec.fastest_cost_cents


class TestSearchBasics:
    def test_feasible_search_meets_target(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        result = esg_1q_search(specs, target, k=5)
        assert result.feasible
        assert result.best is not None
        for path in result.paths:
            assert path.latency_ms < target
            assert len(path.configs) == 3

    def test_paths_sorted_by_cost(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = 1.2 * small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        result = esg_1q_search(specs, target, k=5)
        costs = [p.cost_cents for p in result.paths]
        assert costs == sorted(costs)
        assert len(result.paths) <= 5

    def test_infeasible_target_returns_fastest_default(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        result = esg_1q_search(specs, 1.0, k=5)  # 1 ms is impossible
        assert not result.feasible
        assert len(result.paths) == 1
        fastest = result.paths[0]
        assert fastest.configs == tuple(s.fastest_entry.config for s in specs)

    def test_non_positive_target_returns_default(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        result = esg_1q_search(specs, -10.0, k=3)
        assert not result.feasible
        assert result.expansions == 0

    def test_single_stage_search(self, small_store):
        specs = make_specs(small_store, ["deblur"])
        target = 2.0 * small_store.profile("deblur").min_latency_ms
        result = esg_1q_search(specs, target, k=3)
        assert result.feasible
        cheapest_feasible = min(
            (e for e in small_store.profile("deblur").sorted_by_latency() if e.latency_ms < target),
            key=lambda e: e.per_job_cost_cents,
        )
        assert result.best.cost_cents == pytest.approx(cheapest_feasible.per_job_cost_cents)

    def test_invalid_arguments(self, small_store):
        specs = make_specs(small_store, ["deblur"])
        with pytest.raises(ValueError):
            esg_1q_search([], 100.0)
        with pytest.raises(ValueError):
            esg_1q_search(specs, 100.0, k=0)

    def test_nan_target_rejected(self, small_store):
        # NaN fails every comparison: it used to pass as a met target.
        specs = make_specs(small_store, IC_FUNCTIONS)
        with pytest.raises(ValueError, match="nan"):
            esg_1q_search(specs, float("nan"))

    def test_infinite_target_means_no_time_limit(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        result = esg_1q_search(specs, float("inf"), k=5)
        assert result.feasible
        assert result.pruned_time == 0
        unbounded = esg_1q_search(specs, 1e12, k=5)
        assert result.paths == unbounded.paths

    def test_max_batch_respected_in_first_stage(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS, max_batch=1)
        target = 1.5 * small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        result = esg_1q_search(specs, target, k=5)
        for path in result.paths:
            assert path.configs[0].batch_size == 1

    def test_candidate_configs_deduplicated(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = 1.5 * small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        result = esg_1q_search(specs, target, k=5)
        candidates = result.candidate_configs()
        assert len(candidates) == len(set(candidates))

    def test_search_statistics_populated(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        result = esg_1q_search(specs, target, k=5)
        assert result.expansions > 0
        assert result.search_time_ms >= 0.0
        assert result.stage_ids == ("s1", "s2", "s3")

    def test_as_plan_maps_stage_ids(self, small_store):
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = 1.2 * small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        best = esg_1q_search(specs, target, k=1).best
        plan = best.as_plan(["s1", "s2", "s3"])
        assert set(plan) == {"s1", "s2", "s3"}
        with pytest.raises(ValueError):
            best.as_plan(["s1"])


class TestOptimalityAgainstBruteForce:
    @pytest.mark.parametrize("slo_factor", [0.9, 1.0, 1.2, 2.0])
    def test_same_optimal_cost_as_bruteforce(self, small_store, slo_factor):
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = slo_factor * small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        esg = esg_1q_search(specs, target, k=5)
        brute = brute_force_search(specs, target, k=5)
        assert esg.feasible == brute.feasible
        if esg.feasible:
            assert esg.best.cost_cents == pytest.approx(brute.best.cost_cents, rel=1e-9)
            assert esg.best.latency_ms < target

    def test_prunes_far_fewer_states_than_bruteforce(self, default_store):
        functions = image_classification().function_names()
        specs = [
            StageSearchSpec.from_profile(f"s{i}", default_store.profile(fn))
            for i, fn in enumerate(functions)
        ]
        target = default_store.minimum_config_latency_ms(functions)
        esg = esg_1q_search(specs, target, k=5)
        brute = brute_force_search(specs, target, k=5)
        assert esg.feasible and brute.feasible
        assert esg.expansions < brute.examined / 5

    @settings(max_examples=20, deadline=None)
    @given(
        slo_factor=st.floats(min_value=0.5, max_value=3.0),
        functions=st.lists(
            st.sampled_from(
                ["super_resolution", "segmentation", "deblur", "classification", "depth_recognition"]
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_property_feasibility_and_cost_match_oracle(self, small_store, slo_factor, functions):
        """Property: on the small space ESG_1Q agrees with exhaustive search on
        feasibility and on the optimal cost whenever a feasible path exists."""
        specs = make_specs(small_store, functions)
        target = slo_factor * small_store.minimum_config_latency_ms(functions)
        esg = esg_1q_search(specs, target, k=5)
        brute = brute_force_search(specs, target, k=5)
        assert esg.feasible == brute.feasible
        if esg.feasible:
            assert esg.best.cost_cents == pytest.approx(brute.best.cost_cents, rel=1e-9)
            assert all(p.latency_ms < target for p in esg.paths)

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(min_value=1, max_value=10))
    def test_property_k_best_costs_match_oracle(self, small_store, k):
        """Property: the costs of the K returned paths are the K smallest."""
        specs = make_specs(small_store, IC_FUNCTIONS)
        target = 1.3 * small_store.minimum_config_latency_ms(IC_FUNCTIONS)
        esg = esg_1q_search(specs, target, k=k)
        brute = brute_force_search(specs, target, k=k)
        esg_costs = [round(p.cost_cents, 12) for p in esg.paths]
        brute_costs = [round(p.cost_cents, 12) for p in brute.paths]
        assert esg_costs == brute_costs[: len(esg_costs)]


class TestLargerSpace:
    def test_paper_256_space_search_is_fast_and_optimal(self, default_store):
        space = ConfigurationSpace.paper_256()
        store = ProfileStore.build(space=space)
        functions = ["deblur", "super_resolution", "background_removal"]
        specs = [
            StageSearchSpec.from_profile(f"s{i}", store.profile(fn)) for i, fn in enumerate(functions)
        ]
        target = store.minimum_config_latency_ms(functions)
        result = esg_1q_search(specs, target, k=5)
        assert result.feasible
        # 256^3 = 16.7M joint configurations; the pruned search must examine
        # a small fraction of them (a few percent).
        assert result.expansions < 16_777_216 * 0.05
