"""Tests for the profile tables (FunctionProfile / ProfileStore)."""

from __future__ import annotations

import pytest

from repro.profiles.configuration import Configuration, ConfigurationSpace
from repro.profiles.perf_model import AnalyticalPerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.profiler import FunctionProfile, ProfileEntry, ProfileStore
from repro.profiles.specs import FunctionSpec, get_function_spec


class TestProfileEntry:
    def test_rejects_non_positive_latency(self):
        with pytest.raises(ValueError):
            ProfileEntry(Configuration(1, 1, 1), latency_ms=0.0, task_cost_cents=1.0, per_job_cost_cents=1.0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            ProfileEntry(Configuration(1, 1, 1), latency_ms=1.0, task_cost_cents=-1.0, per_job_cost_cents=1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_rejects_non_finite_latency(self, latency):
        with pytest.raises(ValueError, match=f"latency_ms .* got {latency!r}"):
            ProfileEntry(
                Configuration(1, 1, 1), latency_ms=latency, task_cost_cents=1.0, per_job_cost_cents=1.0
            )

    @pytest.mark.parametrize("field", ["task_cost_cents", "per_job_cost_cents"])
    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_rejects_non_finite_cost(self, field, cost):
        costs = {"task_cost_cents": 1.0, "per_job_cost_cents": 1.0, field: cost}
        with pytest.raises(ValueError, match=f"{field} .* got {cost!r}"):
            ProfileEntry(Configuration(1, 1, 1), latency_ms=1.0, **costs)


class TestFunctionProfile:
    def test_entries_cover_whole_space(self, small_store, small_space):
        profile = small_store.profile("deblur")
        assert len(profile) == small_space.size
        for config in small_space:
            assert config in profile

    def test_sorted_by_latency_is_monotone(self, small_store):
        profile = small_store.profile("segmentation")
        latencies = [e.latency_ms for e in profile.sorted_by_latency()]
        assert latencies == sorted(latencies)

    def test_sorted_by_cost_is_monotone(self, small_store):
        profile = small_store.profile("segmentation")
        costs = [e.per_job_cost_cents for e in profile.sorted_by_cost()]
        assert costs == sorted(costs)

    def test_max_batch_filter(self, small_store):
        profile = small_store.profile("classification")
        filtered = profile.sorted_by_latency(max_batch=2)
        assert all(e.config.batch_size <= 2 for e in filtered)
        assert len(filtered) < len(profile.sorted_by_latency())

    def test_min_latency_and_cost_are_consistent(self, small_store):
        profile = small_store.profile("super_resolution")
        all_entries = profile.sorted_by_latency()
        assert profile.min_latency_ms == min(e.latency_ms for e in all_entries)
        assert profile.min_per_job_cost_cents == min(e.per_job_cost_cents for e in all_entries)
        assert profile.fastest_entry.latency_ms == profile.min_latency_ms

    def test_unknown_config_raises(self, small_store):
        profile = small_store.profile("deblur")
        with pytest.raises(KeyError, match="deblur"):
            profile.entry(Configuration(64, 64, 64))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            FunctionProfile(spec=get_function_spec("deblur"), entries={})


class TestProfileStore:
    def test_build_defaults_cover_all_registered_functions(self, small_store):
        assert set(small_store.function_names()) >= {
            "super_resolution",
            "segmentation",
            "deblur",
            "classification",
            "background_removal",
            "depth_recognition",
        }

    def test_unknown_function_raises_with_suggestions(self, small_store):
        with pytest.raises(KeyError, match="available"):
            small_store.profile("nope")

    def test_contains(self, small_store):
        assert "deblur" in small_store
        assert "nope" not in small_store

    def test_minimum_config_latency_is_sum_of_base_times(self, small_store):
        total = small_store.minimum_config_latency_ms(["super_resolution", "segmentation", "classification"])
        expected = 86.0 + 293.0 + 147.0
        assert total == pytest.approx(expected, rel=1e-9)

    def test_cost_entries_match_pricing_model(self, small_store):
        pricing = small_store.pricing
        profile = small_store.profile("depth_recognition")
        for entry in profile.sorted_by_latency()[:5]:
            expected = pricing.task_cost_cents(entry.config, entry.latency_ms)
            assert entry.task_cost_cents == pytest.approx(expected)
            assert entry.per_job_cost_cents == pytest.approx(expected / entry.config.batch_size)

    def test_build_with_custom_specs(self):
        specs = {
            "tiny": FunctionSpec(
                name="tiny", model_name="T", base_exec_ms=10.0, cold_start_ms=50.0, input_mb=0.1
            )
        }
        store = ProfileStore.build(
            ["tiny"],
            space=ConfigurationSpace.small(),
            perf_model=AnalyticalPerformanceModel(),
            pricing=PricingModel(),
            specs=specs,
        )
        assert store.function_names() == ["tiny"]
        assert store.profile("tiny").latency_ms(Configuration(1, 1, 1)) == pytest.approx(10.0)
