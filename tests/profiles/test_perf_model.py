"""Tests for the analytic performance model.

The model's exact constants are assumptions, but its *shape* (the
speed/cost tension ESG navigates) must hold: batching slows an invocation
but makes it cheaper per job; more vGPUs/vCPUs make it faster but more
expensive; the minimum configuration reproduces the Table 3 latency.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.profiles.configuration import Configuration
from repro.profiles.perf_model import AnalyticalPerformanceModel, NoisyPerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.specs import FUNCTION_SPECS, get_function_spec
from repro.utils.rng import derive_rng

ALL_FUNCTIONS = sorted(FUNCTION_SPECS)

batch_strategy = st.sampled_from([1, 2, 4, 8, 16])
vcpu_strategy = st.sampled_from([1, 2, 4, 8, 16])
vgpu_strategy = st.sampled_from([1, 2, 3, 4, 5, 6, 7])


class TestBaseAnchor:
    @pytest.mark.parametrize("name", ALL_FUNCTIONS)
    def test_minimum_configuration_matches_table3(self, name, perf_model):
        spec = get_function_spec(name)
        latency = perf_model.latency_ms(spec, Configuration(1, 1, 1))
        assert latency == pytest.approx(spec.base_exec_ms, rel=1e-9)


class TestMonotonicity:
    @given(batch=batch_strategy, vcpus=vcpu_strategy, vgpus=vgpu_strategy)
    def test_latency_increases_with_batch(self, batch, vcpus, vgpus):
        model = AnalyticalPerformanceModel()
        spec = get_function_spec("segmentation")
        small = model.latency_ms(spec, Configuration(batch, vcpus, vgpus))
        larger = model.latency_ms(spec, Configuration(batch * 2, vcpus, vgpus))
        assert larger > small

    @given(batch=batch_strategy, vcpus=vcpu_strategy, vgpus=st.sampled_from([1, 2, 3, 4, 5, 6]))
    def test_latency_decreases_with_more_vgpus(self, batch, vcpus, vgpus):
        model = AnalyticalPerformanceModel()
        spec = get_function_spec("deblur")
        fewer = model.latency_ms(spec, Configuration(batch, vcpus, vgpus))
        more = model.latency_ms(spec, Configuration(batch, vcpus, vgpus + 1))
        assert more < fewer

    @given(batch=batch_strategy, vcpus=st.sampled_from([1, 2, 4, 8]), vgpus=vgpu_strategy)
    def test_latency_decreases_with_more_vcpus(self, batch, vcpus, vgpus):
        model = AnalyticalPerformanceModel()
        spec = get_function_spec("classification")
        fewer = model.latency_ms(spec, Configuration(batch, vcpus, vgpus))
        more = model.latency_ms(spec, Configuration(batch, vcpus * 2, vgpus))
        assert more < fewer

    @given(batch=st.sampled_from([1, 2, 4, 8]), vcpus=vcpu_strategy, vgpus=vgpu_strategy)
    def test_batching_reduces_per_job_cost(self, batch, vcpus, vgpus):
        """The speed/cost tension: doubling the batch lowers the per-job cost."""
        model = AnalyticalPerformanceModel()
        pricing = PricingModel()
        spec = get_function_spec("super_resolution")
        small_cfg = Configuration(batch, vcpus, vgpus)
        large_cfg = Configuration(batch * 2, vcpus, vgpus)
        small_cost = pricing.per_job_cost_cents(small_cfg, model.latency_ms(spec, small_cfg))
        large_cost = pricing.per_job_cost_cents(large_cfg, model.latency_ms(spec, large_cfg))
        assert large_cost < small_cost

    @given(batch=batch_strategy, vcpus=vcpu_strategy, vgpus=vgpu_strategy)
    def test_latency_always_positive(self, batch, vcpus, vgpus):
        model = AnalyticalPerformanceModel()
        for name in ALL_FUNCTIONS:
            assert model.latency_ms(get_function_spec(name), Configuration(batch, vcpus, vgpus)) > 0


class TestThroughput:
    def test_throughput_is_batch_over_latency(self, perf_model):
        spec = get_function_spec("segmentation")
        cfg = Configuration(4, 2, 2)
        latency = perf_model.latency_ms(spec, cfg)
        assert perf_model.throughput_jobs_per_s(spec, cfg) == pytest.approx(4 * 1000.0 / latency)

    def test_richest_config_has_much_lower_latency_than_minimum(self, perf_model):
        """The configuration space must give real head-room below the minimum
        configuration, otherwise the strict SLO (0.8 x L) is unattainable."""
        spec = get_function_spec("depth_recognition")
        minimum = perf_model.latency_ms(spec, Configuration(1, 1, 1))
        rich = perf_model.latency_ms(spec, Configuration(1, 16, 7))
        assert rich < 0.5 * minimum


class TestModelParameters:
    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            AnalyticalPerformanceModel(batch_overhead_fraction=1.5)
        with pytest.raises(ValueError):
            AnalyticalPerformanceModel(gpu_parallel_fraction=-0.1)
        with pytest.raises(ValueError):
            AnalyticalPerformanceModel(cpu_parallel_fraction=2.0)

    def test_vgpu_speedup_monotone_and_bounded(self):
        model = AnalyticalPerformanceModel(gpu_parallel_fraction=0.9)
        speedups = [model.vgpu_speedup(g) for g in range(1, 8)]
        assert speedups[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] < 7.0  # sub-linear


class TestNoisyModel:
    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be >= 0, got nan"):
            NoisyPerformanceModel(
                base=AnalyticalPerformanceModel(), rng=derive_rng(0, "t"), sigma=float("nan")
            )

    def test_zero_sigma_equals_base(self):
        base = AnalyticalPerformanceModel()
        noisy = NoisyPerformanceModel(base=base, rng=derive_rng(0, "t"), sigma=0.0)
        spec = get_function_spec("deblur")
        cfg = Configuration(2, 2, 2)
        assert noisy.latency_ms(spec, cfg) == base.latency_ms(spec, cfg)

    def test_noise_is_reproducible_with_same_seed(self):
        base = AnalyticalPerformanceModel()
        spec = get_function_spec("deblur")
        cfg = Configuration(1, 1, 1)
        a = NoisyPerformanceModel(base=base, rng=derive_rng(7, "noise"), sigma=0.1)
        b = NoisyPerformanceModel(base=base, rng=derive_rng(7, "noise"), sigma=0.1)
        assert [a.latency_ms(spec, cfg) for _ in range(5)] == [
            b.latency_ms(spec, cfg) for _ in range(5)
        ]

    def test_noise_respects_floor(self):
        base = AnalyticalPerformanceModel()
        spec = get_function_spec("classification")
        cfg = Configuration(1, 1, 1)
        noisy = NoisyPerformanceModel(
            base=base, rng=derive_rng(3, "floor"), sigma=3.0, floor_fraction=0.5
        )
        mean = base.latency_ms(spec, cfg)
        for _ in range(200):
            assert noisy.latency_ms(spec, cfg) >= 0.5 * mean

    def test_mean_latency_is_deterministic(self):
        base = AnalyticalPerformanceModel()
        noisy = NoisyPerformanceModel(base=base, rng=derive_rng(1, "m"), sigma=0.2)
        spec = get_function_spec("segmentation")
        cfg = Configuration(4, 4, 4)
        assert noisy.mean_latency_ms(spec, cfg) == base.latency_ms(spec, cfg)

    def test_draw_counter_increments(self):
        noisy = NoisyPerformanceModel(
            base=AnalyticalPerformanceModel(), rng=derive_rng(2, "d"), sigma=0.1
        )
        spec = get_function_spec("deblur")
        for _ in range(3):
            noisy.latency_ms(spec, Configuration(1, 1, 1))
        assert noisy.draws == 3
