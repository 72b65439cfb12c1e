"""Tests for the pricing model, anchored at the paper's own numbers."""

from __future__ import annotations

import pytest

from repro.profiles.configuration import Configuration
from repro.profiles.pricing import PricingModel


class TestDefaults:
    def test_paper_prices(self):
        pricing = PricingModel()
        assert pricing.vcpu_dollars_per_hour == pytest.approx(0.034)
        assert pricing.vgpu_dollars_per_hour == pytest.approx(0.67)

    def test_rates_convert_to_cents_per_ms(self):
        pricing = PricingModel()
        # 0.034 $/h = 3.4 cents / 3.6e6 ms.
        assert pricing.vcpu_cents_per_ms == pytest.approx(3.4 / 3_600_000.0)
        assert pricing.vgpu_cents_per_ms == pytest.approx(67.0 / 3_600_000.0)


class TestFigure3Example:
    """Figure 3's worked example: (0.04*4 + 0.8) * 0.9 / 2 = 0.43 cents."""

    def test_per_job_cost_matches_paper(self):
        pricing = PricingModel.figure3_example()
        config = Configuration(batch_size=2, vcpus=4, vgpus=1)
        cost = pricing.per_job_cost_cents(config, duration_ms=900.0)
        assert cost == pytest.approx((0.04 * 4 + 0.8) * 0.9 / 2, rel=1e-6)

    def test_unit_prices_match_paper(self):
        pricing = PricingModel.figure3_example()
        # 1 vCPU: 0.04 cents/s, 1 vGPU: 0.8 cents/s.
        assert pricing.vcpu_cents_per_ms * 1000.0 == pytest.approx(0.04)
        assert pricing.vgpu_cents_per_ms * 1000.0 == pytest.approx(0.8)


class TestCostArithmetic:
    def test_task_cost_scales_linearly_with_duration(self):
        pricing = PricingModel()
        cfg = Configuration(1, 2, 3)
        assert pricing.task_cost_cents(cfg, 200.0) == pytest.approx(
            2 * pricing.task_cost_cents(cfg, 100.0)
        )

    def test_per_job_cost_divides_by_batch(self):
        pricing = PricingModel()
        cfg = Configuration(4, 2, 2)
        task = pricing.task_cost_cents(cfg, 500.0)
        assert pricing.per_job_cost_cents(cfg, 500.0) == pytest.approx(task / 4)

    def test_more_resources_cost_more(self):
        pricing = PricingModel()
        cheap = pricing.task_cost_cents(Configuration(1, 1, 1), 100.0)
        rich = pricing.task_cost_cents(Configuration(1, 8, 7), 100.0)
        assert rich > cheap

    def test_zero_duration_costs_nothing(self):
        pricing = PricingModel()
        assert pricing.task_cost_cents(Configuration(1, 1, 1), 0.0) == 0.0

    def test_negative_duration_rejected(self):
        pricing = PricingModel()
        with pytest.raises(ValueError):
            pricing.task_cost_cents(Configuration(1, 1, 1), -1.0)

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            PricingModel(vcpu_dollars_per_hour=-1.0)
        with pytest.raises(ValueError):
            PricingModel(vgpu_dollars_per_hour=-0.5)


class TestValidation:
    @pytest.mark.parametrize("field", ["vcpu_dollars_per_hour", "vgpu_dollars_per_hour"])
    def test_nan_price_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got nan"):
            PricingModel(**{field: float("nan")})
