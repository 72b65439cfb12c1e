"""Tests for the configuration triple and configuration spaces."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.profiles.configuration import (
    Configuration,
    ConfigurationSpace,
    product_space_size,
)


class TestConfiguration:
    def test_fields_and_tuple(self):
        cfg = Configuration(batch_size=2, vcpus=4, vgpus=1)
        assert cfg.as_tuple() == (2, 4, 1)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            Configuration(batch_size=0, vcpus=1, vgpus=1)
        with pytest.raises(ValueError):
            Configuration(batch_size=1, vcpus=-1, vgpus=1)
        with pytest.raises(ValueError):
            Configuration(batch_size=1, vcpus=1, vgpus=0)

    def test_with_batch_preserves_resources(self):
        cfg = Configuration(batch_size=8, vcpus=4, vgpus=2)
        clipped = cfg.with_batch(3)
        assert clipped.batch_size == 3
        assert clipped.vcpus == 4
        assert clipped.vgpus == 2

    def test_is_hashable_and_comparable(self):
        a = Configuration(1, 1, 1)
        b = Configuration(1, 1, 2)
        assert a < b
        assert len({a, b, Configuration(1, 1, 1)}) == 2

    def test_str_mentions_all_dimensions(self):
        text = str(Configuration(2, 4, 7))
        assert "2" in text and "4" in text and "7" in text


class TestConfigurationSpace:
    def test_size_is_product_of_option_counts(self):
        space = ConfigurationSpace(batch_options=(1, 2), vcpu_options=(1, 4), vgpu_options=(1, 2, 7))
        assert space.size == 2 * 2 * 3
        assert len(list(space)) == space.size

    def test_options_are_sorted(self):
        space = ConfigurationSpace(batch_options=(4, 1, 2), vcpu_options=(8, 1), vgpu_options=(7, 1))
        assert space.batch_options == (1, 2, 4)
        assert space.vcpu_options == (1, 8)
        assert space.vgpu_options == (1, 7)

    def test_minimum_and_maximum(self):
        space = ConfigurationSpace.small()
        assert space.minimum == Configuration(1, 1, 1)
        assert space.maximum == Configuration(4, 4, 2)

    @pytest.mark.parametrize(
        "space",
        [
            ConfigurationSpace(),
            ConfigurationSpace.small(),
            ConfigurationSpace.paper_256(),
            ConfigurationSpace(batch_options=(4, 2), vcpu_options=(8, 3), vgpu_options=(7, 2)),
        ],
        ids=["default", "small", "paper-256", "unsorted"],
    )
    def test_minimum_is_the_precomputed_smallest_option_triple(self, space):
        assert space.minimum == Configuration(
            batch_size=space.batch_options[0],
            vcpus=space.vcpu_options[0],
            vgpus=space.vgpu_options[0],
        )
        assert space.minimum is space.minimum

    def test_contains(self):
        space = ConfigurationSpace.small()
        assert Configuration(2, 2, 1) in space
        assert Configuration(16, 2, 1) not in space

    def test_rejects_empty_or_duplicate_options(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(batch_options=())
        with pytest.raises(ValueError):
            ConfigurationSpace(batch_options=(1, 1, 2))
        with pytest.raises(ValueError):
            ConfigurationSpace(vgpu_options=(0, 1))

    def test_restrict_batch_caps_options(self):
        space = ConfigurationSpace(batch_options=(1, 2, 4, 8))
        restricted = space.restrict_batch(3)
        assert restricted.batch_options == (1, 2)
        assert restricted.vcpu_options == space.vcpu_options

    def test_restrict_batch_keeps_at_least_smallest(self):
        space = ConfigurationSpace(batch_options=(2, 4))
        restricted = space.restrict_batch(1)
        assert restricted.batch_options == (2,)

    def test_paper_256_space_size(self):
        assert ConfigurationSpace.paper_256().size == 256

    def test_product_space_size_matches_paper_explosion(self):
        # Section 1: m=5 options, k=7 functions -> 78125 without GPU sharing.
        space = ConfigurationSpace(batch_options=(1,), vcpu_options=(1, 2, 3, 4, 5), vgpu_options=(1,))
        assert product_space_size(space, 7) == 5**7

    @given(st.integers(min_value=1, max_value=20))
    def test_restrict_batch_never_exceeds_cap_when_possible(self, cap):
        space = ConfigurationSpace(batch_options=(1, 2, 4, 8, 16))
        restricted = space.restrict_batch(cap)
        if cap >= 1:
            smallest = space.batch_options[0]
            assert all(b <= max(cap, smallest) for b in restricted.batch_options)

    def test_configurations_are_unique(self):
        space = ConfigurationSpace.small()
        configs = space.configurations()
        assert len(set(configs)) == len(configs)
