"""Tests for the invoker (worker node) model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.container import Container, ContainerState
from repro.cluster.invoker import Invoker
from repro.profiles.configuration import Configuration


@pytest.fixture()
def invoker() -> Invoker:
    return Invoker(invoker_id=0, total_vcpus=16, total_vgpus=7)


class TestResourceAccounting:
    def test_initial_capacity(self, invoker):
        assert invoker.available_vcpus == 16
        assert invoker.available_vgpus == 7
        assert invoker.cpu_utilization == 0.0
        assert invoker.gpu_utilization == 0.0

    def test_reserve_and_release(self, invoker):
        cfg = Configuration(batch_size=2, vcpus=4, vgpus=3)
        assert invoker.can_fit(cfg)
        invoker.reserve(cfg)
        assert invoker.available_vcpus == 12
        assert invoker.available_vgpus == 4
        invoker.release(cfg)
        assert invoker.available_vcpus == 16
        assert invoker.available_vgpus == 7

    def test_cannot_reserve_beyond_cpu_capacity(self, invoker):
        invoker.reserve(Configuration(1, 16, 1))
        assert not invoker.can_fit(Configuration(1, 1, 1))
        with pytest.raises(RuntimeError):
            invoker.reserve(Configuration(1, 1, 1))

    def test_cannot_reserve_beyond_gpu_capacity(self, invoker):
        invoker.reserve(Configuration(1, 1, 7))
        with pytest.raises(RuntimeError):
            invoker.reserve(Configuration(1, 1, 1))

    def test_cannot_release_more_than_reserved(self, invoker):
        with pytest.raises(RuntimeError):
            invoker.release(Configuration(1, 2, 1))

    def test_cpu_failure_does_not_leak_gpu_reservation(self, invoker):
        """If the vCPU reservation fails the vGPUs must not stay allocated."""
        invoker.reserve(Configuration(1, 16, 1))
        with pytest.raises(RuntimeError):
            invoker.reserve(Configuration(1, 4, 2))
        assert invoker.available_vgpus == 6  # only the first reservation holds

    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 4)),
            min_size=1,
            max_size=60,
        )
    )
    def test_reservation_invariants(self, operations):
        """Property: reservations never exceed capacity, releases restore it."""
        invoker = Invoker(invoker_id=3, total_vcpus=16, total_vgpus=7)
        active: list[Configuration] = []
        for vcpus, vgpus in operations:
            cfg = Configuration(1, vcpus, vgpus)
            if invoker.can_fit(cfg):
                invoker.reserve(cfg)
                active.append(cfg)
            elif active:
                invoker.release(active.pop())
            assert 0 <= invoker.used_vcpus <= invoker.total_vcpus
            assert 0 <= invoker.used_vgpus <= invoker.total_vgpus
        for cfg in active:
            invoker.release(cfg)
        assert invoker.used_vcpus == 0 and invoker.used_vgpus == 0


class TestContainers:
    def test_create_warm_container_is_resident(self, invoker):
        invoker.create_warm_container("deblur", now_ms=0.0)
        assert invoker.has_warm_container("deblur", 0.0)
        assert invoker.has_any_container("deblur", 0.0)
        assert not invoker.has_warm_container("classification", 0.0)

    def test_resident_container_returns_busy_containers(self, invoker):
        container = invoker.create_warm_container("deblur", now_ms=0.0)
        container.assign_task()
        assert invoker.resident_container("deblur", 10.0) is container

    def test_starting_container_counts_as_any_but_not_warm(self, invoker):
        container = Container(
            function_name="segmentation", invoker_id=0, state=ContainerState.STARTING, warm_at_ms=500.0
        )
        invoker.add_container(container)
        assert invoker.has_any_container("segmentation", 10.0)
        assert not invoker.has_warm_container("segmentation", 10.0)

    def test_add_container_checks_owner(self, invoker):
        container = Container(function_name="deblur", invoker_id=5)
        with pytest.raises(ValueError):
            invoker.add_container(container)
