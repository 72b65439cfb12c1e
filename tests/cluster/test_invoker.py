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


def vgpus(count: int) -> Configuration:
    """A one-vCPU configuration holding ``count`` MIG slices."""
    return Configuration(batch_size=1, vcpus=1, vgpus=count)


class TestVgpuSlices:
    """The node's MIG slices: one vGPU total, counted by the invoker itself."""

    def test_initial_state(self):
        invoker = Invoker(invoker_id=0, total_vcpus=16, total_vgpus=7)
        assert invoker.available_vgpus == 7
        assert invoker.used_vgpus == 0
        assert invoker.gpu_utilization == 0.0

    def test_reserve_and_release_slices(self, invoker):
        invoker.reserve(vgpus(3))
        assert invoker.used_vgpus == 3
        assert invoker.available_vgpus == 4
        invoker.release(vgpus(3))
        assert invoker.used_vgpus == 0

    def test_cannot_over_reserve_slices(self, invoker):
        invoker.reserve(vgpus(5))
        assert not invoker.can_fit(vgpus(3))
        with pytest.raises(RuntimeError):
            invoker.reserve(vgpus(3))
        assert invoker.used_vgpus == 5 and invoker.used_vcpus == 1

    def test_cannot_over_release_slices(self, invoker):
        invoker.reserve(vgpus(2))
        with pytest.raises(RuntimeError):
            invoker.release(vgpus(3))
        assert invoker.used_vgpus == 2

    def test_invalid_slice_counts(self):
        with pytest.raises(ValueError):
            vgpus(0)
        with pytest.raises(ValueError):
            Invoker(invoker_id=0, total_vgpus=0)

    def test_utilization_fraction(self):
        invoker = Invoker(invoker_id=0, total_vcpus=16, total_vgpus=4)
        invoker.reserve(vgpus(1))
        assert invoker.gpu_utilization == 0.25

    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=50))
    def test_used_never_exceeds_total(self, requests):
        """Property: interleaved reservations/releases never exceed the slices."""
        invoker = Invoker(invoker_id=1, total_vcpus=64, total_vgpus=7)
        active: list[int] = []
        for count in requests:
            if invoker.can_fit(vgpus(count)):
                invoker.reserve(vgpus(count))
                active.append(count)
            elif active:
                invoker.release(vgpus(active.pop()))
            assert 0 <= invoker.used_vgpus <= invoker.total_vgpus
            assert invoker.used_vgpus == sum(active)

    def test_capacity_callback_reports_free_capacity(self, invoker):
        seen: list[tuple[int, int, int]] = []
        invoker.bind_cluster_callbacks(lambda *free: seen.append(free), None)
        invoker.reserve(Configuration(1, 4, 3))
        invoker.release(Configuration(1, 4, 3))
        assert seen == [(0, 12, 4), (0, 16, 7)]


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


class TestTasks:
    """``start_task``/``finish_task``: one seat and one reservation per task."""

    CFG = Configuration(batch_size=1, vcpus=4, vgpus=2)

    def test_warm_start_reuses_the_resident_container(self, invoker):
        warm = invoker.create_warm_container("deblur", now_ms=0.0)
        container, cold_ms = invoker.start_task("deblur", self.CFG, 10.0, cold_start_ms=900.0)
        assert container is warm and cold_ms == 0.0
        assert warm.state is ContainerState.BUSY and warm.active_tasks == 1
        assert (invoker.used_vcpus, invoker.used_vgpus) == (4, 2)

    def test_cold_start_creates_a_busy_container(self, invoker):
        container, cold_ms = invoker.start_task("deblur", self.CFG, 10.0, cold_start_ms=900.0)
        assert cold_ms == 900.0
        assert container.state is ContainerState.BUSY
        assert container.warm_at_ms == 910.0
        assert invoker.resident_candidate_count("deblur") == 1
        assert invoker.containers_for("deblur") == [container]

    def test_finish_task_idles_the_container_and_frees_capacity(self, invoker):
        container, _ = invoker.start_task("deblur", self.CFG, 10.0, cold_start_ms=900.0)
        invoker.start_task("deblur", self.CFG, 20.0, cold_start_ms=900.0)
        invoker.finish_task(container, self.CFG, 950.0)
        assert container.state is ContainerState.BUSY  # one task still runs
        invoker.finish_task(container, self.CFG, 1000.0)
        assert container.state is ContainerState.WARM
        assert container.expires_at_ms == 1000.0 + invoker.keep_alive_ms
        assert (invoker.used_vcpus, invoker.used_vgpus) == (0, 0)
        assert invoker.resident_candidate_count("deblur") == 1

    def test_start_task_that_does_not_fit_raises(self, invoker):
        invoker.reserve(Configuration(1, 16, 1))
        with pytest.raises(RuntimeError):
            invoker.start_task("deblur", self.CFG, 0.0, cold_start_ms=900.0)
        assert invoker.containers_for("deblur") == []  # nothing half-seated
        assert (invoker.used_vcpus, invoker.used_vgpus) == (16, 1)
