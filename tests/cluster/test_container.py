"""Tests for the container / function-residency lifecycle."""

from __future__ import annotations

import pytest

from repro.cluster.container import Container, ContainerState


def make_container(**kwargs) -> Container:
    defaults = dict(function_name="deblur", invoker_id=0)
    defaults.update(kwargs)
    return Container(**defaults)


class TestLifecycle:
    def test_starting_container_not_resident_before_warm_time(self):
        c = make_container(state=ContainerState.STARTING, warm_at_ms=100.0)
        assert not c.is_resident(50.0)
        assert not c.is_warm_idle(50.0)

    def test_mark_warm_arms_keep_alive(self):
        c = make_container(state=ContainerState.STARTING, warm_at_ms=100.0)
        c.mark_warm(100.0, keep_alive_ms=1000.0)
        assert c.state == ContainerState.WARM
        assert c.is_resident(100.0)
        assert c.is_warm_idle(500.0)
        assert not c.is_warm_idle(1200.0)
        assert c.expires_at_ms == 1100.0

    def test_assign_and_release_task(self):
        c = make_container(state=ContainerState.WARM, warm_at_ms=0.0)
        c.mark_warm(0.0, keep_alive_ms=1000.0)
        c.assign_task()
        assert c.state == ContainerState.BUSY
        assert c.is_resident(5000.0)  # busy containers never expire
        c.assign_task()
        assert c.active_tasks == 2
        c.release_task(100.0, keep_alive_ms=1000.0)
        assert c.state == ContainerState.BUSY
        c.release_task(200.0, keep_alive_ms=1000.0)
        assert c.state == ContainerState.WARM
        assert c.expires_at_ms == pytest.approx(1200.0)

    def test_release_without_task_rejected(self):
        c = make_container(state=ContainerState.WARM)
        with pytest.raises(RuntimeError):
            c.release_task(10.0)

    def test_stopped_container_rejects_operations(self):
        c = make_container(state=ContainerState.WARM)
        c.mark_warm(0.0, keep_alive_ms=10.0)
        c.mark_stopped()
        assert c.state == ContainerState.STOPPED
        with pytest.raises(RuntimeError):
            c.assign_task()
        with pytest.raises(RuntimeError):
            c.mark_warm(20.0)

    def test_cannot_stop_with_active_tasks(self):
        c = make_container(state=ContainerState.WARM)
        c.mark_warm(0.0)
        c.assign_task()
        with pytest.raises(RuntimeError):
            c.mark_stopped()

    def test_cannot_warm_with_active_tasks(self):
        c = make_container(state=ContainerState.WARM)
        c.mark_warm(0.0)
        c.assign_task()
        with pytest.raises(RuntimeError):
            c.mark_warm(10.0)

    def test_container_ids_are_unique(self):
        assert make_container().container_id != make_container().container_id


class TestLifecycleListener:
    """The owning invoker hears residency changes only."""

    def test_warm_busy_edges_are_not_reported(self):
        seen = []
        c = make_container(state=ContainerState.STARTING, warm_at_ms=100.0)
        c.bind_listener(lambda container, old, new: seen.append((old, new)))
        c.assign_task()  # STARTING -> BUSY: becomes resident
        c.release_task(200.0, keep_alive_ms=1000.0)  # BUSY -> WARM
        c.assign_task()  # WARM -> BUSY
        c.release_task(300.0, keep_alive_ms=1000.0)
        c.expire(c.expires_at_ms)  # WARM -> STOPPED
        assert seen == [
            (ContainerState.STARTING, ContainerState.BUSY),
            (ContainerState.WARM, ContainerState.STOPPED),
        ]

    def test_expire_ignores_a_stale_deadline(self):
        c = make_container(state=ContainerState.WARM)
        c.mark_warm(0.0, keep_alive_ms=100.0)
        c.expire(50.0)
        assert c.state is ContainerState.WARM
        c.expire(100.0)
        assert c.state is ContainerState.STOPPED
