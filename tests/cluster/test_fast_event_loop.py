"""Randomized equivalence fuzz: :class:`EventLoop` vs. a brute-force reference.

The loop's split-heap design rests on one claim: with a single shared
push counter, interleaving a real heap and a housekeeping heap and always
popping the smaller head reproduces the pop sequence of one list sorted by
``(time_ms, sort_priority, counter)`` *exactly*.  These tests drive the
loop and a brute-force sorted-list reference through seeded random
push/pop interleavings built to stress the claim where it could break —
exact-time collisions, ``sort_priority`` ties between arrivals and ticks,
and dense mixes of housekeeping (churn) events — and assert identical
observable behaviour at every step.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.events import (
    InvokerResizeEvent,
    RequestArrivalEvent,
    SchedulerTickEvent,
)
from repro.cluster.simulator import EventLoop
from repro.workloads.applications import image_classification
from repro.workloads.request import Request

#: Deliberately tiny time palette: with ~2000 ops drawing from 8 values,
#: exact-time collisions (the FIFO/sort_priority tie-break cases) dominate.
TIME_PALETTE = (0.0, 1.0, 1.0, 2.0, 5.0, 5.0, 7.5, 10.0)


def _shared_request() -> Request:
    return Request(
        request_id=0, workflow=image_classification(), arrival_ms=0.0, slo_ms=1000.0
    )


def _housekeeping(time_ms: float) -> InvokerResizeEvent:
    return InvokerResizeEvent(time_ms=time_ms, invoker_id=0, vcpus=1, vgpus=1)


def make_event(rng: random.Random, request: Request):
    """One random event: tick (priority 1), arrival (priority 0, outranks
    same-time ticks) or churn resize (housekeeping, invisible to the
    real-only queries)."""
    time_ms = rng.choice(TIME_PALETTE)
    kind = rng.randrange(3)
    if kind == 0:
        return SchedulerTickEvent(time_ms=time_ms)
    if kind == 1:
        return RequestArrivalEvent(time_ms=time_ms, request=request)
    return _housekeeping(time_ms)


class ReferenceLoop:
    """Brute-force model: a list re-sorted by the documented total order."""

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, int, object]] = []
        self._counter = 0

    def push(self, event) -> None:
        self._entries.append(
            (event.time_ms, event.sort_priority, self._counter, event)
        )
        self._counter += 1
        self._entries.sort(key=lambda entry: entry[:3])

    def pop(self):
        return self._entries.pop(0)[3]

    def peek_time(self) -> float:
        return self._entries[0][0]

    def real_times(self) -> list[float]:
        return [e.time_ms for *_, e in self._entries if not e.housekeeping]

    def __len__(self) -> int:
        return len(self._entries)


def assert_observables_agree(loop: EventLoop, ref: ReferenceLoop):
    assert len(loop) == len(ref)
    assert loop.empty == (len(ref) == 0)
    assert loop.has_real == bool(ref.real_times())
    if len(ref):
        assert loop.peek_time() == ref.peek_time()
    if ref.real_times():
        assert loop.peek_real_time() == ref.real_times()[0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 1234])
def test_fuzz_pop_sequences_identical(seed):
    """~2000 random ops: every pop returns the *same object* from the loop
    and the reference, and every observable query agrees at every step."""
    rng = random.Random(seed)
    request = _shared_request()
    loop, ref = EventLoop(), ReferenceLoop()

    for _ in range(2000):
        if len(ref) and rng.random() < 0.45:
            assert loop.pop() is ref.pop()
        else:
            event = make_event(rng, request)
            loop.push(event)
            ref.push(event)
        assert_observables_agree(loop, ref)

    # Drain: the remaining backlog pops identically too.
    while len(ref):
        assert loop.pop() is ref.pop()
        assert_observables_agree(loop, ref)
    assert loop.empty


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_fuzz_housekeeping_heavy_mix(seed):
    """Housekeeping-dominant workloads (a dense churn schedule): the
    real-only queries must still track only productive events."""
    rng = random.Random(seed)
    request = _shared_request()
    loop, ref = EventLoop(), ReferenceLoop()

    for _ in range(1000):
        roll = rng.random()
        if len(ref) and roll < 0.4:
            assert loop.pop() is ref.pop()
        elif roll < 0.85 or not len(ref):
            # 75% of pushes are housekeeping events.
            time_ms = rng.choice(TIME_PALETTE)
            if rng.random() < 0.75:
                event = _housekeeping(time_ms)
            else:
                event = RequestArrivalEvent(time_ms=time_ms, request=request)
            loop.push(event)
            ref.push(event)
        assert_observables_agree(loop, ref)


def push_fast(loop: EventLoop, event) -> None:
    """Push through the unchecked path the controller uses where it applies."""
    if event.sort_priority != 1 or event.housekeeping:
        loop.push(event)
    else:
        loop.push_real(event)


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_fuzz_fast_pushes_match_push(seed):
    """``push_real`` makes exactly the entries ``push`` makes for
    default-priority productive events: mixed with checked pushes, the pop
    sequence and every query still match the reference."""
    rng = random.Random(seed)
    request = _shared_request()
    loop, ref = EventLoop(), ReferenceLoop()

    for _ in range(1500):
        if len(ref) and rng.random() < 0.45:
            assert loop.pop() is ref.pop()
        else:
            event = make_event(rng, request)
            push_fast(loop, event)
            ref.push(event)
        assert_observables_agree(loop, ref)
    while len(ref):
        assert loop.pop() is ref.pop()
    assert loop.empty


class TestEventLoopEdges:
    """The non-fuzz edge contract of the split heaps."""

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventLoop().pop()

    def test_peek_time_empty_raises(self):
        with pytest.raises(IndexError):
            EventLoop().peek_time()

    def test_peek_real_time_with_only_housekeeping_raises(self):
        loop = EventLoop()
        loop.push(_housekeeping(5.0))
        assert not loop.has_real
        assert not loop.empty
        assert loop.peek_time() == 5.0
        with pytest.raises(IndexError):
            loop.peek_real_time()

    def test_arrival_outranks_same_time_tick(self):
        loop = EventLoop()
        tick = SchedulerTickEvent(time_ms=5.0)
        arrival = RequestArrivalEvent(time_ms=5.0, request=_shared_request())
        loop.push(tick)
        loop.push(arrival)  # pushed later but lower sort_priority
        assert loop.pop() is arrival
        assert loop.pop() is tick

    def test_housekeeping_interleaves_in_global_time_order(self):
        loop = EventLoop()
        early = _housekeeping(1.0)
        tick = SchedulerTickEvent(time_ms=2.0)
        late = _housekeeping(3.0)
        loop.push(tick)
        loop.push(late)
        loop.push(early)
        assert loop.peek_time() == 1.0
        assert loop.peek_real_time() == 2.0
        assert [loop.pop() for _ in range(3)] == [early, tick, late]

    def test_fifo_among_equal_keys(self):
        loop = EventLoop()
        events = [SchedulerTickEvent(time_ms=5.0) for _ in range(10)]
        for event in events:
            loop.push(event)
        assert [loop.pop() for _ in range(10)] == events

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().push(SchedulerTickEvent(time_ms=-0.5))
