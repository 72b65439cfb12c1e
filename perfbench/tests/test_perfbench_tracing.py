"""Unit tests of the benchmark's span arithmetic and percentile helper.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import random

import numpy as np
import pytest
from tracing import CoverageError, Tracer, check_coverage, percentile, tail_summary


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("inner", lambda: clock.advance(3.0))

    def body():
        clock.advance(1.0)
        inner()
        clock.advance(2.0)

    tracer.wrap("outer", body)()
    outer, inner_stat = tracer.stat("outer"), tracer.stat("inner")
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 6.0, 3.0)
    assert (inner_stat.calls, inner_stat.total_s, inner_stat.self_s) == (1, 3.0, 3.0)
    assert tracer.top_level_s == 6.0


def test_nested_wrappers_do_not_double_count():
    """Self times plus the residual add up to the run time."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(0.5))

    def middle():
        clock.advance(0.25)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)

    def recursive(depth):
        clock.advance(0.125)
        if depth:
            traced_recursive(depth - 1)
        middle()

    traced_recursive = tracer.wrap("recursive", recursive)

    run_start = clock()
    for _ in range(3):
        clock.advance(1.0)  # time outside every boundary: the residual
        traced_recursive(2)
        middle()
    run_s = clock() - run_start
    residual_s = run_s - tracer.top_level_s
    assert residual_s == pytest.approx(3.0)
    assert tracer.self_time_sum() + residual_s == pytest.approx(run_s)
    # Each boundary's self time is exactly its own advances.
    assert tracer.stat("leaf").self_s == pytest.approx(3 * 4 * 2 * 0.5)
    assert tracer.stat("middle").self_s == pytest.approx(3 * 4 * 0.25)
    assert tracer.stat("recursive").self_s == pytest.approx(3 * 3 * 0.125)


def test_span_and_generator_wrappers_nest_like_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def chunks(n):
        for i in range(n):
            clock.advance(1.0)
            yield [i]

    pulled = tracer.wrap_generator("pull", chunks)
    with tracer.span("outer"):
        assert list(pulled(3)) == [[0], [1], [2]]
    pull = tracer.stat("pull")
    # Three chunks plus the final, empty pull.
    assert (pull.calls, pull.total_s) == (4, 3.0)
    assert tracer.stat("outer").self_s == 0.0


def test_observe_sees_results_outside_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def observe(result):
        clock.advance(10.0)
        seen.append(result)

    assert tracer.wrap("f", lambda x: x * 2, observe=observe)(21) == 42
    assert seen == [42]
    assert tracer.stat("f").total_s == 0.0


def test_reset_clears_and_refuses_open_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.wrap("f", lambda: clock.advance(1.0), keep_samples=True)()
    tracer.reset()
    stat = tracer.stat("f")
    assert (stat.calls, stat.total_s, stat.samples, tracer.top_level_s) == (0, 0.0, [], 0.0)
    with tracer.span("open"):
        assert tracer.open_spans == 1
        with pytest.raises(RuntimeError):
            tracer.reset()
    assert tracer.open_spans == 0


def test_a_generator_left_unfinished_keeps_no_span_open():
    tracer = Tracer()
    pulled = tracer.wrap_generator("pull", lambda: iter(range(5)))
    chunks = pulled()
    next(chunks)
    assert tracer.open_spans == 0
    chunks.close()
    assert (tracer.open_spans, tracer.stat("pull").calls) == (0, 1)


@pytest.mark.parametrize(
    "n, tail_pct",
    [(5, 0.0), (19, 0.0), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, tail_pct):
    values = [float(v) for v in range(1, n + 1)]
    random.Random(n).shuffle(values)
    p50, pct, tail, count = tail_summary(values)
    assert count == n
    assert pct == tail_pct
    assert p50 == pytest.approx((n + 1) / 2)
    if pct:
        assert sum(v > tail for v in values) >= 10
        assert tail == pytest.approx(np.percentile(values, pct))
    else:
        assert tail == n


def test_tail_summary_of_nothing_is_zero():
    assert tail_summary([]) == (0.0, 0.0, 0.0, 0)


def test_percentile_matches_numpy_linear_interpolation():
    rng = random.Random(3)
    values = sorted(rng.expovariate(1.0) for _ in range(257))
    for pct in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_coverage_guard_fails_loudly_on_a_silent_boundary():
    tracer = Tracer()
    tracer.wrap("fires", lambda: None)()
    tracer.stat("silent")
    required = {"fires": frozenset({"w"}), "silent": frozenset({"w"})}
    with pytest.raises(CoverageError, match="silent"):
        check_coverage(tracer, required, "w")
    # Not required on another workload: no error.
    check_coverage(tracer, required, "other")
