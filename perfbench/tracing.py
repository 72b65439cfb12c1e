"""Span tracing for the benchmark's traced run.

The benchmark never edits the simulator to trace it.  Instead it replaces
the public entry points of each layer on the *instances* of one run (and
one module attribute, ``repro.core.esg.esg_1q_search``) with wrappers
that time every call.  A wrapper records a span; spans nest through a
stack, so each layer gets both its total time and its *self* time — the
span minus the part of it that nested spans cover.  The sum of all self
times therefore equals the sum of the outermost spans, and whatever run
time lies outside every span is the simulator's residual: the event loop
plus the private paths no public boundary exposes.

Each boundary also declares the workloads on which it must fire.  A
boundary that stays at zero calls there is reported as an error rather
than as a silent zero, because a zero usually means the program took a
path that bypasses the wrapper (an inlined fast path, a cached call).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Tail percentiles the helper may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


class CoverageError(RuntimeError):
    """A wrapped boundary never fired on a workload where it must."""


@dataclass
class SpanStats:
    """Calls and times of one boundary."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Per-call durations, kept only for boundaries that report percentiles.
    samples: list[float] | None = None


@dataclass
class Tracer:
    """Collects nested spans; see the module docstring."""

    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, SpanStats] = field(default_factory=dict)
    #: Sum of the durations of the outermost spans.
    top_level_s: float = 0.0

    def __post_init__(self) -> None:
        # One accumulator per open span: the time its children took.
        self._stack: list[float] = []

    def stat(self, name: str, *, keep_samples: bool = False) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = SpanStats(samples=[] if keep_samples else None)
            self.stats[name] = stat
        return stat

    def _close(self, stat: SpanStats, elapsed: float) -> None:
        child_s = self._stack.pop()
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - child_s
        if stat.samples is not None:
            stat.samples.append(elapsed)
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.top_level_s += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one call of ``name``."""
        stat = self.stat(name)
        self._stack.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            self._close(stat, self.clock() - start)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        keep_samples: bool = False,
        observe: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so that every call is a span of ``name``.

        ``observe`` receives each call's result, outside the span, so a
        layer's own counters (search expansions, for instance) can be read
        where the work happens without being charged to its time.
        """
        stat = self.stat(name, keep_samples=keep_samples)
        stack = self._stack
        clock = self.clock
        close = self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, clock() - start)
            if observe is not None:
                observe(result)
            return result

        return traced

    def wrap_generator(self, name: str, make: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
        """Wrap a generator factory so that every ``next()`` on it is a span."""
        stat = self.stat(name)

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = make(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                start = self.clock()
                try:
                    item = next(inner, _DONE)
                finally:
                    self._close(stat, self.clock() - start)
                if item is _DONE:
                    return
                yield item

        return traced

    def reset(self) -> None:
        """Forget every recorded span (open spans are not allowed)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        for stat in self.stats.values():
            stat.calls = 0
            stat.total_s = 0.0
            stat.self_s = 0.0
            if stat.samples is not None:
                stat.samples.clear()
        self.top_level_s = 0.0

    @property
    def open_spans(self) -> int:
        """Spans entered and not yet closed."""
        return len(self._stack)

    def self_time_sum(self) -> float:
        """Sum of every boundary's self time (equals :attr:`top_level_s`)."""
        return sum(stat.self_s for stat in self.stats.values())


_DONE = object()


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list (numpy's default)."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = (len(sorted_values) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def tail_summary(values: list[float]) -> tuple[float, float, float, int]:
    """``(p50, tail_pct, tail_value, n)`` of ``values``.

    ``tail_pct`` is the highest of :data:`TAIL_PERCENTILES` that leaves at
    least :data:`MIN_SAMPLES_BEYOND` samples above it; with too few samples
    for any of them it is 0 and ``tail_value`` is the maximum.  An empty
    list gives zeros.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(values)
    p50 = percentile(ordered, 50.0)
    for pct in TAIL_PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - pct) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            return p50, pct, percentile(ordered, pct), n
    return p50, 0.0, ordered[-1], n


def check_coverage(tracer: Tracer, required: dict[str, frozenset[str]], workload: str) -> None:
    """Raise :class:`CoverageError` for each boundary that had to fire but did not."""
    silent = sorted(
        name
        for name, workloads in required.items()
        if workload in workloads and tracer.stat(name).calls == 0
    )
    if silent:
        raise CoverageError(
            f"on workload {workload!r} these wrapped boundaries never fired: "
            f"{', '.join(silent)}; the program no longer calls them on this path, "
            f"so their layer would read as zero"
        )
