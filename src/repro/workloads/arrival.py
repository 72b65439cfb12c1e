"""Pluggable arrival processes.

The paper drives every experiment with one arrival model: inter-arrival
times drawn uniformly from an Azure-derived interval range (Figure 5,
:mod:`repro.workloads.traces`).  The dynamic load-balancing literature
treats far richer demand as the norm — Poisson streams, bursty on/off
sources, diurnal rate drift, recorded production traces — so this module
turns "how do requests arrive?" into a first-class, pluggable axis.

An :class:`ArrivalProcess` maps ``(n, rng)`` to ``n`` positive
inter-arrival intervals in milliseconds.  Implementations are frozen
dataclasses: picklable (they ride inside
:class:`~repro.experiments.engine.RunSpec` to worker processes) and
stateless (all randomness comes from the generator passed in, which the
callers derive via :func:`repro.utils.rng.derive_rng` — this is what makes
``n_jobs=4`` byte-identical to ``n_jobs=1``).

Examples
--------
Every process is deterministic given a derived generator:

>>> from repro.utils.rng import derive_rng
>>> process = PoissonProcess(rate_per_s=40.0)
>>> a = process.intervals(3, derive_rng(7, "demo"))
>>> b = process.intervals(3, derive_rng(7, "demo"))
>>> bool((a == b).all())
True
>>> round(process.mean_interval_ms, 1)
25.0

The paper's own sampling is just the default member of the hierarchy:

>>> from repro.workloads.traces import NORMAL_INTERVALS
>>> azure = AzureIntervalProcess(NORMAL_INTERVALS)
>>> iv = azure.intervals(100, derive_rng(42, "workload", "moderate-normal"))
>>> bool((iv >= 20.0).all() and (iv <= 33.6).all())
True
"""

from __future__ import annotations

import csv
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.utils.validation import ensure_in_range, ensure_positive, ensure_positive_int
from repro.workloads.traces import ArrivalIntervalRange, generate_intervals

__all__ = [
    "ArrivalProcess",
    "AzureIntervalProcess",
    "PoissonProcess",
    "OnOffBurstProcess",
    "DiurnalProcess",
    "TraceReplayProcess",
    "TraceFileReplayProcess",
    "TraceExhaustedError",
    "iter_trace_intervals",
]


class TraceExhaustedError(ValueError):
    """Raised when a non-looping trace has fewer intervals than requested."""


class ArrivalProcess(ABC):
    """Maps a request count and an RNG stream to inter-arrival intervals.

    Subclasses must be picklable and must draw randomness *only* from the
    generator passed to :meth:`intervals` — never from module state, the
    wall clock, or a private seeded generator — so that a run's arrivals
    are a pure function of the experiment seed regardless of which process
    executes it.
    """

    @abstractmethod
    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` positive inter-arrival intervals in milliseconds."""

    @property
    @abstractmethod
    def mean_interval_ms(self) -> float:
        """Long-run mean inter-arrival time (used to size duration-bounded runs)."""

    def interval_stream(self, rng: np.random.Generator) -> Iterator[float]:
        """Yield inter-arrival intervals one at a time.

        The open-ended counterpart of :meth:`intervals`, used by
        duration-bounded request streams
        (:class:`~repro.workloads.stream.DurationRequestStream`) where the
        interval count is unknown up front.  The contract: the first ``n``
        yielded values equal ``intervals(n, rng)`` value-for-value on the
        same RNG state (numpy's per-value draws are stream-equivalent to
        bulk draws).  The default implementation draws one value per pull
        and is correct for *memoryless* processes only — processes whose
        bulk path carries state across values (Markov state, a thinning
        clock, a trace cursor) must override it, or each pull would
        silently restart from the initial state.

        The iterator is infinite for every generative process; only trace
        replays end (a non-looping trace stops after its stored intervals).
        """
        while True:
            yield float(self.intervals(1, rng)[0])

    def arrival_times(
        self, n: int, rng: np.random.Generator, *, start_ms: float = 0.0
    ) -> np.ndarray:
        """Return ``n`` absolute arrival timestamps (cumulative intervals)."""
        return start_ms + np.cumsum(self.intervals(n, rng))

    @property
    def mean_rate_per_s(self) -> float:
        """Long-run mean arrival rate in requests per second."""
        return 1000.0 / self.mean_interval_ms


@dataclass(frozen=True)
class AzureIntervalProcess(ArrivalProcess):
    """The paper's arrival model: uniform Azure-derived interval sampling.

    This is the default process everywhere (it delegates to
    :func:`repro.workloads.traces.generate_intervals`).  ``burstiness > 0``
    adds the batch-scale rate drift: a scenario that wants it passes this
    process as its ``arrival``.
    """

    interval_range: ArrivalIntervalRange
    burstiness: float = 0.0

    def __post_init__(self) -> None:
        ensure_in_range(self.burstiness, 0.0, 1.0, "burstiness")

    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return generate_intervals(n, self.interval_range, rng, burstiness=self.burstiness)

    def interval_stream(self, rng: np.random.Generator) -> Iterator[float]:
        if self.burstiness != 0.0:
            # The burstiness envelope is a sinusoid stretched over the
            # *total* batch length (np.linspace(0, 4*pi, n)), so it has no
            # open-ended form: the modulation of interval k depends on how
            # many intervals will be drawn in total.
            raise ValueError(
                "AzureIntervalProcess with burstiness > 0 cannot stream: its "
                "rate modulation spans a fixed-length batch; use burstiness=0, "
                "or model open-ended burstiness with OnOffBurstProcess / "
                "DiurnalProcess"
            )
        return super().interval_stream(rng)

    @property
    def mean_interval_ms(self) -> float:
        return self.interval_range.mean_ms


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival times at a fixed rate."""

    rate_per_s: float

    def __post_init__(self) -> None:
        ensure_positive(self.rate_per_s, "rate_per_s")

    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ensure_positive_int(n, "n")
        return rng.exponential(self.mean_interval_ms, size=n)

    @property
    def mean_interval_ms(self) -> float:
        return 1000.0 / self.rate_per_s


@dataclass(frozen=True)
class OnOffBurstProcess(ArrivalProcess):
    """MMPP-style bursty source: a two-state Markov-modulated Poisson process.

    The source alternates between a *burst* state (high rate) and a *base*
    state (low rate); dwell times in each state are exponential.  Thanks to
    the memorylessness of the exponential, discarding the in-flight
    candidate arrival at a state switch and redrawing at the new rate
    yields an exact MMPP sample path.
    """

    burst_rate_per_s: float
    base_rate_per_s: float
    mean_burst_ms: float
    mean_gap_ms: float
    #: Whether the source starts in the burst state.
    start_in_burst: bool = True

    def __post_init__(self) -> None:
        ensure_positive(self.burst_rate_per_s, "burst_rate_per_s")
        ensure_positive(self.base_rate_per_s, "base_rate_per_s")
        ensure_positive(self.mean_burst_ms, "mean_burst_ms")
        ensure_positive(self.mean_gap_ms, "mean_gap_ms")
        if self.burst_rate_per_s < self.base_rate_per_s:
            raise ValueError(
                f"burst_rate_per_s ({self.burst_rate_per_s}) must be >= "
                f"base_rate_per_s ({self.base_rate_per_s})"
            )

    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ensure_positive_int(n, "n")
        # One draw loop only: the stream is the source of truth and the
        # bulk path takes its first n values (identical draws, same RNG).
        return np.fromiter(itertools.islice(self.interval_stream(rng), n), float, count=n)

    def interval_stream(self, rng: np.random.Generator) -> Iterator[float]:
        # The Markov state (burst/base, dwell deadline) carries across
        # yields, so pulls continue the sample path instead of restarting.
        in_burst = self.start_in_burst
        now = 0.0
        state_end = now + rng.exponential(self.mean_burst_ms if in_burst else self.mean_gap_ms)
        last_arrival = 0.0
        while True:
            while True:
                mean = 1000.0 / (self.burst_rate_per_s if in_burst else self.base_rate_per_s)
                candidate = now + rng.exponential(mean)
                if candidate <= state_end:
                    now = candidate
                    break
                now = state_end
                in_burst = not in_burst
                state_end = now + rng.exponential(
                    self.mean_burst_ms if in_burst else self.mean_gap_ms
                )
            yield now - last_arrival
            last_arrival = now

    @property
    def mean_interval_ms(self) -> float:
        # Time-weighted average rate over the on/off cycle.
        cycle_ms = self.mean_burst_ms + self.mean_gap_ms
        mean_rate = (
            self.burst_rate_per_s * self.mean_burst_ms
            + self.base_rate_per_s * self.mean_gap_ms
        ) / cycle_ms
        return 1000.0 / mean_rate


@dataclass(frozen=True)
class DiurnalProcess(ArrivalProcess):
    """Sinusoidal-rate arrivals: ``rate(t) = base * (1 + amplitude*sin(...))``.

    Samples a non-homogeneous Poisson process by Lewis-Shedler thinning
    against the peak rate.  ``amplitude`` must stay strictly below 1 so the
    instantaneous rate never reaches zero (a zero-rate trough would stall
    the thinning loop forever).
    """

    base_rate_per_s: float
    amplitude: float = 0.5
    period_ms: float = 60_000.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        ensure_positive(self.base_rate_per_s, "base_rate_per_s")
        ensure_positive(self.period_ms, "period_ms")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1) so the rate stays positive, "
                f"got {self.amplitude}"
            )

    def rate_per_s_at(self, t_ms: float) -> float:
        """Instantaneous arrival rate at simulated time ``t_ms``."""
        angle = 2.0 * np.pi * t_ms / self.period_ms + self.phase
        return self.base_rate_per_s * (1.0 + self.amplitude * np.sin(angle))

    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ensure_positive_int(n, "n")
        # One thinning loop only: the stream is the source of truth and the
        # bulk path takes its first n values (identical draws, same RNG).
        return np.fromiter(itertools.islice(self.interval_stream(rng), n), float, count=n)

    def interval_stream(self, rng: np.random.Generator) -> Iterator[float]:
        # The candidate clock carries across yields (a restart-per-pull
        # would reset the sinusoid's phase to t=0 for every interval).
        peak_rate = self.base_rate_per_s * (1.0 + self.amplitude)
        peak_mean_ms = 1000.0 / peak_rate
        now = 0.0
        last_arrival = 0.0
        while True:
            while True:
                now += rng.exponential(peak_mean_ms)
                if rng.uniform() * peak_rate <= self.rate_per_s_at(now):
                    break
            yield now - last_arrival
            last_arrival = now

    @property
    def mean_interval_ms(self) -> float:
        # The sinusoid averages out over a period.
        return 1000.0 / self.base_rate_per_s


@dataclass(frozen=True)
class TraceReplayProcess(ArrivalProcess):
    """Replays a recorded sequence of inter-arrival intervals.

    The intervals are stored inline (a tuple), so a trace-driven
    :class:`~repro.experiments.engine.RunSpec` pickles to workers without
    any filesystem access on the worker side.  Load a trace from disk with
    :meth:`from_csv`.
    """

    intervals_ms: tuple[float, ...]
    #: When True the trace wraps around instead of raising
    #: :class:`TraceExhaustedError` once consumed.
    loop: bool = False

    def __post_init__(self) -> None:
        if not self.intervals_ms:
            raise ValueError("trace is empty: at least one interval is required")
        if not all(0.0 < iv < math.inf for iv in self.intervals_ms):
            raise ValueError("trace intervals must all be finite and > 0 ms")

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        column: int = 0,
        kind: str = "intervals",
        loop: bool = False,
    ) -> "TraceReplayProcess":
        """Load a trace from a CSV file.

        Parameters
        ----------
        path:
            CSV file; a non-numeric first row is treated as a header.
        column:
            Zero-based column index holding the values.
        kind:
            ``"intervals"`` reads inter-arrival times (ms) directly;
            ``"timestamps"`` reads absolute arrival times (ms) and differences
            them (the first timestamp is measured from 0).
        loop:
            Passed through to the process (wrap around instead of raising).
        """
        values = list(_iter_csv_values(path, column, kind=kind))
        if not values:
            raise ValueError(f"trace {path} is empty: no numeric values in column {column}")
        return cls(intervals_ms=tuple(values), loop=loop)

    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ensure_positive_int(n, "n")
        stored = len(self.intervals_ms)
        if n > stored and not self.loop:
            raise TraceExhaustedError(
                f"trace holds {stored} intervals but {n} were requested; "
                f"pass loop=True to wrap around"
            )
        reps = -(-n // stored)  # ceil division
        return np.tile(np.asarray(self.intervals_ms), reps)[:n]

    def interval_stream(self, rng: np.random.Generator) -> Iterator[float]:
        while True:
            yield from self.intervals_ms
            if not self.loop:
                return

    @property
    def mean_interval_ms(self) -> float:
        return float(np.mean(self.intervals_ms))


def _iter_csv_values(
    path: str | Path, column: int, *, kind: str = "intervals"
) -> Iterator[float]:
    """Parse one numeric column of a trace CSV, one row at a time.

    Shared by the eager :meth:`TraceReplayProcess.from_csv` and the chunked
    :class:`TraceFileReplayProcess` reader, so both apply identical parsing
    rules: blank rows and empty cells are skipped, leading non-numeric rows
    are treated as a header, a non-numeric value after the first numeric one
    is an error, as is a non-finite one (``float`` parses ``nan`` and
    ``inf``) and a non-positive interval, and ``kind="timestamps"`` columns
    are differenced on the fly (the first timestamp is measured from 0)
    with a strictly-increasing check.  Every error names the file and the
    1-based line.
    """
    if kind not in ("intervals", "timestamps"):
        raise ValueError(f"kind must be 'intervals' or 'timestamps', got {kind!r}")
    previous_ts = 0.0
    seen_numeric = False
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            where = f"trace {path} line {reader.line_num}"
            if len(row) <= column:
                raise ValueError(f"row {row!r} in {where} has no column {column}")
            if not row[column].strip():
                continue
            try:
                value = float(row[column])
            except ValueError:
                if seen_numeric:
                    raise ValueError(f"non-numeric value {row[column]!r} in {where}") from None
                continue  # header row
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {row[column]!r} in {where}")
            seen_numeric = True
            if kind == "timestamps":
                interval = value - previous_ts
                if interval <= 0:
                    raise ValueError(
                        f"timestamps must be strictly increasing: {value!r} after "
                        f"{previous_ts!r} in {where}"
                    )
                previous_ts = value
                yield interval
            elif value <= 0:
                raise ValueError(f"trace intervals must all be > 0 ms, got {value!r} in {where}")
            else:
                yield value


def iter_trace_intervals(
    path: str | Path,
    *,
    column: int = 0,
    kind: str = "intervals",
    loop: bool = False,
) -> Iterator[float]:
    """Lazily yield the inter-arrival intervals of a trace CSV.

    Reads the file row by row (re-opening it per pass when ``loop`` is
    True), so a multi-gigabyte trace streams in constant memory.  Interval
    validation (finite, ``> 0 ms``) happens as values are read.  Raises
    ``ValueError`` on an empty trace — also when looping, where an empty
    file would otherwise spin forever.
    """
    while True:
        yielded = 0
        for value in _iter_csv_values(path, column, kind=kind):
            yielded += 1
            yield value
        if yielded == 0:
            raise ValueError(
                f"trace {path} is empty: no numeric values in column {column}"
            )
        if not loop:
            return


@dataclass(frozen=True)
class TraceFileReplayProcess(ArrivalProcess):
    """Replays a trace CSV directly from disk, in chunks.

    The file-backed sibling of :class:`TraceReplayProcess`: instead of
    loading every interval into an inline tuple at construction, it keeps
    only the *path* and reads rows lazily — :meth:`interval_stream` is the
    primary interface, and a duration-bounded request stream over a
    million-row trace runs in constant memory.  The trade-off is explicit:
    the process pickles as a path, so a worker process must see the same
    file at the same location (the inline :class:`TraceReplayProcess`
    travels self-contained and remains the right choice for small traces
    shipped inside :class:`~repro.experiments.engine.RunSpec`).
    """

    path: str
    column: int = 0
    kind: str = "intervals"
    loop: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", str(self.path))
        if self.kind not in ("intervals", "timestamps"):
            raise ValueError(
                f"kind must be 'intervals' or 'timestamps', got {self.kind!r}"
            )
        if self.column < 0:
            raise ValueError(f"column must be >= 0, got {self.column}")
        if not Path(self.path).is_file():
            raise FileNotFoundError(f"trace file {self.path!r} does not exist")

    def interval_stream(self, rng: np.random.Generator) -> Iterator[float]:
        return iter_trace_intervals(
            self.path, column=self.column, kind=self.kind, loop=self.loop
        )

    def intervals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ensure_positive_int(n, "n")
        out = np.empty(n)
        stream = self.interval_stream(rng)
        for i in range(n):
            try:
                out[i] = next(stream)
            except StopIteration:
                raise TraceExhaustedError(
                    f"trace {self.path} holds {i} intervals but {n} were "
                    f"requested; pass loop=True to wrap around"
                ) from None
        return out

    @property
    def mean_interval_ms(self) -> float:
        """Mean interval over one full pass of the file (computed once)."""
        cached = self.__dict__.get("_mean_interval_ms")
        if cached is None:
            total = 0.0
            count = 0
            for value in iter_trace_intervals(
                self.path, column=self.column, kind=self.kind, loop=False
            ):
                total += value
                count += 1
            cached = total / count
            object.__setattr__(self, "_mean_interval_ms", cached)
        return cached
