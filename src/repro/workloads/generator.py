"""Workload settings and request-stream generation.

Section 4.1 of the paper defines three evaluation situations that pair an
SLO tightness with an arrival intensity:

========================  ==========  =======================
setting                   SLO factor  arrival interval (ms)
========================  ==========  =======================
strict-light              0.8 x L     [40, 67.2]
moderate-normal           1.0 x L     [20, 33.6]
relaxed-heavy             1.2 x L     [10, 16.8]
========================  ==========  =======================

where ``L`` is the end-to-end latency of the application under the minimum
configuration.  "In each workload, one of the four DNN applications is
randomly picked to get invoked in each time interval."

The *timing* of arrivals is pluggable: pass any
:class:`~repro.workloads.arrival.ArrivalProcess` as ``arrival`` to replace
the paper's uniform Azure-interval sampling with Poisson, bursty on/off,
diurnal or trace-replay demand (leaving it ``None`` keeps the paper's
process).

Examples
--------
SLO derivation is independent of profiling, so it doctests cheaply:

>>> STRICT_LIGHT.slo_ms(100.0)
80.0
>>> WORKLOAD_SETTINGS["relaxed-heavy"].intervals.mean_ms
13.4
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.profiles.profiler import ProfileStore
from repro.utils.validation import ensure_positive
from repro.workloads.arrival import ArrivalProcess, AzureIntervalProcess
from repro.workloads.dag import Workflow
from repro.workloads.request import Request
from repro.workloads.stream import CountRequestStream, DurationRequestStream
from repro.workloads.traces import (
    HEAVY_INTERVALS,
    LIGHT_INTERVALS,
    NORMAL_INTERVALS,
    ArrivalIntervalRange,
)

__all__ = [
    "WorkloadSetting",
    "WorkloadGenerator",
    "STRICT_LIGHT",
    "MODERATE_NORMAL",
    "RELAXED_HEAVY",
    "WORKLOAD_SETTINGS",
]


@dataclass(frozen=True)
class WorkloadSetting:
    """One evaluation situation: an SLO tightness plus an arrival intensity."""

    name: str
    slo_factor: float
    intervals: ArrivalIntervalRange

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("setting name must be non-empty")
        ensure_positive(self.slo_factor, "slo_factor")

    def slo_ms(self, base_latency_ms: float) -> float:
        """SLO budget for an application whose minimum-config latency is given."""
        ensure_positive(base_latency_ms, "base_latency_ms")
        return self.slo_factor * base_latency_ms


STRICT_LIGHT = WorkloadSetting("strict-light", slo_factor=0.8, intervals=LIGHT_INTERVALS)
MODERATE_NORMAL = WorkloadSetting("moderate-normal", slo_factor=1.0, intervals=NORMAL_INTERVALS)
RELAXED_HEAVY = WorkloadSetting("relaxed-heavy", slo_factor=1.2, intervals=HEAVY_INTERVALS)

#: All paper settings keyed by name.
WORKLOAD_SETTINGS: dict[str, WorkloadSetting] = {
    s.name: s for s in (STRICT_LIGHT, MODERATE_NORMAL, RELAXED_HEAVY)
}


@dataclass
class WorkloadGenerator:
    """Generates a stream of :class:`Request` objects for one setting.

    Parameters
    ----------
    applications:
        The application workflows to sample from (uniformly at random per
        arrival, as in the paper).
    setting:
        The workload setting (SLO factor + arrival intervals).
    profile_store:
        Used to compute each application's minimum-configuration latency
        ``L`` from which its SLO is derived.
    rng:
        Random generator for arrival intervals and application choice.
    app_weights:
        Optional non-uniform application mix (defaults to uniform).
    arrival:
        Optional :class:`~repro.workloads.arrival.ArrivalProcess` replacing
        the paper's uniform Azure-interval sampling.  ``None`` (default)
        uses :class:`~repro.workloads.arrival.AzureIntervalProcess` over the
        setting's interval range (pass one with ``burstiness > 0`` for the
        batch-scale rate drift).
    """

    applications: Sequence[Workflow]
    setting: WorkloadSetting
    profile_store: ProfileStore
    rng: np.random.Generator
    app_weights: Sequence[float] | None = None
    arrival: ArrivalProcess | None = None
    _base_latency_cache: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.applications) == 0:
            raise ValueError("at least one application is required")
        if self.app_weights is not None:
            if len(self.app_weights) != len(self.applications):
                raise ValueError(
                    "app_weights must have one weight per application "
                    f"({len(self.app_weights)} != {len(self.applications)})"
                )
            if any(w < 0 for w in self.app_weights):
                raise ValueError("app_weights must be non-negative")
            if sum(self.app_weights) <= 0:
                raise ValueError("app_weights must not all be zero")

    # ------------------------------------------------------------------
    # SLO derivation
    # ------------------------------------------------------------------
    def base_latency_ms(self, workflow: Workflow) -> float:
        """Minimum-configuration end-to-end latency ``L`` of ``workflow``."""
        if workflow.name not in self._base_latency_cache:
            self._base_latency_cache[workflow.name] = (
                self.profile_store.minimum_config_latency_ms(workflow.function_names())
            )
        return self._base_latency_cache[workflow.name]

    def slo_ms(self, workflow: Workflow) -> float:
        """SLO budget assigned to requests of ``workflow`` under this setting."""
        return self.setting.slo_ms(self.base_latency_ms(workflow))

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    @property
    def arrival_process(self) -> ArrivalProcess:
        """The effective arrival process (paper-default when none was given)."""
        if self.arrival is not None:
            return self.arrival
        return AzureIntervalProcess(self.setting.intervals)

    def stream(self, num_requests: int, *, start_ms: float = 0.0) -> CountRequestStream:
        """Lazy stream of ``num_requests`` requests.

        The stream draws its randomness at construction with exactly
        :meth:`generate`'s bulk RNG calls, so iterating it yields requests
        **byte-identical** to the materialized list (same ids, arrivals,
        application picks and SLOs) while holding only ~16 bytes per
        request (two compact numpy arrays) instead of the full object
        graphs.  ``Request`` objects are built one at a time as the
        simulator pulls them.
        """
        return CountRequestStream(self, num_requests, start_ms=start_ms)

    def stream_for_duration(
        self, duration_ms: float, *, start_ms: float = 0.0
    ) -> DurationRequestStream:
        """Lazy stream of every request arriving within ``duration_ms``.

        Exactness guarantee: the stream yields *every* arrival in
        ``(start_ms, start_ms + duration_ms]`` and nothing beyond — it keeps
        drawing until the arrival clock actually passes the bound, so even
        a bursty process whose realised short-term rate far exceeds its
        long-run mean is covered completely.  Memory is O(1): intervals and
        application picks are drawn per request.  A non-looping trace that
        runs out before the window is covered raises
        :class:`~repro.workloads.arrival.TraceExhaustedError` (mid-stream,
        at the exhausted pull).
        """
        return DurationRequestStream(self, duration_ms, start_ms=start_ms)

    def generate(self, num_requests: int, *, start_ms: float = 0.0) -> list[Request]:
        """Generate ``num_requests`` requests with increasing arrival times."""
        return self.stream(num_requests, start_ms=start_ms).materialize()

    def generate_for_duration(self, duration_ms: float, *, start_ms: float = 0.0) -> list[Request]:
        """Generate every request arriving within ``duration_ms``.

        Materializes :meth:`stream_for_duration`, inheriting its exactness
        guarantee: generation continues until the arrival clock actually
        exceeds ``start_ms + duration_ms``, so bursty processes
        (:class:`~repro.workloads.arrival.OnOffBurstProcess`,
        :class:`~repro.workloads.arrival.DiurnalProcess`) are never silently
        truncated the way the historical mean-rate estimate could be.  A
        non-looping trace that runs out before the window is covered raises
        :class:`~repro.workloads.arrival.TraceExhaustedError`.
        """
        return self.stream_for_duration(duration_ms, start_ms=start_ms).materialize()
