"""Analytic performance model for DNN inference functions.

The paper drives its emulation from measured latencies of every function in
every configuration ("The emulations are based on actual performance of the
serverless functions measured on actual machines in various configurations
(batch size, CPU and GPU resource allocations)"), plus Gaussian noise to
model runtime variation.  Only the minimum-configuration latency is
published (Table 3), so this module extends it over the configuration cube
with well-established scaling behaviour of GPU inference serving:

* **Batching** is sub-linear: a batch of ``n`` items costs
  ``t1 * (f_b + (1 - f_b) * n)`` GPU-time where ``f_b`` is the
  fixed-overhead fraction (kernel launch, weight reads).  Larger batches are
  slower per invocation but cheaper per job — the speed/cost tension ESG
  navigates.
* **Multiple vGPUs** accelerate the GPU work (larger MIG share / concurrent
  kernels over the batch) with Amdahl-style diminishing returns
  (``gpu_parallel_fraction``), so richer GPU allocations are faster but
  cost more per job.
* **vCPUs** accelerate the pre/post-processing share of the function
  following Amdahl's law with a parallelisable fraction ``cpu_parallel``.

The model is deliberately simple and fully documented so its assumptions can
be audited; every scheduler (ESG and baselines) sees the *same* model, so
relative comparisons — the thing the paper's evaluation is about — do not
hinge on its absolute accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.profiles.configuration import Configuration
from repro.profiles.specs import FunctionSpec
from repro.utils.validation import ensure_in_range, ensure_non_negative

__all__ = [
    "PerformanceModel",
    "AnalyticalPerformanceModel",
    "NoisyPerformanceModel",
    "NOISE_BUFFER",
]

#: Block size of the noise draws (see ``NoisyPerformanceModel``).
NOISE_BUFFER = 1024


class PerformanceModel:
    """Interface: map ``(function, configuration)`` to an execution latency."""

    def latency_ms(self, spec: FunctionSpec, config: Configuration) -> float:
        """Return the execution latency of one invocation, in milliseconds."""
        raise NotImplementedError

    def throughput_jobs_per_s(self, spec: FunctionSpec, config: Configuration) -> float:
        """Jobs per second this configuration sustains (batch / latency)."""
        latency = self.latency_ms(spec, config)
        return 1000.0 * config.batch_size / latency


@dataclass(frozen=True)
class AnalyticalPerformanceModel(PerformanceModel):
    """Deterministic latency model anchored at the Table 3 measurements.

    Parameters
    ----------
    batch_overhead_fraction:
        ``f_b`` above: fraction of the single-item GPU time that is fixed
        overhead independent of the batch content.
    gpu_parallel_fraction:
        Amdahl parallel fraction of the GPU work with respect to the number
        of vGPUs (larger MIG share / concurrent per-item kernels).
    cpu_parallel_fraction:
        Amdahl parallel fraction of the CPU part with respect to vCPUs.
    cpu_batch_fraction:
        Fraction of the CPU part that is per-batch (amortised) rather than
        per-item.
    """

    batch_overhead_fraction: float = 0.45
    gpu_parallel_fraction: float = 0.90
    cpu_parallel_fraction: float = 0.85
    cpu_batch_fraction: float = 0.30

    def __post_init__(self) -> None:
        ensure_in_range(self.batch_overhead_fraction, 0.0, 1.0, "batch_overhead_fraction")
        ensure_in_range(self.gpu_parallel_fraction, 0.0, 1.0, "gpu_parallel_fraction")
        ensure_in_range(self.cpu_parallel_fraction, 0.0, 1.0, "cpu_parallel_fraction")
        ensure_in_range(self.cpu_batch_fraction, 0.0, 1.0, "cpu_batch_fraction")

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def vgpu_speedup(self, vgpus: int) -> float:
        """Speedup of the GPU work when ``vgpus`` MIG slices are assigned."""
        p = self.gpu_parallel_fraction
        return 1.0 / ((1.0 - p) + p / vgpus)

    def gpu_time_ms(self, spec: FunctionSpec, config: Configuration) -> float:
        """GPU portion of the latency.

        The batch's GPU work grows sub-linearly with the batch size (fixed
        overhead ``f_b``) and is accelerated by additional vGPUs with
        Amdahl-style diminishing returns: the function launches concurrent
        kernels across its MIG slices (Section 3.2 of the paper), so a
        larger GPU share finishes the same batch faster but never perfectly
        linearly.
        """
        f_b = self.batch_overhead_fraction
        work = spec.gpu_ms * (f_b + (1.0 - f_b) * config.batch_size)
        return work / self.vgpu_speedup(config.vgpus)

    def cpu_time_ms(self, spec: FunctionSpec, config: Configuration) -> float:
        """CPU portion of the latency (pre/post-processing).

        Scales with the batch (partially amortised) and shrinks with more
        vCPUs following Amdahl's law.
        """
        f_c = self.cpu_batch_fraction
        work = spec.cpu_ms * (f_c + (1.0 - f_c) * config.batch_size)
        p = self.cpu_parallel_fraction
        speedup = 1.0 / ((1.0 - p) + p / config.vcpus)
        return work / speedup

    # ------------------------------------------------------------------
    # PerformanceModel interface
    # ------------------------------------------------------------------
    def latency_ms(self, spec: FunctionSpec, config: Configuration) -> float:
        """Total execution latency of one (possibly batched) invocation."""
        return self.cpu_time_ms(spec, config) + self.gpu_time_ms(spec, config)


@dataclass
class NoisyPerformanceModel(PerformanceModel):
    """Wraps a deterministic model with multiplicative Gaussian noise.

    The paper: "To accommodate the impact of other runtime factors on the
    performance, the emulations add Gaussian noises to the performance."

    Parameters
    ----------
    base:
        The deterministic model supplying the mean latency.
    rng:
        Random generator for the noise stream.
    sigma:
        Standard deviation of the multiplicative noise (fraction of the mean
        latency).
    floor_fraction:
        Lower clamp expressed as a fraction of the mean latency, so noise can
        never produce non-positive or absurdly small latencies.

    Noise factors are drawn from ``rng`` in blocks of :data:`NOISE_BUFFER`
    and mean latencies are memoized per ``(spec, config)``.  A block draw
    (``rng.normal(0.0, sigma, size=n)``) consumes the generator's stream
    exactly like ``n`` scalar draws, so the samples equal one scalar draw
    per call as long as ``rng`` is dedicated to this model (over-drawing
    past the last sample is then invisible).
    """

    base: PerformanceModel
    rng: np.random.Generator
    sigma: float = 0.05
    floor_fraction: float = 0.5
    _draws: int = field(default=0, repr=False)
    _noise_buf: np.ndarray | None = field(default=None, repr=False)
    _noise_pos: int = field(default=0, repr=False)
    _mean_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        ensure_non_negative(self.sigma, "sigma")
        ensure_in_range(self.floor_fraction, 0.0, 1.0, "floor_fraction")

    def mean_latency_ms(self, spec: FunctionSpec, config: Configuration) -> float:
        """Latency without noise (what the scheduler's profile predicts)."""
        return self.base.latency_ms(spec, config)

    def latency_ms(self, spec: FunctionSpec, config: Configuration) -> float:
        """One noisy sample of the latency."""
        key = (spec, config)
        mean = self._mean_cache.get(key)
        if mean is None:
            mean = self.base.latency_ms(spec, config)
            self._mean_cache[key] = mean
        if self.sigma == 0.0:
            return mean
        buf = self._noise_buf
        if buf is None or self._noise_pos >= len(buf):
            buf = self.rng.normal(0.0, self.sigma, size=NOISE_BUFFER)
            self._noise_buf = buf
            self._noise_pos = 0
        factor = 1.0 + float(buf[self._noise_pos])
        self._noise_pos += 1
        self._draws += 1
        return max(self.floor_fraction * mean, mean * factor)

    @property
    def draws(self) -> int:
        """Number of noisy samples generated (useful in tests)."""
        return self._draws
