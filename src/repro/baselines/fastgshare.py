"""FaST-GShare-style scheduling (Gu et al., 2023), as described in
Section 4.2 of the ESG paper.

"This work uses FaST-Manager to manage spatio-temporal resources for GPU
multiplexing.  It also employs an enumeration-based scheduling algorithm
which enumerates the configurations based on throughput performance metrics.
Its node selection tries to minimize GPU resource fragmentation.  It offers
no method for distributing an application's SLO either."

Compared with INFless, FaST-GShare squeezes more sharing out of each GPU
(its metric is throughput *per vGPU*), which keeps its cost lower but makes
its stages slower — the behaviour Figure 7 shows as the highest latencies
with frequent spikes.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.enumeration import EnumerationPolicy
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileEntry

__all__ = ["FaSTGSharePolicy"]


class FaSTGSharePolicy(EnumerationPolicy):
    """Per-function enumeration maximising throughput per vGPU."""

    name = "FaST-GShare"

    def rank_key(self, entry: ProfileEntry) -> tuple[float, ...]:
        """Highest throughput per vGPU (the best GPU multiplexing), then the
        lowest per-job cost, then the lowest latency."""
        throughput = 1000.0 * entry.config.batch_size / entry.latency_ms
        return (-(throughput / entry.config.vgpus), entry.per_job_cost_cents, entry.latency_ms)

    def fit_key(self, config: Configuration) -> Callable[[int, int], object]:
        """Pack the GPU as tightly as possible (fewest leftover vGPUs)."""
        return lambda cpu, gpu: (gpu - config.vgpus, cpu - config.vcpus)
