"""INFless-style scheduling (Yang et al., ASPLOS 2022), as described in
Section 4.2 of the ESG paper.

"InFless schedules jobs by enumerating the configurations for each function
without considering the inter-function relations.  In worker node selection,
a resource efficiency metric is used to maximize the throughput while
reducing resource fragmentation.  InFless provides no method for
distributing an application's SLO to its functions.  Our experiment follows
a prior work to do the distribution based on the average service times of
the functions."

The observed behaviour the paper attributes to INFless — very low stage
latencies at very high resource cost, because the scheduler happily grabs
large configurations to maximise throughput — emerges from the
throughput-maximising configuration choice implemented here.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.enumeration import EnumerationPolicy
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileEntry

__all__ = ["INFlessPolicy"]


class INFlessPolicy(EnumerationPolicy):
    """Per-function enumeration maximising throughput under a stage sub-SLO."""

    name = "INFless"

    def __init__(self, *, candidates: int = 3, resource_weight_vgpu: float = 2.0) -> None:
        """Create the policy.

        Parameters
        ----------
        candidates:
            How many alternative configurations to hand the controller (the
            best by the throughput metric first).
        resource_weight_vgpu:
            Relative weight of a vGPU versus a vCPU in the resource
            efficiency tie-breaker; finite and ``>= 0``.
        """
        super().__init__(candidates=candidates)
        if not 0.0 <= resource_weight_vgpu < float("inf"):
            raise ValueError(
                f"resource_weight_vgpu must be finite and >= 0, got {resource_weight_vgpu!r}"
            )
        self.resource_weight_vgpu = resource_weight_vgpu

    def rank_key(self, entry: ProfileEntry) -> tuple[float, ...]:
        """Highest throughput, then throughput per weighted resource unit,
        then the lowest per-job cost."""
        config = entry.config
        throughput = 1000.0 * config.batch_size / entry.latency_ms
        resources = config.vcpus + self.resource_weight_vgpu * config.vgpus
        return (-throughput, -(throughput / resources), entry.per_job_cost_cents)

    def fit_key(self, config: Configuration) -> Callable[[int, int], object]:
        """Best fit: the least stranded capacity, a vGPU weighing double."""
        shape = self.context.cluster.config
        total_vcpus = shape.vcpus_per_invoker
        total_vgpus = shape.vgpus_per_invoker
        return lambda cpu, gpu: (cpu - config.vcpus) / total_vcpus + 2.0 * (
            (gpu - config.vgpus) / total_vgpus
        )
