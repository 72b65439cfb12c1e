"""The serverless-function configuration model.

A *configuration* is the triple the ESG paper schedules over:

``(batch size, #vCPUs, #vGPUs)``

* **batch size** — how many queued jobs (invocations) are grouped into one
  task and processed by a single function invocation;
* **#vCPUs** — CPU resource units assigned to the container (memory is
  implicitly tied to vCPUs as on commercial platforms);
* **#vGPUs** — GPU resource units, where one vGPU is the minimum MIG
  partition of the shared GPU (up to 7 on an A100).

A :class:`ConfigurationSpace` enumerates the options available per function
and is shared by the ESG search, the baselines and the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.utils.validation import ensure_positive_int

__all__ = ["Configuration", "ConfigurationSpace"]


@dataclass(frozen=True, order=True)
class Configuration:
    """One resource assignment for one serverless function invocation."""

    batch_size: int
    vcpus: int
    vgpus: int

    def __post_init__(self) -> None:
        ensure_positive_int(self.batch_size, "batch_size")
        ensure_positive_int(self.vcpus, "vcpus")
        ensure_positive_int(self.vgpus, "vgpus")

    def with_batch(self, batch_size: int) -> "Configuration":
        """Return a copy with a different batch size (used when clipping)."""
        return Configuration(batch_size=batch_size, vcpus=self.vcpus, vgpus=self.vgpus)

    def as_tuple(self) -> tuple[int, int, int]:
        """Return ``(batch_size, vcpus, vgpus)``."""
        return (self.batch_size, self.vcpus, self.vgpus)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(b={self.batch_size}, c={self.vcpus}, g={self.vgpus})"


#: Default option lists.  16 vCPUs and 7 vGPUs match the testbed node in
#: Table 2 of the paper; batch sizes follow the powers of two the paper uses
#: in its examples (Figure 3 shows batch sizes up to 8).
DEFAULT_BATCH_OPTIONS: tuple[int, ...] = (1, 2, 4, 8)
DEFAULT_VCPU_OPTIONS: tuple[int, ...] = (1, 2, 4, 8, 16)
DEFAULT_VGPU_OPTIONS: tuple[int, ...] = (1, 2, 4, 7)


@dataclass(frozen=True)
class ConfigurationSpace:
    """The set of configurations a single function may be assigned.

    The full scheduling space of an application is the Cartesian product of
    the per-function spaces; with ``m`` options per function and ``k``
    functions it has ``m**k`` paths, which is exactly the explosion ESG's
    pruning attacks.
    """

    batch_options: tuple[int, ...] = DEFAULT_BATCH_OPTIONS
    vcpu_options: tuple[int, ...] = DEFAULT_VCPU_OPTIONS
    vgpu_options: tuple[int, ...] = DEFAULT_VGPU_OPTIONS
    _configs: tuple[Configuration, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, options in (
            ("batch_options", self.batch_options),
            ("vcpu_options", self.vcpu_options),
            ("vgpu_options", self.vgpu_options),
        ):
            if len(options) == 0:
                raise ValueError(f"{name} must not be empty")
            if any(o <= 0 for o in options):
                raise ValueError(f"{name} must contain positive integers, got {options}")
            if len(set(options)) != len(options):
                raise ValueError(f"{name} must not contain duplicates, got {options}")
        configs = tuple(
            Configuration(batch_size=b, vcpus=c, vgpus=g)
            for b in sorted(self.batch_options)
            for c in sorted(self.vcpu_options)
            for g in sorted(self.vgpu_options)
        )
        object.__setattr__(self, "batch_options", tuple(sorted(self.batch_options)))
        object.__setattr__(self, "vcpu_options", tuple(sorted(self.vcpu_options)))
        object.__setattr__(self, "vgpu_options", tuple(sorted(self.vgpu_options)))
        object.__setattr__(self, "_configs", configs)

    # ------------------------------------------------------------------
    # Enumeration helpers
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of configurations per function (``m`` in the paper)."""
        return len(self._configs)

    def configurations(self) -> tuple[Configuration, ...]:
        """Return every configuration (sorted by batch, vcpus, vgpus)."""
        return self._configs

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, config: Configuration) -> bool:
        return (
            config.batch_size in self.batch_options
            and config.vcpus in self.vcpu_options
            and config.vgpus in self.vgpu_options
        )

    # ------------------------------------------------------------------
    # Commonly used corner points
    # ------------------------------------------------------------------
    @property
    def minimum(self) -> Configuration:
        """The minimum configuration (smallest batch, vCPUs and vGPUs).

        The paper uses this configuration to define the baseline latency
        ``L`` from which SLOs are derived, and as the forced fallback when a
        queue has waited too long in the recheck list.  It is the first
        entry of the product, which is built from the sorted options.
        """
        return self._configs[0]

    @property
    def maximum(self) -> Configuration:
        """The maximum configuration (largest batch, vCPUs and vGPUs)."""
        return Configuration(
            batch_size=self.batch_options[-1],
            vcpus=self.vcpu_options[-1],
            vgpus=self.vgpu_options[-1],
        )

    def restrict_batch(self, max_batch: int) -> "ConfigurationSpace":
        """Return a space whose batch options are capped at ``max_batch``.

        Used when a queue holds fewer jobs than the largest batch option: a
        configuration whose batch exceeds the queue length cannot be formed.
        At least the smallest batch option is always retained.
        """
        ensure_positive_int(max_batch, "max_batch")
        kept = tuple(b for b in self.batch_options if b <= max_batch)
        if not kept:
            kept = (self.batch_options[0],)
        return ConfigurationSpace(
            batch_options=kept,
            vcpu_options=self.vcpu_options,
            vgpu_options=self.vgpu_options,
        )

    @classmethod
    def paper_256(cls) -> "ConfigurationSpace":
        """A 256-configurations-per-function space.

        Section 5.3/5.4 of the paper quotes search times "in the case where
        each function has 256 configurations"; this constructor builds a
        4 x 8 x 8 space of that size for the overhead experiments.
        """
        return cls(
            batch_options=(1, 2, 4, 8),
            vcpu_options=(1, 2, 3, 4, 6, 8, 12, 16),
            vgpu_options=(1, 2, 3, 4, 5, 6, 7, 8),
        )

    @classmethod
    def small(cls) -> "ConfigurationSpace":
        """A compact space used in unit tests and quick examples."""
        return cls(
            batch_options=(1, 2, 4),
            vcpu_options=(1, 2, 4),
            vgpu_options=(1, 2),
        )


def product_space_size(space: ConfigurationSpace, num_functions: int) -> int:
    """Return the size of the joint configuration space ``m**k``.

    Convenience used in documentation/examples to illustrate the explosion
    the paper describes (Section 1: 5 options, 7 functions -> 78K without
    GPU sharing, 476 trillion with the three-dimensional configuration).
    """
    ensure_positive_int(num_functions, "num_functions")
    return space.size**num_functions


__all__.append("product_space_size")
__all__.append("DEFAULT_BATCH_OPTIONS")
__all__.append("DEFAULT_VCPU_OPTIONS")
__all__.append("DEFAULT_VGPU_OPTIONS")
