"""Precomputed per-function performance profiles.

The controller in the paper estimates path times and costs "with performance
profiles of the functions".  A :class:`FunctionProfile` is that table: for
every configuration in a :class:`ConfigurationSpace` it stores the predicted
latency, the task cost and the per-job cost.  A :class:`ProfileStore` bundles
the profiles of all functions an experiment uses and is handed to every
scheduling policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.profiles.configuration import Configuration, ConfigurationSpace
from repro.profiles.perf_model import AnalyticalPerformanceModel, PerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.specs import FUNCTION_SPECS, FunctionSpec, get_function_spec

__all__ = ["ProfileEntry", "FunctionProfile", "ProfileStore"]


@dataclass(frozen=True)
class ProfileEntry:
    """Predicted behaviour of one function under one configuration."""

    config: Configuration
    latency_ms: float
    task_cost_cents: float
    per_job_cost_cents: float

    def __post_init__(self) -> None:
        # Non-finite values are rejected explicitly: NaN fails every
        # comparison, so ``<= 0`` alone would let it through, and the
        # search's bisection and cost jumps rely on ordered, finite values.
        if not (math.isfinite(self.latency_ms) and self.latency_ms > 0):
            raise ValueError(f"latency_ms must be positive and finite, got {self.latency_ms!r}")
        for name in ("task_cost_cents", "per_job_cost_cents"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


@dataclass
class FunctionProfile:
    """All profile entries of one function, with fast lookups.

    Entries are stored twice: as a mapping keyed by configuration (for O(1)
    lookup during simulation) and as a list sorted by increasing latency
    (ESG_1Q consumes ``ConfigLists[j]`` "sorted in increasing latency").
    """

    spec: FunctionSpec
    entries: dict[Configuration, ProfileEntry]
    _by_latency: tuple[ProfileEntry, ...] = field(init=False, repr=False)
    _by_cost: tuple[ProfileEntry, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a FunctionProfile needs at least one entry")
        ordered = tuple(sorted(self.entries.values(), key=lambda e: (e.latency_ms, e.per_job_cost_cents)))
        by_cost = tuple(sorted(self.entries.values(), key=lambda e: (e.per_job_cost_cents, e.latency_ms)))
        self._by_latency = ordered
        self._by_cost = by_cost

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def entry(self, config: Configuration) -> ProfileEntry:
        """Return the entry for ``config`` (KeyError if not profiled)."""
        try:
            return self.entries[config]
        except KeyError:
            raise KeyError(
                f"configuration {config} is not profiled for function {self.spec.name!r}"
            ) from None

    def latency_ms(self, config: Configuration) -> float:
        """Predicted latency of ``config``."""
        return self.entry(config).latency_ms

    def per_job_cost_cents(self, config: Configuration) -> float:
        """Predicted per-job cost of ``config``."""
        return self.entry(config).per_job_cost_cents

    def __contains__(self, config: Configuration) -> bool:
        return config in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Ordered views used by the schedulers
    # ------------------------------------------------------------------
    def sorted_by_latency(self, *, max_batch: int | None = None) -> tuple[ProfileEntry, ...]:
        """Entries sorted by increasing latency, optionally capping the batch.

        ``max_batch`` reflects the number of jobs currently in the queue: a
        batch larger than the queue cannot be formed right now.
        """
        if max_batch is None:
            return self._by_latency
        return tuple(e for e in self._by_latency if e.config.batch_size <= max_batch)

    def sorted_by_cost(self, *, max_batch: int | None = None) -> tuple[ProfileEntry, ...]:
        """Entries sorted by increasing per-job cost."""
        if max_batch is None:
            return self._by_cost
        return tuple(e for e in self._by_cost if e.config.batch_size <= max_batch)

    # ------------------------------------------------------------------
    # Extremes used for pruning bounds
    # ------------------------------------------------------------------
    @property
    def min_latency_ms(self) -> float:
        """Smallest latency over all configurations (used by ``tLow``)."""
        return self._by_latency[0].latency_ms

    @property
    def min_per_job_cost_cents(self) -> float:
        """Smallest per-job cost over all configurations (used by ``rscLow``)."""
        return self._by_cost[0].per_job_cost_cents

    @property
    def fastest_entry(self) -> ProfileEntry:
        """The entry with the smallest latency (used by ``rscFastest``)."""
        return self._by_latency[0]

    @property
    def cheapest_entry(self) -> ProfileEntry:
        """The entry with the smallest per-job cost."""
        return self._by_cost[0]

    def base_latency_ms(self, minimum: Configuration) -> float:
        """Latency under the minimum configuration (defines the SLO scale L)."""
        return self.latency_ms(minimum)


@dataclass
class ProfileStore:
    """Profiles for a set of functions under one configuration space."""

    space: ConfigurationSpace
    pricing: PricingModel
    profiles: dict[str, FunctionProfile]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        function_names: Iterable[str] | None = None,
        *,
        space: ConfigurationSpace | None = None,
        perf_model: PerformanceModel | None = None,
        pricing: PricingModel | None = None,
        specs: Mapping[str, FunctionSpec] | None = None,
    ) -> "ProfileStore":
        """Profile every function in ``function_names`` over ``space``.

        Parameters
        ----------
        function_names:
            Functions to profile; defaults to all registered functions.
        space:
            Configuration space; defaults to :class:`ConfigurationSpace`'s
            default options.
        perf_model:
            Latency model; defaults to :class:`AnalyticalPerformanceModel`.
        pricing:
            Pricing model; defaults to the paper's AWS-derived prices.
        specs:
            Optional explicit spec mapping (overrides the global registry),
            used by tests and custom-application examples.
        """
        space = space or ConfigurationSpace()
        perf_model = perf_model or AnalyticalPerformanceModel()
        pricing = pricing or PricingModel()
        if specs is None:
            specs = FUNCTION_SPECS
        if function_names is None:
            function_names = sorted(specs)

        profiles: dict[str, FunctionProfile] = {}
        for name in function_names:
            spec = specs[name] if name in specs else get_function_spec(name)
            entries: dict[Configuration, ProfileEntry] = {}
            for config in space:
                latency = perf_model.latency_ms(spec, config)
                task_cost = pricing.task_cost_cents(config, latency)
                entries[config] = ProfileEntry(
                    config=config,
                    latency_ms=latency,
                    task_cost_cents=task_cost,
                    per_job_cost_cents=task_cost / config.batch_size,
                )
            profiles[name] = FunctionProfile(spec=spec, entries=entries)
        return cls(space=space, pricing=pricing, profiles=profiles)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def profile(self, function_name: str) -> FunctionProfile:
        """Return the profile of ``function_name`` (KeyError if missing)."""
        try:
            return self.profiles[function_name]
        except KeyError:
            available = ", ".join(sorted(self.profiles))
            raise KeyError(
                f"no profile for function {function_name!r}; available: {available}"
            ) from None

    def __contains__(self, function_name: str) -> bool:
        return function_name in self.profiles

    def function_names(self) -> list[str]:
        """Names of all profiled functions (sorted)."""
        return sorted(self.profiles)

    # ------------------------------------------------------------------
    # SLO helpers
    # ------------------------------------------------------------------
    def minimum_config_latency_ms(self, function_names: Iterable[str]) -> float:
        """Sum of minimum-configuration latencies along a function sequence.

        This is the paper's ``L``: "the time needed by the application to
        complete its entire workflow when it runs alone with the minimum
        configuration", from which the strict/moderate/relaxed SLOs are
        derived as 0.8 L / 1.0 L / 1.2 L.
        """
        minimum = self.space.minimum
        return sum(self.profile(name).latency_ms(minimum) for name in function_names)
