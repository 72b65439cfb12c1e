"""Lazy request streams: bounded-memory workload generation.

A :class:`RequestStream` is the simulator's only workload input: an
ordered iterator of ``(arrival_ms, Request)`` pairs that the simulator
pulls in chunks, so a million-request run never holds a million
:class:`~repro.workloads.request.Request` object graphs at once.  Three
concrete shapes exist:

* :class:`CountRequestStream` — a fixed number of requests.  Its random
  draws are two *bulk* calls (all arrival intervals, then all application
  picks), the same draws
  :meth:`~repro.workloads.generator.WorkloadGenerator.generate`
  materializes: the stream keeps only two compact numpy arrays (~16 bytes
  per request) and builds each ``Request`` on demand.
* :class:`DurationRequestStream` — every request whose arrival falls inside
  a simulated-time window.  Draws are *per request* (one interval, then one
  application pick), so the stream is O(1) in memory and — unlike the
  historical mean-rate estimate — **exact**: it ends only once the arrival
  clock actually passes the window, no matter how bursty the process is.
* :class:`ListRequestStream` — an explicit request list, replayed in
  arrival order.  The simulator wraps any ``Sequence[Request]`` in one.

Determinism contract: a stream is a pure function of its generator's RNG
state at construction.  Count streams consume the RNG at construction time
(two bulk draws); duration streams consume it while iterating — one
interval pull interleaved with one application pick per request, on the
same generator.  That interleaving is the duration stream's own
deterministic draw order: it does *not* reproduce a bare
``intervals(n, rng)`` sequence (only ``interval_stream`` in isolation
matches the bulk draws value-for-value; here the picks advance the RNG in
between).

Examples
--------
>>> from repro.utils.rng import derive_rng
>>> from repro.profiles.profiler import ProfileStore
>>> from repro.profiles.configuration import ConfigurationSpace
>>> from repro.workloads.applications import build_paper_applications
>>> from repro.workloads.generator import MODERATE_NORMAL, WorkloadGenerator
>>> store = ProfileStore.build(space=ConfigurationSpace.small())
>>> def fresh():
...     return WorkloadGenerator(
...         applications=build_paper_applications(),
...         setting=MODERATE_NORMAL,
...         profile_store=store,
...         rng=derive_rng(7, "stream-doctest"),
...     )
>>> lazy = [r.arrival_ms for _, r in fresh().stream(5)]
>>> eager = [r.arrival_ms for r in fresh().generate(5)]
>>> lazy == eager
True
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.utils.validation import ensure_positive, ensure_positive_int
from repro.workloads.arrival import TraceExhaustedError
from repro.workloads.dag import Workflow
from repro.workloads.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.workloads.generator import WorkloadGenerator

__all__ = [
    "RequestStream",
    "CountRequestStream",
    "DurationRequestStream",
    "ListRequestStream",
]


def _app_probs(generator: "WorkloadGenerator") -> np.ndarray | None:
    """Normalised application-pick probabilities (None = uniform)."""
    if generator.app_weights is None:
        return None
    weights = np.asarray(generator.app_weights, dtype=float)
    return weights / weights.sum()


class RequestStream(ABC):
    """An ordered, lazy stream of ``(arrival_ms, Request)`` pairs.

    Iterating yields requests in non-decreasing arrival order (generated
    streams number them 0, 1, 2, ...).  The simulator pulls one chunk of
    pairs at a time and the next chunk only once the last arrival of the
    previous one has fired, so the event queue and the workload layer stay
    small regardless of the total request count.  It rejects a stream
    whose arrivals go backwards.
    """

    @abstractmethod
    def __iter__(self) -> Iterator[tuple[float, Request]]:
        """Yield ``(arrival_ms, request)`` in non-decreasing arrival order."""

    @abstractmethod
    def workflows(self) -> dict[str, Workflow]:
        """The workflows this stream's requests will reference, keyed by
        application name.

        The simulator registers these (and warms the initial container
        pool) before the first arrival, in this order.  Count and list
        streams return precisely the applications that *will* appear, in
        first-appearance order.  Duration streams cannot know appearances
        without consuming the stream, so they declare every application
        their generator can pick (a positive weight in ``app_weights``),
        in the generator's order.
        """

    def iter_chunks(
        self, chunk_size: int
    ) -> Iterator[list[tuple[float, Request]]]:
        """Yield the stream's pairs in lists of up to ``chunk_size``.

        The simulator pulls arrivals through this instead of one
        ``next()`` per request, amortising the generator re-entry cost.
        The pairs and their order are exactly those of :meth:`__iter__`;
        only the last chunk may be short.  Subclasses may override with a
        tighter loop, but must preserve pair-for-pair equality.
        """
        ensure_positive_int(chunk_size, "chunk_size")
        source = iter(self)
        while True:
            chunk = list(itertools.islice(source, chunk_size))
            if not chunk:
                return
            yield chunk

    def materialize(self) -> list[Request]:
        """Consume the stream into a plain request list."""
        return [request for _, request in self]


class CountRequestStream(RequestStream):
    """Lazy stream of a fixed number of requests.

    The arrival timestamps and application picks are drawn at construction
    with two bulk RNG calls and retained as compact numpy arrays (one
    float64 and one int64 per request).  ``Request`` objects are built only as the
    stream is iterated, and a fresh iteration builds fresh objects, so one
    stream can drive several runs of the *same* workload (requests carry
    mutable runtime state and must never be shared across runs).
    """

    def __init__(
        self,
        generator: "WorkloadGenerator",
        num_requests: int,
        *,
        start_ms: float = 0.0,
    ) -> None:
        ensure_positive_int(num_requests, "num_requests")
        self._generator = generator
        # All intervals, then all picks.
        self._arrivals = generator.arrival_process.arrival_times(
            num_requests, generator.rng, start_ms=start_ms
        )
        self._app_indices = generator.rng.choice(
            len(generator.applications), size=num_requests, p=_app_probs(generator)
        )

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[tuple[float, Request]]:
        generator = self._generator
        applications = generator.applications
        for req_id in range(len(self._arrivals)):
            workflow = applications[int(self._app_indices[req_id])]
            arrival = float(self._arrivals[req_id])
            yield arrival, Request(
                request_id=req_id,
                workflow=workflow,
                arrival_ms=arrival,
                slo_ms=generator.slo_ms(workflow),
            )

    def iter_chunks(
        self, chunk_size: int
    ) -> Iterator[list[tuple[float, Request]]]:
        """Chunked iteration over the pre-drawn arrays, bypassing the
        generator protocol of :meth:`__iter__` (no frame suspension per
        request).  Pair-for-pair identical to ``__iter__`` — same array
        reads, same ``slo_ms`` call order.
        """
        ensure_positive_int(chunk_size, "chunk_size")
        generator = self._generator
        applications = generator.applications
        arrivals = self._arrivals
        indices = self._app_indices
        total = len(arrivals)
        for start in range(0, total, chunk_size):
            chunk: list[tuple[float, Request]] = []
            for req_id in range(start, min(start + chunk_size, total)):
                workflow = applications[int(indices[req_id])]
                arrival = float(arrivals[req_id])
                chunk.append(
                    (
                        arrival,
                        Request(
                            request_id=req_id,
                            workflow=workflow,
                            arrival_ms=arrival,
                            slo_ms=generator.slo_ms(workflow),
                        ),
                    )
                )
            yield chunk

    def workflows(self) -> dict[str, Workflow]:
        # First-appearance order of the app indices.
        _, first_index = np.unique(self._app_indices, return_index=True)
        workflows: dict[str, Workflow] = {}
        for position in np.sort(first_index):
            workflow = self._generator.applications[int(self._app_indices[position])]
            workflows.setdefault(workflow.name, workflow)
        return workflows


class DurationRequestStream(RequestStream):
    """Lazy stream of every request arriving within a simulated-time window.

    Yields each request whose arrival falls in ``(start_ms, start_ms +
    duration_ms]`` and stops as soon as the next drawn arrival would exceed
    the bound — the *exact* duration guarantee that replaces the old
    mean-rate-times-1.3 estimate (which silently under-generated for bursty
    processes whose realised short-term rate beats their long-run mean).
    Randomness is drawn per request (one interval via
    :meth:`~repro.workloads.arrival.ArrivalProcess.interval_stream`, then
    one application pick), so memory stays O(1) in the stream length.

    The stream is single-shot: it consumes its generator's RNG while
    iterating, so a second iteration would continue the RNG stream and
    silently produce a different workload — it raises instead.

    Raises
    ------
    TraceExhaustedError
        If the arrival process runs out (a non-looping trace) before the
        arrival clock covers the window.
    """

    def __init__(
        self,
        generator: "WorkloadGenerator",
        duration_ms: float,
        *,
        start_ms: float = 0.0,
    ) -> None:
        ensure_positive(duration_ms, "duration_ms")
        self._generator = generator
        self._duration_ms = duration_ms
        self._start_ms = start_ms
        self._consumed = False

    def __iter__(self) -> Iterator[tuple[float, Request]]:
        if self._consumed:
            raise RuntimeError(
                "this DurationRequestStream was already iterated; it draws "
                "from its generator's RNG lazily, so re-iterating would "
                "produce a different workload — build a fresh stream instead"
            )
        self._consumed = True
        generator = self._generator
        rng = generator.rng
        applications = generator.applications
        probs = _app_probs(generator)
        intervals = generator.arrival_process.interval_stream(rng)
        bound = self._start_ms + self._duration_ms
        clock = self._start_ms
        req_id = 0
        while True:
            try:
                clock += next(intervals)
            except StopIteration:
                raise TraceExhaustedError(
                    f"arrival process exhausted at {clock:.3f} ms, before "
                    f"covering the requested window of {self._duration_ms} ms "
                    f"from {self._start_ms} ms; use a looping trace or a "
                    f"shorter duration"
                ) from None
            if clock > bound:
                return
            app_idx = int(rng.choice(len(applications), p=probs))
            workflow = applications[app_idx]
            yield clock, Request(
                request_id=req_id,
                workflow=workflow,
                arrival_ms=clock,
                slo_ms=generator.slo_ms(workflow),
            )
            req_id += 1

    def workflows(self) -> dict[str, Workflow]:
        # Which applications appear is unknown until the stream is consumed,
        # so a duration-streamed run declares (and warms) every application
        # the generator can pick; a zero-weight one can never arrive.
        generator = self._generator
        weights = generator.app_weights
        workflows: dict[str, Workflow] = {}
        for index, workflow in enumerate(generator.applications):
            if weights is None or weights[index] > 0:
                workflows.setdefault(workflow.name, workflow)
        return workflows


class ListRequestStream(RequestStream):
    """An explicit request list replayed as a stream.

    The requests are stable-sorted by ``arrival_ms`` once, at construction:
    a list given out of order still arrives in time order, and requests
    with equal arrival times keep the list's order.  :meth:`workflows`
    reports the applications in the list's own first-appearance order.
    Iterating yields the list's request objects themselves, so a list
    drives one run only (requests carry mutable runtime state).
    """

    def __init__(self, requests: Sequence[Request]) -> None:
        self._workflows: dict[str, Workflow] = {}
        for request in requests:
            self._workflows.setdefault(request.app_name, request.workflow)
        self._requests = sorted(requests, key=attrgetter("arrival_ms"))

    def __iter__(self) -> Iterator[tuple[float, Request]]:
        for request in self._requests:
            yield request.arrival_ms, request

    def workflows(self) -> dict[str, Workflow]:
        return dict(self._workflows)
