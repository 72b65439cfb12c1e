"""Host-speed sampling: scale a simulation's run time to a nominal host.

On a shared machine the same simulation can take 1.6x longer from one
minute to the next, and the speed also swings within seconds, because
neighbours contend for the core and its caches.  Process CPU time moves
with wall time, so it does not help.  A small fixed pure-Python kernel
slows down with the simulator, though.  A :class:`Sampler` hooks a
simulation's progress and times the kernel every :data:`SAMPLE_EVERY_S`
of run time, so each slice of the run is paired with the host speed at
its end; :meth:`Sampler.scaled_s` is the run time on a nominal host on
which the kernel takes :data:`NOMINAL_S`.

The simulator waits on memory more than the kernel does, so it slows down
less than one to one.  Fitting ``log(run time) = c + e * log(kernel
time)`` over repeated simulations of fixed inputs on a 2-vCPU Xeon 2.1 GHz
VM gave an elasticity ``e`` of about 0.8 on ``single-stage`` and 0.9-1.0
on ``paper-dag``; :data:`ELASTICITY` lies between.  Sampled and scaled
that way, one simulation's time spread by 6-10% of its median over ~20
repeats, against 9-25% unscaled and 9-24% when scaled by a kernel timed
only before and after the run.

The kernel does the kind of work the simulator does (heap pushes and pops
of tuples, dict updates, small-object attribute access) and never touches
the ``repro`` package, so a change to the simulator cannot change it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Kernel time on the nominal host; about its median on the VM above.
NOMINAL_S = 0.025

#: How much of a change in kernel time shows in the simulator's time, as
#: an exponent (see the module docstring).
ELASTICITY = 0.85

#: The same for set-up (import, profile and stream build), fitted the same
#: way over ~20 interpreters per workload: 0.35-0.5.  Scaled with it, set-up
#: time spread by 9-15% of its median, against 17-25% unscaled.
SETUP_ELASTICITY = 0.45

#: Run time between two kernel samples.
SAMPLE_EVERY_S = 0.25

#: Events between two looks at the clock; small, because one event of the
#: ESG search can take milliseconds.
CHECK_EVERY_EVENTS = 20

_STEPS = 20_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def kernel() -> int:
    """The reference work; returns a checksum so nothing is optimised away."""
    heap: list[tuple[int, int, _Item]] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(_STEPS):
        item = _Item(i % 977, i * 7 % 1013)
        heapq.heappush(heap, (item.value, i, item))
        table[item.key] = table.get(item.key, 0) + item.value
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].key
    return total + len(table)


#: The kernel's checksum; a different value means the kernel changed.
CHECKSUM = 9_608_052


def kernel_s() -> float:
    """Host seconds of one kernel run.

    The cyclic garbage collector is off meanwhile, so the kernel never
    times a collection, which walks the simulation's live objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {checksum}, expected {CHECKSUM}")
    return elapsed


def scaled(host_s: float, kernel_s: float, elasticity: float) -> float:
    """``host_s`` on the nominal host, given the kernel time beside it."""
    return host_s * (NOMINAL_S / kernel_s) ** elasticity


class Sampler:
    """Splits one run into slices, each paired with the kernel time at its end.

    Call :meth:`attach` before the run, :meth:`start` right before
    ``run()`` and :meth:`finish` right after it.  Kernel time is left out
    of every slice.
    """

    def __init__(self) -> None:
        #: ``(host seconds, kernel seconds)`` of each slice.
        self.slices: list[tuple[float, float]] = []
        self._mark = 0.0

    def attach(self, simulation) -> None:
        simulation.on_progress(self._check, every_events=CHECK_EVERY_EVENTS)

    def start(self) -> None:
        self._mark = time.perf_counter()

    def _check(self, simulation) -> None:
        now = time.perf_counter()
        if now - self._mark >= SAMPLE_EVERY_S:
            self._close(now)

    def _close(self, now: float) -> None:
        self.slices.append((now - self._mark, kernel_s()))
        self._mark = time.perf_counter()

    def finish(self) -> None:
        self._close(time.perf_counter())

    def host_s(self) -> float:
        """Run time on this host, kernel time left out."""
        return sum(host_s for host_s, _ in self.slices)

    def kernel_mean_s(self) -> float:
        return sum(kernel_s for _, kernel_s in self.slices) / len(self.slices)

    def scaled_s(self) -> float:
        """Run time on the nominal host."""
        return sum(scaled(host_s, kernel_s, ELASTICITY) for host_s, kernel_s in self.slices)
