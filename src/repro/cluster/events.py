"""Event types for the discrete-event simulation.

Dispatch is polymorphic: every concrete event implements :meth:`Event.apply`,
which receives the :class:`~repro.cluster.simulator.Simulation` and performs
the state transition by calling the owner of that state (the controller,
a container).  The simulator calls ``event.apply(simulation)`` for every
event it pops, so a new scenario type only has to subclass :class:`Event`
and implement ``apply`` — no ``isinstance`` chain to extend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from repro.cluster.container import Container
from repro.cluster.tasks import Task
from repro.workloads.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.cluster.simulator import Simulation

__all__ = [
    "Event",
    "RequestArrivalEvent",
    "TaskCompletionEvent",
    "SchedulerTickEvent",
    "PrewarmCompleteEvent",
    "InvokerJoinEvent",
    "InvokerLeaveEvent",
    "InvokerResizeEvent",
]


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: something that happens at an absolute simulation time.

    Events are slotted and carry no per-instance ``__post_init__``: millions
    of them are created per large run, so the ``time_ms >= 0`` invariant is
    enforced once at the scheduling boundary (``EventLoop.push``) instead of
    per construction.  Subclasses defined outside this module may omit
    ``slots=True``; they simply keep a ``__dict__``.
    """

    #: Housekeeping events (the churn schedule's join/leave/resize events)
    #: never keep a run alive on their own: the simulator drains them only
    #: while productive events remain, and they are invisible to the
    #: horizon check, so churn stops when the workload does.
    housekeeping: ClassVar[bool] = False

    #: Tie-break rank among events scheduled for the same instant (lower
    #: pops first; push order breaks remaining ties).  Request arrivals rank
    #: ahead of everything else: the simulator pushes them in chunks
    #: mid-run, as the previous chunk's last arrival fires, and the rank
    #: makes the pop sequence the one an upfront push of every arrival
    #: would give, even on exact time collisions.
    sort_priority: ClassVar[int] = 1

    time_ms: float

    def apply(self, simulation: "Simulation") -> None:
        """Perform this event's state transition on ``simulation``."""
        raise NotImplementedError(f"{type(self).__name__} does not implement apply()")


@dataclass(frozen=True, slots=True)
class RequestArrivalEvent(Event):
    """A new application request arrives at the platform."""

    sort_priority: ClassVar[int] = 0

    request: Request = field(compare=False)

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_request_arrival(self.request, simulation.now_ms)


@dataclass(frozen=True, slots=True)
class TaskCompletionEvent(Event):
    """A dispatched task finishes executing on its invoker."""

    task: Task = field(compare=False)

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_task_completion(self.task, simulation.now_ms)


@dataclass(frozen=True, slots=True)
class SchedulerTickEvent(Event):
    """Periodic controller tick: scan the AFW queues round-robin.

    The simulator resets its tick-pending flag itself when it pops one of
    these; ``apply`` only has to run the controller scan.
    """

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_tick(simulation.now_ms)


@dataclass(frozen=True, slots=True)
class PrewarmCompleteEvent(Event):
    """A prewarmed container finishes its cold start and becomes warm."""

    container: Container = field(compare=False)

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_prewarm_complete(self.container, simulation.now_ms)


@dataclass(frozen=True, slots=True)
class InvokerJoinEvent(Event):
    """A new invoker joins the cluster (churn schedule).

    Housekeeping like every churn event: capacity changes only matter while
    productive work remains, so a schedule extending past the workload's end
    never keeps the run alive or trips the horizon.
    """

    housekeeping: ClassVar[bool] = True

    #: Node shape; ``None`` means the cluster config's per-invoker defaults.
    vcpus: int | None = None
    vgpus: int | None = None

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_invoker_join(self.vcpus, self.vgpus, simulation.now_ms)


@dataclass(frozen=True, slots=True)
class InvokerLeaveEvent(Event):
    """An invoker is evicted from the cluster (churn schedule).

    All resident containers are force-stopped and in-flight tasks follow the
    schedule's ``on_evict`` policy (requeue their jobs, or fail the owning
    requests with the ``evicted`` outcome).
    """

    housekeeping: ClassVar[bool] = True

    invoker_id: int

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_invoker_leave(self.invoker_id, simulation.now_ms)


@dataclass(frozen=True, slots=True)
class InvokerResizeEvent(Event):
    """An invoker's capacity target changes (harvested-VM shrink/grow).

    The applied size is clamped to ``max(1, target, in_use)``: harvesting
    only takes idle capacity, it never reclaims cores or slices from under
    running tasks.
    """

    housekeeping: ClassVar[bool] = True

    invoker_id: int
    vcpus: int
    vgpus: int

    def apply(self, simulation: "Simulation") -> None:
        simulation.controller.on_invoker_resize(
            self.invoker_id, self.vcpus, self.vgpus, simulation.now_ms
        )
