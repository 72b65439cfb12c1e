"""Test helper: an event loop that also lists what is pushed onto it.

Controllers built outside a :class:`~repro.cluster.simulator.Simulation`
push onto one of these; tests read ``pushed`` (every event, in push order)
to complete tasks by hand or to check what an actuation scheduled.
"""

from __future__ import annotations

from repro.cluster.events import Event
from repro.cluster.simulator import EventLoop


class RecordingLoop(EventLoop):
    """An :class:`EventLoop` that appends every pushed event to ``pushed``."""

    def __init__(self, pushed: list[Event] | None = None) -> None:
        super().__init__()
        self.pushed: list[Event] = [] if pushed is None else pushed

    def push(self, event: Event) -> None:
        self.pushed.append(event)
        super().push(event)

    def push_real(self, event: Event) -> None:
        self.pushed.append(event)
        super().push_real(event)
