"""Container / function-residency lifecycle model.

A serverless function executes inside a container that holds its DNN model.
The first time a function is placed on a node the container must be created
and the model loaded — the cold-start times of Table 3 (seconds to tens of
seconds).  Once the function is *resident* on the node, further invocations
are warm starts; with MIG/MPS-style GPU sharing a resident function can
serve several concurrent tasks (each task's compute is bounded separately by
the vCPU/vGPU reservations tracked by the invoker).  An idle resident
container is unloaded after the keep-alive window (OpenWhisk's fixed 10
minutes).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["ContainerState", "Container", "DEFAULT_KEEP_ALIVE_MS"]

#: OpenWhisk's fixed keep-alive policy: 10 minutes.
DEFAULT_KEEP_ALIVE_MS: float = 10 * 60 * 1000.0

_container_ids = itertools.count()

_INF = float("inf")


class ContainerState(enum.Enum):
    """Lifecycle states of a container."""

    #: Being created (cold start in progress, possibly triggered by the prewarmer).
    STARTING = "starting"
    #: Resident and idle; new tasks get warm starts.
    WARM = "warm"
    #: Resident with at least one task executing.
    BUSY = "busy"
    #: Unloaded (keep-alive expired); kept only for bookkeeping.
    STOPPED = "stopped"


@dataclass(slots=True)
class Container:
    """One function's residency on one invoker (slotted: hot-path record)."""

    function_name: str
    invoker_id: int
    state: ContainerState = ContainerState.STARTING
    #: Absolute time at which the container becomes warm (end of cold start).
    warm_at_ms: float = 0.0
    #: Absolute time at which an idle warm container expires.
    expires_at_ms: float = float("inf")
    #: Number of tasks currently executing in this container.
    active_tasks: int = 0
    container_id: int = field(default_factory=lambda: next(_container_ids))
    #: Lifecycle listener installed by the owning invoker; receives
    #: ``(container, old_state, new_state)`` after every state change that
    #: starts or ends residency (WARM <-> BUSY keeps the container resident
    #: and is not reported), so the invoker/cluster indexes stay
    #: incrementally consistent.
    _listener: Callable[["Container", ContainerState, ContainerState], None] | None = field(
        default=None, repr=False, compare=False
    )

    def bind_listener(
        self, listener: Callable[["Container", ContainerState, ContainerState], None] | None
    ) -> None:
        """Install the state-change listener (one owner at a time)."""
        self._listener = listener

    def _transition(self, new_state: ContainerState) -> None:
        old = self.state
        self.state = new_state
        if self._listener is not None and old is not new_state:
            self._listener(self, old, new_state)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def mark_warm(self, now_ms: float, keep_alive_ms: float = DEFAULT_KEEP_ALIVE_MS) -> None:
        """Transition to WARM (idle, resident) and (re)arm the keep-alive timer."""
        if self.state == ContainerState.STOPPED:
            raise RuntimeError(f"container {self.container_id} is stopped and cannot be warmed")
        if self.active_tasks > 0:
            raise RuntimeError(
                f"container {self.container_id} still has {self.active_tasks} active tasks"
            )
        self.warm_at_ms = min(self.warm_at_ms, now_ms) if self.warm_at_ms else now_ms
        self.expires_at_ms = now_ms + keep_alive_ms
        self._transition(ContainerState.WARM)

    def assign_task(self) -> None:
        """A task starts executing in this container."""
        state = self.state
        if state is ContainerState.STOPPED:
            raise RuntimeError(f"container {self.container_id} is stopped")
        self.active_tasks += 1
        self.expires_at_ms = _INF
        if state is ContainerState.STARTING:
            self._transition(ContainerState.BUSY)
        else:
            self.state = ContainerState.BUSY

    def release_task(self, now_ms: float, keep_alive_ms: float = DEFAULT_KEEP_ALIVE_MS) -> None:
        """A task finished; when the last one leaves, the container idles warm."""
        if self.active_tasks <= 0:
            raise RuntimeError(f"container {self.container_id} has no active task to release")
        self.active_tasks -= 1
        if self.active_tasks == 0:
            # BUSY -> WARM: the container stays resident.
            self.expires_at_ms = now_ms + keep_alive_ms
            self.state = ContainerState.WARM

    def mark_stopped(self) -> None:
        """Unload the container."""
        if self.active_tasks > 0:
            raise RuntimeError(
                f"container {self.container_id} cannot be stopped with active tasks"
            )
        self.expires_at_ms = float("-inf")
        self._transition(ContainerState.STOPPED)

    def expire(self, deadline_ms: float) -> None:
        """Unload the container if ``deadline_ms`` is still its armed keep-alive.

        Keep-alive timers are cancelled lazily: a container that was
        re-armed, went busy or was stopped no longer matches the deadline
        it armed, and the stale timer is a no-op.
        """
        if self.state is ContainerState.WARM and self.expires_at_ms == deadline_ms:
            self.mark_stopped()

    def mark_evicted(self) -> None:
        """Force-stop regardless of active tasks (the node was evicted).

        Unlike :meth:`mark_stopped` this drops any in-flight work: the
        controller decides separately whether that work is requeued or
        failed.  Resetting ``expires_at_ms`` to ``-inf`` makes every armed
        keep-alive deadline miss :meth:`expire`'s lazy cancellation guard,
        so stale expiry entries become no-ops.
        """
        self.active_tasks = 0
        self.expires_at_ms = float("-inf")
        self._transition(ContainerState.STOPPED)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_resident(self, now_ms: float) -> bool:
        """True if the function is loaded on the node (warm start possible).

        A busy container is resident; an idle warm one only inside its warm
        window, from the end of its cold start until its keep-alive expires.
        """
        state = self.state
        return state is ContainerState.BUSY or (
            state is ContainerState.WARM and self.warm_at_ms <= now_ms < self.expires_at_ms
        )

    def is_warm_idle(self, now_ms: float) -> bool:
        """True if the container is resident and currently idle."""
        return self.state is ContainerState.WARM and self.is_resident(now_ms)
