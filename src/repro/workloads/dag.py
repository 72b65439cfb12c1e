"""Workflow DAG representation.

An ML-based serverless application is a DAG of *stages*; each stage invokes
one DNN serverless function.  The SLO applies to the end-to-end latency of
the whole DAG, which is why the paper's scheduling must reason about
inter-function relations.

The implementation is a small, dependency-free directed graph with exactly
the operations the schedulers need: predecessors/successors, topological
order, source/sink detection and validation (acyclicity, connectivity of
stage references).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Stage", "Workflow", "WorkflowTopology", "WorkflowValidationError"]


class WorkflowValidationError(ValueError):
    """Raised when a workflow definition is structurally invalid."""


@dataclass(frozen=True)
class Stage:
    """One node of the workflow DAG.

    Parameters
    ----------
    stage_id:
        Unique identifier within the workflow (e.g. ``"f1"``).
    function_name:
        The serverless function the stage invokes.  Different stages of the
        same (or different) workflow may invoke the same function; they still
        get distinct AFW queues, as in the paper.
    """

    stage_id: str
    function_name: str

    def __post_init__(self) -> None:
        if not self.stage_id:
            raise WorkflowValidationError("stage_id must be non-empty")
        if not self.function_name:
            raise WorkflowValidationError("function_name must be non-empty")


class WorkflowTopology:
    """Immutable adjacency snapshot of one workflow, shared by the hot paths.

    The list-returning accessors on :class:`Workflow` rebuild their result on
    every call (a defensive copy); the simulator's controller, dispatch and
    ESG hot paths instead read this snapshot, built lazily once per workflow and
    dropped on any mutation.  The per-stage tuples hold the same ids in the
    same order as the accessors, so consumers see identical data.
    """

    __slots__ = ("sources", "sinks", "succ", "pred", "stages")

    def __init__(self, workflow: "Workflow") -> None:
        self.sources: tuple[str, ...] = tuple(
            sid for sid in workflow._stages if not workflow._pred[sid]
        )
        self.sinks: tuple[str, ...] = tuple(
            sid for sid in workflow._stages if not workflow._succ[sid]
        )
        self.succ: dict[str, tuple[str, ...]] = {
            sid: tuple(dsts) for sid, dsts in workflow._succ.items()
        }
        self.pred: dict[str, tuple[str, ...]] = {
            sid: tuple(srcs) for sid, srcs in workflow._pred.items()
        }
        self.stages: tuple[Stage, ...] = tuple(workflow._stages.values())


@dataclass
class Workflow:
    """A named DAG of stages with data-dependence edges."""

    name: str
    _stages: dict[str, Stage] = field(default_factory=dict)
    _succ: dict[str, list[str]] = field(default_factory=dict)
    _pred: dict[str, list[str]] = field(default_factory=dict)
    _topo: WorkflowTopology | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowValidationError("workflow name must be non-empty")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_stage(self, stage_id: str, function_name: str) -> Stage:
        """Add a stage; returns the created :class:`Stage`."""
        if stage_id in self._stages:
            raise WorkflowValidationError(f"stage {stage_id!r} already exists in {self.name!r}")
        stage = Stage(stage_id=stage_id, function_name=function_name)
        self._stages[stage_id] = stage
        self._succ[stage_id] = []
        self._pred[stage_id] = []
        self._topo = None
        return stage

    def add_edge(self, src: str, dst: str) -> None:
        """Add a data-dependence edge ``src -> dst``."""
        for sid in (src, dst):
            if sid not in self._stages:
                raise WorkflowValidationError(f"unknown stage {sid!r} in edge ({src!r}, {dst!r})")
        if src == dst:
            raise WorkflowValidationError(f"self edge on stage {src!r} is not allowed")
        if dst in self._succ[src]:
            raise WorkflowValidationError(f"duplicate edge ({src!r}, {dst!r})")
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._topo = None

    @classmethod
    def linear(cls, name: str, function_names: Iterable[str]) -> "Workflow":
        """Build a linear pipeline ``f1 -> f2 -> ... -> fk``.

        Stage ids are ``"s1"``, ``"s2"``, ... in pipeline order.  All four
        applications in the paper's evaluation are linear pipelines.
        """
        wf = cls(name=name)
        prev: str | None = None
        for idx, fn in enumerate(function_names, start=1):
            sid = f"s{idx}"
            wf.add_stage(sid, fn)
            if prev is not None:
                wf.add_edge(prev, sid)
            prev = sid
        wf.validate()
        return wf

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Number of stages in the workflow."""
        return len(self._stages)

    def stage(self, stage_id: str) -> Stage:
        """Return the stage with the given id."""
        try:
            return self._stages[stage_id]
        except KeyError:
            raise KeyError(f"workflow {self.name!r} has no stage {stage_id!r}") from None

    def topology(self) -> WorkflowTopology:
        """The cached adjacency snapshot (rebuilt after any mutation)."""
        topo = self._topo
        if topo is None:
            topo = WorkflowTopology(self)
            self._topo = topo
        return topo

    def stage_ids(self) -> list[str]:
        """All stage ids in insertion order."""
        return list(self._stages)

    def stages(self) -> list[Stage]:
        """All stages in insertion order."""
        return list(self._stages.values())

    def function_of(self, stage_id: str) -> str:
        """The function a stage invokes."""
        return self.stage(stage_id).function_name

    def function_names(self) -> list[str]:
        """Function names in topological order (duplicates preserved)."""
        return [self.function_of(sid) for sid in self.topological_order()]

    def successors(self, stage_id: str) -> list[str]:
        """Stages that consume this stage's output."""
        self.stage(stage_id)
        return list(self._succ[stage_id])

    def predecessors(self, stage_id: str) -> list[str]:
        """Stages whose output this stage consumes."""
        self.stage(stage_id)
        return list(self._pred[stage_id])

    def sources(self) -> list[str]:
        """Stages with no predecessors (triggered directly by the request)."""
        return [sid for sid in self._stages if not self._pred[sid]]

    def sinks(self) -> list[str]:
        """Stages with no successors (their completion completes the request)."""
        return [sid for sid in self._stages if not self._succ[sid]]

    def edges(self) -> list[tuple[str, str]]:
        """All edges as (src, dst) tuples."""
        return [(src, dst) for src, dsts in self._succ.items() for dst in dsts]

    def __contains__(self, stage_id: str) -> bool:
        return stage_id in self._stages

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages.values())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Return the stage ids in a deterministic topological order.

        Kahn's algorithm with insertion-order tie-breaking; raises
        :class:`WorkflowValidationError` if the graph has a cycle.
        """
        indegree = {sid: len(self._pred[sid]) for sid in self._stages}
        ready = [sid for sid in self._stages if indegree[sid] == 0]
        order: list[str] = []
        while ready:
            sid = ready.pop(0)
            order.append(sid)
            for nxt in self._succ[sid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._stages):
            raise WorkflowValidationError(f"workflow {self.name!r} contains a cycle")
        return order

    def is_linear(self) -> bool:
        """True if the workflow is a simple pipeline (every degree <= 1)."""
        return all(len(self._succ[s]) <= 1 and len(self._pred[s]) <= 1 for s in self._stages)

    def downstream_stages(self, stage_id: str) -> list[str]:
        """All stages reachable from ``stage_id`` (excluding itself), topo-ordered."""
        reachable: set[str] = set()
        frontier = list(self._succ[stage_id])
        while frontier:
            sid = frontier.pop()
            if sid in reachable:
                continue
            reachable.add(sid)
            frontier.extend(self._succ[sid])
        return [sid for sid in self.topological_order() if sid in reachable]

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        if self.num_stages == 0:
            raise WorkflowValidationError(f"workflow {self.name!r} has no stages")
        self.topological_order()  # raises on cycles
        if not self.sources():
            raise WorkflowValidationError(f"workflow {self.name!r} has no source stage")
        if not self.sinks():
            raise WorkflowValidationError(f"workflow {self.name!r} has no sink stage")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = " -> ".join(self.function_of(s) for s in self.topological_order())
        return f"Workflow({self.name!r}: {chain})"
