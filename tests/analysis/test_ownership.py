"""Tier-1 ratchet: one owner per state change.

Every ``name._attr`` read or write in ``src/repro`` where ``name`` is not
``self``/``cls`` (chains like ``invoker.gpu._used`` included) reaches into
another object's private state.  Each such expression must be listed in
:data:`ALLOWED` with a reason, and every listed one must still occur: a new
poke fails the suite, and so does a stale entry, so the list only shrinks.
Every entry must also be same-module: the file that pokes the attribute
defines it on its own class.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (file relative to ``src/repro``, expression) -> why the poke stays.
ALLOWED: dict[tuple[str, str], str] = {
    ("cluster/simulator.py", "events._real"): (
        "Simulation.run pops the EventLoop's real heap inline and the arrival "
        "refill pushes onto it; EventLoop lives in the same module"
    ),
    ("cluster/simulator.py", "events._housekeeping"): (
        "Simulation.run pops the EventLoop's housekeeping heap inline; same module"
    ),
    ("cluster/simulator.py", "events._counter"): (
        "the arrival refill draws tie-break counters from the EventLoop; same module"
    ),
    ("core/esg_1q.py", "stage._configs"): (
        "esg_1q_search reads the StageSearchSpec tables it is built around; same module"
    ),
    ("core/esg_1q.py", "stage._costs"): "esg_1q_search's StageSearchSpec table; same module",
    ("core/esg_1q.py", "stage._latencies"): "esg_1q_search's StageSearchSpec table; same module",
    ("core/esg_1q.py", "stage._next_cheaper"): (
        "esg_1q_search's StageSearchSpec cheaper-link table; same module"
    ),
    ("core/esg_1q.py", "stage._suffix_min_costs"): (
        "esg_1q_search's StageSearchSpec cost bound; same module"
    ),
    ("workloads/dag.py", "workflow._pred"): (
        "WorkflowTopology snapshots its Workflow's adjacency; same module"
    ),
    ("workloads/dag.py", "workflow._stages"): (
        "WorkflowTopology snapshots its Workflow's stage order; same module"
    ),
    ("workloads/dag.py", "workflow._succ"): (
        "WorkflowTopology snapshots its Workflow's adjacency; same module"
    ),
}


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__"))


def foreign_pokes(tree: ast.AST) -> set[str]:
    """Every ``x._attr`` expression whose base is not a bare ``self``/``cls``."""
    pokes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                continue
            pokes.add(ast.unparse(node))
    return pokes


def own_attributes(tree: ast.AST) -> set[str]:
    """Attributes a module defines on its own classes: ``self.x = ...``
    targets, class-body fields and ``__slots__`` names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    names.add(target.attr)
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    names.add(statement.target.id)
                elif isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and target.id == "__slots__":
                            names.update(
                                element.value
                                for element in ast.walk(statement.value)
                                if isinstance(element, ast.Constant)
                                and isinstance(element.value, str)
                            )
    return names


def scan() -> dict[tuple[str, str], set[str]]:
    """``(file, expression)`` for every foreign poke, with the file's own attributes."""
    found: dict[tuple[str, str], set[str]] = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        own = own_attributes(tree)
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        for expression in foreign_pokes(tree):
            found[(relative, expression)] = own
    return found


def test_private_pokes_equal_the_allow_list() -> None:
    found = set(scan())
    new = sorted(found - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - found)
    assert not new, (
        "new reads/writes of another object's private state; call an owner "
        f"method instead (or list them with a reason): {new}"
    )
    assert not stale, f"allow-list entries no longer in src/repro; delete them: {stale}"


def test_every_allowed_poke_is_same_module() -> None:
    for (relative, expression), own in scan().items():
        attr = expression.rsplit(".", 1)[1]
        assert attr in own, (
            f"{relative}: {expression} reaches into a class defined in another module"
        )


def test_every_entry_has_a_reason() -> None:
    for key, reason in ALLOWED.items():
        assert reason.strip(), f"{key} needs a one-line reason"


def test_the_scan_sees_foreign_pokes() -> None:
    tree = ast.parse(
        "def f(self, invoker):\n"
        "    invoker._used += 1\n"
        "    self._mine = invoker.gpu._slices\n"
        "    return type(invoker).__name__, cls._registry\n"
    )
    assert foreign_pokes(tree) == {"invoker._used", "invoker.gpu._slices"}
    assert own_attributes(tree) == {"_mine"}
