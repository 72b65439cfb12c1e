"""Every third-party module the code imports is declared in ``pyproject.toml``.

Walks every ``import`` of ``src/repro`` and ``tests`` (function-local
imports included) and checks each top-level module outside the standard
library, ``repro`` and the tests' own helper modules: the package's
imports against ``[project] dependencies``, the tests' against those plus
the ``dev`` extra.  An undeclared module passes here, where it happens to
be installed, and fails on a clean ``pip install -e .[dev]``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO_ROOT = Path(__file__).resolve().parents[2]
TESTS_ROOT = REPO_ROOT / "tests"
#: Lint fixtures: parsed by the determinism linter, never imported.
CORPUS = TESTS_ROOT / "analysis" / "corpus"


def distribution(requirement: str) -> str:
    """The normalized distribution name of a requirement (PEP 503)."""
    name = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group(0)
    return re.sub(r"[-_.]+", "-", name).lower()


def third_party_imports(root: Path, local: set[str]) -> dict[str, list[str]]:
    """Top-level third-party modules imported under ``root``, with the importing files."""
    found: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        if CORPUS in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top in sys.stdlib_module_names or top == "repro" or top in local:
                    continue
                found.setdefault(distribution(top), []).append(str(path.relative_to(REPO_ROOT)))
    return found


@pytest.fixture(scope="module")
def declared() -> dict[str, set[str]]:
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = {distribution(req) for req in project["dependencies"]}
    dev = {distribution(req) for req in project["optional-dependencies"]["dev"]}
    return {"runtime": runtime, "dev": runtime | dev}


def test_package_imports_are_runtime_dependencies(declared):
    imports = third_party_imports(REPO_ROOT / "src" / "repro", local=set())
    assert {"numpy", "scipy"} <= set(imports)
    missing = {name: files for name, files in imports.items() if name not in declared["runtime"]}
    assert missing == {}, "imported by src/repro but not in [project] dependencies"


def test_test_imports_are_declared(declared):
    helpers = {path.stem for path in TESTS_ROOT.rglob("*.py")}
    imports = third_party_imports(TESTS_ROOT, local=helpers)
    assert {"pytest", "hypothesis"} <= set(imports)
    missing = {name: files for name, files in imports.items() if name not in declared["dev"]}
    assert missing == {}, "imported by tests but in neither [project] dependencies nor dev"
