"""The documentation's code examples import only names the package has.

Every ```` ```python ```` block of README.md and ``docs/*.md`` must parse,
and every ``from repro... import name`` in them must resolve, so a renamed
or deleted API cannot linger in the examples readers copy.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def python_blocks() -> list[tuple[str, str]]:
    return [
        (path.relative_to(ROOT).as_posix(), match.group(1))
        for path in DOCUMENTS
        for match in PYTHON_BLOCK.finditer(path.read_text(encoding="utf-8"))
    ]


def repro_imports() -> list[tuple[str, str, str]]:
    imports = []
    for document, source in python_blocks():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                imports.extend((document, node.module, alias.name) for alias in node.names)
    return imports


@pytest.mark.parametrize("document, source", python_blocks())
def test_every_python_block_parses(document, source):
    ast.parse(source, filename=document)


@pytest.mark.parametrize("document, module, name", repro_imports())
def test_every_imported_name_exists(document, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"{document} imports {name!r} from {module}, which does not define it"
    )


def test_the_documents_have_examples():
    assert len(python_blocks()) >= 10
    assert len(repro_imports()) >= 20
