"""Golden replay: today's summaries must match the committed corpus byte for byte.

The corpus under ``tests/golden/esg/``, ``tests/golden/retry/`` and
``tests/golden/lattice/`` was written by ``make_golden.py`` (see its
docstring for how to regenerate it after an intended change).
"""

from __future__ import annotations

import pytest
from make_golden import GOLDEN_DIR, cases, main, render


@pytest.mark.parametrize("case", cases(), ids=lambda case: case.id)
def test_summary_matches_golden(case) -> None:
    expected = (GOLDEN_DIR / case.path).read_text()
    assert render(case) == expected


def test_corpus_is_complete() -> None:
    on_disk = sorted(path.relative_to(GOLDEN_DIR) for path in GOLDEN_DIR.glob("*/*.json"))
    assert on_disk == sorted(case.path for case in cases())


def test_regeneration_refuses_to_overwrite_without_force(tmp_path, capsys) -> None:
    existing = tmp_path / cases()[0].path
    existing.parent.mkdir(parents=True)
    existing.write_text("sentinel\n")
    assert main(["--out", str(tmp_path)]) == 1
    assert "--force" in capsys.readouterr().err
    assert existing.read_text() == "sentinel\n"
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) == [
        existing.relative_to(tmp_path)
    ]
