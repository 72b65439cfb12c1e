"""Golden replay: today's ESG summaries must match the committed corpus byte for byte.

The corpus under ``tests/golden/esg/`` was written by ``make_golden.py``
(see its docstring for how to regenerate it after an intended change).
"""

from __future__ import annotations

import pytest
from make_golden import GOLDEN_DIR, cases, file_name, main, render


@pytest.mark.parametrize(("variant", "seed"), cases())
def test_summary_matches_golden(variant: str, seed: int) -> None:
    expected = (GOLDEN_DIR / file_name(variant, seed)).read_text()
    assert render(variant, seed) == expected


def test_corpus_is_complete() -> None:
    on_disk = sorted(path.name for path in GOLDEN_DIR.glob("*.json"))
    assert on_disk == sorted(file_name(*case) for case in cases())


def test_regeneration_refuses_to_overwrite_without_force(tmp_path, capsys) -> None:
    variant, seed = cases()[0]
    existing = tmp_path / file_name(variant, seed)
    existing.write_text("sentinel\n")
    assert main(["--out", str(tmp_path)]) == 1
    assert "--force" in capsys.readouterr().err
    assert existing.read_text() == "sentinel\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [existing.name]
