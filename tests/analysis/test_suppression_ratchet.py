"""Tier-1 ratchet: every determinism-linter suppression in ``src/repro``.

An inline ``# repro: allow[CODE] reason`` silences one hit of the linter.
Each silenced hit, keyed by its file (relative to ``src/repro``), rule and
statement, must be listed in :data:`ALLOWED` with a reason, and every listed
one must still be silenced: a new suppression fails the suite, and so does a
stale entry, so the list only shrinks.  The statement rather than the line
number keys an entry, so unrelated edits do not churn the list.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import analyze_path

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

_DIAGNOSTIC_TIMING = (
    "search_time_ms is a diagnostic on the search result that the overhead "
    "figures report; simulations charge modeled overhead, never this"
)

#: (file, rule, suppressed statement) -> why the hazard is safe.
ALLOWED: dict[tuple[str, str, str], str] = {
    ("cluster/controller.py", "REP004", "order = list(self._nonempty)"): (
        "a set of at most one element has a single iteration order"
    ),
    ("core/bruteforce.py", "REP001", "start = _time.perf_counter()"): _DIAGNOSTIC_TIMING,
    (
        "core/bruteforce.py",
        "REP001",
        "search_time_ms = (_time.perf_counter() - start) * 1000.0",
    ): _DIAGNOSTIC_TIMING,
    ("core/esg_1q.py", "REP001", "start_time = _time.perf_counter()"): _DIAGNOSTIC_TIMING,
    (
        "core/esg_1q.py",
        "REP001",
        "search_time_ms = (_time.perf_counter() - start_time) * 1000.0",
    ): _DIAGNOSTIC_TIMING,
    ("experiments/sweep.py", "REP001", "started = time.perf_counter()"): (
        "a sweep report's elapsed time lives in its execution section, which "
        "cell comparisons leave out"
    ),
    ("experiments/sweep.py", "REP001", "elapsed = time.perf_counter() - started"): (
        "closes the sweep report's execution-time measurement"
    ),
}


def suppressed_hits() -> list[tuple[str, str, str]]:
    """``(file, rule, statement)`` of every suppressed hit, in report order."""
    report = analyze_path(PACKAGE_ROOT, baseline=Baseline.load(REPO_ROOT / "lint-baseline.json"))
    return [(hit.path, hit.rule, hit.snippet) for hit in report.suppressed]


def test_suppressions_equal_the_allow_list() -> None:
    hits = suppressed_hits()
    assert len(hits) == len(set(hits)), f"two suppressions share a key: {sorted(hits)}"
    new = sorted(set(hits) - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - set(hits))
    assert not new, (
        "new determinism-linter suppressions; remove the hazard (or list them "
        f"with a reason): {new}"
    )
    assert not stale, f"allow-list entries no longer suppressed in src/repro; delete them: {stale}"


def test_every_entry_has_a_reason() -> None:
    for key, reason in ALLOWED.items():
        assert reason.strip(), f"{key} needs a one-line reason"


def test_the_cluster_layer_reads_no_clock() -> None:
    assert not [key for key in ALLOWED if key[0].startswith("cluster/") and key[1] == "REP001"]
