"""Static analysis enforcing the byte-identity determinism contract.

Every guarantee this reproduction makes — byte-identical golden
summaries, parity across ``n_jobs`` 1/N, spawn contexts, and
PYTHONHASHSEED — depends on the codebase staying free of a small set
of nondeterminism hazards.  This package is the compiler pass that keeps
it that way: a stdlib-``ast`` analyzer with a named rule catalog
(REP001..REP008), justified inline suppressions, and a ratcheted baseline.

Run it as ``esg-repro lint`` or ``python -m repro.analysis``; the full
contract and rule catalog are documented in ``docs/determinism.md``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, match_baseline
from repro.analysis.context import ModuleContext
from repro.analysis.engine import (
    DEFAULT_LAYER_ALLOWLIST,
    LintConfig,
    LintReport,
    analyze_path,
    analyze_paths,
    analyze_source,
    format_json,
    format_text,
)
from repro.analysis.rules import META_RULE_CODE, RULES, rule_codes
from repro.analysis.suppressions import Suppression, parse_suppressions
from repro.analysis.violations import Finding, Rule, Violation

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_LAYER_ALLOWLIST",
    "Finding",
    "LintConfig",
    "LintReport",
    "META_RULE_CODE",
    "ModuleContext",
    "RULES",
    "Rule",
    "Suppression",
    "Violation",
    "analyze_path",
    "analyze_paths",
    "analyze_source",
    "format_json",
    "format_text",
    "match_baseline",
    "parse_suppressions",
    "rule_codes",
]
