"""Experiment harness regenerating every table and figure of the paper.

Each module exposes a ``run_*`` function returning plain data rows plus a
``render_*`` helper producing the text table/series printed by the
benchmarks.  The mapping from paper artefacts to modules is documented in
DESIGN.md (per-experiment index) and summarised here:

==============  ==========================================
artefact        module
==============  ==========================================
Tables 1-3      :mod:`repro.experiments.tables`
Figure 5        :mod:`repro.experiments.arrivals`
Figures 6-8     :mod:`repro.experiments.end_to_end`
Table 4         :mod:`repro.experiments.miss_rate`
Figure 9        :mod:`repro.experiments.orion_search`
Figure 10       :mod:`repro.experiments.overhead`
Figure 11/5.4   :mod:`repro.experiments.sensitivity`
Figure 12       :mod:`repro.experiments.ablation`
==============  ==========================================

All sweeps execute through :mod:`repro.experiments.engine`, which fans
independent runs out across worker processes when ``n_jobs > 1``.
"""

from repro.experiments.churn_study import (
    CHURN_STUDY_SCENARIOS,
    churn_rows,
    render_churn_study,
    run_churn_study,
)
from repro.experiments.engine import ExperimentEngine, RunSpec, execute_spec
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    RunResult,
    build_profile_store,
    make_policy,
    run_experiment,
    run_matrix,
)
from repro.experiments.scenario_sweep import (
    render_scenario_comparison,
    render_scenario_list,
    run_scenario_sweep,
    scenario_rows,
)
from repro.experiments.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical_policy_key,
    spec_key,
    spec_key_doc,
)
from repro.experiments.sweep import (
    SweepCell,
    SweepReport,
    run_sweep,
    write_report_csv,
    write_report_json,
)

__all__ = [
    "CHURN_STUDY_SCENARIOS",
    "DEFAULT_POLICIES",
    "ExperimentConfig",
    "ExperimentEngine",
    "ResultStore",
    "RunResult",
    "RunSpec",
    "STORE_SCHEMA_VERSION",
    "SweepCell",
    "SweepReport",
    "build_profile_store",
    "canonical_policy_key",
    "churn_rows",
    "execute_spec",
    "make_policy",
    "render_churn_study",
    "render_scenario_comparison",
    "render_scenario_list",
    "run_churn_study",
    "run_experiment",
    "run_matrix",
    "run_scenario_sweep",
    "run_sweep",
    "scenario_rows",
    "spec_key",
    "spec_key_doc",
    "write_report_csv",
    "write_report_json",
]
