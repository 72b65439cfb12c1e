"""repro — reproduction of "ESG: Pipeline-Conscious Efficient Scheduling of
DNN Workflows on Serverless Platforms with Shareable GPUs" (HPDC 2024).

The package is organised as:

* :mod:`repro.profiles` — DNN function specs and the performance/cost model;
* :mod:`repro.workloads` — application DAGs and workload generation;
* :mod:`repro.cluster` — the serverless platform substrate (discrete-event
  simulator, controller, invokers, containers, prewarming, metrics);
* :mod:`repro.core` — the ESG scheduling algorithm (ESG_1Q, dominator-based
  SLO distribution, ESG_Dispatch);
* :mod:`repro.baselines` — the comparison schedulers (INFless, FaST-GShare,
  Orion, Aquatope);
* :mod:`repro.experiments` — the harness that regenerates every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import quick_simulation
    summary = quick_simulation(policy="esg", scenario="paper-strict-light", num_requests=50)
    print(summary.slo_hit_rate, summary.total_cost_cents)
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.core.config import Configuration, ConfigurationSpace
from repro.core.esg import ESGPolicy
from repro.profiles import FUNCTION_SPECS, FunctionSpec, PricingModel, ProfileStore
from repro.workloads import (
    WORKLOAD_SETTINGS,
    WorkloadGenerator,
    WorkloadSetting,
    Workflow,
    build_paper_applications,
)

__all__ = [
    "__version__",
    "Configuration",
    "ConfigurationSpace",
    "ESGPolicy",
    "FunctionSpec",
    "FUNCTION_SPECS",
    "PricingModel",
    "ProfileStore",
    "Workflow",
    "WorkloadGenerator",
    "WorkloadSetting",
    "WORKLOAD_SETTINGS",
    "build_paper_applications",
    "quick_simulation",
]


def quick_simulation(
    policy: str = "esg",
    scenario: str = "paper-strict-light",
    num_requests: int = 50,
    seed: int = 42,
):
    """Run one small end-to-end simulation and return its :class:`RunSummary`.

    Convenience entry point used by the README quickstart; see
    :mod:`repro.experiments.runner` for the full-control API.
    """
    from repro.experiments.runner import ExperimentConfig, run_experiment

    config = ExperimentConfig(num_requests=num_requests, seed=seed)
    return run_experiment(policy, scenario, config=config).summary
