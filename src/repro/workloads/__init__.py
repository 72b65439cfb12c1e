"""Application workflows (DAGs), arrival processes and workload scenarios.

This subpackage models the demand side of the evaluation: the DNN
applications (the paper's four plus an open registry of extra DAGs), a
pluggable hierarchy of arrival processes (the paper's Azure-interval
sampling, Poisson, MMPP-style on/off bursts, diurnal drift, CSV trace
replay), the three paper workload settings (strict-light, moderate-normal,
relaxed-heavy) and a registry of named scenarios bundling all of the above.

Examples
--------
>>> from repro.workloads import get_scenario, scenario_names
>>> "paper-moderate-normal" in scenario_names()
True
>>> get_scenario("poisson-normal").arrival_label
'PoissonProcess'
"""

from repro.workloads.applications import (
    APPLICATION_BUILDERS,
    PAPER_APPLICATIONS,
    background_elimination,
    build_application,
    build_paper_applications,
    depth_recognition,
    expanded_image_classification,
    image_classification,
    register_application,
    single_stage_classification,
    vision_diamond,
)
from repro.workloads.arrival import (
    ArrivalProcess,
    AzureIntervalProcess,
    DiurnalProcess,
    OnOffBurstProcess,
    PoissonProcess,
    TraceExhaustedError,
    TraceFileReplayProcess,
    TraceReplayProcess,
    iter_trace_intervals,
)
from repro.workloads.dag import Stage, Workflow
from repro.workloads.generator import (
    MODERATE_NORMAL,
    RELAXED_HEAVY,
    STRICT_LIGHT,
    WORKLOAD_SETTINGS,
    WorkloadGenerator,
    WorkloadSetting,
)
from repro.workloads.request import Job, Request
from repro.workloads.stream import (
    CountRequestStream,
    DurationRequestStream,
    ListRequestStream,
    RequestStream,
)
from repro.workloads.scenarios import (
    PAPER_SCENARIOS,
    SCENARIOS,
    Scenario,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workloads.traces import ArrivalIntervalRange, generate_arrival_times, generate_intervals

__all__ = [
    "Stage",
    "Workflow",
    "image_classification",
    "depth_recognition",
    "background_elimination",
    "expanded_image_classification",
    "vision_diamond",
    "single_stage_classification",
    "build_paper_applications",
    "build_application",
    "register_application",
    "PAPER_APPLICATIONS",
    "APPLICATION_BUILDERS",
    "ArrivalProcess",
    "AzureIntervalProcess",
    "PoissonProcess",
    "OnOffBurstProcess",
    "DiurnalProcess",
    "TraceReplayProcess",
    "TraceFileReplayProcess",
    "TraceExhaustedError",
    "iter_trace_intervals",
    "RequestStream",
    "CountRequestStream",
    "DurationRequestStream",
    "ListRequestStream",
    "WorkloadSetting",
    "WorkloadGenerator",
    "STRICT_LIGHT",
    "MODERATE_NORMAL",
    "RELAXED_HEAVY",
    "WORKLOAD_SETTINGS",
    "PAPER_SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "Request",
    "Job",
    "ArrivalIntervalRange",
    "generate_intervals",
    "generate_arrival_times",
]
