#!/usr/bin/env python3
"""Define a custom DNN application + scenario and schedule it with ESG.

Shows the four extension points a downstream user needs:

1. register a new DNN function (its profile is derived from the analytic
   performance model, exactly like the built-in Table 3 functions);
2. define a workflow DAG that mixes the new function with built-in ones —
   including a split/join, which exercises the dominator-based SLO
   distribution on a non-linear DAG — and register it by name;
3. bundle the application into a named ``Scenario`` with a bursty arrival
   process;
4. run it end to end through ``run_experiment(scenario=...)`` — the same
   entry point the CLI and the parallel sweeps use.

Usage::

    python examples/custom_application.py [num_requests]
"""

from __future__ import annotations

import sys

from repro.core.dominator import distribute_slo
from repro.experiments import ExperimentConfig, run_experiment
from repro.profiles.profiler import ProfileStore
from repro.profiles.specs import FUNCTION_SPECS, FunctionSpec, register_function_spec
from repro.workloads import (
    OnOffBurstProcess,
    Scenario,
    Workflow,
    register_application,
    register_scenario,
)
from repro.workloads.applications import APPLICATION_BUILDERS
from repro.workloads.scenarios import SCENARIOS


def build_custom_workflow() -> Workflow:
    """A DAG with a split (OCR and captioning in parallel) and a join."""
    wf = Workflow("document_understanding")
    wf.add_stage("preprocess", "super_resolution")
    wf.add_stage("ocr", "text_recognition")          # the new custom function
    wf.add_stage("caption", "classification")
    wf.add_stage("fuse", "segmentation")
    wf.add_edge("preprocess", "ocr")
    wf.add_edge("preprocess", "caption")
    wf.add_edge("ocr", "fuse")
    wf.add_edge("caption", "fuse")
    wf.validate()
    return wf


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 30

    # 1. Register the custom DNN function (idempotent for repeated runs).
    if "text_recognition" not in FUNCTION_SPECS:
        register_function_spec(
            FunctionSpec(
                name="text_recognition",
                model_name="TrOCR-small",
                base_exec_ms=210.0,
                cold_start_ms=9000.0,
                input_mb=1.8,
                cpu_fraction=0.25,
                output_mb=0.02,
            )
        )

    # 2. Register the workflow builder so scenarios can name it.
    if "document_understanding" not in APPLICATION_BUILDERS:
        register_application("document_understanding", build_custom_workflow)

    # Show how ESG would split the custom DAG's SLO across stage groups.
    store = ProfileStore.build()
    workflow = build_custom_workflow()
    distribution = distribute_slo(workflow, store, group_size=3)
    print(f"Workflow {workflow.name!r} ({workflow.num_stages} stages, split/join DAG)")
    for group in distribution.groups:
        print(f"  group {group.index}: stages {group.stage_ids}  SLO share {group.slo_fraction:.2f}")

    # 3. Bundle it into a scenario: bursty arrivals, moderate SLO tightness.
    if "document-bursts" not in SCENARIOS:
        register_scenario(
            Scenario(
                name="document-bursts",
                description="document understanding under on/off burst arrivals",
                setting="moderate-normal",
                applications=("document_understanding",),
                arrival=OnOffBurstProcess(
                    burst_rate_per_s=60.0,
                    base_rate_per_s=15.0,
                    mean_burst_ms=400.0,
                    mean_gap_ms=600.0,
                ),
            )
        )

    # 4. Run ESG on the scenario through the standard experiment entry point.
    result = run_experiment(
        "ESG",
        scenario="document-bursts",
        config=ExperimentConfig(num_requests=num_requests, seed=11),
        profile_store=store,
    )
    summary = result.summary
    print(
        f"\nScheduled {summary.num_requests} requests of scenario 'document-bursts': "
        f"SLO hit rate {summary.slo_hit_rate:.1%}, "
        f"cost {summary.total_cost_cents:.2f} cents, "
        f"mean latency {summary.mean_latency_ms:.0f} ms "
        f"(SLO {result.metrics.app_slo_ms('document_understanding'):.0f} ms)"
    )


if __name__ == "__main__":
    main()
