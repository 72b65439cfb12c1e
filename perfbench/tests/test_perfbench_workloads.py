"""The benchmark builds the same simulations as the library, and its traced
run passes its own checks on every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from dataclasses import asdict, replace

import child
import pytest
from workloads import WORKLOADS, input_seed

from repro.cluster import ClusterConfig, MetricsConfig, resolve_churn
from repro.experiments import ExperimentConfig, run_experiment


def test_variant_zero_is_the_seed_and_any_integer_seed_is_valid():
    assert input_seed(42, 0) == 42
    assert len({input_seed(seed, v) for seed in range(50) for v in range(8)}) == 400
    for seed in (-1, 2**63 + 5, 10**12):
        seeds = [input_seed(seed, v) for v in range(8)]
        assert min(seeds) >= 0 and len(set(seeds)) == 8
        assert seeds == [input_seed(seed, v) for v in range(8)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_build_matches_run_experiment(name):
    workload = replace(WORKLOADS[name], requests=40)
    simulation, _ = child.build(workload, 7)
    summary = simulation.run()
    churn = None
    if workload.churn_seed is not None:
        scenario = child.scenario_of(workload)
        churn = resolve_churn(scenario.churn, workload.churn_seed, ClusterConfig())
    config = ExperimentConfig(
        num_requests=workload.requests,
        seed=7,
        workload_mode="streaming",
        metrics=MetricsConfig(mode="streaming"),
        churn=churn,
        autoscale=workload.autoscale,
    )
    expected = run_experiment(workload.policy, scenario=child.scenario_of(workload), config=config)
    assert asdict(summary) == asdict(expected.summary)


def test_a_plain_pass_simulates_every_input_once_in_order():
    workload = replace(WORKLOADS["paper-dag"], requests=40, variants=3)
    result = child.plain(workload, 3, 2)
    runs = result["runs"]
    assert [run["input_seed"] for run in runs] == [input_seed(3, 0), input_seed(3, 1)]
    assert all(run["failures"] == [] and run["kernel_s"] > 0.0 for run in runs)
    assert runs[0]["digest"] != runs[1]["digest"]
    assert 0.0 < result["setup_s"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes_its_checks(name):
    workload = replace(WORKLOADS[name], requests=80)
    result = child.traced(workload, 3)
    assert result["failures"] == []
    layers = result["layers"]
    assert layers["policy.plan_calls"] > 0
    assert layers["simulator.residual_s"] >= 0.0
    # Searches only where the policy is ESG.
    assert (layers["esg_1q.searches"] > 0) == (workload.policy == "ESG")
