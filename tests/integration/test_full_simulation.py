"""Integration tests: full simulations with every scheduling policy.

These runs are intentionally small (tens of requests) but exercise the whole
stack — workload generation, AFW queues, the scheduling policy, dispatch,
containers, data transfer, metrics — and check the cross-cutting invariants
the unit tests cannot see.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    build_profile_store,
    make_policy,
    run_experiment,
)
from repro.workloads.scenarios import get_scenario

CONFIG = ExperimentConfig(num_requests=30, seed=17)
PAPER = get_scenario("paper-moderate-normal")


@pytest.fixture(scope="module")
def runs(task_log):
    """One scaled-down run per policy under the moderate-normal setting,
    with the requests it ran (built here and passed in) and the tasks it
    ran (from its task completion events)."""
    store = build_profile_store(CONFIG.space)
    out = {}
    for name in DEFAULT_POLICIES:
        # Aquatope's full offline training is slow; shrink it for the test.
        overrides = (
            {"bootstrap": 20, "rounds": 4, "samples_per_round": 2} if name == "Aquatope" else {}
        )
        policy = make_policy(name, **overrides)
        requests = PAPER.build_requests(CONFIG.num_requests, CONFIG.seed, store)
        log = task_log()
        with log.capturing():
            result = run_experiment(
                policy, PAPER, config=CONFIG, profile_store=store, requests=requests
            )
        out[name] = (result, requests, log.tasks)
    return out


@pytest.fixture(scope="module")
def results(runs):
    return {name: result for name, (result, _, _) in runs.items()}


@pytest.fixture(scope="module")
def requests(runs):
    return {name: run_requests for name, (_, run_requests, _) in runs.items()}


@pytest.fixture(scope="module")
def tasks(runs):
    return {name: run_tasks for name, (_, _, run_tasks) in runs.items()}


class TestEveryPolicyCompletesTheWorkload:
    @pytest.mark.parametrize("name", DEFAULT_POLICIES)
    def test_all_requests_complete(self, results, name):
        summary = results[name].summary
        assert summary.num_requests == CONFIG.num_requests
        assert summary.num_completed == CONFIG.num_requests

    @pytest.mark.parametrize("name", DEFAULT_POLICIES)
    def test_every_stage_of_every_request_ran_exactly_once(self, requests, tasks, name):
        for request in requests[name]:
            assert set(request.stage_completion_ms) == set(request.workflow.stage_ids())
        # Tasks carry each (request, stage) exactly once.
        seen: set[tuple[int, str]] = set()
        for task in tasks[name]:
            for job in task.jobs:
                key = (job.request.request_id, job.stage_id)
                assert key not in seen, f"{key} scheduled twice by {name}"
                seen.add(key)
        assert len(seen) == sum(r.workflow.num_stages for r in requests[name])

    @pytest.mark.parametrize("name", DEFAULT_POLICIES)
    def test_stage_order_respected(self, requests, name):
        for request in requests[name]:
            order = request.workflow.topological_order()
            for src, dst in request.workflow.edges():
                assert request.stage_completion_ms[src] <= request.stage_completion_ms[dst]
            assert request.completed_ms == max(request.stage_completion_ms.values())
            assert order  # sanity

    @pytest.mark.parametrize("name", DEFAULT_POLICIES)
    def test_resources_released_and_cost_positive(self, results, name):
        result = results[name]
        assert result.summary.total_cost_cents > 0
        # Costs attribute to applications completely.
        per_app = sum(result.metrics.total_cost_cents(a) for a in result.metrics.app_names())
        assert per_app == pytest.approx(result.summary.total_cost_cents)

    @pytest.mark.parametrize("name", DEFAULT_POLICIES)
    def test_latency_covers_every_task_of_the_request(self, requests, tasks, name):
        # A task starts after its job was ready (so after the arrival) and
        # ends before the request's last sink does.
        for task in tasks[name]:
            for job in task.jobs:
                assert job.request.latency_ms >= task.duration_ms
        for request in requests[name]:
            assert request.latency_ms > 0

    def test_warm_experiment_cluster_has_no_cold_starts(self, results):
        for name, result in results.items():
            assert result.summary.cold_starts == 0, name


class TestPolicyBehaviouralContrasts:
    def test_static_planners_record_plan_attempts(self, results):
        for name in ("Orion", "Aquatope"):
            assert results[name].summary.plan_attempts > 0

    def test_adaptive_policies_record_no_plan_attempts(self, results):
        for name in ("ESG", "INFless", "FaST-GShare"):
            assert results[name].summary.plan_attempts == 0

    def test_esg_uses_locality_more_than_fragmentation_baselines(self, results):
        esg = results["ESG"].summary
        infless = results["INFless"].summary
        esg_local_share = esg.local_transfers / max(1, esg.local_transfers + esg.remote_transfers)
        infless_local_share = infless.local_transfers / max(
            1, infless.local_transfers + infless.remote_transfers
        )
        assert esg_local_share >= infless_local_share

    def test_esg_cost_not_highest(self, results):
        costs = {name: r.summary.total_cost_cents for name, r in results.items()}
        assert costs["ESG"] < max(costs.values()) or len(set(costs.values())) == 1
