"""ESG's interval plan cache changes speed only.

At 1,000 requests the policy with its plan cache and the reference policy
without it (``plan_cache=False``) must render byte-identical summaries,
while the cached policy runs far fewer ESG_1Q searches.  The searches are
counted through the module global ``repro.core.esg.esg_1q_search``, which
the policy resolves at call time.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.core.esg as esg_module
from repro.core.esg import ESGPolicy
from repro.experiments.runner import ExperimentConfig, build_profile_store, run_experiment

SCENARIOS = (
    ("paper-relaxed-heavy", 42),
    ("mixed-dags-normal", 1),
    ("paper-strict-light", 1),
)


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


class CountingSearch:
    """Calls the real search and counts the calls."""

    def __init__(self, search) -> None:
        self.search = search
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.search(*args, **kwargs)


@pytest.mark.parametrize("scenario, seed", SCENARIOS)
def test_cache_on_matches_cache_off_with_far_fewer_searches(store, monkeypatch, scenario, seed):
    config = ExperimentConfig(num_requests=1000, seed=seed)
    rendered: dict[bool, str] = {}
    searches: dict[bool, int] = {}
    for plan_cache in (True, False):
        counter = CountingSearch(esg_module.esg_1q_search)
        monkeypatch.setattr(esg_module, "esg_1q_search", counter)
        result = run_experiment(
            ESGPolicy(plan_cache=plan_cache), config=config, profile_store=store, scenario=scenario
        )
        monkeypatch.undo()
        rendered[plan_cache] = json.dumps(asdict(result.summary), indent=2, sort_keys=True)
        searches[plan_cache] = counter.calls
    assert rendered[True] == rendered[False]
    assert 0 < searches[True] and searches[True] * 10 < searches[False], searches


def test_static_plans_search_once_per_distinct_input(store, monkeypatch):
    """Static planning searches the whole workflow at a request's first
    stage; the search reads only the app, the stage, the clamped queue
    length and the SLO, so a run searches once per distinct such input."""
    config = ExperimentConfig(num_requests=100, seed=1)
    rendered: dict[bool, str] = {}
    searches: dict[bool, int] = {}
    for plan_cache in (True, False):
        counter = CountingSearch(esg_module.esg_1q_search)
        monkeypatch.setattr(esg_module, "esg_1q_search", counter)
        policy = ESGPolicy(adaptive=False, plan_cache=plan_cache)
        result = run_experiment(
            policy, config=config, profile_store=store, scenario="paper-relaxed-heavy"
        )
        monkeypatch.undo()
        rendered[plan_cache] = json.dumps(asdict(result.summary), indent=2, sort_keys=True)
        searches[plan_cache] = counter.calls
    assert rendered[True] == rendered[False]
    assert searches == {True: 4, False: 100}
