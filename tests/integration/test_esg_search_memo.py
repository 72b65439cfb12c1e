"""The process-wide ESG_1Q memo changes speed only.

Runs of the same input back to back, the first on an emptied memo and the
second on the memo the first left, must render byte-identical summaries and
call the policy's search (the module global ``repro.core.esg.esg_1q_search``)
equally often: the per-run interval store stays in front of the memo.  Only
the number of searches the memo has to run itself (it calls
``repro.core.esg_1q.esg_1q_search`` on a miss) and its growth differ.
Each run gets its own profile store, as every perfbench input does, so the
memo must match the stages by value.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.core.esg as esg_module
import repro.core.esg_1q as esg_1q_module
from repro.core.esg import ESGPolicy
from repro.experiments.runner import ExperimentConfig, build_profile_store, run_experiment

MEMO = esg_module._SEARCH_MEMO


class CountingSearch:
    """Calls the real search and counts the calls."""

    def __init__(self, search) -> None:
        self.search = search
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.search(*args, **kwargs)


def run(monkeypatch, policy: ESGPolicy, scenario: str, seed: int, requests: int):
    """Summary JSON, policy search calls, memo growth and the searches the
    memo ran of one run."""
    counter = CountingSearch(esg_module.esg_1q_search)
    monkeypatch.setattr(esg_module, "esg_1q_search", counter)
    kernel = CountingSearch(esg_1q_module.esg_1q_search)
    monkeypatch.setattr(esg_1q_module, "esg_1q_search", kernel)
    before = MEMO.size
    try:
        result = run_experiment(
            policy,
            config=ExperimentConfig(num_requests=requests, seed=seed),
            profile_store=build_profile_store(),
            scenario=scenario,
        )
    finally:
        monkeypatch.undo()
    rendered = json.dumps(asdict(result.summary), indent=2, sort_keys=True)
    return rendered, counter.calls, MEMO.size - before, kernel.calls


#: Searches the memo runs in each cold run below, 241 in all.  An entry
#: answers its search's whole regime, not just its interval: with
#: interval-only entries the six runs searched 641 times.
KERNEL_SEARCHES = {
    ("paper-strict-light", 1): 38,
    ("paper-strict-light", 42): 40,
    ("paper-moderate-normal", 1): 49,
    ("paper-moderate-normal", 42): 53,
    ("paper-relaxed-heavy", 1): 34,
    ("paper-relaxed-heavy", 42): 27,
}


@pytest.mark.parametrize("seed", (1, 42))
@pytest.mark.parametrize(
    "scenario", ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")
)
def test_warm_memo_replays_the_cold_run(monkeypatch, scenario, seed):
    MEMO.clear()
    cold = run(monkeypatch, ESGPolicy(), scenario, seed, 300)
    warm = run(monkeypatch, ESGPolicy(), scenario, seed, 300)
    assert warm[0] == cold[0]
    assert warm[1] == cold[1] > 0
    assert cold[2] > 0 and warm[2] == 0, (cold, warm)
    assert cold[3] == KERNEL_SEARCHES[scenario, seed] and warm[3] == 0, (cold[3], warm[3])


def test_static_planning_replays_through_the_memo(monkeypatch):
    MEMO.clear()
    cold = run(monkeypatch, ESGPolicy(adaptive=False), "paper-relaxed-heavy", 1, 100)
    warm = run(monkeypatch, ESGPolicy(adaptive=False), "paper-relaxed-heavy", 1, 100)
    assert warm[:2] == cold[:2]
    assert cold[1:] == (4, 4, 4) and warm[2:] == (0, 0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"plan_cache": False},
        {"adaptive": False, "plan_cache": False},
    ],
    ids=repr,
)
def test_memo_stays_empty_without_the_plan_cache(monkeypatch, overrides):
    MEMO.clear()
    _, calls, growth, _ = run(monkeypatch, ESGPolicy(**overrides), "paper-relaxed-heavy", 1, 40)
    assert calls > 0
    assert growth == 0 and len(MEMO) == 0
