"""The process-wide ESG_1Q memo changes speed only.

Runs of the same input back to back, the first on an emptied memo and the
second on the memo the first left, must render byte-identical summaries and
call the policy's search (the module global ``repro.core.esg.esg_1q_search``)
equally often: the per-run interval store stays in front of the memo.  Only
the number of searches the memo has to run itself, its growth, differs.
Each run gets its own profile store, as every perfbench input does, so the
memo must match the stages by value.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.core.esg as esg_module
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
    """Summary JSON, policy search calls and memo growth of one run."""
    counter = CountingSearch(esg_module.esg_1q_search)
    monkeypatch.setattr(esg_module, "esg_1q_search", counter)
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
    return rendered, counter.calls, MEMO.size - before


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


def test_static_planning_replays_through_the_memo(monkeypatch):
    MEMO.clear()
    cold = run(monkeypatch, ESGPolicy(adaptive=False), "paper-relaxed-heavy", 1, 100)
    warm = run(monkeypatch, ESGPolicy(adaptive=False), "paper-relaxed-heavy", 1, 100)
    assert warm[:2] == cold[:2]
    assert cold[1:] == (4, 4) and warm[2] == 0


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
    _, calls, growth = run(monkeypatch, ESGPolicy(**overrides), "paper-relaxed-heavy", 1, 40)
    assert calls > 0
    assert growth == 0 and len(MEMO) == 0
