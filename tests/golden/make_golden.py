"""Write the golden run summaries under ``tests/golden/``.

Each file holds one ``RunSummary`` as JSON, every float in its exact
``repr``.  The corpus is a lattice of ``(policy, scenario, seed)`` cases
in three groups:

* ``esg/``: the ESG variants (the paper's ESG, static planning, and the
  two Figure 12 ablations) on ``paper-relaxed-heavy``;
* ``retry/``: INFless, FaST-GShare, ESG and Orion on ``overload-spike``,
  on ``harvest-severe-normal``, and on ``churn-eviction-storm`` and
  ``churn-eviction-fail`` with the ``pid-default`` autoscaler.  The
  enumeration baselines park many queues on the controller's recheck
  list there and retry them on every tick, so these cases pin the retry
  path; the churn cases add node resizes, joins, leaves and request
  purges while queues are parked;
* ``lattice/``: the event loop and the controller across the policies
  and scenarios: all five policies on the three paper settings, on
  ``harvest-severe-normal`` and ``churn-eviction-fail`` without an
  autoscaler, and on ``paper-moderate-normal`` from a cluster warm only
  at each function's home node (so the static EWMA prewarmer changes
  outcomes); ESG on three non-paper arrival processes, under both
  autoscalers on two adaptive scenarios (also warm only at home), and on
  a run truncated by ``max_time_ms``; ESG warm only at home with an 80 ms
  and a 2 ms keep-alive (containers expire mid-run, the 2 ms deadlines
  on tick timestamps); ESG and INFless under both autoscalers on
  ``bursty-onoff-heavy`` with those two keep-alives (decision passes fall
  between ticks while containers expire); ESG on a one-node cluster,
  where queues pile up on the recheck list and drain by forced minimum
  dispatches; and ESG and INFless on a 64-invoker cluster.  Cells already
  in ``esg/`` or ``retry/`` are not repeated.

``test_golden_replay.py`` re-runs every case and compares the text byte
for byte, so a change to any decision, count or float shows up there.

Regenerate only when a behaviour change is intended, from the repository
root:

    PYTHONPATH=src python tests/golden/make_golden.py --force

Without ``--force`` the script refuses to overwrite an existing file.
``--out DIR`` writes the corpus under another directory instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.core.esg import ESGPolicy
from repro.experiments import DEFAULT_POLICIES, ExperimentConfig, make_policy, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent
NUM_REQUESTS = 100
SEEDS = (1, 2)
#: ESG constructor overrides of each ``esg/`` variant, by file-name label.
VARIANTS: dict[str, dict[str, object]] = {
    "esg": {},
    "esg-static": {"adaptive": False, "name": "ESG static"},
    "esg-no-gpu-sharing": {"gpu_sharing": False, "name": "ESG w/o GPU sharing"},
    "esg-no-batching": {"batching": False, "name": "ESG w/o batching"},
}
#: Policies of the ``retry/`` group, by their ``make_policy`` names.
RETRY_POLICIES = ("INFless", "FaST-GShare", "ESG", "Orion")
#: Scenarios of the ``retry/`` group and the autoscaler each runs with.
RETRY_SCENARIOS: dict[str, str | None] = {
    "overload-spike": None,
    "churn-eviction-storm": "pid-default",
    "harvest-severe-normal": None,
    "churn-eviction-fail": "pid-default",
}
PAPER_SCENARIOS = ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")
#: Arrival processes with their own RNG paths (Poisson, trace replay, mixed DAGs).
NON_PAPER_SCENARIOS = ("poisson-normal", "trace-replay-azure", "mixed-dags-normal")
CHURN_SCENARIOS = ("harvest-severe-normal", "churn-eviction-fail")
AUTOSCALE_SPECS = ("threshold-default", "pid-default")
AUTOSCALE_SCENARIOS = ("diurnal-normal", "bursty-onoff-heavy")
#: Keep-alives short enough that containers expire mid-run.
KEEP_ALIVES_MS = (80.0, 2.0)


@dataclass(frozen=True)
class Case:
    """One golden run: a policy on a scenario at one seed."""

    group: str
    #: An ESG variant label (``esg/``) or a ``make_policy`` name (other groups).
    policy: str
    scenario: str
    seed: int
    autoscale: str | None = None
    #: ``ControllerConfig.initial_warm`` override; ``None`` keeps the
    #: experiments' all-warm default.
    initial_warm: str | None = None
    num_requests: int = NUM_REQUESTS
    max_time_ms: float = float("inf")
    #: ``ClusterConfig`` overrides; ``None`` keeps the paper testbed.
    keep_alive_ms: float | None = None
    num_invokers: int | None = None

    @property
    def tags(self) -> str:
        """Name suffix of the overrides (the ``retry/`` names omit the autoscaler)."""
        tags = [self.autoscale] if self.autoscale and self.group != "retry" else []
        if self.initial_warm is not None:
            tags.append(f"warm-{self.initial_warm}")
        if self.num_requests != NUM_REQUESTS:
            tags.append(f"n{self.num_requests}")
        if self.max_time_ms != float("inf"):
            tags.append(f"t{self.max_time_ms:g}")
        if self.keep_alive_ms is not None:
            tags.append(f"ka{self.keep_alive_ms:g}")
        if self.num_invokers is not None:
            tags.append(f"inv{self.num_invokers}")
        return "".join(f"-{tag}" for tag in tags)

    @property
    def id(self) -> str:
        """Test id; the ``esg/`` and ``retry/`` ids predate the group prefix."""
        if self.group == "esg":
            return f"{self.policy}-{self.seed}"
        name = f"{self.policy}-{self.scenario}{self.tags}-{self.seed}"
        return name if self.group == "retry" else f"{self.group}-{name}"

    @property
    def path(self) -> Path:
        """File of the case, relative to the corpus directory."""
        if self.group == "esg":
            return Path("esg") / f"{self.policy}-seed{self.seed}.json"
        label = self.policy.lower()
        return Path(self.group) / f"{label}-{self.scenario}{self.tags}-seed{self.seed}.json"

    def config(self) -> ExperimentConfig:
        """The experiment configuration of the case."""
        config = ExperimentConfig(
            num_requests=self.num_requests,
            seed=self.seed,
            autoscale=self.autoscale,
            max_time_ms=self.max_time_ms,
        )
        cluster = {
            name: value
            for name, value in (
                ("keep_alive_ms", self.keep_alive_ms),
                ("num_invokers", self.num_invokers),
            )
            if value is not None
        }
        if cluster:
            config = config.with_overrides(cluster=replace(config.cluster, **cluster))
        if self.initial_warm is None:
            return config
        return config.with_overrides(
            controller=replace(config.controller, initial_warm=self.initial_warm)
        )


def cases() -> list[Case]:
    """Every case of the corpus."""
    esg = [
        Case("esg", variant, "paper-relaxed-heavy", seed)
        for variant in VARIANTS
        for seed in SEEDS
    ]
    retry = [
        Case("retry", policy, scenario, seed, autoscale)
        for scenario, autoscale in RETRY_SCENARIOS.items()
        for policy in RETRY_POLICIES
        for seed in SEEDS
    ]
    lattice = [
        *(Case("lattice", p, s, 0) for s in PAPER_SCENARIOS for p in DEFAULT_POLICIES),
        *(Case("lattice", "ESG", s, 0) for s in NON_PAPER_SCENARIOS),
        *(Case("lattice", p, s, 0) for s in CHURN_SCENARIOS for p in DEFAULT_POLICIES),
        *(
            Case("lattice", "ESG", s, 0, autoscale=a, initial_warm="home")
            for s in AUTOSCALE_SCENARIOS
            for a in AUTOSCALE_SPECS
        ),
        *(
            Case("lattice", p, "paper-moderate-normal", 0, initial_warm="home")
            for p in DEFAULT_POLICIES
        ),
        Case("lattice", "ESG", "paper-moderate-normal", 0, num_requests=40, max_time_ms=300.0),
        *(
            Case("lattice", "ESG", "paper-moderate-normal", 0, initial_warm="home", keep_alive_ms=k)
            for k in KEEP_ALIVES_MS
        ),
        *(
            Case(
                "lattice", p, "bursty-onoff-heavy", 0,
                autoscale=a, initial_warm="home", keep_alive_ms=k,
            )
            for p in ("ESG", "INFless")
            for a in AUTOSCALE_SPECS
            for k in KEEP_ALIVES_MS
        ),
        Case("lattice", "ESG", "paper-moderate-normal", 0, num_requests=24, num_invokers=1),
        *(Case("lattice", p, "paper-moderate-normal", 0, num_invokers=64) for p in ("ESG", "INFless")),
    ]
    # Each lattice cell runs at every seed; a cell another group already
    # pins (same policy and scenario, no override) is not repeated.
    covered = {(c.policy.lower(), c.scenario) for c in retry if c.autoscale is None}
    covered |= {("esg", case.scenario) for case in esg if case.policy == "esg"}
    lattice = [
        replace(case, seed=seed)
        for case in lattice
        if case.tags or (case.policy.lower(), case.scenario) not in covered
        for seed in SEEDS
    ]
    return esg + retry + lattice


def render(case: Case) -> str:
    """Run one case and return its summary as canonical JSON text."""
    if case.group == "esg":
        policy = ESGPolicy(**VARIANTS[case.policy])
    else:
        policy = make_policy(case.policy)
    result = run_experiment(policy, config=case.config(), scenario=case.scenario)
    return json.dumps(asdict(result.summary), indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite existing golden files")
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR, help="output directory")
    args = parser.parse_args(argv)
    targets = {case: args.out / case.path for case in cases()}
    existing = sorted(str(path) for path in targets.values() if path.exists())
    if existing and not args.force:
        print(
            f"refusing to overwrite {len(existing)} golden file(s), e.g. {existing[0]}; "
            "pass --force if the behaviour change is intended",
            file=sys.stderr,
        )
        return 1
    for case, path in targets.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(case))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
