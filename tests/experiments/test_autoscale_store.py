"""Result-store keys cover the autoscale config (schema v2).

An adaptive run and its static twin must never share a store cell, and two
spellings of the same controller (registered name vs. the spec object) must
share one — otherwise incremental sweeps either serve stale static results
for adaptive requests or re-run cells they already hold.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cluster.autoscale import AutoscaleSpec, get_autoscale_spec
from repro.experiments.engine import RunSpec
from repro.experiments.runner import ExperimentConfig
from repro.experiments.store import STORE_SCHEMA_VERSION, spec_key, spec_key_doc
from repro.workloads.scenarios import get_scenario

SMALL = ExperimentConfig(num_requests=6, seed=11)


def _spec(**kwargs) -> RunSpec:
    kwargs.setdefault("scenario", "paper-strict-light")
    kwargs.setdefault("config", SMALL)
    return RunSpec(policy="ESG", **kwargs)


def _autoscaled(autoscale) -> RunSpec:
    return _spec(config=ExperimentConfig(num_requests=6, seed=11, autoscale=autoscale))


class TestAutoscaleSpecKey:
    def test_schema_version_bumped_for_autoscale(self):
        # The key document gained a field: runs keyed by the v1 schema must
        # not alias into v2 cells (v3 later dropped the event-loop mode).
        assert STORE_SCHEMA_VERSION >= 2
        assert "autoscale" in spec_key_doc(_spec())["config"]

    def test_adding_a_controller_changes_the_key(self):
        assert spec_key(_autoscaled("threshold-default")) != spec_key(_spec())

    def test_controller_kind_changes_the_key(self):
        assert spec_key(_autoscaled("threshold-default")) != spec_key(
            _autoscaled("pid-default")
        )

    def test_parameter_change_changes_the_key(self):
        base = get_autoscale_spec("threshold-default")
        retuned = dataclasses.replace(base, high_watermark=base.high_watermark + 1.0)
        assert spec_key(_autoscaled(base)) != spec_key(_autoscaled(retuned))

    def test_name_and_spec_object_share_a_key(self):
        assert spec_key(_autoscaled("pid-default")) == spec_key(
            _autoscaled(get_autoscale_spec("pid-default"))
        )

    def test_label_only_change_keeps_the_key(self):
        adaptive = _autoscaled("threshold-default")
        relabeled = dataclasses.replace(adaptive, label="renamed row", summary_only=True)
        assert spec_key(adaptive) == spec_key(relabeled)

    def test_scenario_carried_autoscale_participates(self):
        scenario = get_scenario("diurnal-normal")
        adaptive_scenario = dataclasses.replace(scenario, autoscale="threshold-default")
        static = _spec(scenario=scenario)
        adaptive = _spec(scenario=adaptive_scenario)
        assert spec_key(static) != spec_key(adaptive)

    def test_key_is_stable_across_hash_randomisation(self):
        """PYTHONHASHSEED (and process boundaries) must not move adaptive keys."""
        code = (
            "from repro.experiments.engine import RunSpec\n"
            "from repro.experiments.runner import ExperimentConfig\n"
            "from repro.experiments.store import spec_key\n"
            "spec = RunSpec(policy='ESG', scenario='paper-strict-light',\n"
            "               config=ExperimentConfig(num_requests=6, seed=11,\n"
            "                                       autoscale='threshold-default'))\n"
            "print(spec_key(spec))\n"
        )
        keys = []
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            keys.append(proc.stdout.strip())
        assert len(set(keys)) == 1
        assert keys[0] == spec_key(_autoscaled("threshold-default"))

    def test_unregistered_spec_object_is_keyable(self):
        custom = AutoscaleSpec(name="local-only", kind="pid", setpoint=2.5)
        key = spec_key(_autoscaled(custom))
        assert key != spec_key(_autoscaled("pid-default"))
