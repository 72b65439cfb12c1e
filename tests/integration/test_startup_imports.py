"""Scipy loads only where Aquatope trains.

Scipy is called only by Aquatope's offline Bayesian optimisation
(:mod:`repro.baselines.bo`), and importing it costs over a second and
about 60 MB per interpreter on a 2-vCPU VM (docs/performance.md).
A fresh interpreter imports the package's entry points and simulates the
four policies that never train, and no ``scipy`` module may be loaded; a
small Aquatope run must then load it.  The check needs its own interpreter
because the test session itself has long since imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import repro
import repro.baselines
import repro.experiments
import repro.experiments.cli
from repro.baselines.aquatope import AquatopePolicy
from repro.experiments import ExperimentConfig, run_experiment

phases = {"imports": scipy_modules()}
config = ExperimentConfig(num_requests=6, seed=3)
for name in ("ESG", "INFless", "FaST-GShare", "Orion"):
    run_experiment(name, "paper-moderate-normal", config=config)
phases["numpy-only policies"] = scipy_modules()
aquatope = AquatopePolicy(bootstrap=4, rounds=1, samples_per_round=1)
run_experiment(aquatope, "paper-moderate-normal", config=config)
phases["aquatope"] = scipy_modules()
print(json.dumps(phases))
"""


@pytest.fixture(scope="module")
def loaded_scipy() -> dict[str, list[str]]:
    """The scipy modules loaded after each phase of a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_entry_points_import_without_scipy(loaded_scipy):
    assert loaded_scipy["imports"] == []


def test_numpy_only_policies_run_without_scipy(loaded_scipy):
    assert loaded_scipy["numpy-only policies"] == []


def test_aquatope_training_loads_scipy(loaded_scipy):
    assert {"scipy.linalg", "scipy.stats"} <= set(loaded_scipy["aquatope"])
