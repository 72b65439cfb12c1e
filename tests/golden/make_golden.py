"""Write the golden ESG run summaries under ``tests/golden/esg/``.

Each file holds one ``RunSummary`` as JSON, every float in its exact
``repr``: one ESG variant (the paper's ESG, static planning, and the two
Figure 12 ablations) on ``paper-relaxed-heavy`` at one seed.
``test_golden_replay.py`` re-runs every case and compares the text byte
for byte, so a change to any decision, count or float shows up there.

Regenerate only when a behaviour change is intended, from the repository
root:

    PYTHONPATH=src python tests/golden/make_golden.py --force

Without ``--force`` the script refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.core.esg import ESGPolicy
from repro.experiments import ExperimentConfig, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "esg"
SCENARIO = "paper-relaxed-heavy"
NUM_REQUESTS = 100
SEEDS = (1, 2)
#: ESG constructor overrides of each variant, by file-name label.
VARIANTS: dict[str, dict[str, object]] = {
    "esg": {},
    "esg-static": {"adaptive": False, "name": "ESG static"},
    "esg-no-gpu-sharing": {"gpu_sharing": False, "name": "ESG w/o GPU sharing"},
    "esg-no-batching": {"batching": False, "name": "ESG w/o batching"},
}


def cases() -> list[tuple[str, int]]:
    """Every ``(variant, seed)`` pair of the corpus."""
    return [(variant, seed) for variant in VARIANTS for seed in SEEDS]


def file_name(variant: str, seed: int) -> str:
    return f"{variant}-seed{seed}.json"


def render(variant: str, seed: int) -> str:
    """Run one case and return its summary as canonical JSON text."""
    result = run_experiment(
        ESGPolicy(**VARIANTS[variant]),
        config=ExperimentConfig(num_requests=NUM_REQUESTS, seed=seed),
        scenario=SCENARIO,
    )
    return json.dumps(asdict(result.summary), indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite existing golden files")
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR, help="output directory")
    args = parser.parse_args(argv)
    targets = {case: args.out / file_name(*case) for case in cases()}
    existing = sorted(str(path) for path in targets.values() if path.exists())
    if existing and not args.force:
        print(
            f"refusing to overwrite {len(existing)} golden file(s), e.g. {existing[0]}; "
            "pass --force if the behaviour change is intended",
            file=sys.stderr,
        )
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    for (variant, seed), path in targets.items():
        path.write_text(render(variant, seed))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
