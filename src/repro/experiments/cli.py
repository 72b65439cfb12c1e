"""Command-line entry point: ``esg-repro <experiment> [options]``.

Examples
--------
Regenerate the static tables and the arrival distribution::

    esg-repro tables
    esg-repro fig5

Run the end-to-end comparison with a smaller workload::

    esg-repro fig6 --requests 80 --seed 7

Run the end-to-end matrix across four worker processes::

    esg-repro fig6 --jobs 4

Run everything (can take several minutes)::

    esg-repro all

List the named scenarios and compare every policy on one of them::

    esg-repro --list-scenarios
    esg-repro compare --scenario bursty-onoff-heavy --jobs 4

Sweep the full policy lattice across all cores, persisting every cell in a
content-addressed store so the next run (or any figure sharing cells) is
incremental::

    esg-repro sweep --seeds 1..8 --jobs 0 --store results/store
    esg-repro sweep --seeds 1..8 --jobs 0 --store results/store --resume
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.cli import build_lint_parser, run_lint
from repro.cluster.autoscale import autoscale_spec_names, get_autoscale_spec
from repro.cluster.churn import churn_spec_names, get_churn_spec
from repro.cluster.cluster import ClusterConfig
from repro.cluster.topology import parse_topology, topology_names
from repro.experiments.ablation import render_figure12, run_figure12
from repro.experiments.arrivals import render_figure5, run_figure5
from repro.experiments.autoscale_study import (
    autoscale_rows,
    dominating_modes,
    render_autoscale_study,
    run_autoscale_study,
)
from repro.experiments.churn_study import render_churn_study, churn_rows, run_churn_study
from repro.experiments.end_to_end import (
    figure6_rows,
    figure7_curves,
    figure8_rows,
    render_figure6,
    render_figure7,
    render_figure8,
    run_end_to_end,
)
from repro.experiments.miss_rate import render_table4, run_table4
from repro.experiments.orion_search import render_figure9, run_figure9
from repro.experiments.overhead import (
    render_bruteforce_comparison,
    render_figure10,
    run_bruteforce_comparison,
    run_figure10,
)
from repro.experiments.runner import DEFAULT_POLICIES, ExperimentConfig
from repro.experiments.scenario_sweep import compare_on_scenarios, render_scenario_list
from repro.experiments.sweep import (
    DEFAULT_SWEEP_TOPOLOGIES,
    run_sweep,
    write_report_csv,
    write_report_json,
)
from repro.experiments.sensitivity import (
    render_figure11,
    render_group_size_search,
    run_figure11,
    run_group_size_search,
)
from repro.experiments.tables import render_table1, render_table2, render_table3

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    """argparse type: a strictly positive integer (clean usage error otherwise)."""
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {number}")
    return number


def _topology_spec(value: str):
    """argparse type wrapper surfacing parse_topology's informative errors."""
    try:
        return parse_topology(value)
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _churn_spec(value: str):
    """argparse type wrapper surfacing get_churn_spec's informative errors."""
    try:
        return get_churn_spec(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc).strip("'\"")) from None


def _autoscale_spec(value: str):
    """argparse type wrapper surfacing get_autoscale_spec's informative errors."""
    try:
        return get_autoscale_spec(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc).strip("'\"")) from None


def _cluster_from_args(args: argparse.Namespace) -> ClusterConfig:
    """Resolve the ``--topology`` / ``--num-invokers`` cluster overrides."""
    cluster = (
        args.topology.to_cluster_config() if args.topology else ClusterConfig()
    )
    if args.num_invokers is not None:
        cluster = replace(cluster, num_invokers=args.num_invokers)
    return cluster


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # An explicit cluster flag pins the cluster shape: scenario-pinned
    # topologies must not override it, even `--topology paper-16`.
    pinned = bool(args.topology) or args.num_invokers is not None
    return ExperimentConfig(
        num_requests=args.requests,
        seed=args.seed,
        cluster=_cluster_from_args(args),
        cluster_pinned=pinned,
        churn=args.churn,
        autoscale=args.autoscale,
    )


def _jobs(args: argparse.Namespace) -> int:
    return args.jobs


def _cmd_tables(args: argparse.Namespace) -> str:
    return "\n\n".join([render_table1(), render_table2(), render_table3()])


def _cmd_fig5(args: argparse.Namespace) -> str:
    return render_figure5(run_figure5(seed=args.seed))


def _cmd_fig6_7_8(args: argparse.Namespace) -> str:
    # Figures 7/8 read raw latencies and per-app costs, so the cells run
    # live even with --store (their summaries still warm the cache).
    results = run_end_to_end(
        config=_config_from_args(args), n_jobs=_jobs(args), store=args.store
    )
    parts = [
        render_figure6(figure6_rows(results)),
        render_figure7(figure7_curves(results)),
        render_figure8(figure8_rows(results)),
    ]
    return "\n\n".join(parts)


def _cmd_fig6(args: argparse.Namespace) -> str:
    # Figure 6 reads only summaries: with --store, a warm render is
    # pure cache loads — zero simulations.
    results = run_end_to_end(
        config=_config_from_args(args),
        n_jobs=_jobs(args),
        store=args.store,
        summary_only=True,
    )
    return render_figure6(figure6_rows(results))


def _cmd_table4(args: argparse.Namespace) -> str:
    return render_table4(
        run_table4(config=_config_from_args(args), n_jobs=_jobs(args), store=args.store)
    )


def _cmd_fig9(args: argparse.Namespace) -> str:
    return render_figure9(
        run_figure9(config=_config_from_args(args), n_jobs=_jobs(args), store=args.store)
    )


def _cmd_fig10(args: argparse.Namespace) -> str:
    parts = [
        render_figure10(
            run_figure10(
                config=_config_from_args(args), n_jobs=_jobs(args), store=args.store
            )
        ),
        render_bruteforce_comparison(run_bruteforce_comparison()),
    ]
    return "\n\n".join(parts)


def _cmd_fig11(args: argparse.Namespace) -> str:
    parts = [
        render_figure11(
            run_figure11(
                config=_config_from_args(args), n_jobs=_jobs(args), store=args.store
            )
        ),
        render_group_size_search(run_group_size_search()),
    ]
    return "\n\n".join(parts)


def _cmd_fig12(args: argparse.Namespace) -> str:
    return render_figure12(
        run_figure12(config=_config_from_args(args), n_jobs=_jobs(args), store=args.store)
    )


def _cmd_compare(args: argparse.Namespace) -> str:
    scenarios = args.scenario or ["paper-moderate-normal"]
    return compare_on_scenarios(
        scenarios, config=_config_from_args(args), n_jobs=_jobs(args), store=args.store
    )


def _cmd_churn(args: argparse.Namespace) -> str:
    kwargs = {"config": _config_from_args(args), "n_jobs": _jobs(args), "store": args.store}
    if args.scenario:
        results = run_churn_study(args.scenario, **kwargs)
    else:
        results = run_churn_study(**kwargs)
    return render_churn_study(churn_rows(results))


def _cmd_autoscale(args: argparse.Namespace) -> str:
    kwargs = {"config": _config_from_args(args), "n_jobs": _jobs(args), "store": args.store}
    if args.scenario:
        results = run_autoscale_study(args.scenario, **kwargs)
    else:
        results = run_autoscale_study(**kwargs)
    return render_autoscale_study(
        autoscale_rows(results), dominance=dominating_modes(results)
    )


def _parse_csv_list(value: str, what: str) -> list[str]:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of {what}")
    return items


def _parse_seeds(value: str) -> list[int]:
    """Seeds flag: ``1,2,9`` and ranges like ``1..8`` (inclusive), mixable."""
    seeds: list[int] = []
    for token in _parse_csv_list(value, "seeds"):
        try:
            if ".." in token:
                lo_text, hi_text = token.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise argparse.ArgumentTypeError(
                        f"empty seed range {token!r} (end before start)"
                    )
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad seed {token!r}: expected an integer or a lo..hi range"
            ) from None
    return seeds


def _parse_policies(value: str) -> list[str]:
    return _parse_csv_list(value, "policy names")


def _parse_topologies(value: str) -> list[str]:
    return _parse_csv_list(value, "topology specs")


#: Default store path of ``esg-repro sweep`` when ``--store`` is not given.
DEFAULT_SWEEP_STORE = "esg-store"


def _cmd_sweep(args: argparse.Namespace) -> str:
    store_path = Path(args.store if args.store else DEFAULT_SWEEP_STORE)
    if args.resume and not store_path.is_dir():
        raise SystemExit(
            f"esg-repro sweep: --resume expects an existing store at {store_path} "
            "(nothing to resume; drop --resume to start a fresh sweep)"
        )
    report = run_sweep(
        policies=args.policies if args.policies else list(DEFAULT_POLICIES),
        scenarios=args.scenario or ["paper-moderate-normal"],
        topologies=args.topologies if args.topologies else list(DEFAULT_SWEEP_TOPOLOGIES),
        seeds=args.seeds if args.seeds else [args.seed],
        store=store_path,
        config=_config_from_args(args),
        n_jobs=_jobs(args),
        progress=True,
    )
    report_path = write_report_json(report, args.report)
    lines = [
        f"Sweep finished: {report.total} cells "
        f"({report.cached} cached, {report.executed} executed) "
        f"in {report.elapsed_s:.2f}s",
        f"Store:  {report.store} ({len(report.cells)} cells resident or refreshed)",
        f"Report: {report_path}",
    ]
    if args.csv:
        csv_path = write_report_csv(report, args.csv)
        lines.append(f"CSV:    {csv_path}")
    return "\n".join(lines)


_COMMANDS: dict[str, Callable[[argparse.Namespace], str]] = {
    "tables": _cmd_tables,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "e2e": _cmd_fig6_7_8,
    "table4": _cmd_table4,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "compare": _cmd_compare,
    "churn": _cmd_churn,
    "autoscale": _cmd_autoscale,
    "sweep": _cmd_sweep,
}

#: Commands excluded from ``esg-repro all`` (they need explicit scenario
#: intent, and ``all`` predates the scenario subsystem; ``churn`` and
#: ``autoscale`` likewise post-date it, and keeping them out preserves
#: ``all``'s historical output; ``sweep`` writes report files and a store,
#: which ``all`` must not).
_NOT_IN_ALL = frozenset({"compare", "churn", "autoscale", "sweep"})


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="esg-repro",
        description="Regenerate the tables and figures of the ESG paper (HPDC 2024), "
        "or compare the schedulers on named workload scenarios.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(_COMMANDS) + ["all", "lint"],
        help="which artefact to regenerate ('compare' sweeps policies over "
        "--scenario; 'churn' runs the dynamic-cluster study; 'autoscale' "
        "compares static vs feedback prewarm regimes; 'lint' runs "
        "the determinism linter — its own options follow the subcommand, "
        "see 'esg-repro lint --help')",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=120, help="requests per run (default 120)"
    )
    parser.add_argument("--seed", type=int, default=42, help="experiment seed (default 42)")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for simulation sweeps (default 1 = in-process, 0 = all cores)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario for the 'compare' command (repeatable; see --list-scenarios)",
    )
    parser.add_argument(
        "--topology",
        type=_topology_spec,
        metavar="SPEC",
        help="cluster topology: a registered name "
        f"({', '.join(topology_names())}), an invoker count N, or NxCxG "
        "(overrides the paper's 16x16x7 testbed; a scenario's pinned "
        "topology applies only when this is left unset)",
    )
    parser.add_argument(
        "--num-invokers",
        type=_positive_int,
        metavar="N",
        help="shorthand override of the invoker count alone",
    )
    parser.add_argument(
        "--churn",
        type=_churn_spec,
        metavar="NAME",
        help="capacity-churn recipe applied to every run: a registered "
        f"churn spec ({', '.join(churn_spec_names())}); expanded to a "
        "seed-derived join/leave/resize timeline per run (a scenario's own "
        "churn applies only when this is left unset)",
    )
    parser.add_argument(
        "--autoscale",
        type=_autoscale_spec,
        metavar="NAME",
        help="adaptive feedback prewarm applied to every run: a registered "
        f"autoscale spec ({', '.join(autoscale_spec_names())}); replaces the "
        "static EWMA prewarmer with the named controller (a scenario's own "
        "autoscale applies only when this is left unset)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="content-addressed result store: every summary-level cell "
        "persists its RunSummary here and repeat runs load cached cells "
        "instead of simulating (safe to share between concurrent runs; "
        "'sweep' defaults to ./" + DEFAULT_SWEEP_STORE + " when unset)",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered workload scenarios and exit",
    )
    sweep = parser.add_argument_group(
        "sweep options", "only used by the 'sweep' command"
    )
    sweep.add_argument(
        "--policies",
        type=_parse_policies,
        metavar="LIST",
        help="comma-separated policy names to sweep "
        f"(default: {','.join(DEFAULT_POLICIES)})",
    )
    sweep.add_argument(
        "--topologies",
        type=_parse_topologies,
        metavar="LIST",
        help="comma-separated topology specs (names, N, or NxCxG; "
        f"default: {','.join(DEFAULT_SWEEP_TOPOLOGIES)})",
    )
    sweep.add_argument(
        "--seeds",
        type=_parse_seeds,
        metavar="LIST",
        help="comma-separated seeds, ranges allowed: '1,2,5..8' "
        "(default: the single --seed value)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep: requires the store to exist "
        "(cached cells are always reused; this flag merely asserts there "
        "is something to resume)",
    )
    sweep.add_argument(
        "--report",
        metavar="PATH",
        default="sweep_report.json",
        help="where to write the JSON lattice report (default: sweep_report.json)",
    )
    sweep.add_argument(
        "--csv",
        metavar="PATH",
        help="also write the lattice as a flat CSV (one row per cell)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # The linter has its own option surface (paths, --format, --baseline,
        # ...), disjoint from the experiment options — give it its own parser.
        lint_parser = build_lint_parser(
            argparse.ArgumentParser(
                prog="esg-repro lint",
                description="AST-based determinism linter enforcing the "
                "byte-identity contract (see docs/determinism.md).",
            )
        )
        return run_lint(lint_parser.parse_args(arguments[1:]))
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.experiment == "lint":
        parser.error(
            "'lint' must be the first argument: esg-repro lint [paths] [options]"
        )
    if args.list_scenarios:
        print(render_scenario_list())
        return 0
    if args.experiment is None:
        parser.error("an experiment is required (or pass --list-scenarios)")
    if args.experiment == "all":
        outputs = [
            _COMMANDS[name](args) for name in sorted(_COMMANDS) if name not in _NOT_IN_ALL
        ]
        print("\n\n".join(outputs))
        return 0
    print(_COMMANDS[args.experiment](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
