"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_known_experiments_parse(self):
        parser = build_parser()
        args = parser.parse_args(["tables"])
        assert args.experiment == "tables"
        assert args.requests == 120

    def test_options_parse(self):
        args = build_parser().parse_args(["fig5", "--requests", "30", "--seed", "9"])
        assert args.requests == 30
        assert args.seed == 9

    def test_jobs_option_parses_and_defaults_to_sequential(self):
        assert build_parser().parse_args(["fig6"]).jobs == 1
        assert build_parser().parse_args(["fig6", "--jobs", "4"]).jobs == 4

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_topology_and_num_invokers_options(self):
        from repro.cluster.cluster import ClusterConfig
        from repro.experiments.cli import _cluster_from_args

        args = build_parser().parse_args(["fig6"])
        assert _cluster_from_args(args) == ClusterConfig()

        args = build_parser().parse_args(["fig6", "--topology", "pod-256"])
        assert _cluster_from_args(args).num_invokers == 256

        args = build_parser().parse_args(["fig6", "--topology", "32x8x4"])
        cluster = _cluster_from_args(args)
        assert (cluster.num_invokers, cluster.vcpus_per_invoker, cluster.vgpus_per_invoker) == (
            32,
            8,
            4,
        )

        args = build_parser().parse_args(["fig6", "--num-invokers", "48"])
        assert _cluster_from_args(args).num_invokers == 48

        # --num-invokers refines a named topology's node count.
        args = build_parser().parse_args(
            ["fig6", "--topology", "pod-256", "--num-invokers", "12"]
        )
        assert _cluster_from_args(args).num_invokers == 12

    def test_workload_mode_flag_was_removed(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--workload-mode", "streaming"])
        assert "unrecognized arguments: --workload-mode" in capsys.readouterr().err

    def test_invalid_topology_and_invoker_count_fail_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--topology", "bogus"])
        assert "registered name" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--num-invokers", "0"])
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_nonpositive_request_counts_are_usage_errors(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["table4", "--requests", value])
        assert exit_info.value.code == 2
        assert "--requests: must be a positive integer" in capsys.readouterr().err


class TestMain:
    def test_tables_command_prints_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out

    def test_fig5_command(self, capsys):
        assert main(["fig5", "--seed", "3"]) == 0
        assert "Figure 5" in capsys.readouterr().out
