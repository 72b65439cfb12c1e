"""Tests for cluster topologies: registry, parsing and scenario threading."""

from __future__ import annotations

import pickle

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.topology import (
    TOPOLOGIES,
    ClusterTopology,
    get_topology,
    parse_topology,
    register_topology,
    topology_names,
)
from repro.workloads.scenarios import Scenario


class TestTopology:
    def test_builtins_cover_the_sweep_range(self):
        names = topology_names()
        assert "paper-16" in names
        assert "datacenter-1024" in names
        assert get_topology("paper-16").num_invokers == 16
        assert get_topology("pod-256").num_invokers == 256
        assert get_topology("datacenter-1024").total_vgpus == 1024 * 7

    def test_to_cluster_config(self):
        config = get_topology("rack-64").to_cluster_config()
        assert config == ClusterConfig(num_invokers=64)

    def test_get_passes_objects_through(self):
        topology = ClusterTopology(name="adhoc", num_invokers=3)
        assert get_topology(topology) is topology

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="paper-16"):
            get_topology("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(name="", num_invokers=4)
        with pytest.raises(ValueError):
            ClusterTopology(name="bad", num_invokers=0)
        with pytest.raises(ValueError):
            ClusterTopology(name="bad", num_invokers=4, keep_alive_ms=0.0)

    def test_nan_keep_alive_rejected(self):
        with pytest.raises(ValueError, match="keep_alive_ms must be > 0, got nan"):
            ClusterTopology(name="bad", num_invokers=4, keep_alive_ms=float("nan"))

    def test_register_refuses_silent_redefinition(self):
        with pytest.raises(ValueError, match="replace=True"):
            register_topology(ClusterTopology(name="paper-16", num_invokers=1))

    def test_topologies_are_picklable(self):
        topology = get_topology("pod-256")
        assert pickle.loads(pickle.dumps(topology)) == topology


class TestParseTopology:
    def test_registered_name(self):
        assert parse_topology("pod-256") is TOPOLOGIES.get("pod-256")

    def test_bare_invoker_count(self):
        topology = parse_topology("48")
        assert topology.num_invokers == 48
        assert topology.vcpus_per_invoker == 16  # paper per-node shape kept

    def test_full_spec(self):
        topology = parse_topology("128x8x4")
        assert (topology.num_invokers, topology.vcpus_per_invoker, topology.vgpus_per_invoker) == (
            128,
            8,
            4,
        )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="registered name"):
            parse_topology("banana")
        with pytest.raises(ValueError):
            parse_topology("8x8")


class TestScenarioTopology:
    def test_scenario_resolves_topology_names_eagerly(self):
        scenario = Scenario(
            name="t-scale",
            description="test",
            setting="moderate-normal",
            topology="pod-256",
        )
        assert isinstance(scenario.topology, ClusterTopology)
        assert scenario.topology.num_invokers == 256

    def test_unknown_topology_name_fails_at_construction(self):
        with pytest.raises(KeyError):
            Scenario(
                name="t-bad", description="test", setting="moderate-normal", topology="nope"
            )

    def test_scenario_with_topology_is_picklable(self):
        scenario = Scenario(
            name="t-pickle",
            description="test",
            setting="moderate-normal",
            topology="rack-64",
        )
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone.topology == scenario.topology


def mini_scenario(name: str) -> Scenario:
    return Scenario(
        name=name,
        description="test",
        setting="moderate-normal",
        stream="moderate-normal",
        topology=ClusterTopology(name="mini", num_invokers=2),
    )


class TestRunnerAppliesScenarioTopology:
    @pytest.fixture(scope="class")
    def store(self):
        from repro.experiments.runner import build_profile_store

        return build_profile_store()

    @pytest.fixture
    def highest_invoker(self, store, task_log):
        """Run ESG on 6 requests; the highest invoker id a task ran on."""
        from repro.experiments.runner import ExperimentConfig, run_experiment

        def run(scenario, **config) -> int:
            log = task_log()
            with log.capturing():
                run_experiment(
                    "ESG",
                    scenario,
                    config=ExperimentConfig(num_requests=6, **config),
                    profile_store=store,
                )
            return max(t.invoker_id for t in log.tasks)

        return run

    def test_scenario_topology_sizes_the_cluster(self, highest_invoker):
        # Sanity anchor: on the paper's 16 nodes, ESG's home-invoker hashing
        # spreads the four applications beyond nodes {0, 1}.
        assert highest_invoker("paper-moderate-normal") > 1
        assert highest_invoker(mini_scenario("t-mini-cluster")) <= 1

    def test_explicit_cluster_config_beats_scenario_topology(self, highest_invoker):
        # The explicit (non-default) cluster config wins over the scenario's
        # pinned topology, so placement spreads past the 2-node mini cluster.
        assert (
            highest_invoker(
                mini_scenario("t-overridden"), cluster=ClusterConfig(num_invokers=8)
            )
            > 1
        )

    def test_orthogonal_keep_alive_override_composes_with_scenario_topology(
        self, highest_invoker
    ):
        # keep_alive_ms is not part of the cluster *shape*: tuning it must
        # not silently disable the scenario's pinned topology.
        assert (
            highest_invoker(
                mini_scenario("t-keepalive-topology"),
                cluster=ClusterConfig(keep_alive_ms=30_000.0),
            )
            <= 1
        )

    def test_cluster_pinned_flag_beats_scenario_topology_even_at_the_default(
        self, highest_invoker
    ):
        # `--topology paper-16` on the CLI resolves to the default-shaped
        # ClusterConfig; the pinned flag must still make it win.
        assert (
            highest_invoker(
                mini_scenario("t-pinned-default"),
                cluster=ClusterConfig(),
                cluster_pinned=True,
            )
            > 1
        )
