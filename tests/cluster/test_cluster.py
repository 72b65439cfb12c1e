"""Tests for the cluster state and home-invoker hashing."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.profiles.configuration import Configuration


class TestClusterConfig:
    def test_defaults_match_table2(self):
        config = ClusterConfig()
        assert config.num_invokers == 16
        assert config.vcpus_per_invoker == 16
        assert config.vgpus_per_invoker == 7
        assert config.total_vcpus == 256
        assert config.total_vgpus == 112

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_invokers=0)
        with pytest.raises(ValueError):
            ClusterConfig(vgpus_per_invoker=-1)

    @pytest.mark.parametrize("keep_alive_ms", [-5.0, 0.0, float("nan")])
    def test_keep_alive_must_be_positive(self, keep_alive_ms):
        with pytest.raises(ValueError, match=f"keep_alive_ms must be > 0, got {keep_alive_ms!r}"):
            ClusterConfig(keep_alive_ms=keep_alive_ms)

    def test_infinite_keep_alive_accepted(self):
        assert ClusterConfig(keep_alive_ms=float("inf")).keep_alive_ms == float("inf")


class TestClusterState:
    def test_builds_requested_invokers(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=4))
        assert len(cluster) == 4
        assert [inv.invoker_id for inv in cluster] == [0, 1, 2, 3]

    def test_invoker_lookup_bounds(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=2))
        assert cluster.invoker(1).invoker_id == 1
        with pytest.raises(KeyError):
            cluster.invoker(5)
        with pytest.raises(KeyError):
            cluster.invoker(-1)

    def test_home_invoker_is_deterministic_and_in_range(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=8))
        first = cluster.home_invoker_id("app", "deblur")
        assert first == cluster.home_invoker_id("app", "deblur")
        assert 0 <= first < 8

    def test_home_invoker_differs_per_application(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=16))
        homes = {
            cluster.home_invoker_id(app, "deblur")
            for app in ("a", "b", "c", "d", "e", "f", "g", "h")
        }
        assert len(homes) > 1  # hashing spreads applications over nodes

    def test_invokers_that_fit(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=3))
        cfg = Configuration(1, 8, 4)
        cluster.invoker(0).reserve(Configuration(1, 16, 1))
        fitting = cluster.invokers_that_fit(cfg)
        assert [inv.invoker_id for inv in fitting] == [1, 2]

    def test_most_available_invoker_prefers_free_nodes(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=3))
        cluster.invoker(0).reserve(Configuration(1, 8, 5))
        cluster.invoker(1).reserve(Configuration(1, 2, 1))
        best = cluster.most_available_invoker(Configuration(1, 1, 1))
        assert best.invoker_id == 2

    def test_most_available_invoker_none_when_full(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=1))
        cluster.invoker(0).reserve(Configuration(1, 16, 7))
        assert cluster.most_available_invoker(Configuration(1, 1, 1)) is None

    def test_warm_invokers_for(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=3))
        cluster.invoker(1).create_warm_container("deblur", 0.0)
        warm = cluster.warm_invokers_for("deblur", 0.0)
        assert [inv.invoker_id for inv in warm] == [1]

    def test_utilization_aggregates(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=2))
        assert cluster.cpu_utilization() == 0.0
        cluster.invoker(0).reserve(Configuration(1, 16, 7))
        assert cluster.cpu_utilization() == pytest.approx(0.5)
        assert cluster.gpu_utilization() == pytest.approx(0.5)
        assert cluster.total_available_vgpus() == 7

