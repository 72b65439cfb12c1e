"""Tests for the locality-first ESG_Dispatch node selection.

``locality_first_invoker`` is the body ``ESGPolicy.select_invoker`` calls.
It walks only the nodes of the cluster's warm index, never every node.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.core.dispatch import locality_first_invoker
from repro.profiles.configuration import Configuration


@pytest.fixture
def cluster() -> ClusterState:
    return ClusterState(config=ClusterConfig(num_invokers=4))


CFG = Configuration(1, 2, 1)
APP = "image_classification"
FN = "segmentation"


class TestLocalityOrder:
    def test_prefers_predecessor_with_resident_function(self, cluster):
        cluster.invoker(2).create_warm_container(FN, 0.0)
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=2)
        assert chosen == 2

    def test_prefers_warm_node_over_cold_predecessor(self, cluster):
        """A cold start is orders of magnitude worse than a remote transfer."""
        cluster.invoker(3).create_warm_container(FN, 0.0)
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=1)
        assert chosen == 3

    def test_home_invoker_used_for_source_stages(self, cluster):
        home = cluster.home_invoker_id(APP, FN)
        cluster.invoker(home).create_warm_container(FN, 0.0)
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=None)
        assert chosen == home

    def test_predecessor_without_capacity_is_skipped(self, cluster):
        cluster.invoker(1).create_warm_container(FN, 0.0)
        cluster.invoker(1).reserve(Configuration(1, 16, 7))
        cluster.invoker(2).create_warm_container(FN, 0.0)
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=1)
        assert chosen == 2

    def test_cold_fallback_picks_most_available_node(self, cluster):
        # No node is warm anywhere and nodes 0-2 cannot fit the config:
        # fall back to the only remaining node.
        cluster.invoker(0).reserve(Configuration(1, 15, 7))
        cluster.invoker(1).reserve(Configuration(1, 16, 7))
        cluster.invoker(2).reserve(Configuration(1, 15, 7))
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=None)
        assert chosen == 3

    def test_predecessor_kept_when_no_node_is_warm(self, cluster):
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=1)
        assert chosen == 1

    def test_returns_none_when_cluster_is_full(self, cluster):
        for invoker in cluster:
            invoker.reserve(Configuration(1, 16, 7))
        assert locality_first_invoker(cluster, APP, FN, CFG, 0.0) is None

    def test_warm_fallback_prefers_most_available(self, cluster):
        cluster.invoker(1).create_warm_container(FN, 0.0)
        cluster.invoker(2).create_warm_container(FN, 0.0)
        cluster.invoker(1).reserve(Configuration(1, 8, 4))
        home = cluster.home_invoker_id(APP, FN)
        chosen = locality_first_invoker(cluster, APP, FN, CFG, 0.0)
        # Unless the home node happens to be warm, the dispatcher must pick
        # the warm node with the most available resources (node 2).
        if home not in (1, 2):
            assert chosen == 2


class RecordingList(list):
    """An invoker list that records which positions were read."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.read: set[int] = set()

    def __getitem__(self, index):
        self.read.add(index)
        return super().__getitem__(index)


class TestWarmIndexWalk:
    def test_reads_only_warm_candidates_home_and_predecessor(self):
        cluster = ClusterState(config=ClusterConfig(num_invokers=64))
        home = cluster.home_invoker_id(APP, FN)
        warm = next(i for i in (5, 6) if i != home)
        cluster.invoker(warm).create_warm_container(FN, 0.0)
        # Neither the home node nor node 9 can fit the configuration, so the
        # warm node wins without any cold-fallback query.
        cluster.invoker(home).reserve(Configuration(1, 16, 7))
        predecessor = next(i for i in (9, 10) if i not in (home, warm))
        cluster.invoker(predecessor).reserve(Configuration(1, 16, 7))
        cluster.invokers = RecordingList(cluster.invokers)
        chosen = locality_first_invoker(
            cluster, APP, FN, CFG, 0.0, predecessor_invoker_id=predecessor
        )
        assert chosen == warm
        assert cluster.invokers.read == {warm, home, predecessor}
