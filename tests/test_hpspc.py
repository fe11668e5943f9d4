"""Unit tests for the HP-SPC sequential baseline builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hpspc import HPSPCIndex
from repro.core.queries import spc_query
from repro.graph.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.traversal import spc_pair
from repro.ordering.base import VertexOrder, identity_order
from repro.ordering.degree import degree_order


def hpspc_labels(graph, order):
    """The raw tuple labels HP-SPC builds under ``order``."""
    return HPSPCIndex.build(graph, order, store="tuple").labels


class TestCanonicalStructure:
    def test_top_vertex_labels_only_itself(self, social_graph):
        order = degree_order(social_graph)
        index = hpspc_labels(social_graph, order)
        top = int(order.order[0])
        assert index.entries[top] == [(0, 0, 1)]

    def test_every_vertex_has_self_label(self, social_graph):
        order = degree_order(social_graph)
        index = hpspc_labels(social_graph, order)
        for v in range(social_graph.n):
            rank_v = int(order.rank[v])
            assert (rank_v, 0, 1) in index.entries[v]

    def test_hubs_always_outrank_vertex(self, social_graph):
        order = degree_order(social_graph)
        index = hpspc_labels(social_graph, order)
        for v, lst in enumerate(index.entries):
            for hub_rank, _, _ in lst:
                assert hub_rank <= int(order.rank[v])

    def test_labels_sorted_by_hub_rank(self, social_graph):
        index = hpspc_labels(social_graph, degree_order(social_graph))
        for lst in index.entries:
            ranks = [h for h, _, _ in lst]
            assert ranks == sorted(ranks)

    def test_label_distances_are_exact(self, diamond):
        order = degree_order(diamond)
        index = hpspc_labels(diamond, order)
        for v, lst in enumerate(index.entries):
            for hub_rank, dist, _ in lst:
                hub = int(order.order[hub_rank])
                assert dist == spc_pair(diamond, v, hub)[0]


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(8),
            lambda: cycle_graph(9),
            lambda: star_graph(7),
            lambda: complete_graph(6),
        ],
        ids=["path", "cycle", "star", "complete"],
    )
    def test_all_pairs_match_bfs(self, graph_factory):
        graph = graph_factory()
        index = hpspc_labels(graph, degree_order(graph))
        for s in range(graph.n):
            for t in range(graph.n):
                result = spc_query(index, s, t)
                assert (result.dist, result.count) == spc_pair(graph, s, t)

    def test_identity_order_also_exact(self, social_graph):
        # a bad order inflates the index but must not change answers
        index = hpspc_labels(social_graph, identity_order(social_graph))
        rng = np.random.default_rng(5)
        for _ in range(50):
            s, t = (int(x) for x in rng.integers(social_graph.n, size=2))
            result = spc_query(index, s, t)
            assert (result.dist, result.count) == spc_pair(social_graph, s, t)

    def test_disconnected_graph(self, two_components):
        index = hpspc_labels(two_components, degree_order(two_components))
        assert spc_query(index, 0, 3).count == 0
        assert spc_query(index, 3, 4).count == 1

    def test_weighted_graph(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], vertex_weights=[1, 2, 3, 1])
        index = hpspc_labels(g, degree_order(g))
        # paths 0-1-3 (weight 2) and 0-2-3 (weight 3)
        result = spc_query(index, 0, 3)
        assert (result.dist, result.count) == (2, 5)


class TestStats:
    def test_stats_recorded(self, social_graph):
        built = HPSPCIndex.build(social_graph, degree_order(social_graph), store="tuple")
        index, stats = built.labels, built.stats
        assert stats.builder == "hpspc"
        assert stats.total_entries == index.total_entries()
        assert stats.phase("construction") > 0.0
        assert stats.pruned_by_query > 0

    def test_better_order_prunes_to_smaller_index(self, social_graph):
        good = hpspc_labels(social_graph, degree_order(social_graph))
        bad_order = VertexOrder.from_order(
            degree_order(social_graph).order[::-1].copy(), social_graph.n, "worst"
        )
        bad = hpspc_labels(social_graph, bad_order)
        assert good.total_entries() < bad.total_entries()
