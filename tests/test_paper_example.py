"""Reproduction of the paper's running example (Fig. 2, Table II, Example 1).

The graph is reconstructed from the figure and the published label index.
Our builders reproduce Table II *exactly*, entry for entry, including the
``(v7, 3, 2)`` entry on ``v10``.  The worked Example 1 in the text contains
arithmetic slips ("2 + 2 = 4 ... with a length of 4"); the true answer,
confirmed by exhaustive BFS, is SPC(v10, v7) = 4 at distance 3 — which is
the count the example ultimately reports.
"""

from __future__ import annotations

import pytest

from repro.core.hpspc import HPSPCIndex
from repro.core.pspc import build_pspc
from repro.core.queries import spc_query
from repro.graph.traversal import spc_pair

#: Table II, transcribed with vertices as 0-based ids (v_i -> i-1).
TABLE_II = {
    0: [(0, 0, 1)],
    1: [(0, 2, 2), (6, 2, 1), (3, 1, 1), (9, 1, 1), (1, 0, 1)],
    2: [(0, 1, 1), (6, 2, 1), (2, 0, 1)],
    3: [(0, 1, 1), (6, 1, 1), (3, 0, 1)],
    4: [(0, 1, 1), (6, 1, 1), (4, 0, 1)],
    5: [(0, 2, 1), (6, 1, 1), (2, 1, 1), (5, 0, 1)],
    6: [(0, 2, 2), (6, 0, 1)],
    7: [(0, 3, 3), (6, 1, 1), (9, 2, 1), (7, 0, 1)],
    8: [(0, 2, 1), (6, 2, 1), (3, 3, 1), (9, 1, 1), (7, 1, 1), (8, 0, 1)],
    9: [(0, 1, 1), (6, 3, 2), (3, 2, 1), (9, 0, 1)],
}


@pytest.fixture
def built(paper_graph, paper_order):
    return build_pspc(paper_graph, paper_order)[0]


class TestTableII:
    def test_pspc_reproduces_every_label(self, built):
        for v, expected in TABLE_II.items():
            actual = sorted(
                (entry.hub, entry.dist, entry.count) for entry in built.label(v)
            )
            assert actual == sorted(expected), f"label mismatch at v{v + 1}"

    def test_hpspc_reproduces_table(self, paper_graph, paper_order):
        index = HPSPCIndex.build(paper_graph, paper_order, store="tuple").labels
        for v, expected in TABLE_II.items():
            actual = sorted(
                (entry.hub, entry.dist, entry.count) for entry in index.label(v)
            )
            assert actual == sorted(expected)

    def test_total_label_count_matches_table(self, built):
        assert built.total_entries() == sum(len(lst) for lst in TABLE_II.values())


class TestExample1:
    def test_spc_v10_v7(self, built):
        result = spc_query(built, 9, 6)
        assert result.dist == 3
        assert result.count == 4

    def test_example_matches_bfs(self, paper_graph):
        assert spc_pair(paper_graph, 9, 6) == (3, 4)

    def test_common_hubs_are_v1_and_v7(self, built):
        hubs_v10 = {entry.hub for entry in built.label(9)}
        hubs_v7 = {entry.hub for entry in built.label(6)}
        assert hubs_v10 & hubs_v7 == {0, 6}  # v1 and v7


class TestIntroductionFigure1:
    """Figure 1's motivating claim: t2 is 'more relevant' to s than t1."""

    def test_equal_distance_different_counts(self):
        # Graph H: s connects to t1 via one midpoint, to t2 via three.
        from repro.graph.graph import Graph

        #      v1
        # t1 - s  - v2 - t2   with v1, v2, v3 all bridging s and t2
        #      v3
        edges = [("s", "m"), ("m", "t1"),
                 ("s", "v1"), ("s", "v2"), ("s", "v3"),
                 ("v1", "t2"), ("v2", "t2"), ("v3", "t2")]
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder()
        b.add_edges(edges)
        g, names = b.build()
        ids = {name: i for i, name in enumerate(names)}
        from repro.ordering.degree import degree_order

        index, _ = build_pspc(g, degree_order(g))
        to_t1 = spc_query(index, ids["s"], ids["t1"])
        to_t2 = spc_query(index, ids["s"], ids["t2"])
        assert to_t1.dist == to_t2.dist == 2
        assert to_t1.count == 1
        assert to_t2.count == 3
