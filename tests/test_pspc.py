"""Unit tests for the PSPC propagation builder — the paper's core claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hpspc import HPSPCIndex
from repro.core.parallel import SerialBackend, ThreadBackend
from repro.core.pspc import build_pspc
from repro.core.queries import spc_query
from repro.errors import IndexBuildError
from repro.graph.generators import (
    barabasi_albert,
    cycle_graph,
    grid_road_network,
    path_graph,
    watts_strogatz,
)
from repro.graph.graph import Graph
from repro.graph.properties import diameter_exact
from repro.graph.traversal import spc_pair
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order


def pspc_labels(graph, order, **kwargs):
    """The raw tuple labels the reference PSPC builder produces."""
    return build_pspc(graph, order, **kwargs)[0]


def hpspc_labels(graph, order):
    """The raw tuple labels HP-SPC builds under ``order``."""
    return HPSPCIndex.build(graph, order, store="tuple").labels


class TestEquivalenceWithBaseline:
    """The repository's central invariant: PSPC builds the HP-SPC index."""

    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(10),
            lambda: cycle_graph(11),
            lambda: barabasi_albert(120, 3, seed=2),
            lambda: watts_strogatz(80, 4, 0.2, seed=3),
            lambda: grid_road_network(6, 7, extra_edges=4, seed=4),
        ],
        ids=["path", "cycle", "ba", "ws", "grid"],
    )
    def test_identical_to_hpspc(self, graph_factory):
        graph = graph_factory()
        order = degree_order(graph)
        assert pspc_labels(graph, order) == hpspc_labels(graph, order)

    def test_identical_under_hybrid_order(self, road_graph):
        order = hybrid_order(road_graph)
        assert pspc_labels(road_graph, order) == hpspc_labels(road_graph, order)

    def test_pull_equals_push(self, social_graph):
        order = degree_order(social_graph)
        pull = pspc_labels(social_graph, order, paradigm="pull")
        push = pspc_labels(social_graph, order, paradigm="push")
        assert pull == push

    def test_thread_backend_does_not_change_index(self, social_graph):
        order = degree_order(social_graph)
        serial = pspc_labels(social_graph, order, backend=SerialBackend())
        backend = ThreadBackend(4)
        threaded = pspc_labels(social_graph, order, backend=backend)
        backend.close()
        assert serial == threaded

    def test_landmarks_do_not_change_index(self, social_graph):
        order = degree_order(social_graph)
        plain = pspc_labels(social_graph, order, num_landmarks=0)
        filtered = pspc_labels(social_graph, order, num_landmarks=20)
        assert plain == filtered


class TestCorrectness:
    def test_all_pairs_on_paper_graph(self, paper_graph, paper_order):
        index = pspc_labels(paper_graph, paper_order)
        for s in range(10):
            for t in range(10):
                result = spc_query(index, s, t)
                assert (result.dist, result.count) == spc_pair(paper_graph, s, t)

    def test_weighted_counting(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], vertex_weights=[1, 2, 1, 3, 1])
        index = pspc_labels(g, degree_order(g))
        # 0->3: 0-1-3 (x2) + 0-2-3 (x1) = 3; 0->4 adds internal vertex 3 (x3)
        assert spc_query(index, 0, 3).count == 3
        assert spc_query(index, 0, 4).count == 9

    def test_empty_graph(self):
        g = Graph(0, [])
        index = pspc_labels(g, degree_order(g))
        assert index.total_entries() == 0

    def test_single_vertex(self):
        g = Graph(1, [])
        index = pspc_labels(g, degree_order(g))
        assert spc_query(index, 0, 0).count == 1


class TestIterationStructure:
    def test_iterations_bounded_by_diameter(self, social_graph):
        order = degree_order(social_graph)
        _, stats = build_pspc(social_graph, order)
        # one final empty-propagation round may follow the last fresh label
        assert stats.n_iterations <= diameter_exact(social_graph) + 1

    def test_iteration_label_counts_sum_to_non_self_entries(self, social_graph):
        index, stats = build_pspc(social_graph, degree_order(social_graph))
        assert sum(stats.iteration_labels) == index.total_entries() - social_graph.n

    def test_max_iterations_enforced(self, social_graph):
        with pytest.raises(IndexBuildError):
            build_pspc(social_graph, degree_order(social_graph), max_iterations=1)

    def test_work_recording_optional(self, social_graph):
        _, stats = build_pspc(social_graph, degree_order(social_graph), record_work=False)
        assert stats.iteration_costs == []
        assert stats.iteration_labels  # label counts still tracked

    def test_work_units_positive(self, social_graph):
        _, stats = build_pspc(social_graph, degree_order(social_graph))
        assert stats.total_work > 0
        assert all(costs.min() >= 0 for costs in stats.iteration_costs)

    def test_pruning_counters_populated(self, social_graph):
        _, stats = build_pspc(social_graph, degree_order(social_graph))
        assert stats.pruned_by_rank > 0
        assert stats.pruned_by_query > 0

    def test_landmark_hits_counted(self, social_graph):
        _, stats = build_pspc(social_graph, degree_order(social_graph), num_landmarks=10)
        assert stats.landmark_hits > 0
        assert stats.phase("landmarks") > 0.0


class TestValidation:
    def test_unknown_paradigm_rejected(self, social_graph):
        with pytest.raises(IndexBuildError):
            build_pspc(social_graph, degree_order(social_graph), paradigm="teleport")

    def test_mismatched_order_rejected(self, social_graph, paper_order):
        with pytest.raises(IndexBuildError):
            build_pspc(social_graph, paper_order)
