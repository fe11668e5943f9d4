"""Tests for the QueryEngine dispatch layer and the vectorized batch kernel,
including a differential test of the array kernel on every serving path."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro import build_index
from repro.core.compact import CompactLabelIndex
from repro.core.engine import (
    QueryEngine,
    query_batch_arrays,
    query_batch_compact,
    spc_results,
)
from repro.core.index import PSPCIndex
from repro.core.labels import LabelIndex
from repro.core.queries import spc_query, spc_query_with_cost
from repro.errors import QueryError
from repro.graph.generators import barabasi_albert, grid_road_network
from repro.graph.graph import Graph
from repro.ordering.base import VertexOrder
from repro.reduction.equivalence import EquivalenceReduction
from repro.serve.pool import WorkerPool
from repro.serve.router import GatherEvaluator
from repro.serve.shm import ShmSegmentFleet


@pytest.fixture
def built(social_graph):
    index = PSPCIndex.build(social_graph, store="tuple")
    compact = CompactLabelIndex.from_index(index.labels)
    return social_graph, index.labels, compact


class TestDispatch:
    def test_kind_property(self, built):
        _, labels, compact = built
        assert QueryEngine(labels).kind == "tuple"
        assert QueryEngine(compact).kind == "compact"

    def test_engines_agree_per_pair(self, built):
        graph, labels, compact = built
        tuple_engine = QueryEngine(labels)
        compact_engine = QueryEngine(compact)
        rng = np.random.default_rng(3)
        for _ in range(150):
            s, t = (int(x) for x in rng.integers(graph.n, size=2))
            assert tuple_engine.query(s, t) == compact_engine.query(s, t)

    def test_shortcuts(self, built):
        _, _, compact = built
        engine = QueryEngine(compact)
        result = engine.query(0, 5)
        assert engine.spc(0, 5) == result.count
        assert engine.distance(0, 5) == result.dist


class TestVectorizedBatch:
    def test_matches_tuple_kernel(self, built):
        graph, labels, compact = built
        rng = np.random.default_rng(5)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(500, 2))]
        expected = [spc_query(labels, s, t) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected

    def test_crosses_chunk_boundaries(self, built, monkeypatch):
        graph, labels, compact = built
        monkeypatch.setattr(engine_module, "_BATCH_CHUNK", 7)
        rng = np.random.default_rng(6)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(40, 2))]
        expected = [spc_query(labels, s, t) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected

    def test_identity_and_unreachable(self, two_components):
        index = PSPCIndex.build(two_components)
        results = index.query_batch([(1, 1), (0, 4), (0, 2)])
        assert (results[0].dist, results[0].count) == (0, 1)
        assert (results[1].dist, results[1].count) == (-1, 0)
        assert (results[2].dist, results[2].count) == (2, 1)

    def test_empty_batch(self, built):
        _, _, compact = built
        assert query_batch_compact(compact, []) == []

    def test_out_of_range_rejected(self, built):
        _, _, compact = built
        with pytest.raises(QueryError):
            query_batch_compact(compact, [(0, 10_000)])
        with pytest.raises(QueryError):
            query_batch_compact(compact, [(-1, 0)])

    def test_bad_shape_rejected(self, built):
        _, _, compact = built
        with pytest.raises(QueryError):
            query_batch_compact(compact, [(1, 2, 3)])

    def test_ndarray_input_accepted(self, built):
        graph, labels, compact = built
        pairs = np.array([[0, 5], [3, 9], [7, 7]])
        expected = [spc_query(labels, int(s), int(t)) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected

    def test_weighted_graph_batch(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weights=[1, 5, 1])
        index = PSPCIndex.build(g)
        assert index.store.kind == "compact"
        results = index.query_batch([(0, 2), (0, 1), (2, 2)])
        assert [r.count for r in results] == [5, 1, 1]

    def test_overflow_guard_falls_back(self, monkeypatch):
        """Exactly the pairs whose count reaches 2**62 take the per-pair path."""
        # tree-decomposition ordering builds the grid in well under a second
        # (the answers do not depend on the order)
        index = build_index(grid_road_network(34, 34), ordering="tree-decomposition")
        compact = index.store
        n = compact.n
        rng = np.random.default_rng(0)
        pairs = [(int(a), int(b)) for a, b in rng.integers(n, size=(500, 2))]
        pairs += [(0, n - 1), (33, n - 34)]  # opposite corners: C(66, 33) paths
        expected = [spc_query(compact.to_label_index(), s, t) for s, t in pairs]
        big = [(r.s, r.t) for r in expected if r.count >= 2**62]
        assert {(0, n - 1), (33, n - 34)} <= set(big)
        assert len(big) < len(pairs) // 100
        calls = []
        original = CompactLabelIndex.query

        def counting_query(self, s, t):
            calls.append((s, t))
            return original(self, s, t)

        monkeypatch.setattr(CompactLabelIndex, "query", counting_query)
        assert query_batch_compact(compact, pairs) == expected
        assert sorted(calls) == sorted(big)

    def test_counts_beyond_int64_ride_the_exact_map(self):
        index = build_index(grid_road_network(35, 35), ordering="tree-decomposition")
        compact = index.store
        n = compact.n
        pairs = np.array([[0, n - 1], [5, 7], [34, n - 35], [3, 3]], dtype=np.int64)
        dist, count, exact = query_batch_arrays(compact, pairs)
        corner = math.comb(68, 34)  # > 2**63: no int64 slot can hold it
        assert exact == {0: corner, 2: corner}
        assert dist.dtype == count.dtype == np.int64
        assert dist.tolist() == [68, 2, 68, 0]
        assert count.tolist() == [-1, 1, -1, 1]
        assert spc_results(pairs, dist, count, exact) == [
            compact.query(int(s), int(t)) for s, t in pairs
        ]


def _twin_grid(side: int) -> tuple[Graph, list[list[int]]]:
    """A grid whose every cell is a class of ``3..9`` non-adjacent twins,
    neighbouring cells fully joined: equivalence reduction collapses each
    cell into one grid vertex weighted by the class size.  Returns the
    graph and the member ids per cell (row-major)."""
    cells, n = [], 0
    for r in range(side):
        for c in range(side):
            size = 3 + (5 * r + 3 * c) % 7
            cells.append(list(range(n, n + size)))
            n += size
    edges = []
    for r in range(side):
        for c in range(side):
            here = cells[r * side + c]
            for there in (
                cells[r * side + c + 1] if c + 1 < side else [],
                cells[(r + 1) * side + c] if r + 1 < side else [],
            ):
                edges += [(a, b) for a in here for b in there]
    return Graph(n, edges), cells


def _non_best_wrap_store() -> CompactLabelIndex:
    """Hand-made labels where hub 0 sits at a non-best distance with a
    count product beyond int64 (``(2**40 + 1)**2``) for pairs (2, 3) and
    (3, 2), whose best sum is tiny."""
    big = 2**40 + 1
    labels = [
        [(0, 0, 1)],
        [(0, 1, 1), (1, 0, 1)],
        [(0, 9, big), (1, 1, 1), (2, 0, 1)],
        [(0, 9, big), (1, 1, 3), (3, 0, 1)],
    ]
    order = VertexOrder.from_order(np.arange(4), 4)
    return CompactLabelIndex.from_index(LabelIndex(order, labels))


@pytest.fixture(scope="module")
def differential_cases() -> dict:
    """``name -> (store, pairs)`` for the array-kernel differential test."""
    rng = np.random.default_rng(17)
    road = build_index(grid_road_network(32, 32, extra_edges=80, seed=1)).store
    # store counts overflow any store-wide product bound, answers fit int64
    assert int(road.counts.max()) ** 2 >= 2**62
    graph, cells = _twin_grid(12)
    reduction = EquivalenceReduction(graph)
    weighted = build_index(reduction.reduced_graph, ordering="tree-decomposition").store
    assert weighted.kind == "compact" and int(weighted.weight_by_rank.max()) > 1
    # opposite corner blocks: the counts that leave int64
    corner = [
        [reduction.reduced_id(cells[r * 12 + c][0]) for r in rows for c in rows]
        for rows in ((0, 1), (10, 11))
    ]
    wrap = _non_best_wrap_store()
    cases = {}
    for name, store in (("road", road), ("weighted", weighted), ("wrap", wrap)):
        pairs = rng.integers(store.n, size=(300, 2))
        cases[name] = (store, [(int(a), int(b)) for a, b in pairs])
    cases["weighted"][1].extend((a, b) for a in corner[0] for b in corner[1])
    cases["wrap"][1].extend([(2, 3), (3, 2)])
    return cases


class TestArrayKernelDifferential:
    """``query_batch_arrays`` against per-pair ``query`` on every path."""

    @pytest.mark.parametrize("case", ["road", "weighted", "wrap"])
    def test_engine(self, differential_cases, case, monkeypatch):
        store, pairs = differential_cases[case]
        expected = [store.query(s, t) for s, t in pairs]
        beyond = {
            i: r.count for i, r in enumerate(expected) if r.count > 2**63 - 1
        }
        calls = []
        original = CompactLabelIndex.query

        def counting_query(self, s, t):
            calls.append((s, t))
            return original(self, s, t)

        monkeypatch.setattr(CompactLabelIndex, "query", counting_query)
        pairs_arr = np.asarray(pairs, dtype=np.int64)
        dist, count, exact = query_batch_arrays(store, pairs_arr)
        assert exact == beyond
        assert spc_results(pairs_arr, dist, count, exact) == expected
        if case == "weighted":
            assert beyond  # the weighted twin flags real overflow
        else:
            assert not calls  # nothing leaves the vectorized path
        assert len(calls) == len([r for r in expected if r.count >= 2**62])

    @pytest.mark.parametrize("case", ["road", "weighted", "wrap"])
    def test_gather_evaluator_three_shards(
        self, differential_cases, case, assert_no_shm_leak
    ):
        store, pairs = differential_cases[case]
        expected = [store.query(s, t) for s, t in pairs]
        with ShmSegmentFleet.publish(store, shards=3) as fleet:
            assert GatherEvaluator(fleet).query_batch(pairs) == expected

    @pytest.mark.parametrize("case", ["road", "weighted", "wrap"])
    def test_worker_pool(self, differential_cases, case, assert_no_shm_leak):
        store, pairs = differential_cases[case]
        expected = [store.query(s, t) for s, t in pairs]
        with WorkerPool(store, workers=2) as pool:
            assert pool.query_batch(pairs) == expected


class TestCosts:
    def test_costs_match_tuple_kernel(self, built):
        graph, labels, compact = built
        rng = np.random.default_rng(9)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(100, 2))]
        expected = [spc_query_with_cost(labels, s, t)[1] for s, t in pairs]
        assert QueryEngine(compact).query_costs(pairs) == expected
        assert QueryEngine(labels).query_costs(pairs) == expected

    def test_costs_out_of_range(self, built):
        _, _, compact = built
        with pytest.raises(QueryError):
            QueryEngine(compact).query_costs([(0, 10_000)])


class TestFacadeIntegration:
    def test_default_serving_store_is_compact(self, social_graph):
        index = PSPCIndex.build(social_graph)
        assert index.store.kind == "compact"
        assert index.engine.kind == "compact"

    def test_all_entry_points_agree_with_tuple_build(self):
        graph = barabasi_albert(130, 3, seed=29)
        compact_index = PSPCIndex.build(graph)
        tuple_index = PSPCIndex.build(graph, store="tuple")
        rng = np.random.default_rng(31)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(200, 2))]
        assert compact_index.query_batch(pairs) == tuple_index.query_batch(pairs)
        for s, t in pairs[:50]:
            assert compact_index.query(s, t) == tuple_index.query(s, t)
            assert compact_index.spc(s, t) == tuple_index.spc(s, t)
            assert compact_index.distance(s, t) == tuple_index.distance(s, t)
