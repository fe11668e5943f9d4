"""Conformance suite for the unified SPCounter API (repro.api).

Every registered method must survive the same cycle:
build -> query/spc/distance/query_batch -> save -> open_index -> re-query,
with answers matching the BFS oracle of its substrate.  On top of that,
the method registry and the admission-batched QueryService get their own
semantic checks (kernel-invocation counts, flush triggers, exactness).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import (
    BuildConfig,
    QueryService,
    SPCounter,
    build_index,
    get_method,
    method_names,
    open_index,
    register_method,
)
from repro.api import _METHODS  # test-only: registry restore
from repro.core.stats import BuildStats
from repro.digraph.digraph import DiGraph
from repro.digraph.traversal import spc_pair_directed
from repro.errors import IndexBuildError, PersistenceError, QueryError
from repro.graph.generators import barabasi_albert
from repro.graph.traversal import spc_pair

BUILTINS = ("pspc", "hpspc", "reduced", "directed", "dynamic", "bfs", "bidirectional")


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(60, 2, seed=21)


@pytest.fixture(scope="module")
def digraph():
    rng = np.random.default_rng(11)
    arcs = [(int(u), int(v)) for u, v in rng.integers(40, size=(150, 2))]
    return DiGraph(40, arcs)


@pytest.fixture(scope="module")
def counters(graph, digraph):
    """One built counter per registered method (shared across tests)."""
    built = {}
    for name in method_names():
        substrate = digraph if get_method(name).directed else graph
        built[name] = build_index(
            substrate, method=name, config=BuildConfig(num_landmarks=4)
        )
    return built


def _oracle_for(name, graph, digraph):
    if get_method(name).directed:
        return digraph, spc_pair_directed
    return graph, spc_pair


def _sample_pairs(n, count=30, seed=3):
    rng = np.random.default_rng(seed)
    return [(int(s), int(t)) for s, t in rng.integers(n, size=(count, 2))]


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(method_names())

    def test_unknown_method_lists_names(self, graph):
        with pytest.raises(IndexBuildError, match="registered methods"):
            build_index(graph, method="nope")

    def test_unknown_config_knob_rejected(self, graph):
        with pytest.raises(IndexBuildError, match="BuildConfig knobs"):
            build_index(graph, method="pspc", frobnicate=3)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(IndexBuildError, match="already registered"):
            register_method("pspc", lambda g, c: None)

    def test_custom_method_builds_and_overwrites(self, graph):
        try:
            register_method(
                "custom-bfs",
                lambda g, config: build_index(g, method="bfs"),
                description="test double",
            )
            counter = build_index(graph, method="custom-bfs")
            assert counter.spc(0, 30) == spc_pair(graph, 0, 30)[1]
            # overwrite=True replaces; plain re-register raises
            register_method(
                "custom-bfs",
                lambda g, config: build_index(g, method="bidirectional"),
                overwrite=True,
            )
            assert type(build_index(graph, method="custom-bfs")).__name__ == (
                "BidirectionalBFSCounter"
            )
        finally:
            _METHODS.pop("custom-bfs", None)

    def test_substrate_mismatch_rejected(self, graph, digraph):
        with pytest.raises(IndexBuildError, match="DiGraph"):
            build_index(graph, method="directed")
        with pytest.raises(IndexBuildError, match="undirected"):
            build_index(digraph, method="pspc")

    def test_method_from_config_field(self, graph):
        counter = build_index(graph, config=BuildConfig(method="hpspc"))
        assert type(counter).__name__ == "HPSPCIndex"


class TestConformance:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_protocol_and_exactness(self, name, counters, graph, digraph):
        counter = counters[name]
        substrate, oracle = _oracle_for(name, graph, digraph)
        assert isinstance(counter, SPCounter)
        assert counter.n == substrate.n
        assert isinstance(counter.stats, BuildStats)
        assert isinstance(counter.size_bytes(), int) and counter.size_bytes() >= 0
        pairs = _sample_pairs(substrate.n)
        for s, t in pairs[:10]:
            expected = oracle(substrate, s, t)
            result = counter.query(s, t)
            assert (result.dist, result.count) == expected
            assert counter.spc(s, t) == expected[1]
            assert counter.distance(s, t) == expected[0]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_query_batch_matches_point_queries(self, name, counters, graph, digraph):
        counter = counters[name]
        substrate, _ = _oracle_for(name, graph, digraph)
        pairs = _sample_pairs(substrate.n)
        assert counter.query_batch(pairs) == [counter.query(s, t) for s, t in pairs]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_save_open_requery(self, name, counters, graph, digraph, tmp_path):
        counter = counters[name]
        substrate, _ = _oracle_for(name, graph, digraph)
        path = tmp_path / f"{name}.npz"
        counter.save(path)
        reopened = open_index(path)
        assert type(reopened) is type(counter)
        assert reopened.n == counter.n
        pairs = _sample_pairs(substrate.n)
        assert reopened.query_batch(pairs) == counter.query_batch(pairs)

    def test_reduction_knobs_respected(self, graph):
        counter = build_index(
            graph, method="reduced", use_one_shell=False, use_equivalence=False
        )
        assert counter.removed_by_one_shell == 0
        assert counter.removed_by_equivalence == 0

    def test_dynamic_stays_exact_through_updates(self, graph):
        counter = build_index(graph, method="dynamic", rebuild_threshold=3)
        counter.add_edge(0, 59)
        assert counter.dirty
        assert counter.query(0, 59).dist == 1
        batch = counter.query_batch([(0, 59), (5, 40)])
        assert [r.dist for r in batch] == [counter.distance(0, 59), counter.distance(5, 40)]


class TestDirectedDefaults:
    """Directed parity conformance: frozen compact store + engine threading."""

    def test_directed_default_is_frozen_compact(self, counters):
        from repro.digraph.labels import CompactDirectedLabelIndex

        counter = counters["directed"]
        assert isinstance(counter.labels, CompactDirectedLabelIndex)
        assert counter.config.store == "compact"
        assert counter.config.engine == "vectorized"

    def test_engine_threads_through_build_index(self, digraph):
        ref = build_index(digraph, method="directed", engine="reference")
        vec = build_index(digraph, method="directed")
        par = build_index(digraph, method="directed", engine="parallel", workers=2)
        assert ref.stats.engine == "reference"
        assert vec.stats.engine == "vectorized"
        assert par.stats.engine == "parallel"
        assert ref.labels == vec.labels == par.labels

    def test_store_opt_out_through_build_index(self, digraph):
        tup = build_index(digraph, method="directed", store="tuple")
        assert tup.labels.kind == "directed"
        vec = build_index(digraph, method="directed")
        assert tup.labels == vec.labels.to_directed_index()

    def test_save_open_keeps_engine_and_kind(self, counters, tmp_path):
        counter = counters["directed"]
        path = tmp_path / "directed-compact.npz"
        counter.save(path)
        reopened = open_index(path)
        assert reopened.labels.kind == "directed-compact"
        assert reopened.config.engine == counter.config.engine
        assert reopened.config.store == "compact"


class TestOpenIndex:
    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(PersistenceError):
            open_index(path)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(PersistenceError, match="repro"):
            open_index(path)

    def test_opens_bare_label_store(self, counters, graph, tmp_path):
        # a compact store saved directly (no index wrapper) comes back
        # wrapped in a queryable PSPCIndex facade
        index = counters["pspc"]
        path = tmp_path / "store.npz"
        index.store.save(path)
        reopened = open_index(path)
        assert type(reopened).__name__ == "PSPCIndex"
        pairs = _sample_pairs(graph.n)
        assert reopened.query_batch(pairs) == index.query_batch(pairs)


class _KernelSpy:
    """Counts batch-kernel invocations of the wrapped counter."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def n(self):
        return self.inner.n

    def query(self, s, t):
        return self.inner.query(s, t)

    def query_batch(self, pairs):
        self.calls += 1
        return self.inner.query_batch(pairs)


class TestQueryService:
    def test_bulk_kernel_invocations_and_exactness(self, counters, graph):
        index = counters["pspc"]
        spy = _KernelSpy(index)
        service = QueryService(spy, batch_size=8, max_wait=10.0)
        pairs = _sample_pairs(graph.n, count=37)
        results = service.query_batch(pairs)
        assert spy.calls == math.ceil(37 / 8)
        assert service.stats()["batches"] == spy.calls
        assert results == [index.query(s, t) for s, t in pairs]

    @pytest.mark.parametrize("name", ("pspc", "bfs", "directed"))
    def test_service_matches_every_counter_kind(self, name, counters, graph, digraph):
        counter = counters[name]
        substrate, _ = _oracle_for(name, graph, digraph)
        pairs = _sample_pairs(substrate.n, count=25)
        with QueryService(counter, batch_size=10) as service:
            assert service.query_batch(pairs) == [counter.query(s, t) for s, t in pairs]

    def test_submit_flushes_at_batch_size(self, counters, graph):
        spy = _KernelSpy(counters["pspc"])
        service = QueryService(spy, batch_size=4, max_wait=30.0)
        pairs = _sample_pairs(graph.n, count=4)
        handles = [service.submit(s, t) for s, t in pairs]
        # the fourth submit fills the batch: one kernel call, all resolved
        assert spy.calls == 1
        assert all(h.done for h in handles)
        assert [h.result() for h in handles] == [spy.query(s, t) for s, t in pairs]
        assert service.stats()["full_flushes"] == 1

    def test_result_triggers_timeout_flush(self, counters):
        service = QueryService(counters["pspc"], batch_size=1000, max_wait=0.01)
        handle = service.submit(0, 30)
        assert not handle.done
        result = handle.result()  # waits out max_wait, then flushes itself
        assert result == counters["pspc"].query(0, 30)
        assert service.stats()["timeout_flushes"] == 1

    def test_manual_flush_and_pending(self, counters):
        service = QueryService(counters["pspc"], batch_size=1000, max_wait=30.0)
        service.submit(0, 1)
        service.submit(2, 3)
        assert service.pending == 2
        assert service.flush() == 2
        assert service.pending == 0
        assert service.stats()["manual_flushes"] == 1

    def test_close_flushes_and_refuses(self, counters):
        service = QueryService(counters["pspc"], batch_size=1000, max_wait=30.0)
        handle = service.submit(0, 1)
        service.close()
        assert handle.done
        with pytest.raises(QueryError, match="closed"):
            service.submit(1, 2)

    def test_rejects_bad_parameters(self, counters):
        with pytest.raises(QueryError):
            QueryService(counters["pspc"], batch_size=0)
        with pytest.raises(QueryError):
            QueryService(counters["pspc"], max_wait=-1.0)

    def test_empty_workload(self, counters):
        service = QueryService(counters["pspc"], batch_size=8)
        assert service.query_batch([]) == []
        assert service.stats()["batches"] == 0

    def test_bad_submit_rejected_before_admission(self, counters, graph):
        # an out-of-range submission fails alone (validated pre-admission,
        # mirroring the async twin): it never poisons co-batched queries
        index = counters["pspc"]
        service = QueryService(index, batch_size=2, max_wait=30.0)
        good = service.submit(0, 1)
        with pytest.raises(QueryError, match="out of range"):
            service.submit(graph.n + 5, 2)
        assert not good.done  # still pending, not poisoned
        service.flush()
        assert good.result(timeout=1.0) == index.query(0, 1)

    def test_kernel_failure_resolves_cobatched_waiters(self, counters, graph):
        # a genuine kernel failure must not strand co-batched waiters:
        # every handle carries the error and re-raises it
        index = counters["pspc"]

        class Exploding:
            n = index.n

            def query_batch(self, pairs):
                raise QueryError("kernel exploded")

        service = QueryService(Exploding(), batch_size=2, max_wait=30.0)
        good = service.submit(0, 1)
        with pytest.raises(QueryError, match="kernel exploded"):
            service.submit(2, 3)  # fills the batch; kernel raises
        assert good.done
        with pytest.raises(QueryError, match="kernel exploded"):
            good.result(timeout=1.0)
        assert service.pending == 0

    def test_bulk_sweep_does_not_stall_point_traffic(self, counters):
        # bulk kernels run outside the service lock: a long query_batch
        # must not hold back a concurrent submit()/result() past max_wait
        import threading
        import time as time_module

        index = counters["pspc"]

        class Slow:
            n = index.n

            def query_batch(self, pairs):
                time_module.sleep(0.05)
                return index.query_batch(pairs)

        service = QueryService(Slow(), batch_size=50, max_wait=0.01)
        latency = {}

        def bulk():
            service.query_batch([(0, 1)] * 500)  # 10 slow kernel calls

        def point():
            time_module.sleep(0.02)
            start = time_module.perf_counter()
            result = service.submit(0, 30).result()
            latency["point"] = time_module.perf_counter() - start
            assert result == index.query(0, 30)

        threads = [threading.Thread(target=bulk), threading.Thread(target=point)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # well under the ~0.5s the full bulk sweep takes
        assert latency["point"] < 0.25, latency


class TestSharedVerifier:
    @pytest.mark.parametrize("name", ("pspc", "hpspc", "directed"))
    def test_verify_against_bfs_delegates(self, name, counters):
        counters[name].verify_against_bfs(samples=25)

    def test_verify_counter_rejects_size_mismatch(self, counters, digraph):
        from repro.core.verify import verify_counter

        with pytest.raises(QueryError, match="vertices"):
            verify_counter(counters["pspc"], digraph)


class TestQueryServiceCacheAndClose:
    """The PR-4 satellites on the sync service: LRU cache + close semantics."""

    def test_cache_short_circuits_repeated_pairs(self, counters, graph):
        spy = _KernelSpy(counters["pspc"])
        with QueryService(spy, batch_size=1, cache_size=8) as service:
            first = service.query(0, 30)
            repeats = [service.query(0, 30) for _ in range(4)]
            stats = service.stats()
        assert all(r == first for r in repeats)
        assert spy.calls == 1  # four hits never reached the kernel
        assert stats["cache_hits"] == 4
        assert stats["cache_misses"] == 1
        assert stats["queries"] == 5

    def test_cache_disabled_by_default(self, counters):
        with QueryService(counters["pspc"], batch_size=1) as service:
            service.query(0, 30)
            service.query(0, 30)
            stats = service.stats()
        assert stats["cache_hits"] == 0
        assert stats["batches"] == 2

    def test_reversed_pair_hits_for_undirected_counters(self, counters):
        # regression: the point cache used to key on (s, t) literally, so
        # the reversed direction of a hot pair never hit even though an
        # undirected counter answers both identically
        index = counters["pspc"]
        spy = _KernelSpy(index)
        with QueryService(spy, batch_size=1, cache_size=8) as service:
            forward = service.query(3, 30)
            backward = service.query(30, 3)
            stats = service.stats()
        assert spy.calls == 1  # the reversed pair never reached the kernel
        assert stats["cache_hits"] == 1
        # the hit answers with the *requested* orientation
        assert (backward.s, backward.t) == (30, 3)
        assert (backward.dist, backward.count) == (forward.dist, forward.count)
        assert backward == index.query(30, 3)

    def test_directed_counters_keep_asymmetric_cache_keys(self, counters, digraph):
        directed = counters["directed"]
        s, t = 0, 7
        with QueryService(directed, batch_size=1, cache_size=8) as service:
            forward = service.query(s, t)
            backward = service.query(t, s)
            stats = service.stats()
        # s -> t and t -> s are different questions on a digraph: no hit
        assert stats["cache_hits"] == 0
        assert forward == directed.query(s, t)
        assert backward == directed.query(t, s)

    def test_cache_evicts_least_recently_used(self, counters, graph):
        spy = _KernelSpy(counters["pspc"])
        with QueryService(spy, batch_size=1, cache_size=2) as service:
            service.query(0, 1)
            service.query(0, 2)
            service.query(0, 3)  # evicts (0, 1)
            service.query(0, 1)  # miss again
            stats = service.stats()
        assert spy.calls == 4
        assert stats["cache_hits"] == 0

    def test_close_flushes_pending_submissions(self, counters):
        index = counters["pspc"]
        # huge batch + huge deadline: without close() the handle would
        # only resolve when result() observed the timeout
        service = QueryService(index, batch_size=1000, max_wait=60.0)
        handle = service.submit(0, 30)
        assert not handle.done
        assert not service.closed
        service.close()
        assert service.closed
        assert handle.done
        assert handle.result(timeout=0.1) == index.query(0, 30)
        with pytest.raises(QueryError, match="closed"):
            service.submit(1, 2)

    def test_close_is_idempotent(self, counters):
        service = QueryService(counters["pspc"])
        service.close()
        service.close()
        assert service.closed

    def test_close_refuses_submissions_even_when_final_flush_fails(self, counters):
        index = counters["pspc"]

        class Poisoned:
            n = index.n

            def query_batch(self, pairs):
                raise QueryError("kernel down")

        service = QueryService(Poisoned(), batch_size=1000, max_wait=60.0)
        service.submit(0, 1)
        with pytest.raises(QueryError, match="kernel down"):
            service.close()
        assert service.closed  # the failed flush must not reopen the service
        with pytest.raises(QueryError, match="closed"):
            service.submit(2, 3)
