"""Observability layer: tracing, build profiling, inspection UX.

Covers the PR-9 acceptance contracts end to end:

* trace-id propagation — HTTP header → async service → pool pipes →
  response header, including the degraded in-process fallback;
* constant-memory ring buffers, deterministic sampling, slow-query log;
* profiler on/off bit-identity for every engine, plus the ``.npz``
  meta round-trip of ``BuildStats.profile``;
* latency-histogram quantile edge cases and the /metrics span/pending
  series;
* the shared ``render_rows`` renderer behind ``repro query --format``
  and ``explain_pairs`` behind ``--explain``.

Pools spawn processes — every pool is constructed inside a test function
(never at import time) so the spawn re-import of ``__main__`` stays safe.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.core.index import PSPCIndex
from repro.devtools.fmt import render_rows
from repro.errors import LintError, ReproError
from repro.graph.generators import barabasi_albert, path_graph
from repro.obs.explain import explain_pairs
from repro.obs.profile import BuildProfiler, render_profile
from repro.obs.trace import SPAN_NAMES, TraceContext, Tracer, new_trace_id
from repro.serve import AsyncQueryService, ShmSegmentFleet, WorkerPool
from repro.serve.metrics import LatencyHistogram, render_prometheus


@pytest.fixture(scope="module")
def obs_index() -> PSPCIndex:
    """One shared small index for the process-spawning tests."""
    return PSPCIndex.build(barabasi_albert(150, 3, seed=11), num_landmarks=10)


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_minted_ids_are_16_hex_and_unique(self):
        tracer = Tracer()
        ids = {tracer.new_trace(0, 1).trace_id for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)
        assert len(new_trace_id()) == 16

    def test_supplied_id_is_honoured(self):
        tracer = Tracer()
        ctx = tracer.new_trace(3, 4, trace_id="deadbeefdeadbeef")
        assert ctx.trace_id == "deadbeefdeadbeef"

    def test_finish_renders_spans_and_annotations(self):
        tracer = Tracer()
        ctx = tracer.new_trace(1, 2)
        ctx.span("kernel", 0.002)
        ctx.span("kernel", 0.001)  # accumulates
        ctx.annotate(batch=8, flush="full")
        tracer.finish(ctx)
        (record,) = tracer.traces()
        assert record["trace_id"] == ctx.trace_id
        assert (record["s"], record["t"], record["status"]) == (1, 2, "ok")
        assert record["spans_ms"]["kernel"] == pytest.approx(3.0, rel=0.01)
        assert record["batch"] == 8 and record["flush"] == "full"
        assert record["total_ms"] >= 0.0
        assert "T" in record["ts"]  # ISO wall-clock stamp
        assert json.dumps(record)  # JSON-serialisable for /debug/trace

    def test_ring_is_constant_memory(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.finish(tracer.new_trace(i, i + 1))
        records = tracer.traces()
        assert len(records) == 4
        assert [r["s"] for r in records] == [6, 7, 8, 9]  # oldest evicted
        assert tracer.finished == 10

    def test_traces_filter_by_id(self):
        tracer = Tracer()
        ctx = tracer.new_trace(5, 6, trace_id="aa" * 8)
        tracer.finish(ctx)
        tracer.finish(tracer.new_trace(7, 8))
        assert [r["s"] for r in tracer.traces("aa" * 8)] == [5]
        assert tracer.traces("nope") == []

    def test_sampling_is_deterministic(self):
        tracer = Tracer(sample=4)
        decisions = [tracer.sampled() for _ in range(12)]
        assert decisions == [True, False, False, False] * 3
        assert all(Tracer(sample=1).sampled() for _ in range(5))

    def test_invalid_configuration_raises(self):
        with pytest.raises(ReproError):
            Tracer(capacity=0)
        with pytest.raises(ReproError):
            Tracer(sample=0)

    def test_slow_query_log_is_structured_json(self, caplog):
        tracer = Tracer(slow_ms=0.0001)
        ctx = tracer.new_trace(1, 2)
        ctx.span("kernel", 0.05)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            import time

            time.sleep(0.001)  # ensure total exceeds the threshold
            tracer.finish(ctx)
        assert tracer.slow == 1
        payload = json.loads(caplog.records[-1].message)
        assert payload["event"] == "slow_query"
        assert payload["trace_id"] == ctx.trace_id

    def test_event_ring(self):
        tracer = Tracer(events_capacity=2)
        tracer.event("worker_respawn", worker=0, why="crash")
        tracer.event("fallback_shard", pairs=16)
        tracer.event("worker_retired", worker=1, why="quarantine")
        events = tracer.events()
        assert [e["kind"] for e in events] == ["fallback_shard", "worker_retired"]
        assert events[1]["worker"] == 1

    def test_snapshot_span_aggregates(self):
        tracer = Tracer()
        for ms in (1.0, 2.0, 3.0):
            ctx = tracer.new_trace(0, 1)
            ctx.span("kernel", ms / 1e3)
            tracer.finish(ctx)
        snap = tracer.snapshot()
        assert snap["enabled"] and snap["finished"] == 3
        kernel = snap["spans"]["kernel"]
        assert kernel["count"] == 3
        assert kernel["mean_ms"] == pytest.approx(2.0, rel=0.01)
        assert kernel["p50_ms"] == pytest.approx(2.0, rel=0.01)


# ----------------------------------------------------------------------
# LatencyHistogram edge cases + /metrics series
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_empty_histogram_reports_zero(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == 0.0
        snap = hist.snapshot()
        assert (snap["count"], snap["mean_ms"], snap["p99_ms"]) == (0, 0.0, 0.0)

    def test_single_observation_is_exact(self):
        hist = LatencyHistogram()
        hist.observe(0.00042)
        assert hist.quantile(0.5) == 0.00042
        assert hist.quantile(0.99) == 0.00042
        assert hist.min_seconds == hist.max_seconds == 0.00042

    def test_quantiles_clamped_to_observed_range(self):
        hist = LatencyHistogram()
        hist.observe(0.0011)
        hist.observe(0.0012)
        # bucket upper bound is 2.5ms, but nothing above 1.2ms was seen
        assert hist.quantile(0.99) <= hist.max_seconds

    def test_bucketing_boundaries_and_overflow(self):
        hist = LatencyHistogram()
        hist.observe(hist.BOUNDS[0])  # exactly on a bound: <= bound bucket
        assert hist.buckets[0] == 1
        hist.observe(hist.BOUNDS[-1] * 2)  # beyond the last bound
        assert hist.overflow == 1
        assert hist.count == 2

    def test_prometheus_exposes_pending_and_span_series(self, obs_index):
        with WorkerPool(obs_index, workers=1) as pool:
            pool.query_batch([(0, 5)])
            stats = {"pool": pool.stats(), "queries": 1, "batches": 1}
            for row in stats["pool"]["per_worker"]:
                assert "pending" in row  # queue-depth gauge source
        tracer = Tracer()
        ctx = tracer.new_trace(0, 5)
        ctx.span("kernel", 0.001)
        tracer.finish(ctx)
        text = render_prometheus(stats, span_summaries=tracer.span_summaries)
        assert 'repro_worker_pending_shards{worker="0"} 0' in text
        assert 'repro_span_latency_seconds_sum{span="kernel"}' in text
        assert 'repro_span_latency_seconds_count{span="total"} 1' in text


# ----------------------------------------------------------------------
# trace-id propagation: service → pool pipes → fallback → HTTP
# ----------------------------------------------------------------------
class TestTracePropagation:
    def test_sync_service_traces_full_span_set(self, obs_index):
        from repro.api import QueryService

        tracer = Tracer()
        with QueryService(obs_index, batch_size=4, cache_size=8, tracer=tracer) as svc:
            handles = [svc.submit(i, i + 5, trace_id=f"{i:016x}") for i in range(4)]
            results = [h.result(timeout=10) for h in handles]
        assert [r.s for r in results] == list(range(4))
        records = tracer.traces()
        assert [r["trace_id"] for r in records] == [f"{i:016x}" for i in range(4)]
        for record in records:
            for span in ("admission_wait", "kernel", "reassembly", "flush", "total"):
                assert span in record["spans_ms"], span
            assert record["cache"] == "miss"

    def test_sync_cache_hit_short_circuits(self, obs_index):
        from repro.api import QueryService

        tracer = Tracer()
        with QueryService(obs_index, batch_size=1, cache_size=8, tracer=tracer) as svc:
            svc.submit(2, 9).result(timeout=10)
            svc.submit(2, 9).result(timeout=10)
        hit = tracer.traces()[-1]
        assert hit["cache"] == "hit"
        assert "kernel" not in hit["spans_ms"]  # never reached a flush

    def test_trace_id_rides_pool_pipes(self, obs_index):
        """A caller-supplied id crosses the worker pipe and comes back."""
        fleet = ShmSegmentFleet.publish(obs_index, shards=1)
        try:
            tracer = Tracer()

            async def main():
                pool = WorkerPool(fleet=fleet, workers=2)
                try:
                    async with AsyncQueryService(
                        pool=pool, batch_size=4, max_wait=0.001, tracer=tracer
                    ) as svc:
                        return await asyncio.gather(
                            svc.submit(0, 9, trace_id="deadbeefdeadbeef"),
                            svc.submit(1, 8),
                            svc.submit(2, 7),
                            svc.submit(3, 6),
                        )
                finally:
                    pool.close()

            results = asyncio.run(main())
            assert [r.s for r in results] == [0, 1, 2, 3]
            (named,) = tracer.traces("deadbeefdeadbeef")
            # the batch representative carries per-shard attribution rows
            assert named["shards"], named
            for row in named["shards"]:
                assert row["source"] == "worker" and row["worker"] >= 0
                assert row["kernel_ms"] >= 0.0 and row["pipe_ms"] >= 0.0
            for record in tracer.traces():
                for span in ("kernel", "pipe", "flush", "total"):
                    assert span in record["spans_ms"], (record, span)
        finally:
            fleet.close()
            fleet.unlink()

    def test_degraded_fallback_still_traces(self, obs_index):
        """All workers retired: the in-process fallback answers, traced."""
        fleet = ShmSegmentFleet.publish(obs_index, shards=1)
        try:
            tracer = Tracer()
            pool = WorkerPool(fleet=fleet, workers=1)
            pool.tracer = tracer
            try:
                for slot in pool._slots:
                    pool._retire(slot, "test-induced")
                assert pool.health() == "critical"
                ctx = tracer.new_trace(0, 9)
                results = pool.query_batch([(0, 9), (1, 8)], trace=ctx)
                tracer.finish(ctx)
            finally:
                pool.close()
            assert [r.count for r in results] == [
                r.count for r in obs_index.query_batch([(0, 9), (1, 8)])
            ]
            (record,) = tracer.traces()
            assert all(row["source"] == "fallback" for row in record["shards"])
            assert "kernel" in record["spans_ms"]
            kinds = {e["kind"] for e in tracer.events()}
            assert "worker_retired" in kinds and "fallback_shard" in kinds
        finally:
            fleet.close()
            fleet.unlink()

    def test_http_header_round_trip(self, obs_index):
        """X-Repro-Trace-Id: request header → service → response header →
        /debug/trace lookup, plus a minted id when the client sends none."""
        from repro.serve.http import serve

        async def request(port, path, headers=""):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: x\r\n{headers}"
                "Content-Length: 0\r\n\r\n".encode()
                if isinstance(path, str)
                else path
            )
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            response_headers = {}
            while True:
                line = (await reader.readline()).decode().strip()
                if not line:
                    break
                key, _, value = line.partition(":")
                response_headers[key.strip().lower()] = value.strip()
            # the connection stays open: read exactly the declared body
            length = int(response_headers["content-length"])
            payload = json.loads(await reader.readexactly(length))
            writer.close()
            await writer.wait_closed()
            return status, response_headers, payload

        async def main():
            tracer = Tracer()
            service = AsyncQueryService(obs_index, batch_size=8, tracer=tracer)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            stop = asyncio.Event()
            task = asyncio.ensure_future(
                serve(service, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            _, port = await asyncio.wait_for(ready, timeout=10)

            wanted = "feedface" * 2
            status, headers, _ = await request(
                port, "/query?s=0&t=5", f"X-Repro-Trace-Id: {wanted}\r\n"
            )
            assert status == 200
            assert headers["x-repro-trace-id"] == wanted

            status, headers, _ = await request(port, "/query?s=1&t=6")
            assert status == 200
            minted = headers["x-repro-trace-id"]
            assert len(minted) == 16 and minted != wanted

            status, _, report = await request(port, f"/debug/trace?id={wanted}")
            assert status == 200 and report["enabled"]
            (record,) = report["traces"]
            assert record["trace_id"] == wanted
            for span in ("admission_wait", "kernel", "flush", "total"):
                assert span in record["spans_ms"], span
            # the minted id is also followable
            status, _, report = await request(port, f"/debug/trace?id={minted}")
            assert [r["trace_id"] for r in report["traces"]] == [minted]

            status, _, events = await request(port, "/debug/events")
            assert status == 200 and events["enabled"]

            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())

    def test_debug_endpoints_without_tracer(self, obs_index):
        from repro.serve.http import serve

        async def main():
            service = AsyncQueryService(obs_index, batch_size=8)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            stop = asyncio.Event()
            task = asyncio.ensure_future(
                serve(service, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            _, port = await asyncio.wait_for(ready, timeout=10)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /debug/trace HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            length = 0
            while line := (await reader.readline()).strip():
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = json.loads(await reader.readexactly(length))
            writer.close()
            await writer.wait_closed()
            assert status == 200
            assert payload == {"enabled": False, "traces": []}
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())

    def test_sampled_service_still_traces_explicit_ids(self, obs_index):
        from repro.api import QueryService

        tracer = Tracer(sample=1000)  # effectively off for anonymous traffic
        with QueryService(obs_index, batch_size=2, tracer=tracer) as svc:
            svc.submit(0, 5).result(timeout=10)  # request 0 samples in
            svc.submit(1, 6).result(timeout=10)  # sampled out
            svc.submit(2, 7, trace_id="ff" * 8).result(timeout=10)  # forced
        ids = [r["trace_id"] for r in tracer.traces()]
        assert "ff" * 8 in ids
        assert len(ids) == 2  # anonymous request 1 was thinned out


# ----------------------------------------------------------------------
# build profiling: bit-identity, meta round-trip, rendering
# ----------------------------------------------------------------------
class TestBuildProfiling:
    def test_profiler_accumulates_phases_and_iterations(self):
        profiler = BuildProfiler()
        profiler.begin_iteration(1)
        profiler.lap("pull_merge")
        profiler.lap("query_rule")
        profiler.end_iteration(labels=42)
        profiler.begin_iteration(2)
        profiler.lap("pull_merge")
        profiler.end_iteration(labels=7)
        profile = profiler.as_profile()
        assert set(profile["engine_phases"]) == {"pull_merge", "query_rule"}
        assert [row["distance"] for row in profile["iterations"]] == [1, 2]
        assert [row["labels"] for row in profile["iterations"]] == [42, 7]

    @pytest.mark.parametrize("engine", ["vectorized", "parallel"])
    def test_profile_on_is_bit_identical(self, engine):
        graph = barabasi_albert(80, 3, seed=4)
        plain = PSPCIndex.build(graph, engine=engine, workers=2)
        profiled = PSPCIndex.build(graph, engine=engine, workers=2, profile=True)
        pairs = [(i, (i * 7 + 3) % graph.n) for i in range(40)]
        assert profiled.query_batch(pairs) == plain.query_batch(pairs)
        assert not plain.stats.profile
        assert profiled.stats.profile["engine_phases"]
        assert profiled.stats.profile["iterations"]

    def test_directed_profile_on_is_bit_identical(self):
        import numpy as np

        from repro.digraph.digraph import DiGraph
        from repro.digraph.index import DirectedSPCIndex

        rng = np.random.default_rng(9)
        edges = [(int(u), int(v)) for u, v in rng.integers(50, size=(120, 2)) if u != v]
        graph = DiGraph(50, edges)
        plain = DirectedSPCIndex.build(graph)
        profiled = DirectedSPCIndex.build(graph, profile=True)
        pairs = [(i % 50, (i * 3 + 1) % 50) for i in range(40)]
        assert profiled.query_batch(pairs) == plain.query_batch(pairs)
        assert profiled.stats.profile["engine_phases"]

    def test_profile_round_trips_through_npz(self, tmp_path):
        graph = barabasi_albert(60, 3, seed=2)
        index = PSPCIndex.build(graph, profile=True)
        path = tmp_path / "profiled.npz"
        index.save(path)
        loaded = PSPCIndex.load(path)
        assert loaded.stats.profile == index.stats.profile
        assert loaded.stats.profile["iterations"]

    def test_phase_sum_covers_build_time(self):
        """The rendered coverage claim: profiled phases ≈ the whole build."""
        graph = barabasi_albert(300, 3, seed=6)
        index = PSPCIndex.build(graph, profile=True)
        stats = index.stats
        covered = sum(
            seconds
            for name, seconds in stats.phase_seconds.items()
            if name != "construction"
        ) + sum(stats.profile["engine_phases"].values())
        assert covered <= stats.total_seconds * 1.05
        assert covered >= stats.total_seconds * 0.5

    def test_render_profile_output(self):
        graph = barabasi_albert(60, 3, seed=2)
        index = PSPCIndex.build(graph, profile=True)
        text = render_profile(index.stats)
        assert text.startswith("build profile")
        assert "pull_merge" in text
        assert "iterations" in text and "coverage" in text
        # renders without a profile too (plain build)
        plain = PSPCIndex.build(graph)
        assert render_profile(plain.stats).startswith("build profile")


# ----------------------------------------------------------------------
# query inspection UX: render_rows + explain_pairs
# ----------------------------------------------------------------------
class TestInspectionUX:
    ROWS = [
        {"s": 0, "t": 3, "dist": 3, "count": 1},
        {"s": 1, "t": 2, "dist": 1, "count": 1},
    ]

    def test_render_rows_table(self):
        text = render_rows(self.ROWS, "table", title="SPC queries")
        lines = text.splitlines()
        assert lines[0] == "SPC queries"
        assert lines[1].split() == ["s", "t", "dist", "count"]
        assert lines[3].split() == ["0", "3", "3", "1"]

    def test_render_rows_csv(self):
        text = render_rows(self.ROWS, "csv")
        assert text.splitlines() == ["s,t,dist,count", "0,3,3,1", "1,2,1,1"]

    def test_render_rows_json(self):
        assert json.loads(render_rows(self.ROWS, "json")) == self.ROWS

    def test_render_rows_union_columns_and_empty(self):
        rows = [{"a": 1}, {"b": 2}]
        csv_text = render_rows(rows, "csv")
        assert csv_text.splitlines()[0] == "a,b"
        assert render_rows([], "table", title="empty") == "empty: clean"

    def test_render_rows_unknown_format(self):
        with pytest.raises(LintError):
            render_rows(self.ROWS, "yaml")

    def test_explain_pairs_on_a_path(self):
        index = PSPCIndex.build(path_graph(6))
        (row,) = explain_pairs(index, [(0, 5)])
        assert (row["s"], row["t"], row["dist"], row["count"]) == (0, 5, 5, 1)
        assert row["label_s"] >= 1 and row["label_t"] >= 1
        # the meeting hub is the highest-ranked vertex on the path
        assert isinstance(row["hub"], int) and 0 <= row["hub"] <= 5
        assert json.dumps(row)  # numpy scalars would fail here

    def test_explain_pairs_unreachable(self):
        from repro.graph.graph import Graph

        index = PSPCIndex.build(Graph(4, [(0, 1), (2, 3)]))
        (row,) = explain_pairs(index, [(0, 3)])
        assert row["dist"] == -1 and row["count"] == 0
        assert row["hub"] is None


# ----------------------------------------------------------------------
# span taxonomy stays closed
# ----------------------------------------------------------------------
def test_span_names_cover_the_service_spans(obs_index):
    """Every span a service records is in SPAN_NAMES (docs stay truthful)."""
    from repro.api import QueryService

    tracer = Tracer()
    with QueryService(obs_index, batch_size=2, cache_size=4, tracer=tracer) as svc:
        svc.submit(0, 5).result(timeout=10)
        svc.submit(0, 5).result(timeout=10)
        svc.submit(1, 6).result(timeout=10)
    recorded = set()
    for record in tracer.traces():
        recorded |= set(record["spans_ms"])
    assert recorded <= set(SPAN_NAMES)
    assert {"total", "kernel", "cache_lookup"} <= recorded


def test_trace_context_slots():
    ctx = TraceContext("ab" * 8, 1, 2)
    with pytest.raises(AttributeError):
        ctx.arbitrary = 1  # constant-memory contract: no __dict__
