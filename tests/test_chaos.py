"""Chaos suite: fault injection, admission control, graceful degradation.

The serving path's robustness claims, each proven under a deterministic
:class:`~repro.serve.faults.FaultPlan` rather than by killing processes at
random times:

* every injected failure shape (hard crash, dropped pipe, poisoned kernel,
  slow worker) is either absorbed or surfaced as the *documented* error —
  never a hang, never a silently wrong answer;
* answers that do come back are bit-identical to the single-process
  ``query_batch`` on the same index, in every scenario;
* admission control sheds with the typed errors the HTTP layer maps to
  429/504, and the server keeps answering 200s while one worker crash-loops
  (the ISSUE's availability acceptance criterion).
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.api import QueryService
from repro.core.index import PSPCIndex
from repro.errors import DeadlineError, OverloadError, ServeError
from repro.graph.generators import barabasi_albert
from repro.serve import AsyncQueryService, FaultPlan, WorkerPool
from repro.serve.faults import ENV_VAR, NO_FAULTS


def _random_pairs(n: int, count: int, seed: int = 3) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [(int(s), int(t)) for s, t in rng.integers(n, size=(count, 2))]


@pytest.fixture(scope="module")
def chaos_index() -> PSPCIndex:
    return PSPCIndex.build(barabasi_albert(150, 3, seed=11), num_landmarks=10)


# ----------------------------------------------------------------------
# the fault-plan seam itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_env_round_trip(self):
        plan = FaultPlan.from_env({ENV_VAR: "crash_on_batch=3,workers=0:2,slow_ms=1.5"})
        assert plan == FaultPlan(crash_on_batch=3, workers=(0, 2), slow_ms=1.5)
        assert plan.active

    def test_empty_env_is_the_inert_plan(self):
        assert FaultPlan.from_env({}) is NO_FAULTS
        assert FaultPlan.from_env({ENV_VAR: "  "}) is NO_FAULTS
        assert not NO_FAULTS.active

    def test_unknown_key_raises_loudly(self):
        with pytest.raises(ValueError, match="crash_on_batch"):
            FaultPlan.from_env({ENV_VAR: "crash_after=3"})
        with pytest.raises(ValueError):
            FaultPlan.from_env({ENV_VAR: "crash_on_batch"})  # no '='

    def test_targeting_and_schedule(self):
        plan = FaultPlan(crash_on_batch=2, workers=(1,))
        assert plan.should_crash(1, 2)
        assert not plan.should_crash(0, 2)  # wrong slot
        assert not plan.should_crash(1, 3)  # wrong batch
        broadcast = FaultPlan(slow_ms=10.0)  # empty workers = every slot
        assert broadcast.targets(0) and broadcast.targets(7)
        assert broadcast.sleep_seconds(3) == pytest.approx(0.01)
        assert NO_FAULTS.sleep_seconds(0) == 0.0

    def test_pool_reads_env_when_no_plan_given(self, chaos_index, monkeypatch):
        # the plan targets a slot index that doesn't exist, so serving is
        # unaffected — the assertion is that the env seam reached the pool
        monkeypatch.setenv(ENV_VAR, "crash_on_batch=1,workers=9")
        with WorkerPool(chaos_index, workers=1) as pool:
            assert pool._faults == FaultPlan(crash_on_batch=1, workers=(9,))
            pairs = _random_pairs(chaos_index.n, 8)
            assert pool.query_batch(pairs) == chaos_index.query_batch(pairs)


# ----------------------------------------------------------------------
# injected failures against the pool
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("assert_no_shm_leak")
class TestPoolFaults:
    def test_crash_is_respawned_and_answers_stay_identical(self, chaos_index):
        plan = FaultPlan(crash_on_batch=2, workers=(0,))
        pairs = _random_pairs(chaos_index.n, 48)
        expected = chaos_index.query_batch(pairs)
        with WorkerPool(chaos_index, workers=2, faults=plan, max_respawns=2) as pool:
            for _ in range(3):  # batch 2 kills worker 0 mid-flight
                assert pool.query_batch(pairs) == expected
            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["health"] == "ok"  # crash streak never exhausted

    def test_dropped_pipe_is_treated_as_a_crash(self, chaos_index):
        plan = FaultPlan(drop_pipe_on_batch=1, workers=(1,))
        pairs = _random_pairs(chaos_index.n, 32)
        with WorkerPool(chaos_index, workers=2, faults=plan, max_respawns=2) as pool:
            assert pool.query_batch(pairs) == chaos_index.query_batch(pairs)
            assert pool.stats()["respawns"] >= 1

    def test_poisoned_kernel_raises_then_recovers(self, chaos_index):
        # a kernel exception is NOT degradation material: it would fail
        # in-process too, so it surfaces as ServeError (HTTP 500) — but the
        # worker survives and the next batch is clean
        plan = FaultPlan(poison_on_batch=1, workers=(0,))
        pairs = _random_pairs(chaos_index.n, 16)
        with WorkerPool(chaos_index, workers=2, faults=plan) as pool:
            with pytest.raises(ServeError, match="poisoned shard"):
                pool.query_batch(pairs)
            assert pool.query_batch(pairs) == chaos_index.query_batch(pairs)
            assert pool.health() == "ok"

    def test_slow_worker_inflates_latency_not_answers(self, chaos_index):
        plan = FaultPlan(slow_ms=120.0, workers=(0,))
        pairs = _random_pairs(chaos_index.n, 16)
        with WorkerPool(chaos_index, workers=2, faults=plan) as pool:
            start = time.perf_counter()
            answers = pool.query_batch(pairs)
            elapsed = time.perf_counter() - start
        assert answers == chaos_index.query_batch(pairs)
        assert elapsed >= 0.12  # the injected sleep dominates the batch

    def test_sustained_crash_looping_retires_the_slot(self, chaos_index):
        # crash on every batch of every life: the streak budget exhausts
        # and the slot quarantines, after which batches are clean again
        plan = FaultPlan(crash_on_batch=1, workers=(0,))
        pairs = _random_pairs(chaos_index.n, 32)
        with WorkerPool(chaos_index, workers=2, faults=plan, max_respawns=1) as pool:
            assert pool.query_batch(pairs) == chaos_index.query_batch(pairs)
            assert pool.health() == "degraded"
            stats = pool.stats()
            assert stats["retired_workers"] == 1
            assert stats["fallback_queries"] > 0  # the orphaned shard
            again = _random_pairs(chaos_index.n, 32, seed=9)
            assert pool.query_batch(again) == chaos_index.query_batch(again)


# ----------------------------------------------------------------------
# admission control (async service and its sync twin)
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_full_pending_queue_rejects_with_overload(self, chaos_index, gated):
        gate = gated(chaos_index)

        async def main():
            # batch_size larger than the bound and one batch held in
            # flight: nothing behind it flushes on its own
            async with AsyncQueryService(
                gate, batch_size=64, max_wait=5.0, max_pending=4
            ) as service:
                held = asyncio.ensure_future(service.submit(0, 9))
                await gate.held()
                tasks = [asyncio.ensure_future(service.submit(0, i)) for i in range(1, 5)]
                await asyncio.sleep(0)  # let the submits enqueue
                with pytest.raises(OverloadError):
                    await service.submit(0, 5)
                assert service.stats()["overloads"] == 1
                gate.release.set()
                await service.flush()
                assert (await held).count == chaos_index.query(0, 9).count
                return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        assert [r.count for r in results] == [
            chaos_index.query(0, i).count for i in range(1, 5)
        ]

    def test_expired_deadline_sheds_before_the_kernel(self, chaos_index, gated):
        gate = gated(chaos_index)

        async def main():
            async with AsyncQueryService(
                gate, batch_size=64, max_wait=0.05
            ) as service:
                held = asyncio.ensure_future(service.submit(0, 9))
                await gate.held()
                task = asyncio.ensure_future(service.submit(0, 5, deadline_ms=1.0))
                with pytest.raises(DeadlineError):
                    await task  # the 50 ms timer flush behind the held batch finds it expired
                stats = service.stats()
                assert stats["deadline_shed"] == 1
                assert gate.calls == 1  # shed before any kernel call of its own
                gate.release.set()
                assert (await held).count == chaos_index.query(0, 9).count
                # an unexpired co-batched query is unaffected
                assert (await service.submit(0, 5)).count == chaos_index.query(0, 5).count

        asyncio.run(main())

    def test_bulk_deadline_sheds_remaining_chunks(self, chaos_index):
        async def main():
            async with AsyncQueryService(chaos_index, batch_size=8) as service:
                pairs = _random_pairs(chaos_index.n, 64)
                with pytest.raises(DeadlineError):
                    await service.query_batch(pairs, deadline_ms=1e-6)
                assert service.stats()["deadline_shed"] > 0

        asyncio.run(main())

    def test_inflight_gate_defers_but_answers_everything(self, chaos_index):
        async def main():
            async with AsyncQueryService(
                chaos_index, batch_size=4, max_wait=0.001, max_inflight=1
            ) as service:
                pairs = _random_pairs(chaos_index.n, 32, seed=21)
                results = await asyncio.gather(
                    *(service.submit(s, t) for s, t in pairs)
                )
                assert service.stats()["batches"] >= 2
                return results

        results = asyncio.run(main())
        pairs = _random_pairs(chaos_index.n, 32, seed=21)
        assert [(r.dist, r.count) for r in results] == [
            (r.dist, r.count) for r in chaos_index.query_batch(pairs)
        ]

    def test_sync_twin_overload_and_deadline_parity(self, chaos_index):
        with QueryService(
            chaos_index, batch_size=64, max_wait=5.0, max_pending=2
        ) as service:
            service.submit(0, 1)
            service.submit(0, 2)
            with pytest.raises(OverloadError):
                service.submit(0, 3)
            assert service.stats()["overloads"] == 1
        with QueryService(chaos_index, batch_size=64, max_wait=0.02) as service:
            handle = service.submit(0, 5, deadline_ms=0.001)
            time.sleep(0.005)
            service.flush()
            with pytest.raises(DeadlineError):
                handle.result(timeout=1.0)
            assert service.stats()["deadline_shed"] == 1


# ----------------------------------------------------------------------
# the acceptance scenario: HTTP serving while a worker crash-loops
# ----------------------------------------------------------------------
async def _raw_request(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while line := (await reader.readline()).strip():
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    payload = await reader.readexactly(length)  # the connection stays open
    writer.close()
    await writer.wait_closed()
    return status, payload


@pytest.mark.usefixtures("assert_no_shm_leak")
class TestHttpUnderFaults:
    def test_server_keeps_answering_while_a_worker_crash_loops(self, chaos_index):
        """The ISSUE acceptance criterion, end to end over loopback.

        One worker dies on every 2nd batch of every life while concurrent
        HTTP clients hammer /query and /query_batch: every response must be
        200/429/504 (never 500, never a hang) and every 200 bit-identical
        to the single-process kernel.
        """
        from repro.serve.http import serve

        plan = FaultPlan(crash_on_batch=2, workers=(0,))
        pairs = _random_pairs(chaos_index.n, 120, seed=31)
        expected = {
            (r.s, r.t): (r.dist, r.count) for r in chaos_index.query_batch(pairs)
        }
        pool = WorkerPool(chaos_index, workers=2, faults=plan, max_respawns=3)

        async def main():
            service = AsyncQueryService(
                pool=pool, batch_size=16, max_wait=0.002, max_pending=512
            )
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            stop = asyncio.Event()
            server_task = asyncio.ensure_future(
                serve(service, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            _, port = await asyncio.wait_for(ready, timeout=10)

            async def point(s: int, t: int):
                return await _raw_request(port, "GET", f"/query?s={s}&t={t}")

            responses = await asyncio.gather(
                *(point(s, t) for s, t in pairs[:100]),
                _raw_request(
                    port,
                    "POST",
                    "/query_batch",
                    json.dumps({"pairs": [list(p) for p in pairs[100:]]}).encode(),
                ),
            )
            health_status, health_raw = await _raw_request(port, "GET", "/healthz")
            metrics_status, metrics_raw = await _raw_request(port, "GET", "/metrics")
            stop.set()
            await asyncio.wait_for(server_task, timeout=15)
            return responses, (health_status, health_raw), (metrics_status, metrics_raw)

        try:
            responses, health, metrics = asyncio.run(
                asyncio.wait_for(main(), timeout=120)
            )
        finally:
            pool.close()

        statuses = [status for status, _ in responses]
        assert all(status in (200, 429, 504) for status in statuses), statuses
        assert statuses.count(200) >= 1
        for (status, payload), (s, t) in zip(responses[:100], pairs[:100]):
            if status == 200:
                answer = json.loads(payload)
                assert (answer["dist"], answer["count"]) == expected[(s, t)]
        batch_status, batch_payload = responses[-1]
        if batch_status == 200:
            for row in json.loads(batch_payload)["results"]:
                assert (row["dist"], row["count"]) == expected[(row["s"], row["t"])]

        health_status, health_body = health[0], json.loads(health[1])
        assert health_status == 200  # respawns kept every slot live
        assert health_body["status"] in ("ok", "degraded")
        assert health_body["live_workers"] + health_body["retired_workers"] == 2
        assert health_body["respawns"] >= 1

        metrics_status, metrics_text = metrics[0], metrics[1].decode()
        assert metrics_status == 200
        assert "repro_queries_total" in metrics_text
        assert "repro_pool_respawns_total" in metrics_text
        assert "repro_request_latency_seconds_bucket" in metrics_text
        assert "repro_health 0" in metrics_text or "repro_health 1" in metrics_text

    def test_healthz_reports_critical_as_503(self, chaos_index):
        from repro.serve.http import serve

        plan = FaultPlan(crash_on_batch=1)  # every slot, every life
        pool = WorkerPool(chaos_index, workers=2, faults=plan, max_respawns=0)

        async def main():
            service = AsyncQueryService(pool=pool, batch_size=4, max_wait=0.001)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            stop = asyncio.Event()
            server_task = asyncio.ensure_future(
                serve(service, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            _, port = await asyncio.wait_for(ready, timeout=10)
            # a batch wide enough to shard onto BOTH slots retires both
            # on first contact -> every later answer is in-process fallback
            pairs = _random_pairs(chaos_index.n, 8, seed=41)
            status, payload = await _raw_request(
                port,
                "POST",
                "/query_batch",
                json.dumps({"pairs": [list(p) for p in pairs]}).encode(),
            )
            health_status, health_raw = await _raw_request(port, "GET", "/healthz")
            stop.set()
            await asyncio.wait_for(server_task, timeout=15)
            return pairs, status, payload, health_status, json.loads(health_raw)

        try:
            pairs, status, payload, health_status, health = asyncio.run(
                asyncio.wait_for(main(), timeout=120)
            )
        finally:
            pool.close()

        assert status == 200  # degraded serving still answers, correctly
        rows = json.loads(payload)["results"]
        assert [(r["dist"], r["count"]) for r in rows] == [
            (r.dist, r.count) for r in chaos_index.query_batch(pairs)
        ]
        assert health_status == 503
        assert health["status"] == "critical"
        assert health["live_workers"] == 0
