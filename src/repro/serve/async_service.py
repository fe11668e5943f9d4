"""Asyncio admission-batched query service — the async twin of
:class:`repro.api.QueryService`.

``await submit(s, t)`` parks the caller on a future and flushes its query
through **one** kernel call, dispatched off the event loop with
``loop.run_in_executor`` so the loop never blocks.  A query that finds the
kernel idle flushes at once (reason ``idle``; the queries submitted in the
same loop turn ride along), so a lone point query costs one kernel call,
not a batching timer.  Queries that arrive while a batch is in flight
accumulate and flush together when that batch finishes, when
``batch_size`` are pending, or when the oldest has waited ``max_wait``
seconds behind the busy kernel, whichever comes first — thousands of
concurrent awaiters cost one vectorized merge per batch.  The kernel
target is either a counter's ``query_batch`` directly (``workers=0``) or a
:class:`~repro.serve.pool.WorkerPool` sharding each batch across
spawn-based processes attached to the shared-memory shards.

Same invariant as the synchronous service: answers are identical to
per-pair ``query`` calls in every regime — admission batching and process
sharding change latency shape, never results.  Both services run the same
:class:`~repro.serve.admission.Admission` core (validation, cache,
overload and deadline checks, trace bookkeeping); this module adds only
the event-loop concurrency model around it.

Robustness knobs (all off by default, so embedded/test uses stay simple):

* ``max_pending`` bounds the admission queue — a submit past the bound is
  rejected with :class:`~repro.errors.OverloadError` (HTTP 429) instead of
  growing memory without limit under overload;
* ``deadline_ms`` gives every request a default budget (callers can pass
  their own per submit) — a request whose deadline expires while it waits
  is shed with :class:`~repro.errors.DeadlineError` (HTTP 504) *before*
  the kernel runs, so a congested server stops burning kernel time on
  answers nobody is waiting for;
* ``max_inflight`` caps concurrently executing kernel batches — when a
  slow pool falls behind, new batches queue (and eventually trip the
  pending bound) instead of piling unbounded executor work onto it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Sequence

import numpy as np

from repro.core.engine import validate_pairs
from repro.core.queries import SPCResult
from repro.errors import DeadlineError, QueryError, ServeError
from repro.obs.trace import TraceContext, Tracer
from repro.serve.admission import Admission, Ticket
from repro.serve.metrics import LatencyHistogram
from repro.serve.pool import WorkerPool

__all__ = ["AsyncQueryService"]

#: Fewest pairs each worker receives per bulk pool call (the kernel's own
#: chunk).  Every pool call is a cross-process round trip whose cost swings
#: with host scheduling; admission-sized calls made a bulk sweep mostly
#: round trips, so its throughput varied from run to run.
_POOL_BULK_PAIRS = 512


class _Waiter(Ticket):
    """A ticket whose caller awaits an asyncio future on the running loop."""

    __slots__ = ("future",)

    def __init__(
        self, s: int, t: int, deadline: float | None, trace: TraceContext | None
    ) -> None:
        super().__init__(s, t, deadline, trace)
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()

    def resolve(self, value: SPCResult) -> None:
        super().resolve(value)
        if not self.future.done():
            self.future.set_result(value)

    def fail(self, error: BaseException) -> None:
        super().fail(error)
        if not self.future.done():
            self.future.set_exception(error)


class AsyncQueryService:
    """Admission micro-batching over an event loop, flushing when idle.

    Parameters mirror :class:`repro.api.QueryService` (``batch_size``,
    ``max_wait``, ``cache_size``), but the flush policy differs: a query
    that finds no batch in flight flushes at once, so ``max_wait`` only
    bounds how long a query waits behind a busy kernel (the sync twin
    always waits out its timer).  Then comes the dispatch target: ``workers=0``
    (default) flushes straight onto ``counter.query_batch`` in an executor
    thread; ``workers=N`` publishes the counter to shared memory and
    shards every flush across a spawned :class:`WorkerPool` (owned by the
    service and closed by :meth:`aclose`).  An externally managed pool can
    be passed via ``pool=`` instead.  ``shards=K`` (with ``workers >= 1``)
    partitions the index into K vertex-range shards served by shard-owning
    workers (default 1: the whole index as one shard) — ``cold_shards``
    names shards kept out of shared memory — while answers stay
    bit-identical; the LRU point cache sits *above* the shard router, so
    hot cross-shard pairs still hit without touching a worker.

    ``max_pending``, ``max_inflight`` and ``deadline_ms`` are the admission
    -control knobs (0 disables each; see the module docstring): bounded
    queue -> :class:`~repro.errors.OverloadError`, expired budget ->
    :class:`~repro.errors.DeadlineError`, capped concurrent kernel batches
    -> backpressure.

    Not thread-safe — one event loop drives it (the kernels themselves run
    in executor threads; the pool serialises overlapping flushes).

    Examples
    --------
    >>> import asyncio
    >>> from repro.graph import cycle_graph
    >>> from repro.core.index import PSPCIndex
    >>> async def demo():
    ...     async with AsyncQueryService(PSPCIndex.build(cycle_graph(6))) as svc:
    ...         return [r.count for r in await asyncio.gather(
    ...             svc.submit(0, 3), svc.submit(1, 4))]
    >>> asyncio.run(demo())
    [2, 2]
    """

    def __init__(
        self,
        counter: object = None,
        *,
        workers: int = 0,
        shards: int = 1,
        cold_shards: "tuple[int, ...]" = (),
        pool: WorkerPool | None = None,
        batch_size: int = 64,
        max_wait: float = 0.002,
        cache_size: int = 0,
        max_pending: int = 0,
        max_inflight: int = 0,
        deadline_ms: float = 0.0,
        tracer: "Tracer | None" = None,
    ) -> None:
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        if shards > 1 and workers < 1 and pool is None:
            raise ServeError(
                "sharded serving needs a worker pool: pass workers >= 1 "
                "with shards, or a pre-built sharded pool"
            )
        if max_inflight < 0:
            raise ServeError(f"max_inflight must be >= 0, got {max_inflight}")
        if counter is None and pool is None:
            raise ServeError("AsyncQueryService needs a counter or a WorkerPool")
        #: admission control, the LRU point cache (canonical keys for
        #: symmetric targets — a pool spawned below shares the counter's
        #: symmetry), flush accounting and trace bookkeeping, shared with
        #: the sync twin (loop-thread only); built first so bad parameters
        #: raise before any worker is spawned
        self._admission = Admission(
            pool or counter,
            batch_size=batch_size,
            max_wait=max_wait,
            cache_size=cache_size,
            max_pending=max_pending,
            deadline_ms=deadline_ms,
            tracer=tracer,
        )
        self.counter = counter
        self.batch_size = int(batch_size)
        self.max_wait = float(max_wait)
        #: concurrent kernel-batch cap: 0 = unbounded
        self.max_inflight = int(max_inflight)
        self._owns_pool = False
        if pool is None and workers > 0:
            pool = WorkerPool(counter, workers=workers, shards=shards, cold=cold_shards)
            self._owns_pool = True
        self.pool: WorkerPool | None = pool
        if tracer is not None and pool is not None:
            # worker lifecycle events land in the same tracer
            pool.tracer = tracer
        target = pool or counter
        self._dispatch = target.query_batch
        self._n = int(getattr(target, "n", 0))
        self._pending: list[_Waiter] = []
        #: the scheduled flush of the pending queries: an ``idle`` flush
        #: on the next loop turn, or the ``max_wait`` timer behind a busy
        #: kernel
        self._timer: asyncio.Handle | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        #: flush reason deferred by the in-flight gate; re-armed when a
        #: running batch completes (see :meth:`_flush_finished`)
        self._stalled: str | None = None
        self._closed = False

    @property
    def tracer(self) -> "Tracer | None":
        """The optional request tracer (``None`` = tracing off)."""
        return self._admission.tracer

    # ------------------------------------------------------------------
    # point path
    # ------------------------------------------------------------------
    async def submit(
        self,
        s: int,
        t: int,
        *,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> SPCResult:
        """Enqueue one query and await its batch's answer.

        Cache hits (when ``cache_size > 0``) resolve immediately without
        touching a kernel; everything else flushes with its batch.  Vertex
        ids are validated *here*, before admission: one malformed request
        must fail alone, never poison the co-batched queries of other
        concurrent callers.

        Admission control happens here too: a full pending queue rejects
        with :class:`~repro.errors.OverloadError` before the request costs
        anything, and ``deadline_ms`` (default: the service's
        ``deadline_ms``) arms a budget — if it expires before the batch
        reaches the kernel the request is shed with
        :class:`~repro.errors.DeadlineError` instead of being answered
        uselessly late.

        With a tracer attached, ``trace_id`` (e.g. minted at the HTTP
        layer from an ``X-Repro-Trace-Id`` header) names the request's
        trace; ``None`` mints a fresh id.  Without a tracer the argument
        is accepted and ignored, so callers need no feature check.
        """
        if self._closed:
            raise QueryError("AsyncQueryService is closed")
        waiter = self._admission.admit(
            s,
            t,
            self._n,
            len(self._pending),
            _Waiter,
            deadline_ms=deadline_ms,
            trace_id=trace_id,
        )
        if not waiter.done:
            self._pending.append(waiter)
            if len(self._pending) >= self.batch_size:
                self._start_flush("full")
            elif self._timer is None:
                loop = asyncio.get_running_loop()
                if self._flush_tasks:
                    self._timer = loop.call_later(
                        self.max_wait, self._scheduled_flush, "timeout"
                    )
                else:
                    # next loop turn, so submits made in this one share it
                    self._timer = loop.call_soon(self._scheduled_flush, "idle")
        return await waiter.future

    def _scheduled_flush(self, reason: str) -> None:
        self._timer = None
        if self._pending:
            self._start_flush(reason)

    def _start_flush(self, reason: str) -> None:
        """Detach the pending batch and evaluate it in a background task.

        The ``max_inflight`` gate applies here: with that many batches
        already executing, the pending batch *stays queued* — backpressure
        instead of unbounded concurrent kernel work — and the deferred
        flush fires from :meth:`_flush_finished` when a slot frees up.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self._pending
        if not batch:
            return
        if self.max_inflight and len(self._flush_tasks) >= self.max_inflight:
            self._stalled = reason
            return
        self._stalled = None
        self._pending = []
        task = asyncio.get_running_loop().create_task(self._flush(batch, reason))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_finished)

    def _flush_finished(self, task: asyncio.Task) -> None:
        """A kernel batch completed: flush what queued up behind it.

        A flush the in-flight gate deferred keeps its reason; queries
        that merely waited for the busy kernel flush as ``idle``.
        """
        self._flush_tasks.discard(task)
        if self._pending:
            self._start_flush(self._stalled or "idle")

    async def _flush(self, batch: list[_Waiter], reason: str) -> None:
        admission = self._admission
        live, start = admission.open_batch(batch, reason)
        if not live:
            return
        # the first traced query represents the batch at the pool: its id
        # rides the pipes, its context collects shard attribution
        representative = admission.representative(live)
        try:
            answers = await self._run_kernel(
                [(w.s, w.t) for w in live], reason, trace=representative
            )
        except BaseException as exc:  # noqa: BLE001 - delivered to every waiter
            admission.fail(live, exc)
            return
        admission.resolve(live, answers, start, representative)

    def _pool_dispatch(
        self, pairs: "Sequence[tuple[int, int]] | np.ndarray", trace: "TraceContext"
    ) -> list[SPCResult]:
        """Synchronous traced pool dispatch (runs on an executor thread)."""
        assert self.pool is not None
        return self.pool.query_batch(pairs, trace=trace)

    async def _run_kernel(
        self,
        pairs: "Sequence[tuple[int, int]] | np.ndarray",
        reason: str,
        trace: "TraceContext | None" = None,
    ) -> list[SPCResult]:
        """One timed kernel call, dispatched off the event loop."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        if trace is not None and self.pool is not None:
            answers = await loop.run_in_executor(
                None, self._pool_dispatch, pairs, trace
            )
        else:
            answers = await loop.run_in_executor(None, self._dispatch, pairs)
        elapsed = time.perf_counter() - start
        if trace is not None and self.pool is None:
            # no pipe leg without a pool: the whole dispatch is kernel time
            trace.span("kernel", elapsed)
        self._admission.metrics.record_flush(reason, elapsed, len(pairs))
        return answers

    # ------------------------------------------------------------------
    # bulk path
    # ------------------------------------------------------------------
    async def query_batch(
        self,
        pairs: Sequence[tuple[int, int]],
        *,
        deadline_ms: float | None = None,
    ) -> list[SPCResult]:
        """Answer a whole workload in admission-sized kernel calls.

        Point-path stragglers are flushed first so batches stay aligned;
        the bulk chunks bypass the LRU cache (it exists for hot repeated
        point pairs, not for sweeps).  Chunks are ``batch_size`` pairs when
        dispatching onto a counter directly and ``max(batch_size, 512) *
        workers`` over a pool — each pool dispatch shards across all
        workers, and each is a round trip through every worker's pipe, so
        every worker gets at least one kernel chunk of pairs per call.

        ``deadline_ms`` (default: the service budget) bounds the whole
        workload: the check runs between chunks, so an expired deadline
        sheds the *remaining* kernel calls with
        :class:`~repro.errors.DeadlineError` rather than grinding on.
        """
        if self._closed:
            raise QueryError("AsyncQueryService is closed")
        workload = validate_pairs(pairs, self._n)
        if not len(workload):
            return []
        deadline = self._admission.absolute_deadline(deadline_ms)
        await self.flush()
        if self.pool is None:
            chunk_size = self.batch_size
        else:
            chunk_size = max(self.batch_size, _POOL_BULK_PAIRS) * self.pool.workers
        results: list[SPCResult] = []
        for start in range(0, len(workload), chunk_size):
            if deadline is not None and time.perf_counter() >= deadline:
                self._admission.metrics.deadline_shed += len(workload) - start
                raise DeadlineError(
                    f"batch of {len(workload)} missed its deadline after "
                    f"{start} answered queries"
                )
            chunk = workload[start : start + chunk_size]
            results.extend(await self._run_kernel(chunk, "bulk"))
        return results

    # ------------------------------------------------------------------
    # flushing & lifecycle
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every cached point answer (after mutating the counter).

        The LRU cache assumes a frozen index; services over a mutable
        counter should leave caching disabled or clear it on every update.
        """
        self._admission.cache.clear()

    async def flush(self) -> int:
        """Flush pending point queries now; returns how many were started.

        With the in-flight gate holding the manual flush back, this waits
        out running batches until the deferred flush has actually started,
        then waits for it too — so "flushed" keeps meaning *evaluated*, not
        merely queued.
        """
        count = len(self._pending)
        if count:
            self._start_flush("manual")
        while self._stalled is not None and self._flush_tasks:
            await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)
            # one loop turn so _flush_finished callbacks run and re-arm
            # the deferred flush before we re-check
            await asyncio.sleep(0)
            if self._stalled is not None and self._pending:
                self._start_flush(self._stalled)
        await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)
        return count

    @property
    def pending(self) -> int:
        """Point queries waiting for their batch."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether :meth:`aclose` has run."""
        return self._closed

    def health(self) -> str:
        """Serving state: the pool's ``ok``/``degraded``/``critical``.

        A pool-less service (``workers=0``) has no crash surface beyond
        its own process and always reports ``ok``.
        """
        return self.pool.health() if self.pool is not None else "ok"

    def stats(self) -> dict:
        """Serving statistics (same shape as the sync service, plus pool/cache)."""
        report = self._admission.stats(len(self._pending))
        report["health"] = self.health()
        if self.pool is not None:
            report["pool"] = self.pool.stats()
        return report

    @property
    def flush_latency(self) -> LatencyHistogram:
        """The kernel-flush latency histogram (for /metrics rendering)."""
        return self._admission.metrics.flush_latency

    async def aclose(self) -> None:
        """Flush stragglers, wait out in-flight batches, stop an owned pool.

        Mirrors the sync service's ``close()``: a pending sub-batch is
        never silently lost — it flushes here, and submissions after
        ``aclose`` raise.
        """
        if self._closed:
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._pending:
            batch = self._pending
            self._pending = []
            await self._flush(batch, "manual")
        await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)
        if self._owns_pool and self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(None, self.pool.close)

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        target = type(self.pool or self.counter).__name__
        return (
            f"AsyncQueryService(target={target}, batch_size={self.batch_size}, "
            f"max_wait={self.max_wait}, batches={self._admission.metrics.batches}, "
            f"queries={self._admission.metrics.queries})"
        )
