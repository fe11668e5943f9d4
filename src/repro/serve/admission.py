"""The admission core shared by the two query services.

:class:`repro.api.QueryService` (caller threads and a condition variable)
and :class:`repro.serve.async_service.AsyncQueryService` (an event loop
and futures) differ only in how a caller waits and when a batch flushes.
Everything a point query goes through between those two moments lives
here, once: parameter checks, vertex validation, trace minting, the LRU
point cache (answering a reversed-pair hit in the requested orientation),
the ``max_pending`` overload check, deadline resolution, flush-time
deadline shedding, and per-answer resolution (cache fill, trace spans,
``tracer.finish``).

Not thread-safe by itself: the sync service calls it under its lock, the
async service on the event-loop thread.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from repro.core.engine import validate_vertex
from repro.core.queries import SPCResult
from repro.errors import DeadlineError, OverloadError, QueryError
from repro.obs.trace import TraceContext, Tracer
from repro.serve.cache import LRUCache, pair_key
from repro.serve.metrics import FlushStats

__all__ = ["Admission", "Ticket"]

_T = TypeVar("_T", bound="Ticket")


class Ticket:
    """One admitted point query awaiting its batch.

    ``deadline`` is the absolute ``perf_counter`` instant after which the
    query is shed unanswered (``None`` = no budget); ``trace`` is its span
    accumulator when the service traces it.  Services subclass this to
    attach their own way of waking the caller.
    """

    __slots__ = ("s", "t", "deadline", "trace", "_value", "_error")

    def __init__(
        self,
        s: int,
        t: int,
        deadline: float | None = None,
        trace: TraceContext | None = None,
    ) -> None:
        self.s = s
        self.t = t
        self.deadline = deadline
        self.trace = trace
        self._value: SPCResult | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        """Whether the query has been answered, shed or failed."""
        return self._value is not None or self._error is not None

    def resolve(self, value: SPCResult) -> None:
        self._value = value

    def fail(self, error: BaseException) -> None:
        self._error = error

    def outcome(self) -> SPCResult:
        """The answer of a ``done`` ticket, or its shed/kernel error raised."""
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value


class Admission:
    """Admission control, point cache and trace bookkeeping for one service.

    ``target`` is what the service dispatches to (a counter or a
    :class:`~repro.serve.pool.WorkerPool`); it decides the cache key
    symmetry.  ``max_pending`` bounds the admission queue (0 = unbounded)
    and ``deadline_ms`` is the default per-request budget (0 = none).
    """

    def __init__(
        self,
        target: object,
        *,
        batch_size: int,
        max_wait: float,
        cache_size: int = 0,
        max_pending: int = 0,
        deadline_ms: float = 0.0,
        tracer: Tracer | None = None,
    ) -> None:
        if batch_size < 1:
            raise QueryError(f"batch_size must be >= 1, got {batch_size}")
        if max_wait < 0:
            raise QueryError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending < 0 or deadline_ms < 0:
            raise QueryError(
                f"max_pending and deadline_ms must be >= 0, got "
                f"{max_pending}, {deadline_ms}"
            )
        self.max_pending = int(max_pending)
        self.deadline_ms = float(deadline_ms)
        self.tracer = tracer
        #: undirected targets key on the canonical (min, max) pair so the
        #: reversed direction of a hot pair hits too; directed targets stay
        #: asymmetric (see :func:`repro.serve.cache.pair_key`)
        self.cache: LRUCache[tuple[int, int], SPCResult] = LRUCache(cache_size)
        self.cache_key = pair_key(target)
        self.metrics = FlushStats()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self,
        s: int,
        t: int,
        n: int,
        pending: int,
        ticket: Callable[[int, int, "float | None", "TraceContext | None"], _T],
        *,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> _T:
        """Validate and admit one query; returns its ticket.

        A cache hit comes back already resolved (``done``) and must not
        be queued.  Otherwise the queue of ``pending`` tickets is checked
        against ``max_pending`` (:class:`~repro.errors.OverloadError` when
        full) and a fresh ticket from the ``ticket`` factory is returned
        for the caller to queue.  Vertex ids are validated first, so one
        malformed submission fails alone instead of poisoning its batch.
        """
        s = validate_vertex(s, n)
        t = validate_vertex(t, n)
        tracer = self.tracer
        # explicit ids always trace (a header names this request); the
        # rest thin out at the tracer's deterministic sampling rate
        ctx = (
            tracer.new_trace(s, t, trace_id=trace_id)
            if tracer is not None and (trace_id is not None or tracer.sampled())
            else None
        )
        self.metrics.queries += 1
        if ctx is not None and self.cache.capacity > 0:
            lookup_start = time.perf_counter()
            cached = self.cache.get(self.cache_key(s, t))
            ctx.span("cache_lookup", time.perf_counter() - lookup_start)
            ctx.annotate(cache="miss" if cached is None else "hit")
        else:
            cached = self.cache.get(self.cache_key(s, t))
        if cached is not None:
            # a reversed-pair hit answers with the requested orientation,
            # not the one that warmed the cache
            if (cached.s, cached.t) != (s, t):
                cached = SPCResult(s, t, cached.dist, cached.count)
            hit = ticket(s, t, None, ctx)
            hit.resolve(cached)
            if ctx is not None:
                self.finish(ctx)
            return hit
        if self.max_pending and pending >= self.max_pending:
            self.metrics.overloads += 1
            if ctx is not None:
                self.finish(ctx, "overload")
            raise OverloadError(
                f"pending queue full ({self.max_pending} queries); retry later"
            )
        return ticket(s, t, self.absolute_deadline(deadline_ms), ctx)

    def absolute_deadline(self, deadline_ms: float | None = None) -> float | None:
        """Resolve a budget (default: the service's) to a ``perf_counter`` instant."""
        budget = self.deadline_ms if deadline_ms is None else float(deadline_ms)
        return time.perf_counter() + budget / 1000.0 if budget > 0 else None

    def finish(self, ctx: TraceContext, status: str = "ok") -> None:
        self.tracer.finish(ctx, status=status)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def open_batch(
        self, batch: Sequence[Ticket], reason: str
    ) -> tuple[list[Ticket], float]:
        """Shed expired tickets before the kernel runs; returns ``(live, start)``.

        A ticket whose deadline passed fails with
        :class:`~repro.errors.DeadlineError` — a backlogged server stops
        spending kernel time on answers nobody is waiting for.  Traced
        survivors get their ``admission_wait`` span and batch annotations;
        ``start`` is the flush's ``perf_counter`` stamp for
        :meth:`resolve`.
        """
        start = time.perf_counter()
        live: list[Ticket] = []
        for ticket in batch:
            if ticket.deadline is not None and start >= ticket.deadline:
                self.metrics.deadline_shed += 1
                if ticket.trace is not None:
                    self.finish(ticket.trace, "shed")
                ticket.fail(
                    DeadlineError(
                        f"query ({ticket.s}, {ticket.t}) missed its deadline "
                        f"before the kernel ran"
                    )
                )
            else:
                live.append(ticket)
        for ticket in live:
            if ticket.trace is not None:
                ticket.trace.span("admission_wait", start - ticket.trace.enqueued)
                ticket.trace.annotate(batch=len(live), flush=reason)
        return live, start

    @staticmethod
    def representative(batch: Sequence[Ticket]) -> TraceContext | None:
        """The first traced query: it stands for the batch at the kernel."""
        return next(
            (ticket.trace for ticket in batch if ticket.trace is not None), None
        )

    def fail(self, batch: Sequence[Ticket], error: BaseException) -> None:
        """Deliver a kernel failure to every query of the batch."""
        for ticket in batch:
            if ticket.trace is not None:
                self.finish(ticket.trace, "error")
            ticket.fail(error)

    def resolve(
        self,
        batch: Sequence[Ticket],
        answers: Sequence[SPCResult],
        start: float,
        representative: TraceContext | None,
    ) -> None:
        """Cache and deliver a batch's answers, closing their traces.

        Co-batched queries share one kernel call, so every trace copies
        the representative's ``kernel``/``pipe`` timings.
        """
        reassembly_start = time.perf_counter()
        for ticket, answer in zip(batch, answers):
            self.cache.put(self.cache_key(ticket.s, ticket.t), answer)
            ctx = ticket.trace
            if ctx is not None:
                if representative is not None and ctx is not representative:
                    for span in ("kernel", "pipe"):
                        if span in representative.spans:
                            ctx.span(span, representative.spans[span])
                done = time.perf_counter()
                ctx.span("reassembly", done - reassembly_start)
                ctx.span("flush", done - start)
                self.finish(ctx)
            ticket.resolve(answer)

    # ------------------------------------------------------------------
    def stats(self, pending: int) -> dict:
        """The services' common ``stats()`` payload."""
        report = self.metrics.snapshot(pending, self.cache)
        if self.tracer is not None:
            report["trace"] = self.tracer.snapshot()
        return report
