"""Serving observability: flush accounting, latency histograms, /metrics.

Both :class:`repro.api.QueryService` and
:class:`repro.serve.async_service.AsyncQueryService` report the same
serving statistics (batch counts, flush reasons, per-flush latency,
admission-control sheds).  Keeping the bookkeeping in one class means a
stats field added for one twin cannot silently go missing from the other.

Running aggregates only — a serving process flushes millions of times and
must not grow memory with uptime; the histograms are fixed log-spaced
bucket counters, never per-observation lists.  Not thread-safe by itself:
the sync service mutates it under its condition lock, the async service on
the event loop thread.

:func:`render_prometheus` turns one stats snapshot (plus the HTTP
front-end's request counters) into the Prometheus text exposition format
served at ``GET /metrics``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.cache import LRUCache

__all__ = ["FlushStats", "LatencyHistogram", "render_prometheus"]


def _log_buckets() -> tuple[float, ...]:
    """Fixed 1-2.5-5 log-spaced upper bounds, 100µs through 50s."""
    bounds: list[float] = []
    scale = 1e-4
    while scale < 100.0:
        bounds.extend((scale, 2.5 * scale, 5 * scale))
        scale *= 10
    return tuple(b for b in bounds if b <= 50.0)


class LatencyHistogram:
    """Fixed log-spaced latency buckets with running sum/count.

    Prometheus-histogram shaped: ``buckets[i]`` counts observations
    ``<= bounds[i]`` (non-cumulative here; cumulated at render time), plus
    an overflow bucket and running ``total_seconds``/``count`` for the
    ``_sum``/``_count`` series.  Memory is constant whatever the uptime.
    """

    BOUNDS: tuple[float, ...] = _log_buckets()

    __slots__ = ("buckets", "overflow", "count", "total_seconds", "min_seconds", "max_seconds")

    def __init__(self) -> None:
        self.buckets = [0] * len(self.BOUNDS)
        self.overflow = 0
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Account one observation of ``seconds``.

        Hot path for the tracer and every kernel flush: the bucket is
        found by bisection over the sorted bounds, not a linear scan.
        """
        count = self.count
        if count == 0:
            self.min_seconds = seconds
            self.max_seconds = seconds
        elif seconds < self.min_seconds:
            self.min_seconds = seconds
        elif seconds > self.max_seconds:
            self.max_seconds = seconds
        self.count = count + 1
        self.total_seconds += seconds
        i = bisect_left(self.BOUNDS, seconds)
        if i < len(self.BOUNDS):
            self.buckets[i] += 1
        else:
            self.overflow += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile (seconds) from the bucket counts.

        Reported as the upper bound of the bucket the ``q``-th observation
        falls in, clamped to the observed ``[min_seconds, max_seconds]``
        range so degenerate histograms stay truthful: zero observations
        report 0.0, a single observation reports its exact value, and
        quantiles can never exceed the largest latency actually seen
        (including overflow observations beyond the last bound).
        """
        if self.count == 0:
            return 0.0
        if self.count == 1:
            return self.max_seconds
        rank = q * self.count
        seen = 0
        for i, bound in enumerate(self.BOUNDS):
            seen += self.buckets[i]
            if seen >= rank:
                return min(max(bound, self.min_seconds), self.max_seconds)
        return self.max_seconds

    def snapshot(self) -> dict:
        """JSON-friendly summary for ``stats()`` payloads."""
        return {
            "count": self.count,
            "mean_ms": round(self.total_seconds / self.count * 1e3, 3)
            if self.count
            else 0.0,
            "p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
        }

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows for exposition."""
        rows: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.BOUNDS, self.buckets):
            running += count
            rows.append((bound, running))
        return rows


class FlushStats:
    """Counters for admission-batched kernel flushes and shed requests."""

    __slots__ = (
        "queries",
        "batches",
        "reasons",
        "total_seconds",
        "max_seconds",
        "flushed_queries",
        "overloads",
        "deadline_shed",
        "flush_latency",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.batches = 0
        self.reasons = {"idle": 0, "full": 0, "timeout": 0, "manual": 0, "bulk": 0}
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.flushed_queries = 0
        #: requests rejected at admission (pending queue full -> 429)
        self.overloads = 0
        #: requests shed before the kernel (deadline expired -> 504)
        self.deadline_shed = 0
        #: per-flush kernel latency distribution (running buckets only)
        self.flush_latency = LatencyHistogram()

    def record_flush(self, reason: str, elapsed: float, count: int) -> None:
        """Account one kernel call of ``count`` queries taking ``elapsed``."""
        self.batches += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.total_seconds += elapsed
        self.max_seconds = max(self.max_seconds, elapsed)
        self.flushed_queries += count
        self.flush_latency.observe(elapsed)
        if reason == "bulk":
            self.queries += count

    def snapshot(self, pending: int, cache: "LRUCache") -> dict:
        """The services' common ``stats()`` payload.

        ``cache`` is the service's :class:`~repro.serve.cache.LRUCache`;
        callers merge service-specific extras (e.g. pool stats) on top.
        """
        batches = self.batches
        mean_batch = self.flushed_queries / batches if batches else 0.0
        return {
            "queries": self.queries,
            "batches": batches,
            "pending": pending,
            "mean_batch_size": round(mean_batch, 2),
            "idle_flushes": self.reasons.get("idle", 0),
            "full_flushes": self.reasons.get("full", 0),
            "timeout_flushes": self.reasons.get("timeout", 0),
            "manual_flushes": self.reasons.get("manual", 0),
            "bulk_flushes": self.reasons.get("bulk", 0),
            "mean_flush_us": round(self.total_seconds / batches * 1e6, 2) if batches else 0.0,
            "max_flush_us": round(self.max_seconds * 1e6, 2) if batches else 0.0,
            "overloads": self.overloads,
            "deadline_shed": self.deadline_shed,
            "flush_latency": self.flush_latency.snapshot(),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_HEALTH_CODE = {"ok": 0, "degraded": 1, "critical": 2}


def _metric(lines: list[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _histogram(
    lines: list[str],
    name: str,
    hist: LatencyHistogram,
    help_text: str,
    *,
    labels: str = "",
    typed: bool = True,
) -> None:
    if typed:
        _metric(lines, name, "histogram", help_text)
    prefix = f"{labels}," if labels else ""
    for bound, cumulative in hist.cumulative():
        lines.append(f'{name}_bucket{{{prefix}le="{bound:g}"}} {cumulative}')
    lines.append(f'{name}_bucket{{{prefix}le="+Inf"}} {hist.count}')
    suffix = f"{{{labels}}}" if labels else ""
    lines.append(f"{name}_sum{suffix} {hist.total_seconds:.6f}")
    lines.append(f"{name}_count{suffix} {hist.count}")


def render_prometheus(
    stats: dict,
    *,
    health: str = "ok",
    request_latency: LatencyHistogram | None = None,
    responses: "dict[int, int] | None" = None,
    flush_latency: LatencyHistogram | None = None,
    span_summaries: "dict[str, tuple[int, float]] | None" = None,
) -> str:
    """Render a service stats snapshot as Prometheus exposition text.

    ``stats`` is an :class:`~repro.serve.async_service.AsyncQueryService`
    (or sync twin) ``stats()`` payload — including the nested ``pool``
    section when one exists; the HTTP front-end passes its own request
    latency histogram and per-status response counters on top.  Pure
    formatting: every number was already aggregated by the owning
    component, so rendering never takes locks.
    """
    lines: list[str] = []

    _metric(lines, "repro_queries_total", "counter", "Queries admitted by the service.")
    lines.append(f"repro_queries_total {stats.get('queries', 0)}")
    _metric(lines, "repro_batches_total", "counter", "Kernel flushes executed.")
    lines.append(f"repro_batches_total {stats.get('batches', 0)}")
    _metric(
        lines, "repro_flushes_total", "counter", "Kernel flushes by trigger reason."
    )
    for reason in ("idle", "full", "timeout", "manual", "bulk"):
        lines.append(
            f'repro_flushes_total{{reason="{reason}"}} '
            f"{stats.get(f'{reason}_flushes', 0)}"
        )
    _metric(lines, "repro_pending_queries", "gauge", "Point queries awaiting a batch.")
    lines.append(f"repro_pending_queries {stats.get('pending', 0)}")

    _metric(
        lines,
        "repro_shed_total",
        "counter",
        "Requests shed by admission control, by cause (overload -> 429, deadline -> 504).",
    )
    lines.append(f'repro_shed_total{{cause="overload"}} {stats.get("overloads", 0)}')
    lines.append(f'repro_shed_total{{cause="deadline"}} {stats.get("deadline_shed", 0)}')

    _metric(lines, "repro_cache_hits_total", "counter", "Point-cache hits.")
    lines.append(f"repro_cache_hits_total {stats.get('cache_hits', 0)}")
    _metric(lines, "repro_cache_misses_total", "counter", "Point-cache misses.")
    lines.append(f"repro_cache_misses_total {stats.get('cache_misses', 0)}")

    _metric(
        lines,
        "repro_health",
        "gauge",
        "Serving health: 0 ok, 1 degraded (some workers retired), 2 critical (in-process fallback).",
    )
    lines.append(f"repro_health {_HEALTH_CODE.get(health, 2)}")

    pool = stats.get("pool")
    if pool:
        _metric(
            lines, "repro_pool_workers", "gauge", "Worker slots by liveness state."
        )
        lines.append(f'repro_pool_workers{{state="live"}} {pool.get("live_workers", 0)}')
        lines.append(
            f'repro_pool_workers{{state="retired"}} {pool.get("retired_workers", 0)}'
        )
        for counter, help_text in (
            ("respawns", "Worker respawns after crashes (lifetime)."),
            ("quarantines", "Parent-initiated worker replacements."),
            ("dispatch_retries", "Jittered dispatch retries on transient pipe errors."),
            ("fallback_batches", "Whole batches answered by the in-process fallback."),
            ("fallback_queries", "Queries answered by the in-process fallback."),
        ):
            _metric(lines, f"repro_pool_{counter}_total", "counter", help_text)
            lines.append(f"repro_pool_{counter}_total {pool.get(counter, 0)}")
        _metric(
            lines, "repro_worker_queries_total", "counter", "Queries served per worker slot."
        )
        for row in pool.get("per_worker", ()):
            lines.append(
                f'repro_worker_queries_total{{worker="{row["worker"]}"}} {row["queries"]}'
            )
        _metric(
            lines,
            "repro_worker_kernel_seconds_total",
            "counter",
            "Cumulative kernel seconds per worker slot.",
        )
        for row in pool.get("per_worker", ()):
            lines.append(
                f'repro_worker_kernel_seconds_total{{worker="{row["worker"]}"}} '
                f'{row["kernel_s"]}'
            )
        _metric(
            lines,
            "repro_worker_pending_shards",
            "gauge",
            "Shards dispatched to a worker slot and not yet answered.",
        )
        for row in pool.get("per_worker", ()):
            lines.append(
                f'repro_worker_pending_shards{{worker="{row["worker"]}"}} '
                f'{row.get("pending", 0)}'
            )
        fleet = pool.get("fleet")
        if fleet:
            per_shard = fleet.get("per_shard", ())
            _metric(
                lines,
                "repro_shard_queries_total",
                "counter",
                "Batches routed to each index shard (home-shard routing).",
            )
            for row in per_shard:
                lines.append(
                    f'repro_shard_queries_total{{shard="{row["shard"]}"}} '
                    f'{row["queries"]}'
                )
            _metric(
                lines,
                "repro_shard_fallback_queries_total",
                "counter",
                "Queries answered in-process because a shard had no live owner.",
            )
            for row in per_shard:
                lines.append(
                    f'repro_shard_fallback_queries_total{{shard="{row["shard"]}"}} '
                    f'{row["fallback_queries"]}'
                )
            _metric(
                lines,
                "repro_shard_live_owners",
                "gauge",
                "Live worker slots owning each shard.",
            )
            for row in per_shard:
                lines.append(
                    f'repro_shard_live_owners{{shard="{row["shard"]}"}} '
                    f'{row["live_owners"]}'
                )
            _metric(
                lines,
                "repro_shard_label_bytes",
                "gauge",
                "Packed label payload bytes per shard.",
            )
            for row in per_shard:
                lines.append(
                    f'repro_shard_label_bytes{{shard="{row["shard"]}"}} '
                    f'{row["nbytes"]}'
                )

    if flush_latency is not None:
        _histogram(
            lines,
            "repro_flush_latency_seconds",
            flush_latency,
            "Kernel flush latency (one admission batch through the kernel).",
        )
    if span_summaries:
        _metric(
            lines,
            "repro_span_latency_seconds",
            "summary",
            "Per-span request latency totals from the tracer (admission wait, kernel, ...).",
        )
        for span in sorted(span_summaries):
            count, total = span_summaries[span]
            lines.append(
                f'repro_span_latency_seconds_sum{{span="{span}"}} {total:.6f}'
            )
            lines.append(
                f'repro_span_latency_seconds_count{{span="{span}"}} {count}'
            )
    if request_latency is not None:
        _histogram(
            lines,
            "repro_request_latency_seconds",
            request_latency,
            "HTTP request latency, parse through response body.",
        )
    if responses:
        _metric(
            lines, "repro_http_responses_total", "counter", "HTTP responses by status code."
        )
        for code in sorted(responses):
            lines.append(f'repro_http_responses_total{{code="{code}"}} {responses[code]}')

    return "\n".join(lines) + "\n"
