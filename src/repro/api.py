"""One SPCounter API: the unified facade over every index kind.

The paper's value proposition is a single abstraction — a 2-hop ESPC label
answering distance **and** shortest-path-count queries — but the library
grew six divergent entry points (PSPC, HP-SPC, reduced, directed, dynamic,
and the BFS baselines) with inconsistent build/query/persistence
conventions.  This module is the one public surface tying them back
together:

* :class:`SPCounter` — the protocol every index and baseline implements:
  ``n``, ``query``, ``spc``, ``distance``, ``query_batch``, ``save``,
  ``stats`` and ``size_bytes``.
* **The method registry** — :func:`register_method` plus the built-ins
  (``pspc``, ``hpspc``, ``reduced``, ``directed``, ``dynamic``, ``bfs``,
  ``bidirectional``), so :func:`build_index` constructs any counter
  uniformly from one :class:`~repro.core.index.BuildConfig`.
* :func:`open_index` — sniffs the versioned ``.npz`` payload kind and
  returns the matching facade class, whatever ``save`` wrote it.
* :class:`QueryService` — the serving layer: admission micro-batching over
  any counter's ``query_batch``, flushing through one vectorized kernel
  call per batch with per-batch latency statistics.

Quickstart::

    from repro.api import BuildConfig, QueryService, build_index, open_index

    index = build_index(graph, method="pspc", config=BuildConfig(num_landmarks=100))
    index.save("social.npz")

    index = open_index("social.npz")          # any kind, right class back
    with QueryService(index, batch_size=512) as service:
        results = service.query_batch(workload)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from threading import Condition
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.baselines.bfs_spc import OnlineBFSCounter
from repro.baselines.bidirectional import BidirectionalBFSCounter
from repro.core import store as store_module
from repro.core.dynamic import DynamicSPCIndex
from repro.core.hpspc import HPSPCIndex
from repro.core.index import BuildConfig, PSPCIndex
from repro.core.queries import SPCResult
from repro.core.stats import BuildStats
from repro.digraph.digraph import DiGraph
from repro.digraph.index import DirectedSPCIndex
from repro.errors import IndexBuildError, PersistenceError, QueryError
from repro.graph.graph import Graph
from repro.obs.trace import TraceContext, Tracer
from repro.reduction.pipeline import ReducedSPCIndex
from repro.serve.admission import Admission, Ticket

__all__ = [
    "AsyncQueryService",
    "BuildConfig",
    "MethodSpec",
    "PendingQuery",
    "QueryService",
    "SPCounter",
    "ShmIndexSegment",
    "ShmSegmentFleet",
    "WorkerPool",
    "build_index",
    "get_method",
    "method_names",
    "open_index",
    "register_method",
]

#: serve-layer classes re-exported lazily (PEP 562): `import repro.api`
#: must not drag in asyncio/multiprocessing for consumers that only build
#: and query — the repro.serve submodules load on first attribute access.
_SERVE_EXPORTS = (
    "AsyncQueryService",
    "ShmIndexSegment",
    "ShmSegmentFleet",
    "WorkerPool",
)


def __getattr__(name: str) -> object:
    if name in _SERVE_EXPORTS:
        import repro.serve

        value = getattr(repro.serve, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


# ----------------------------------------------------------------------
# the counter protocol
# ----------------------------------------------------------------------
@runtime_checkable
class SPCounter(Protocol):
    """What every shortest-path-counting front-end must expose.

    Implemented by :class:`~repro.core.index.PSPCIndex`,
    :class:`~repro.core.hpspc.HPSPCIndex`,
    :class:`~repro.reduction.pipeline.ReducedSPCIndex`,
    :class:`~repro.digraph.index.DirectedSPCIndex`,
    :class:`~repro.core.dynamic.DynamicSPCIndex` and the BFS baselines.
    Loading back is a classmethod (``load``) on each concrete class;
    :func:`open_index` dispatches to the right one from the payload kind.
    """

    @property
    def n(self) -> int:  # pragma: no cover - protocol
        """Number of vertices served."""
        ...

    @property
    def stats(self) -> BuildStats:  # pragma: no cover - protocol
        """Construction statistics (trivial for the index-free baselines)."""
        ...

    def query(self, s: int, t: int) -> SPCResult:  # pragma: no cover - protocol
        """Exact ``(distance, count)`` for one pair."""
        ...

    def spc(self, s: int, t: int) -> int:  # pragma: no cover - protocol
        """Number of shortest paths (0 if disconnected)."""
        ...

    def distance(self, s: int, t: int) -> int:  # pragma: no cover - protocol
        """Shortest-path distance (-1 if disconnected)."""
        ...

    def query_batch(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[SPCResult]:  # pragma: no cover - protocol
        """Evaluate many pairs in input order."""
        ...

    def save(self, path: str | Path) -> None:  # pragma: no cover - protocol
        """Serialise to the unified versioned ``.npz`` container."""
        ...

    def size_bytes(self) -> int:  # pragma: no cover - protocol
        """Size of the serving structures in bytes."""
        ...


# ----------------------------------------------------------------------
# the method registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MethodSpec:
    """One registered way of turning a graph into an :class:`SPCounter`."""

    name: str
    build: Callable[[object, BuildConfig], SPCounter]
    description: str = ""
    #: expects a :class:`~repro.digraph.digraph.DiGraph` substrate.
    directed: bool = False
    #: ``save`` writes a payload :func:`open_index` can reopen.
    persistable: bool = True


_METHODS: dict[str, MethodSpec] = {}

#: a counter-construction function: ``(graph, config) -> SPCounter``
_Builder = Callable[[object, "BuildConfig"], "SPCounter"]


def register_method(
    name: str,
    build: _Builder | None = None,
    *,
    description: str = "",
    directed: bool = False,
    persistable: bool = True,
    overwrite: bool = False,
) -> "_Builder | Callable[[_Builder], _Builder]":
    """Register a counter-construction method under ``name``.

    Usable directly (``register_method("mine", builder_fn)``) or as a
    decorator (``@register_method("mine")``).  The builder receives
    ``(graph, config)`` and returns an :class:`SPCounter`.  Re-registering
    an existing name raises unless ``overwrite=True`` — shadowing a
    built-in silently is how serving fleets end up with two meanings of
    ``"pspc"``.
    """

    def _register(fn: _Builder) -> _Builder:
        if name in _METHODS and not overwrite:
            raise IndexBuildError(
                f"method {name!r} is already registered; pass overwrite=True to replace it"
            )
        _METHODS[name] = MethodSpec(
            name=name,
            build=fn,
            description=description,
            directed=directed,
            persistable=persistable,
        )
        return fn

    if build is None:
        return _register
    return _register(build)


def method_names() -> list[str]:
    """All registered method names, sorted."""
    return sorted(_METHODS)


def get_method(name: str) -> MethodSpec:
    """Look up a registered method; raise with the valid names otherwise."""
    try:
        return _METHODS[name]
    except KeyError:
        known = ", ".join(method_names())
        raise IndexBuildError(
            f"unknown method {name!r}; registered methods: {known}"
        ) from None


def build_index(
    graph: Graph | DiGraph,
    method: str | None = None,
    config: BuildConfig | None = None,
    **overrides: object,
) -> SPCounter:
    """Build any registered counter kind from one declarative config.

    ``config`` defaults to :class:`~repro.core.index.BuildConfig`; keyword
    ``overrides`` replace individual knobs (``build_index(g, method="pspc",
    num_landmarks=100)``), and an explicit ``method`` argument wins over
    ``config.method``.  The substrate must match the method:
    ``method="directed"`` needs a :class:`~repro.digraph.digraph.DiGraph`,
    every other built-in a :class:`~repro.graph.graph.Graph`.
    """
    cfg = config if config is not None else BuildConfig()
    if method is not None:
        overrides = {**overrides, "method": method}
    if overrides:
        try:
            cfg = replace(cfg, **overrides)  # type: ignore[arg-type]
        except TypeError as exc:
            valid = ", ".join(sorted(BuildConfig.__dataclass_fields__))
            raise IndexBuildError(
                f"unknown build option: {exc}; BuildConfig knobs are: {valid}"
            ) from None
    spec = get_method(cfg.method)
    if spec.directed and not isinstance(graph, DiGraph):
        raise IndexBuildError(
            f"method {spec.name!r} indexes directed graphs; got {type(graph).__name__} "
            f"(build a repro.DiGraph, or pick an undirected method)"
        )
    if not spec.directed and isinstance(graph, DiGraph):
        raise IndexBuildError(
            f"method {spec.name!r} indexes undirected graphs; got a DiGraph "
            f"(use method='directed', or symmetrise the graph first)"
        )
    return spec.build(graph, cfg)


# ----------------------------------------------------------------------
# built-in methods
# ----------------------------------------------------------------------
def _build_pspc(graph: Graph, config: BuildConfig) -> PSPCIndex:
    return PSPCIndex.build(
        graph,
        ordering=config.ordering,
        builder=config.builder,
        paradigm=config.paradigm,
        num_landmarks=config.num_landmarks,
        threads=config.threads,
        record_work=config.record_work,
        store=config.store,
        engine=config.engine,
        workers=config.workers,
        profile=config.profile,
    )


def _build_hpspc(graph: Graph, config: BuildConfig) -> HPSPCIndex:
    return HPSPCIndex.build(graph, ordering=config.ordering, store=config.store)


def _build_reduced(graph: Graph, config: BuildConfig) -> ReducedSPCIndex:
    return ReducedSPCIndex.build(
        graph,
        use_one_shell=config.use_one_shell,
        use_equivalence=config.use_equivalence,
        ordering=config.ordering,
        builder=config.builder,
        paradigm=config.paradigm,
        num_landmarks=config.num_landmarks,
        threads=config.threads,
        record_work=config.record_work,
        store=config.store,
        engine=config.engine,
        workers=config.workers,
    )


def _build_directed(graph: DiGraph, config: BuildConfig) -> DirectedSPCIndex:
    if config.ordering != "degree":
        raise IndexBuildError(
            "the directed method computes its own total-degree order; "
            "pass ordering='degree' (or a VertexOrder to DirectedSPCIndex.build)"
        )
    return DirectedSPCIndex.build(
        graph,
        builder=config.builder,
        num_landmarks=config.num_landmarks,
        engine=config.engine,
        workers=config.workers,
        store=config.store,
        record_work=config.record_work,
        profile=config.profile,
    )


def _build_dynamic(graph: Graph, config: BuildConfig) -> DynamicSPCIndex:
    return DynamicSPCIndex(
        graph,
        rebuild_threshold=config.rebuild_threshold,
        ordering=config.ordering,
        builder=config.builder,
        paradigm=config.paradigm,
        num_landmarks=config.num_landmarks,
        threads=config.threads,
        record_work=config.record_work,
        store=config.store,
        engine=config.engine,
        workers=config.workers,
    )


register_method(
    "pspc", _build_pspc,
    description="parallel propagation ESPC index (the paper's PSPC)",
)
register_method(
    "hpspc", _build_hpspc,
    description="sequential hub-pushing baseline (HP-SPC, SIGMOD'20)",
)
register_method(
    "reduced", _build_reduced,
    description="1-shell + equivalence reductions, index on the residual core",
)
register_method(
    "directed", _build_directed,
    description="directed two-label (Lin/Lout) ESPC index", directed=True,
)
register_method(
    "dynamic", _build_dynamic,
    description="write-buffered index over a mutable edge set, always exact",
)
register_method(
    "bfs", lambda graph, config: OnlineBFSCounter(graph),
    description="index-free oracle: one truncated BFS per query",
)
register_method(
    "bidirectional", lambda graph, config: BidirectionalBFSCounter(graph),
    description="index-free meet-in-the-middle BFS counter",
)


# ----------------------------------------------------------------------
# open_index: payload-kind sniffing
# ----------------------------------------------------------------------
def _open_bare_store(path: str | Path, meta: dict, mmap: bool) -> PSPCIndex:
    """Wrap a bare label-store file in a queryable index facade."""
    serving = store_module.load_labels(path, mmap=mmap)
    stats = BuildStats(builder="loaded", n_vertices=serving.n)
    stats.total_entries = serving.total_entries()
    return PSPCIndex(serving, BuildConfig(), stats, graph=None)


def _open_shard(path: str | Path, meta: dict, mmap: bool) -> SPCounter:
    """Open one fleet shard as a standalone queryable index.

    A shard store is global-shaped (full-length ``indptr``, empty slices
    for foreign vertices), so the stock facades serve it unchanged:
    local pairs answer exactly, foreign vertices read as unreachable.
    """
    serving, shard_meta = store_module.read_shard(path, mmap=mmap)
    stats = BuildStats(builder="loaded", n_vertices=serving.n)
    stats.total_entries = serving.total_entries()
    if shard_meta.get("store_kind") == "directed-compact":
        return DirectedSPCIndex(serving, stats, graph=None)  # type: ignore[arg-type]
    return PSPCIndex(serving, BuildConfig(), stats, graph=None)


def _open_counter(path: str | Path, meta: dict, mmap: bool) -> SPCounter:
    method = str(meta.get("method", ""))
    cls = {"bfs": OnlineBFSCounter, "bidirectional": BidirectionalBFSCounter}.get(method)
    if cls is None:
        raise PersistenceError(
            f"{path} holds a counter payload of unknown method {method!r}"
        )
    return cls.load(path)


_OPENERS: dict[str, Callable[[str | Path, dict, bool], SPCounter]] = {
    "index": lambda path, meta, mmap: PSPCIndex.load(path, mmap=mmap),
    "hpspc": lambda path, meta, mmap: HPSPCIndex.load(path, mmap=mmap),
    # both directed kinds sniff through one loader: compact payloads stay
    # packed (thawing to tuple lists would materialise every entry and
    # defeat mmap=True for exactly the multi-GB files the lazy open
    # exists for), tuple payloads restore the tuple lists
    "directed": lambda path, meta, mmap: DirectedSPCIndex.load(path, mmap=mmap),
    "directed-compact": lambda path, meta, mmap: DirectedSPCIndex.load(path, mmap=mmap),
    "dynamic": lambda path, meta, mmap: DynamicSPCIndex.load(path),
    "reduced": lambda path, meta, mmap: ReducedSPCIndex.load(path),
    "counter": _open_counter,
    "tuple": _open_bare_store,
    "compact": _open_bare_store,
    store_module.SHARD_KIND: _open_shard,
}


def open_index(path: str | Path, mmap: bool = False) -> SPCounter:
    """Open any saved counter, returning the class that wrote it.

    Sniffs the ``kind`` field of the versioned ``.npz`` container (without
    decompressing the label arrays) and dispatches to the matching
    ``load``: full PSPC/HP-SPC indexes, directed indexes, dynamic and
    reduced recipes, baseline counters, and bare tuple/compact label stores
    (wrapped in a :class:`~repro.core.index.PSPCIndex` facade).

    ``mmap=True`` memory-maps compact label arrays straight out of files
    written with ``compress=False`` instead of reading them eagerly — a
    multi-GB serving index then opens lazily (read-only CLI paths and the
    shared-memory publisher use this).  Kinds that must materialise Python
    structures anyway (tuple stores, recipes, baselines) and compressed
    files fall back to the eager read transparently.  A mapped open holds
    the file until released: the mmap-capable facades expose ``close()``
    (and work as context managers), which drops the maps deterministically
    — call it when done instead of waiting on garbage collection.
    """
    kind, meta = store_module.peek_meta(path)
    opener = _OPENERS.get(kind)
    if opener is None:
        known = ", ".join(sorted(_OPENERS))
        raise PersistenceError(
            f"{path} holds a payload of unknown kind {kind!r}; "
            f"this build opens: {known}"
        )
    return opener(path, meta, mmap)


# ----------------------------------------------------------------------
# the serving layer: admission-batched query service
# ----------------------------------------------------------------------
class PendingQuery(Ticket):
    """A submitted query awaiting its batch; resolved by the next flush."""

    __slots__ = ("_service",)

    def __init__(
        self,
        service: "QueryService",
        s: int,
        t: int,
        deadline: float | None = None,
        trace: "TraceContext | None" = None,
    ) -> None:
        super().__init__(s, t, deadline, trace)
        self._service = service

    def result(self, timeout: float | None = None) -> SPCResult:
        """Block until the batch flushes and return this query's answer.

        Waiting past the service's admission deadline triggers the flush
        itself, so a caller never stalls longer than ``max_wait`` plus one
        kernel call; ``timeout`` (seconds) bounds the total wait and raises
        :class:`~repro.errors.QueryError` when exceeded.  A kernel failure
        during the flush re-raises here for every query of the batch.
        """
        service = self._service
        give_up = None if timeout is None else time.perf_counter() + timeout
        with service._cv:
            while not self.done:
                now = time.perf_counter()
                if give_up is not None and now >= give_up:
                    raise QueryError(
                        f"query ({self.s}, {self.t}) timed out after {timeout}s "
                        f"waiting for its batch"
                    )
                deadline = service._deadline
                if deadline is not None and now >= deadline:
                    try:
                        service._flush_locked("timeout")
                    except BaseException:
                        # our own handle carries the failure; fall through
                        # to raise it (other waiters are woken with theirs)
                        pass
                    continue
                waits = [w for w in (deadline, give_up) if w is not None]
                service._cv.wait(timeout=min(waits) - now if waits else None)
        return self.outcome()


class QueryService:
    """Admission micro-batching over any counter's ``query_batch``.

    Point submissions (:meth:`submit` / :meth:`query`) accumulate until
    either ``batch_size`` queries are pending or the oldest has waited
    ``max_wait`` seconds, then the whole batch flushes through **one**
    vectorized kernel call; bulk workloads (:meth:`query_batch`) are sliced
    into exactly ``ceil(n / batch_size)`` kernel invocations.  Answers are
    identical to per-pair :meth:`SPCounter.query` calls in every regime —
    the service changes latency shape, never results.

    ``cache_size > 0`` adds an LRU point-query cache: repeated ``(s, t)``
    submissions short-circuit the kernel entirely (hit/miss counters in
    :meth:`stats`); the bulk path bypasses it.  The cache assumes a frozen
    index — when serving a mutable counter (``DynamicSPCIndex``), either
    leave it disabled or call :meth:`clear_cache` after every update.

    Thread-safe; per-batch latency statistics via :meth:`stats`.

    Examples
    --------
    >>> from repro.graph import cycle_graph
    >>> from repro.core.index import PSPCIndex
    >>> service = QueryService(PSPCIndex.build(cycle_graph(6)), batch_size=2)
    >>> [r.count for r in service.query_batch([(0, 3), (1, 4), (2, 5)])]
    [2, 2, 2]
    >>> service.stats()["batches"]
    2
    """

    def __init__(
        self,
        counter: SPCounter,
        batch_size: int = 64,
        max_wait: float = 0.002,
        cache_size: int = 0,
        max_pending: int = 0,
        deadline_ms: float = 0.0,
        tracer: "Tracer | None" = None,
    ) -> None:
        #: admission control, the LRU point cache, flush accounting and
        #: trace bookkeeping, shared with the async twin (used under the lock)
        self._admission = Admission(
            counter,
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
        self._cv = Condition()
        self._pending: list[PendingQuery] = []
        self._deadline: float | None = None
        self._closed = False

    @property
    def tracer(self) -> "Tracer | None":
        """The optional request tracer (``None`` = tracing off)."""
        return self._admission.tracer

    # ------------------------------------------------------------------
    # point path: submit / query
    # ------------------------------------------------------------------
    def submit(
        self,
        s: int,
        t: int,
        *,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> PendingQuery:
        """Enqueue one query; returns a handle whose ``result()`` blocks.

        Reaching ``batch_size`` pending queries flushes immediately; an
        unfilled batch flushes when its oldest entry has waited
        ``max_wait`` (driven by whichever ``result()`` call observes the
        deadline).  Cache hits come back already resolved.

        Admission is the shared :class:`~repro.serve.admission.Admission`
        core: vertex ids are validated first (one malformed submission
        fails alone), a full pending queue (``max_pending``) raises
        :class:`~repro.errors.OverloadError`, and an armed ``deadline_ms``
        budget (per call, or the service default) sheds the query with
        :class:`~repro.errors.DeadlineError` if it expires before the
        batch flushes.
        """
        with self._cv:
            if self._closed:
                raise QueryError("QueryService is closed")
            handle = self._admission.admit(
                s,
                t,
                self.counter.n,
                len(self._pending),
                self._ticket,
                deadline_ms=deadline_ms,
                trace_id=trace_id,
            )
            if handle.done:
                return handle
            self._pending.append(handle)
            if self._deadline is None:
                self._deadline = time.perf_counter() + self.max_wait
            if len(self._pending) >= self.batch_size:
                self._flush_locked("full")
        return handle

    def _ticket(
        self, s: int, t: int, deadline: float | None, trace: "TraceContext | None"
    ) -> PendingQuery:
        return PendingQuery(self, s, t, deadline, trace)

    def query(self, s: int, t: int) -> SPCResult:
        """Submit one query and wait for its batch — the low-QPS path."""
        return self.submit(s, t).result()

    # ------------------------------------------------------------------
    # bulk path
    # ------------------------------------------------------------------
    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Answer a whole workload in ``ceil(n / batch_size)`` kernel calls.

        Flushes any point-path stragglers first so batches stay aligned,
        then slices ``pairs`` into admission-sized chunks, each evaluated
        by one call into the counter's batch kernel.
        """
        workload = [(int(s), int(t)) for s, t in pairs]
        if not workload:
            return []
        with self._cv:
            if self._closed:
                raise QueryError("QueryService is closed")
        self.flush()
        results: list[SPCResult] = []
        # kernels run outside the lock: a long bulk sweep must not stall
        # concurrent submit()/result() point traffic past its max_wait
        for start in range(0, len(workload), self.batch_size):
            chunk = workload[start : start + self.batch_size]
            results.extend(self._run_kernel(chunk, "bulk"))
        return results

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Flush pending point queries now; returns how many were answered."""
        with self._cv:
            if not self._pending:
                return 0
            return self._flush_locked("manual")

    def _flush_locked(self, reason: str) -> int:
        """Evaluate and resolve the pending batch (caller holds the lock).

        Queries whose per-request deadline already passed are shed with
        :class:`~repro.errors.DeadlineError` *before* the kernel runs.  A
        kernel failure is delivered to every co-batched handle (their
        ``result()`` re-raises it) and then raised here.
        """
        batch = self._pending
        if not batch:
            return 0
        self._pending = []
        self._deadline = None
        admission = self._admission
        live, start = admission.open_batch(batch, reason)
        if live:
            representative = admission.representative(live)
            try:
                answers = self._run_kernel(
                    [(h.s, h.t) for h in live], reason, representative
                )
            except BaseException as exc:
                admission.fail(live, exc)
                self._cv.notify_all()
                raise
            admission.resolve(live, answers, start, representative)
        self._cv.notify_all()
        return len(batch)

    def _run_kernel(
        self,
        chunk: list[tuple[int, int]],
        reason: str,
        trace: "TraceContext | None" = None,
    ) -> list[SPCResult]:
        """One timed invocation of the underlying batch kernel.

        Callable with or without the service lock held (the condition's
        lock is re-entrant); only the accounting is done under it.
        """
        start = time.perf_counter()
        answers = self.counter.query_batch(chunk)
        elapsed = time.perf_counter() - start
        if trace is not None:
            trace.span("kernel", elapsed)
        with self._cv:
            self._admission.metrics.record_flush(reason, elapsed, len(chunk))
        return answers

    # ------------------------------------------------------------------
    # reporting & lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Point queries waiting for their batch."""
        with self._cv:
            return len(self._pending)

    def stats(self) -> dict:
        """Serving statistics: batch shape and per-batch flush latency."""
        with self._cv:
            return self._admission.stats(len(self._pending))

    def clear_cache(self) -> None:
        """Drop every cached point answer (after mutating the counter)."""
        with self._cv:
            self._admission.cache.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (submissions now raise)."""
        with self._cv:
            return self._closed

    def close(self) -> None:
        """Flush stragglers and refuse further submissions (idempotent).

        Guarantees a pending sub-batch is never silently lost: whatever
        was submitted but not yet flushed is evaluated here, so dropping
        the service (via the context manager) resolves every outstanding
        :class:`PendingQuery` without waiting out ``max_wait``.
        """
        with self._cv:
            # refuse new submissions *before* the final flush: a kernel
            # failure here must not leave a service the caller believes
            # closed still accepting traffic
            self._closed = True
            self._flush_locked("manual")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService(counter={type(self.counter).__name__}, "
            f"batch_size={self.batch_size}, max_wait={self.max_wait}, "
            f"batches={self._admission.metrics.batches}, "
            f"queries={self._admission.metrics.queries})"
        )
