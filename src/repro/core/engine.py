"""Store-agnostic SPC query evaluation: one engine, two kernels.

:class:`QueryEngine` wraps any :class:`~repro.core.store.LabelStore` and
serves the four query entry points (``query``, ``spc``, ``distance``,
``query_batch``) by dispatching to the kernel matching the representation:

* **tuple stores** (:class:`~repro.core.labels.LabelIndex`) use the
  two-pointer Python merge in :mod:`repro.core.queries`;
* **compact stores** (:class:`~repro.core.compact.CompactLabelIndex`) use
  numpy kernels over the packed ``hubs``/``dists``/``counts`` arrays — an
  ``np.intersect1d``-style merge per pair, and a *batch* kernel that joins
  the label lists of every pair in a handful of array operations, with no
  per-pair Python overhead.

The batch kernel keys each label entry by ``pair_id * n + hub_rank``; both
key arrays are globally sorted and duplicate-free (hubs are strictly
increasing within a label list), so one ``np.searchsorted`` probe finds the
common hubs of *all* pairs at once, and the matches of each pair form a
contiguous segment reduced with ``np.minimum.reduceat`` /
``np.add.reduceat`` (an order of magnitude faster than the buffered
``ufunc.at`` scatter path).

Counts are the correctness corner: the vectorized kernel accumulates in
``int64`` while the scalar kernels use Python ints.  The kernel forms the
count products only on each pair's at-best entries and sums them twice:
in ``int64`` (which wraps modulo ``2**64``, so its sum is exact whenever
the true sum fits) and in a ``float64`` twin of the absolute products.  A
pair whose twin sum reaches ``2**62`` is recomputed alone on the exact
per-pair path; every other pair stays on the fast path, and no call scans
the store's label arrays.  :func:`query_batch_arrays` returns the answers
as ``(dist, count, exact)`` — two int64 arrays plus a small
``{position: count}`` map of the pairs beyond int64 — and every batch
entry point (:func:`query_batch_compact`, the shard gather evaluator, the
worker pool's pipes) is a view over that one contract.  Results are
identical to the tuple kernel in every regime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.compact import CompactLabelIndex
from repro.core.labels import LabelIndex
from repro.core.queries import SPCResult, spc_query, spc_query_with_cost
from repro.errors import QueryError
from repro.graph.traversal import UNREACHABLE, slice_positions

__all__ = [
    "BatchArrays",
    "QueryEngine",
    "pack_results",
    "query_batch_arrays",
    "query_batch_compact",
    "spc_results",
    "validate_pairs",
    "validate_vertex",
]


def validate_vertex(v: int, n: int) -> int:
    """Range-check one vertex id against an index over ``n`` vertices.

    The shared pre-admission check of both query services (sync and
    async): one malformed submission must fail alone, with the same
    message everywhere, before it can join a batch.
    """
    v = int(v)
    if not 0 <= v < n:
        raise QueryError(f"vertex {v} out of range for index over {n} vertices")
    return v

_INT64_MAX = np.iinfo(np.int64).max
#: A pair whose float64 twin sum of ``|products|`` reaches this bound may
#: leave int64 and is recomputed on the exact Python-int path.
_SAFE_LIMIT = 2**62

#: Pairs per vectorized chunk.  Keeping the key/probe temporaries inside
#: the cache hierarchy beats one giant fan-out: 512 measured fastest
#: (~1.5x over 4096) on the bundled generators, and small chunks also
#: bound peak memory on huge batches.
_BATCH_CHUNK = 512


def validate_pairs(
    pairs: "Sequence[tuple[int, int]] | np.ndarray", n: int
) -> np.ndarray:
    """Canonicalise a query batch to an int64 ``(B, 2)`` array.

    The one shared validation for every batch entry point (the engine
    kernel here, the worker pool's dispatch side, the async bulk path):
    shape and vertex-range violations raise
    :class:`~repro.errors.QueryError` with identical messages everywhere,
    never a raw numpy error.
    """
    try:
        pairs_arr = np.asarray(
            pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64
        )
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a vertex id beyond int64 is out of range for any
        # index, but must still surface as QueryError, not a numpy error
        raise QueryError(f"batch must be a sequence of (s, t) pairs: {exc}") from None
    if pairs_arr.size == 0:
        return pairs_arr.reshape(0, 2)
    if pairs_arr.ndim != 2 or pairs_arr.shape[1] != 2:
        raise QueryError(
            f"batch must be a sequence of (s, t) pairs, got shape {pairs_arr.shape}"
        )
    if int(pairs_arr.min()) < 0 or int(pairs_arr.max()) >= n:
        bad = pairs_arr[(pairs_arr < 0) | (pairs_arr >= n)][0]
        raise QueryError(f"vertex {int(bad)} out of range for index over {n} vertices")
    return pairs_arr


#: ``(dist, count, exact)``: int64 arrays in batch order, plus the
#: ``{position: count}`` map of the rare pairs whose count leaves int64
#: (their ``count`` slot holds -1).
BatchArrays = tuple[np.ndarray, np.ndarray, dict[int, int]]


def query_batch_arrays(store: CompactLabelIndex, pairs_arr: np.ndarray) -> BatchArrays:
    """The vectorized batch kernel over a compact store, array in, arrays out.

    ``pairs_arr`` is a validated int64 ``(m, 2)`` array (see
    :func:`validate_pairs`).  Answers are bit-identical to per-pair
    :meth:`~repro.core.compact.CompactLabelIndex.query`: a pair whose
    count may leave int64 is recomputed on that exact path, alone.
    """
    m = len(pairs_arr)
    dist = np.empty(m, dtype=np.int64)
    count = np.empty(m, dtype=np.int64)
    exact: dict[int, int] = {}
    # chunk keys are pair_id * n + hub_rank and must fit int64
    step = max(1, min(_BATCH_CHUNK, _INT64_MAX // max(store.n, 1)))
    for start in range(0, m, step):
        chunk = pairs_arr[start : start + step]
        stop = start + len(chunk)
        beyond = _batch_chunk(store, chunk, dist[start:stop], count[start:stop])
        for i in beyond.tolist():
            value = store.query(int(chunk[i, 0]), int(chunk[i, 1])).count
            if abs(value) > _INT64_MAX:
                exact[start + i] = value
                value = -1
            count[start + i] = value
    return dist, count, exact


def spc_results(
    pairs_arr: np.ndarray, dist: np.ndarray, count: np.ndarray, exact: dict[int, int]
) -> list[SPCResult]:
    """The :class:`SPCResult` view of a kernel's ``(dist, count, exact)``."""
    counts = count.tolist()
    for position, value in exact.items():
        counts[position] = value
    return [
        SPCResult(s, t, d, c)
        for (s, t), d, c in zip(pairs_arr.tolist(), dist.tolist(), counts)
    ]


def pack_results(results: Sequence[SPCResult]) -> BatchArrays:
    """The inverse of :func:`spc_results`, for the per-pair kernels."""
    counts = [r.count for r in results]
    exact = {i: c for i, c in enumerate(counts) if abs(c) > _INT64_MAX}
    for position in exact:
        counts[position] = -1
    dist = np.fromiter((r.dist for r in results), dtype=np.int64, count=len(results))
    return dist, np.array(counts, dtype=np.int64), exact


def query_batch_compact(
    store: CompactLabelIndex, pairs: Sequence[tuple[int, int]]
) -> list[SPCResult]:
    """Vectorized batch evaluation over a compact store, as result objects."""
    pairs_arr = validate_pairs(pairs, store.n)
    return spc_results(pairs_arr, *query_batch_arrays(store, pairs_arr))


def _batch_chunk(
    store: CompactLabelIndex,
    pairs_arr: np.ndarray,
    dist_out: np.ndarray,
    count_out: np.ndarray,
) -> np.ndarray:
    """Answer one chunk into ``dist_out``/``count_out``.

    Returns the chunk positions whose count may exceed int64: their
    float64 twin sum reached :data:`_SAFE_LIMIT`, so ``count_out`` holds
    a wrapped value there.
    """
    n = store.n
    s = pairs_arr[:, 0]
    t = pairs_arr[:, 1]
    indptr = store.indptr
    num = len(pairs_arr)
    lo_s = indptr[s]
    len_s = indptr[s + 1] - lo_s
    lo_t = indptr[t]
    len_t = indptr[t + 1] - lo_t

    pos_s = slice_positions(lo_s, len_s)
    pos_t = slice_positions(lo_t, len_t)
    pid_s = np.repeat(np.arange(num, dtype=np.int64), len_s)
    pid_t = np.repeat(np.arange(num, dtype=np.int64), len_t)
    keys_s = pid_s * n + store.hubs[pos_s]
    keys_t = pid_t * n + store.hubs[pos_t]

    # both key arrays are already sorted and unique, so the common hubs of
    # every pair fall out of one searchsorted probe (no concat-and-sort)
    probe = np.searchsorted(keys_t, keys_s)
    probe_ok = probe < len(keys_t)
    hit = np.zeros(len(keys_s), dtype=bool)
    hit[probe_ok] = keys_t[probe[probe_ok]] == keys_s[probe_ok]

    dist_out.fill(UNREACHABLE)
    count_out.fill(0)
    beyond = np.empty(0, dtype=np.int64)
    match = np.flatnonzero(hit)
    if len(match):
        entry_s = pos_s[match]
        entry_t = pos_t[probe[match]]
        pid = pid_s[match]  # nondecreasing: matches inherit the key order
        dsum = store.dists[entry_s].astype(np.int32) + store.dists[entry_t]

        # per-pair matches are contiguous segments; reduce with reduceat
        seg_start = _segment_starts(pid)
        seg_pid = pid[seg_start]
        seg_best = np.minimum.reduceat(dsum, seg_start)
        best = np.empty(num, dtype=np.int32)
        best[seg_pid] = seg_best
        dist_out[seg_pid] = seg_best

        # products only on the at-best entries; every matched pair keeps
        # at least one, so the at-best segments line up with ``seg_pid``
        at_best = np.flatnonzero(dsum == best[pid])
        entry_s = entry_s[at_best]
        pid = pid[at_best]
        count_s = store.counts[entry_s]
        count_t = store.counts[entry_t[at_best]]
        contrib = count_s * count_t
        twin = count_s.astype(np.float64) * count_t
        # equivalence-reduced graphs weight every internal hub
        hub = store.hubs[entry_s].astype(np.int64)
        rank = store.order.rank
        internal = (hub != rank[s[pid]]) & (hub != rank[t[pid]])
        weight = np.where(internal, store.weight_by_rank[hub], 1)
        contrib *= weight
        twin *= weight
        # int64 products and sums wrap modulo 2**64, so the wrapped sum is
        # exact whenever the true one fits; the twin of |products| bounds it
        seg_start = _segment_starts(pid)
        count_out[seg_pid] = np.add.reduceat(contrib, seg_start)
        twin_sum = np.add.reduceat(np.abs(twin), seg_start)
        beyond = seg_pid[twin_sum >= _SAFE_LIMIT]

    same = s == t
    dist_out[same] = 0
    count_out[same] = 1
    return beyond


def _segment_starts(pid: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in nondecreasing ``pid``."""
    seg_mask = np.empty(len(pid), dtype=bool)
    seg_mask[0] = True
    np.not_equal(pid[1:], pid[:-1], out=seg_mask[1:])
    return np.flatnonzero(seg_mask)


def _merge_steps(hubs_s: Sequence[int], hubs_t: Sequence[int]) -> int:
    """Two-pointer merge step count (the Fig. 9 work unit), hubs only."""
    i = j = steps = 0
    len_s, len_t = len(hubs_s), len(hubs_t)
    while i < len_s and j < len_t:
        steps += 1
        if hubs_s[i] < hubs_t[j]:
            i += 1
        elif hubs_s[i] > hubs_t[j]:
            j += 1
        else:
            i += 1
            j += 1
    return steps


class QueryEngine:
    """Serve SPC queries from any label store with the best kernel for it.

    Examples
    --------
    >>> from repro.graph import cycle_graph
    >>> from repro.core.pspc import build_pspc
    >>> from repro.ordering.degree import degree_order
    >>> g = cycle_graph(6)
    >>> labels, _ = build_pspc(g, degree_order(g))
    >>> QueryEngine(labels).query(0, 3).count
    2
    """

    __slots__ = ("store", "_compact", "point_calls", "batch_calls")

    def __init__(self, store: "LabelIndex | CompactLabelIndex") -> None:
        self.store = store
        self._compact = isinstance(store, CompactLabelIndex)
        #: per-pair kernel invocations served (observability for the
        #: batched serving layer: a healthy :class:`repro.api.QueryService`
        #: keeps ``batch_calls`` high and ``point_calls`` near zero).
        self.point_calls = 0
        #: batch kernel invocations served.
        self.batch_calls = 0

    @property
    def kind(self) -> str:
        """Kernel family in use: ``"compact"`` (vectorized) or ``"tuple"``."""
        return "compact" if self._compact else "tuple"

    @property
    def n(self) -> int:
        """Number of vertices the underlying store serves."""
        return self.store.n

    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> SPCResult:
        """Exact ``(distance, count)`` for one pair."""
        self.point_calls += 1
        if self._compact:
            return self.store.query(s, t)
        return spc_query(self.store, s, t)

    def spc(self, s: int, t: int) -> int:
        """Number of shortest paths between ``s`` and ``t``."""
        return self.query(s, t).count

    def distance(self, s: int, t: int) -> int:
        """Shortest-path distance (-1 if disconnected)."""
        return self.query(s, t).dist

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Evaluate many pairs; vectorized on compact stores."""
        self.batch_calls += 1
        if self._compact:
            return query_batch_compact(self.store, pairs)
        return [spc_query(self.store, int(a), int(b)) for a, b in pairs]

    def query_costs(self, pairs: Sequence[tuple[int, int]]) -> list[int]:
        """Per-query label-scan work units (Fig. 9 simulation input).

        Both kernels report the identical two-pointer step count, so the
        speedup simulation is representation-independent.
        """
        if not self._compact:
            return [spc_query_with_cost(self.store, int(a), int(b))[1] for a, b in pairs]
        n = self.store.n
        hubs = self.store.hubs
        indptr = self.store.indptr
        slices: dict[int, list[int]] = {}
        costs = []
        for a, b in pairs:
            a, b = int(a), int(b)
            if not 0 <= a < n:
                raise QueryError(f"source vertex {a} out of range for index over {n} vertices")
            if not 0 <= b < n:
                raise QueryError(f"target vertex {b} out of range for index over {n} vertices")
            if a == b:
                costs.append(1)
                continue
            for v in (a, b):
                if v not in slices:
                    slices[v] = hubs[int(indptr[v]) : int(indptr[v + 1])].tolist()
            costs.append(_merge_steps(slices[a], slices[b]))
        return costs
