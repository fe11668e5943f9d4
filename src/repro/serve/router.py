"""Shard routing and the scatter/gather evaluator over a segment fleet.

A fleet splits the label arrays by contiguous vertex ranges (one range
for an unsharded index), so a pair ``(s, t)`` may straddle shards: its **home shard** — the shard owning
``min(s, t)`` — holds one endpoint's labels locally and must *gather* the
far endpoint's slice from the foreign shard.

Two observations make the gather exact and cheap:

* the query kernel (:func:`repro.core.engine.query_batch_compact`) reads
  nothing but per-vertex label slices, the vertex order, and the per-rank
  hub weights — so evaluating a batch against a temporary store holding
  only the referenced vertices' slices is **bit-identical** to evaluating
  it against the full index;
* a label slice is tiny (tens of entries) while a shard is large — so the
  cheap direction is always to move the *far endpoint's slice* to the home
  shard, never the batch to the data (gather-smaller-side; see DESIGN.md
  "Sharding model").

:class:`GatherEvaluator` packages this: it answers any batch against a
:class:`~repro.serve.shm.ShmSegmentFleet`, reading owned slices from the
hot shm shard and foreign slices through the fleet's lazily-mmapped cold
path.  The worker pool runs one evaluator per worker (each hot on its own
shard) and the parent keeps one as the in-process fallback for retired
shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import store as store_module
from repro.core.compact import CompactLabelIndex
from repro.core.engine import validate_pairs
from repro.digraph.labels import CompactDirectedLabelIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.types import SPCResult
    from repro.serve.shm import ShmSegmentFleet

__all__ = ["GatherEvaluator", "home_shards", "split_by_home_shard"]


def home_shards(
    bounds: np.ndarray | Sequence[int], pairs_arr: np.ndarray
) -> np.ndarray:
    """The home shard of each pair: the shard owning ``min(s, t)``.

    A pure routing key — directed pairs route by the same rule (the
    evaluator gathers whichever side is foreign), so routing never needs
    to know the store kind.
    """
    return store_module.shard_of(
        bounds, np.minimum(pairs_arr[:, 0], pairs_arr[:, 1])
    )


def split_by_home_shard(
    bounds: np.ndarray | Sequence[int], pairs_arr: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Group a batch by home shard, keeping original batch positions.

    Returns ``[(shard, positions), ...]`` in ascending shard order, where
    ``positions`` indexes into ``pairs_arr``; the dispatcher uses the
    positions to reassemble answers in submission order.
    """
    homes = home_shards(bounds, pairs_arr)
    return [
        (int(shard), np.flatnonzero(homes == shard).astype(np.int64))
        for shard in np.unique(homes)
    ]


class GatherEvaluator:
    """Answer arbitrary batches against a shard fleet, bit-identically.

    Wraps a :class:`~repro.serve.shm.ShmSegmentFleet` and exposes the
    ``n`` / ``directed`` / ``query_batch`` surface of a whole-index store.
    Batches whose referenced vertices all live on one shard run straight
    on that shard's store (the hot common case after home-shard routing);
    straddling batches gather the referenced label slices into a
    temporary store and run the stock kernel on it.
    """

    def __init__(self, fleet: "ShmSegmentFleet") -> None:
        self._fleet = fleet
        self._bounds = fleet.bounds

    # ------------------------------------------------------------------
    @property
    def fleet(self) -> "ShmSegmentFleet":
        return self._fleet

    @property
    def n(self) -> int:
        return self._fleet.n

    @property
    def directed(self) -> bool:
        return self._fleet.directed

    # ------------------------------------------------------------------
    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> "list[SPCResult]":
        """Evaluate a batch; answers match the whole-index store bit-for-bit."""
        if len(self._bounds) == 2:
            # a 1-shard fleet: the shard store is the whole index
            return self._fleet.store_for(0).query_batch(pairs)
        pairs_arr = validate_pairs(pairs, self.n)
        if len(pairs_arr) == 0:
            return []
        owners = store_module.shard_of(self._bounds, np.unique(pairs_arr))
        if owners[0] == owners[-1]:
            # every referenced vertex on one shard: run its store directly
            return self._fleet.store_for(int(owners[0])).query_batch(pairs_arr)
        if self.directed:
            return self._directed_gather(pairs_arr)
        return self._undirected_gather(pairs_arr)

    # ------------------------------------------------------------------
    def _undirected_gather(self, pairs_arr: np.ndarray) -> "list[SPCResult]":
        verts = np.unique(pairs_arr)
        indptr, hubs, dists, counts, ref = self._gather_side(verts, side=None)
        temp = CompactLabelIndex(
            ref.order, indptr, hubs, dists, counts, ref.weight_by_rank
        )
        return temp.query_batch(pairs_arr)

    def _directed_gather(self, pairs_arr: np.ndarray) -> "list[SPCResult]":
        # a directed pair reads Lout(s) and Lin(t): gather each side for
        # exactly the vertices that use it
        sources = np.unique(pairs_arr[:, 0])
        targets = np.unique(pairs_arr[:, 1])
        indptr_out, hubs_out, dists_out, counts_out, ref = self._gather_side(
            sources, side="out"
        )
        indptr_in, hubs_in, dists_in, counts_in, _ = self._gather_side(
            targets, side="in"
        )
        temp = CompactDirectedLabelIndex(
            ref.order,
            indptr_in, hubs_in, dists_in, counts_in,
            indptr_out, hubs_out, dists_out, counts_out,
        )
        return temp.query_batch(pairs_arr)

    def _gather_side(
        self, verts: np.ndarray, side: str | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, object]:
        """Collect the label slices of ``verts`` into global-shaped CSR arrays.

        ``verts`` must be sorted and unique; shards own contiguous vertex
        ranges, so walking them in ascending shard order keeps the
        concatenated entries in vertex order.  Returns the rebuilt
        ``(indptr, hubs, dists, counts)`` plus a reference shard store
        supplying the order/weight arrays (shared by all shards).
        """
        suffix = "" if side is None else f"_{side}"
        n = self._fleet.n
        owners = store_module.shard_of(self._bounds, verts)
        indptr = np.zeros(n + 1, dtype=np.int64)
        hub_chunks: list[np.ndarray] = []
        dist_chunks: list[np.ndarray] = []
        count_chunks: list[np.ndarray] = []
        ref: object | None = None
        for shard in np.unique(owners):
            store = self._fleet.store_for(int(shard))
            if ref is None:
                ref = store
            shard_indptr = np.asarray(getattr(store, f"indptr{suffix}"))
            vs = verts[owners == shard]
            starts = shard_indptr[vs]
            lens = shard_indptr[vs + 1] - starts
            indptr[vs + 1] = lens
            total = int(lens.sum())
            if total == 0:
                continue
            offsets = np.zeros(len(vs) + 1, dtype=np.int64)
            np.cumsum(lens, out=offsets[1:])
            gather = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets[:-1], lens)
                + np.repeat(starts, lens)
            )
            hub_chunks.append(np.asarray(getattr(store, f"hubs{suffix}"))[gather])
            dist_chunks.append(np.asarray(getattr(store, f"dists{suffix}"))[gather])
            count_chunks.append(np.asarray(getattr(store, f"counts{suffix}"))[gather])
        np.cumsum(indptr, out=indptr)
        if hub_chunks:
            hubs = np.concatenate(hub_chunks)
            dists = np.concatenate(dist_chunks)
            counts = np.concatenate(count_chunks)
        else:
            hubs = np.empty(0, dtype=np.int32)
            dists = np.empty(0, dtype=np.int16)
            counts = np.empty(0, dtype=np.int64)
        assert ref is not None  # verts is non-empty by construction
        return indptr, hubs, dists, counts, ref
