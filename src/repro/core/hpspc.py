"""HP-SPC: the sequential hub-labeling baseline (Zhang & Yu, SIGMOD'20).

One pruned BFS per vertex, in rank order from the most important hub down
(Section II-A of the PSPC paper).  The BFS from hub ``h`` runs inside the
subgraph of vertices ranked *below* ``h``, counting shortest paths there —
exactly the trough-shortest-path counts of the canonical ESPC labels.

Pruning (the source of the order dependency PSPC removes): when the BFS
reaches ``u`` at distance ``d``, it asks the partially built index for
``Query(h, u)``.  If the answer is ``< d``, a strictly shorter path through a
higher-ranked hub exists, so neither ``u`` nor anything beyond it can carry a
trough shortest path from ``h`` — prune the subtree.  If the answer equals
``d``, equal-length paths through higher hubs exist but the trough paths of
length ``d`` are still shortest and still counted at hub ``h``: the label is
added and the BFS continues.  This is why ``L_i`` depends on ``L_{<i}``
(Lemma 1), making the hub loop inherently sequential.

Counting supports vertex multiplicities (equivalence-reduced graphs): a path
contributes the product of its internal vertices' weights.

:class:`HPSPCIndex` is the facade over this builder: it owns the vertex
order, freezes the finished labels into the default compact serving store,
serves queries through the shared :class:`~repro.core.engine.QueryEngine`,
and persists to the unified versioned ``.npz`` container (payload kind
``"hpspc"``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from repro.core import store as store_module
from repro.core.engine import QueryEngine
from repro.core.labels import LabelEntry, LabelIndex
from repro.core.queries import SPCResult
from repro.core.stats import BuildStats, PhaseTimer
from repro.errors import IndexBuildError, PersistenceError, QueryError
from repro.graph.graph import Graph
from repro.ordering.base import VertexOrder

__all__ = ["HPSPCIndex"]


def _build_hpspc_labels(graph: Graph, order: VertexOrder) -> tuple[LabelIndex, BuildStats]:
    """Raw HP-SPC label construction (internal; facades wrap it).

    Returns the tuple-label index and its
    :class:`~repro.core.stats.BuildStats` (a single "construction" phase;
    HP-SPC has no landmark phase).
    """
    stats = BuildStats(builder="hpspc", n_vertices=graph.n)
    with PhaseTimer(stats, "construction"):
        index = _construct(graph, order, stats)
    stats.total_entries = index.total_entries()
    return index, stats


class HPSPCIndex:
    """A built HP-SPC index with the standard counter surface.

    The sequential-baseline counterpart of
    :class:`~repro.core.index.PSPCIndex`: same serving layer (compact store
    by default, queries through the shared engine), same unified ``.npz``
    persistence (payload kind ``"hpspc"``), but labels built by the
    order-dependent HP-SPC loop instead of the PSPC propagation.

    Examples
    --------
    >>> from repro.graph import cycle_graph
    >>> index = HPSPCIndex.build(cycle_graph(6))
    >>> index.spc(0, 3)
    2
    """

    #: ``kind`` of an HP-SPC index file in the unified persistence container.
    _PAYLOAD_KIND = "hpspc"

    def __init__(
        self,
        store: "store_module.LabelStore",
        stats: BuildStats,
        ordering: str,
        graph: Graph | None = None,
    ) -> None:
        self.store = store
        self.engine = QueryEngine(store)
        self.stats = stats
        #: name of the ordering strategy the index was built under.
        self.ordering = ordering
        #: the indexed graph; kept for verification, not needed for queries.
        self.graph = graph
        self._labels_view: LabelIndex | None = store if isinstance(store, LabelIndex) else None
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        ordering: str | VertexOrder = "degree",
        store: str = "compact",
    ) -> "HPSPCIndex":
        """Build an HP-SPC index over ``graph``.

        ``ordering`` is a strategy name or a pre-computed
        :class:`~repro.ordering.base.VertexOrder`; ``store`` selects the
        serving representation (``"compact"`` default, with the usual
        automatic tuple fallback when counts overflow ``int64``).
        """
        from repro.ordering import get_ordering

        if store not in ("compact", "tuple"):
            raise IndexBuildError(
                f"unknown store {store!r}; expected 'compact' or 'tuple'"
            )
        if isinstance(ordering, VertexOrder):
            order = ordering
            ordering_name = ordering.strategy
            order_seconds = 0.0
        else:
            strategy = get_ordering(ordering)
            start = time.perf_counter()
            order = strategy(graph)
            order_seconds = time.perf_counter() - start
            ordering_name = ordering
        labels, stats = _build_hpspc_labels(graph, order)
        stats.merge_phase("order", order_seconds)
        serving: "store_module.LabelStore" = labels
        if store == "compact":
            with PhaseTimer(stats, "freeze"):
                serving = store_module.freeze_labels(labels)
        return cls(serving, stats, ordering_name, graph=graph)

    # ------------------------------------------------------------------
    # queries (the SPCounter surface)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of indexed vertices."""
        return self.store.n

    @property
    def order(self) -> VertexOrder:
        """The total order the index was built under."""
        return self.store.order

    @property
    def labels(self) -> LabelIndex:
        """The tuple-based view of the labels (thawed lazily and cached)."""
        if self._labels_view is None:
            self._labels_view = self.store.to_label_index()
        return self._labels_view

    def query(self, s: int, t: int) -> SPCResult:
        """Full result: distance and shortest-path count for ``(s, t)``."""
        if self._closed:
            raise QueryError("index is closed")
        return self.engine.query(s, t)

    def spc(self, s: int, t: int) -> int:
        """Number of shortest paths between ``s`` and ``t`` (0 if disconnected)."""
        return self.query(s, t).count

    def distance(self, s: int, t: int) -> int:
        """Shortest-path distance (-1 if disconnected)."""
        return self.query(s, t).dist

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Evaluate many queries (vectorized over the compact store)."""
        if self._closed:
            raise QueryError("index is closed")
        return self.engine.query_batch(pairs)

    # ------------------------------------------------------------------
    # lifecycle (memory-mapped opens hold the file until closed)
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (queries now raise)."""
        return self._closed

    def close(self) -> None:
        """Release memory-mapped label buffers and refuse further queries.

        Same contract as :meth:`repro.core.index.PSPCIndex.close`:
        deterministic descriptor release for ``mmap=True`` opens,
        idempotent, usable as a context manager.
        """
        if self._closed:
            return
        self._closed = True
        store_module.close_store(self.store)

    def __enter__(self) -> "HPSPCIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def label(self, v: int) -> list[LabelEntry]:
        """Decoded label list of ``v`` — the paper's Table II view."""
        return self.store.label(v)

    # ------------------------------------------------------------------
    # reporting & verification
    # ------------------------------------------------------------------
    def total_entries(self) -> int:
        """Number of label entries in the index."""
        return self.store.total_entries()

    def size_bytes(self) -> int:
        """Nominal index size in bytes (compact binary encoding)."""
        return self.store.size_bytes()

    def size_mb(self) -> float:
        """Nominal index size in MB (Fig. 6 unit)."""
        return self.store.size_mb()

    def verify_against_bfs(self, samples: int = 50, seed: int = 0) -> None:
        """Cross-check random pairs against ground-truth BFS counting."""
        from repro.core.verify import verify_counter

        if self.graph is None:
            raise QueryError("verification requires the index to retain its graph")
        verify_counter(self, self.graph, samples=samples, seed=seed)

    # ------------------------------------------------------------------
    # persistence (unified versioned .npz — see repro.core.store)
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = True) -> None:
        """Serialise the index (store + ordering + stats; not the graph)."""
        arrays, meta = store_module.pack_store(self.store)
        meta["ordering"] = self.ordering
        meta["stats"] = self.stats.to_meta()
        store_module.write_payload(
            path, self._PAYLOAD_KIND, arrays, meta=meta, compress=compress
        )

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "HPSPCIndex":
        """Load an index written by :meth:`save` (graph is not restored)."""
        _, arrays, meta = store_module.read_payload(
            path, expect_kind=cls._PAYLOAD_KIND, mmap=mmap
        )
        try:
            serving = store_module.unpack_store(arrays, meta, path)
            stats = BuildStats.from_meta(meta.get("stats", {}))
            ordering = str(meta.get("ordering", "custom"))
        except (KeyError, TypeError) as exc:
            raise PersistenceError(f"{path} is missing hpspc payload fields: {exc}") from exc
        return cls(serving, stats, ordering, graph=None)

    def __repr__(self) -> str:
        return (
            f"HPSPCIndex(n={self.n}, ordering={self.ordering!r}, "
            f"store={self.store.kind!r}, entries={self.total_entries()})"
        )


def _construct(graph: Graph, order: VertexOrder, stats: BuildStats) -> LabelIndex:
    n = graph.n
    rank = order.rank
    order_arr = order.order
    indptr, indices = graph.indptr, graph.indices
    weights = graph.vertex_weights
    # labels[u]: (hub_rank, dist, count) — appended in increasing hub_rank,
    # which is exactly the sort order LabelIndex requires.
    labels: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    # label_maps[u]: hub_rank -> dist, the O(1) side of the pruning query.
    label_maps: list[dict[int, int]] = [{} for _ in range(n)]

    # Scratch arrays reused across BFS runs, versioned to avoid O(n) clears.
    dist = [0] * n
    version = [-1] * n
    count = [0] * n

    for hub_pos in range(n):
        h = int(order_arr[hub_pos])
        labels[h].append((hub_pos, 0, 1))
        label_maps[h][hub_pos] = 0
        hub_labels = labels[h]
        dist[h] = 0
        version[h] = hub_pos
        count[h] = 1
        frontier = [h]
        d = 0
        while frontier:
            d += 1
            next_frontier: list[int] = []
            for u in frontier:
                if u != h:
                    # Pruning query: shortest distance via already-processed
                    # (higher-ranked) hubs.  hub_labels is L(h) so far; its
                    # own self-entry also catches u's labels pointing at h.
                    pruned = False
                    u_map = label_maps[u]
                    du_map_get = u_map.get
                    for hub_rank, dh, _ in hub_labels:
                        du = du_map_get(hub_rank)
                        if du is not None and dh + du < dist[u]:
                            pruned = True
                            break
                    if pruned:
                        stats.pruned_by_query += 1
                        continue
                    labels[u].append((hub_pos, dist[u], count[u]))
                    u_map[hub_pos] = dist[u]
                # Expand: extending a path that ends at u makes u internal,
                # hence the multiplicity factor (1 for the hub endpoint).
                cu = count[u] * (int(weights[u]) if u != h else 1)
                for v in indices[indptr[u] : indptr[u + 1]]:
                    v = int(v)
                    if rank[v] <= hub_pos:
                        # v outranks h (or is h): paths through it are not
                        # trough paths for hub h.
                        stats.pruned_by_rank += 1
                        continue
                    if version[v] != hub_pos:
                        version[v] = hub_pos
                        dist[v] = d
                        count[v] = cu
                        next_frontier.append(v)
                    elif dist[v] == d:
                        count[v] += cu
            frontier = next_frontier

    weight_by_rank = weights[order_arr].astype("int64")
    return LabelIndex(order, labels, weight_by_rank)
