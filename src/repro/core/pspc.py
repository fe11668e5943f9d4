"""PSPC: parallel shortest-path-counting index construction (Section III).

The builder runs at most ``D`` (graph diameter) distance iterations.  Labels
at distance ``d`` are derived *only* from labels at distances ``<= d-1``
(Theorem 3 / Lemma 2), so every iteration is a barrier-synchronised parallel
map over vertices with no intra-iteration dependencies — the property that
lets PSPC scale where HP-SPC's node-order loop cannot.

For a fixed total order the result is the canonical ESPC index, identical to
HP-SPC's output and invariant under the propagation paradigm (pull/push),
the execution backend, the thread count and the landmark filter — all
asserted by the test suite, mirroring the paper's Fig. 6 observation that
"PSPC and PSPC+ return the same index size".

Work accounting: with ``record_work=True`` (default) the builder stores the
exact work units of every per-vertex task of every iteration in
:class:`~repro.core.stats.BuildStats`, which the simulation layer
(:mod:`repro.core.parallel`) replays through schedule plans to produce the
paper's speedup figures.

This module is the **reference** build engine.  The production path is the
vectorized engine in :mod:`repro.core.fastbuild`, which replaces the
per-vertex task loops with whole-frontier numpy kernels and produces the
bit-identical index; this one remains the exact-work instrument (and the
arbitrarily-large-count fallback) behind the figures.
"""

from __future__ import annotations

import numpy as np

from repro.core.labels import LabelIndex
from repro.core.landmarks import LandmarkIndex, build_landmark_index
from repro.core.parallel import ExecutionBackend, SerialBackend
from repro.core.propagation import (
    IterationContext,
    TaskResult,
    merge_bucket,
    prune_candidates,
    pull_candidates,
    push_scatter,
)
from repro.core.stats import BuildStats, PhaseTimer
from repro.errors import IndexBuildError
from repro.graph.graph import Graph
from repro.ordering.base import VertexOrder

__all__ = ["build_pspc", "PARADIGMS"]

#: Supported propagation paradigms (Section III-E).
PARADIGMS = ("pull", "push")


def build_pspc(
    graph: Graph,
    order: VertexOrder,
    paradigm: str = "pull",
    num_landmarks: int = 0,
    backend: ExecutionBackend | None = None,
    record_work: bool = True,
    max_iterations: int | None = None,
    landmark_index: LandmarkIndex | None = None,
) -> tuple[LabelIndex, BuildStats]:
    """Build the canonical ESPC index by parallel label propagation.

    Parameters
    ----------
    graph:
        The (possibly vertex-weighted) input graph.
    order:
        Total order over vertices; see :mod:`repro.ordering`.
    paradigm:
        ``"pull"`` (Algorithm 2) or ``"push"`` (Algorithm 1).
    num_landmarks:
        Landmark count for the Section III-H filter; 0 disables it.
    backend:
        Execution backend for the per-vertex tasks (default: serial).
    record_work:
        Record per-vertex work units for the speedup simulation.
    max_iterations:
        Safety cap on distance iterations; ``None`` means the natural
        stopping point (no fresh labels).  Exceeding the cap raises
        :class:`~repro.errors.IndexBuildError`.
    landmark_index:
        Reuse an already-built landmark index instead of running the
        landmark BFS phase again (the vectorized engine passes its tables
        through here on the overflow fallback); ignored when
        ``num_landmarks`` is 0.

    Returns
    -------
    (index, stats)
    """
    if paradigm not in PARADIGMS:
        raise IndexBuildError(
            f"unknown propagation paradigm {paradigm!r}; expected one of {PARADIGMS}"
        )
    if order.n != graph.n:
        raise IndexBuildError(
            f"order covers {order.n} vertices but graph has {graph.n}"
        )
    backend = backend or SerialBackend()
    stats = BuildStats(builder=f"pspc-{paradigm}", engine="reference", n_vertices=graph.n)

    landmarks: LandmarkIndex | None = None
    if num_landmarks > 0:
        if landmark_index is not None:
            landmarks = landmark_index
        else:
            with PhaseTimer(stats, "landmarks"):
                landmarks = build_landmark_index(graph, order, num_landmarks)
        stats.num_landmarks = landmarks.num_landmarks

    with PhaseTimer(stats, "construction"):
        index = _propagate(graph, order, paradigm, landmarks, backend, stats, record_work, max_iterations)
    stats.total_entries = index.total_entries()
    return index, stats


def _propagate(
    graph: Graph,
    order: VertexOrder,
    paradigm: str,
    landmarks: LandmarkIndex | None,
    backend: ExecutionBackend,
    stats: BuildStats,
    record_work: bool,
    max_iterations: int | None,
) -> LabelIndex:
    n = graph.n
    rank = order.rank
    order_arr = order.order
    # one plain-int copy for the whole build; every iteration context shares
    # it so the task loops never unwrap numpy scalars in their hot paths
    rank_list = rank.tolist()
    weight_list = graph.vertex_weights.tolist()
    order_list = order_arr.tolist()

    # L_0: every vertex is its own hub at distance 0 with one (empty) path.
    labels: list[list[tuple[int, int, int]]] = [
        [(rank_list[u], 0, 1)] for u in range(n)
    ]
    label_maps: list[dict[int, int]] = [{rank_list[u]: 0} for u in range(n)]
    current: list[list[tuple[int, int]]] = [[(rank_list[u], 1)] for u in range(n)]

    d = 0
    while any(current):
        d += 1
        if max_iterations is not None and d > max_iterations:
            raise IndexBuildError(
                f"PSPC did not converge within {max_iterations} iterations"
            )
        ctx = IterationContext(
            graph=graph,
            d=d,
            rank=rank,
            order_arr=order_arr,
            labels=labels,
            label_maps=label_maps,
            current=current,
            landmarks=landmarks,
            rank_list=rank_list,
            weight_list=weight_list,
            order_list=order_list,
        )
        if paradigm == "pull":
            results = _run_pull_iteration(ctx, backend)
        else:
            results = _run_push_iteration(ctx, backend)

        # Barrier: commit this iteration's labels.  Doing all writes here,
        # single-threaded, is what makes the task phase read-only and safe.
        fresh: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        added = 0
        iter_costs = np.zeros(n, dtype=np.int64) if record_work else None
        for res in results:
            u = res.vertex
            if iter_costs is not None:
                iter_costs[u] += res.work
            stats.pruned_by_rank += res.pruned_by_rank
            stats.pruned_by_query += res.pruned_by_query
            stats.landmark_hits += res.landmark_hits
            if res.accepted:
                u_labels = labels[u]
                u_map = label_maps[u]
                for hub_rank, count in res.accepted:
                    u_labels.append((hub_rank, d, count))
                    u_map[hub_rank] = d
                fresh[u] = res.accepted
                added += len(res.accepted)
        if iter_costs is not None:
            stats.iteration_costs.append(iter_costs)
        stats.iteration_labels.append(added)
        current = fresh

    for lst in labels:
        lst.sort(key=lambda entry: entry[0])
    weight_by_rank = graph.vertex_weights[order_arr].astype(np.int64)
    return LabelIndex(order, labels, weight_by_rank)


def _run_pull_iteration(ctx: IterationContext, backend: ExecutionBackend) -> list[TaskResult]:
    def task(u: int) -> TaskResult:
        candidates, gather_work, pruned_rank = pull_candidates(ctx, u)
        accepted, prune_work, pruned_query, lm_hits = prune_candidates(ctx, u, candidates)
        return TaskResult(
            vertex=u,
            accepted=accepted,
            work=gather_work + prune_work,
            pruned_by_rank=pruned_rank,
            pruned_by_query=pruned_query,
            landmark_hits=lm_hits,
        )

    return backend.map(task, range(ctx.graph.n))


def _run_push_iteration(ctx: IterationContext, backend: ExecutionBackend) -> list[TaskResult]:
    n = ctx.graph.n
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # Phase 1 (Algorithm 1, lines 1-3): sources scatter their fresh labels.
    # Run serially here — with real shared-memory threads each bucket needs
    # its own lock or per-thread sub-buckets; the per-source work is still
    # charged to the source task for the simulation.
    scatter_work = [push_scatter(ctx, buckets, u) for u in range(n)]

    def task(u: int) -> TaskResult:
        candidates, merge_work, pruned_rank = merge_bucket(ctx, u, buckets[u])
        accepted, prune_work, pruned_query, lm_hits = prune_candidates(ctx, u, candidates)
        return TaskResult(
            vertex=u,
            accepted=accepted,
            work=scatter_work[u] + merge_work + prune_work,
            pruned_by_rank=pruned_rank,
            pruned_by_query=pruned_query,
            landmark_hits=lm_hits,
        )

    return backend.map(task, range(n))
