"""Seeded workload inputs: edge lists and query pairs.

The benchmark makes its own graphs instead of calling the program's
generators, so a change to ``repro.graph.generators`` cannot change what
is measured.  The program only ever receives the edge list, the saved
index file and HTTP requests.
"""

from __future__ import annotations

import numpy as np


def barabasi_albert_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Preferential attachment: a clique on ``m + 1`` vertices, then each new
    vertex links to ``m`` distinct earlier vertices picked by degree."""
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    repeated = [x for edge in edges for x in edge]
    for u in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for v in sorted(targets):
            edges.append((u, v))
            repeated.extend((u, v))
    return np.asarray(edges, dtype=np.int64)


def grid_road_edges(
    rows: int, cols: int, shortcuts: int, rng: np.random.Generator
) -> np.ndarray:
    """A rows x cols grid plus ``shortcuts`` random diagonal links."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    r = rng.integers(rows - 1, size=shortcuts)
    c = rng.integers(cols - 1, size=shortcuts)
    return np.concatenate(
        [
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
            np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
            np.stack([ids[r, c], ids[r + 1, c + 1]], axis=1),
        ]
    )


def make_graph(graph: dict, seed: int) -> tuple[int, np.ndarray]:
    """``(n, edges)`` for one workload's graph spec (see ``spec.json``).

    The graph's structure comes from the spec's fixed ``structure_seed``;
    ``seed`` relabels its vertices at random.  Every seed so gives the
    program a different input of the same shape and the same amount of
    work: a freshly drawn Barabasi-Albert graph would vary its label
    count by ~8% from seed to seed, more than the regressions the
    benchmark must catch.
    """
    rng = np.random.default_rng([graph["structure_seed"], 0])
    if graph["kind"] == "barabasi_albert":
        n, edges = graph["n"], barabasi_albert_edges(graph["n"], graph["m"], rng)
    elif graph["kind"] == "grid_road":
        rows, cols = graph["rows"], graph["cols"]
        n, edges = rows * cols, grid_road_edges(rows, cols, graph["shortcuts"], rng)
    else:
        raise ValueError(f"unknown graph kind {graph['kind']!r}")
    relabel = np.random.default_rng([seed, 0]).permutation(n)
    return n, relabel[edges]


def make_pairs(n: int, count: int, seed: int, stream: int) -> list[tuple[int, int]]:
    """``count`` uniform random ``(s, t)`` pairs; ``stream`` separates uses."""
    rng = np.random.default_rng([seed, stream])
    return [(int(s), int(t)) for s, t in rng.integers(n, size=(count, 2))]
