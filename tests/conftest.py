"""Shared fixtures: canonical small graphs, the paper's running example,
the ``/dev/shm`` leak guard applied to every suite that spawns workers,
and a counter wrapper that holds one kernel batch in flight."""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert, grid_road_network
from repro.graph.graph import Graph
from repro.ordering.base import VertexOrder

_DEV_SHM = Path("/dev/shm")


def _shm_segments() -> set[str]:
    """Names of this project's shared-memory segments currently alive."""
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in _DEV_SHM.iterdir() if p.name.startswith("repro-seg")}


@pytest.fixture
def assert_no_shm_leak():
    """Fail any test that leaves new ``repro-seg-*`` files in ``/dev/shm``.

    Snapshot-based rather than emptiness-based so suites can run in
    parallel with a live server on the same box: only segments *created
    and not released by this test* count as leaks.  Request it anywhere a
    test publishes segments or spawns a worker pool; the procbuild and
    chaos suites apply it wholesale.
    """
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"test leaked shm segments: {sorted(leaked)}"


class GatedCounter:
    """A counter whose first ``query_batch`` blocks until ``release`` is set.

    The async service runs kernels on executor threads, so a test can hold
    one batch in flight and see what queues up behind it.  ``calls``
    counts kernel calls (shed queries never reach one).
    """

    def __init__(self, counter: object) -> None:
        self.counter = counter
        self.n = counter.n  # type: ignore[attr-defined]
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def query_batch(self, pairs):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            self.release.wait(timeout=30)
        return self.counter.query_batch(pairs)  # type: ignore[attr-defined]

    async def held(self) -> None:
        """Return once the first batch is blocked inside the kernel."""
        while not self.entered.is_set():
            await asyncio.sleep(0.001)


@pytest.fixture
def gated():
    """Factory wrapping a counter in a :class:`GatedCounter`; every gate is
    released at teardown, so a failing test never strands an executor
    thread."""
    made: list[GatedCounter] = []

    def wrap(counter: object) -> GatedCounter:
        made.append(GatedCounter(counter))
        return made[-1]

    yield wrap
    for gate in made:
        gate.release.set()


@pytest.fixture
def triangle() -> Graph:
    """K3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def diamond() -> Graph:
    """Two disjoint length-2 paths between 0 and 3 (spc(0,3) == 2)."""
    return Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def two_components() -> Graph:
    """A path 0-1-2 plus an isolated edge 3-4."""
    return Graph(5, [(0, 1), (1, 2), (3, 4)])


@pytest.fixture
def paper_graph() -> Graph:
    """The Fig. 2 graph of the paper; vertex ``v_i`` is id ``i - 1``."""
    edges = [
        (0, 2), (0, 3), (0, 4), (0, 9),   # v1-v3, v1-v4, v1-v5, v1-v10
        (6, 3), (6, 4), (6, 5), (6, 7),   # v7-v4, v7-v5, v7-v6, v7-v8
        (1, 3), (1, 9),                   # v2-v4, v2-v10
        (2, 5),                           # v3-v6
        (8, 9), (8, 7),                   # v9-v10, v9-v8
    ]
    return Graph(10, edges)


@pytest.fixture
def paper_order() -> VertexOrder:
    """The paper's total order v1<=v7<=v4<=v10<=v3<=v5<=v6<=v2<=v8<=v9."""
    order = np.array([0, 6, 3, 9, 2, 4, 5, 1, 7, 8])
    return VertexOrder.from_order(order, 10, strategy="paper")


@pytest.fixture
def social_graph() -> Graph:
    """A small scale-free graph standing in for a social network."""
    return barabasi_albert(150, 3, seed=11)


@pytest.fixture
def road_graph() -> Graph:
    """A small grid-with-shortcuts road-network proxy."""
    return grid_road_network(8, 8, extra_edges=6, seed=5)
