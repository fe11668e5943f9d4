"""Table II — the label index of the paper's running example (Fig. 2).

Builds the ESPC index for the 10-vertex example graph under the paper's
total order with both builders and prints the Table II rows.  The output
matches the published table entry-for-entry.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.core.hpspc import HPSPCIndex
from repro.core.pspc import build_pspc
from repro.graph.graph import Graph
from repro.ordering.base import VertexOrder

EDGES = [
    (0, 2), (0, 3), (0, 4), (0, 9),
    (6, 3), (6, 4), (6, 5), (6, 7),
    (1, 3), (1, 9),
    (2, 5),
    (8, 9), (8, 7),
]
ORDER = [0, 6, 3, 9, 2, 4, 5, 1, 7, 8]


def test_table2_labels(benchmark, record):
    graph = Graph(10, EDGES)
    order = VertexOrder.from_order(np.array(ORDER), 10, strategy="paper")

    def build():
        return build_pspc(graph, order)[0]

    index = run_once(benchmark, build)
    assert index == HPSPCIndex.build(graph, order, store="tuple").labels

    rows = []
    for v in range(10):
        labels = " ".join(
            f"(v{e.hub + 1},{e.dist},{e.count})" for e in index.label(v)
        )
        rows.append({"vertex": f"v{v + 1}", "labels": labels})
    record("table2_example", rows, "Table II: ESPC labels of the Fig. 2 graph")

    # the two cells the paper's Example 1 exercises
    from repro.core.queries import spc_query

    result = spc_query(index, 9, 6)  # SPC(v10, v7)
    assert (result.dist, result.count) == (3, 4)
