"""Shortest-path (Isomap-style) baseline distance estimator.

Connect every pair of samples closer than a radius h_graph with an edge
weighted by their Euclidean distance, then measure all-pairs shortest
paths.  Disconnection is a value (+inf), not an error.  Edge weights are
quantised so that path lengths are summed in exact arithmetic (see
shortest_path_distances), which makes the triangle inequality hold with no
floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError
from .laplacian import squared_distances
from .types import DistanceMatrix, PointCloud

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True)
class NeighborGraph:
    """Undirected proximity graph; adjacency holds Euclidean edge weights.

    Explicit zero entries in the sparse adjacency are real edges between
    coincident points, which is why the matrix is built from index lists
    rather than from a dense mask.
    """

    adjacency: csr_matrix

    def edge_list(self):
        """Sorted [(i, j, weight)] with i < j, one entry per edge."""
        coo = self.adjacency.tocoo()
        return sorted(
            (int(i), int(j), float(w))
            for i, j, w in zip(coo.row, coo.col, coo.data, strict=True)
            if i < j
        )


def build_neighbor_graph(cloud: PointCloud, h_graph: float) -> NeighborGraph:
    """Edges between all pairs with Euclidean distance strictly below
    h_graph.  A zero radius yields the empty graph: every off-diagonal
    shortest-path entry comes out +inf."""
    # scipy is imported here and in shortest_path_distances only, so that
    # `import lapgeo` and the other verbs do not pay for it
    from scipy.sparse import csr_matrix

    if not (h_graph >= 0):
        raise InputError(f"h_graph must be non-negative, got {h_graph}")
    dist = np.sqrt(squared_distances(cloud.points))
    mask = dist < h_graph
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    adjacency = csr_matrix(
        (dist[rows, cols], (rows, cols)), shape=(cloud.n, cloud.n)
    )
    return NeighborGraph(adjacency)


def shortest_path_distances(graph: NeighborGraph) -> DistanceMatrix:
    """All-pairs shortest-path lengths; +inf marks unreachable pairs.

    Edge weights are first rounded to multiples of the power-of-two
    quantum 2^(ceil(log2(2 W)) - 52), W the sum of the adjacency weights.
    Every path length, and every sum of two, is then an exact float64, so
    the matrix is exactly symmetric and meets the triangle inequality with
    zero slack.  Each entry differs from the unquantised shortest path by
    at most (edges on the path) x quantum / 2.
    """
    from scipy.sparse.csgraph import dijkstra

    adjacency = graph.adjacency.copy()
    total = float(adjacency.sum())
    if total > 0:
        quantum = 2.0 ** (math.ceil(math.log2(2 * total)) - 52)
        adjacency.data = np.round(adjacency.data / quantum) * quantum
    return DistanceMatrix(dijkstra(adjacency, directed=False))


def run_baseline(cloud: PointCloud, h_graph: float) -> DistanceMatrix:
    return shortest_path_distances(build_neighbor_graph(cloud, h_graph))
