"""k-NN graph construction under Euclidean, Mahalanobis, and geodesic metrics.

Neighbor search is exact brute force over all pairs; ties break toward the
lower point index so every graph is deterministic. The geodesic variant runs
all-pairs shortest paths (vectorized Floyd-Warshall) on a symmetrized
Euclidean k-NN graph. `build_graph` is the one metric -> graph dispatch; with
a covariance estimated from the cloud itself, each of its graphs is invariant
under rigid motion of the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError
from .geometry import PointCloud
from .statistics import DEFAULT_REGULARIZER, CovarianceModel, estimate_covariance

METRIC_EUCLIDEAN = "euclidean"
METRIC_MAHALANOBIS = "mahalanobis"
METRIC_GEODESIC = "geodesic"


@dataclass(frozen=True)
class NeighborGraph:
    """Per-point ordered neighbor indices (nearest first), k entries each."""

    neighbors: NDArray[np.intp]
    metric_tag: str
    k: int

    def __post_init__(self):
        nb = np.asarray(self.neighbors, dtype=np.intp)
        if nb.ndim != 2 or nb.shape[1] != self.k:
            raise InvalidArgumentError("neighbors must be an (n, k) index array")
        nb.setflags(write=False)
        object.__setattr__(self, "neighbors", nb)

    def __len__(self) -> int:
        return len(self.neighbors)


def _rank_rows(dist: NDArray[np.float64], k: int) -> NDArray[np.intp]:
    """First k column indices of each row by ascending value, ties to lower index."""
    order = np.argsort(dist, axis=1, kind="stable")
    return order[:, :k].astype(np.intp)


def knn(
    cloud: PointCloud,
    k: int,
    metric: str = METRIC_EUCLIDEAN,
    model: CovarianceModel | None = None,
) -> NeighborGraph:
    """Exact k nearest neighbors of every point under the chosen metric."""
    n = len(cloud)
    if not 1 <= k < n:
        raise InvalidArgumentError(f"k must satisfy 1 <= k < {n}, got {k}")
    pts = cloud.points
    if metric == METRIC_EUCLIDEAN:
        coords = pts
    elif metric == METRIC_MAHALANOBIS:
        if model is None:
            raise InvalidArgumentError("mahalanobis metric requires a covariance model")
        coords = pts @ model.whitener().T
    else:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return NeighborGraph(_rank_rows(d2, k), metric, k)


def floyd_warshall(adjacency: NDArray[np.float64]) -> NDArray[np.float64]:
    """All-pairs shortest path lengths; non-edges are +inf.

    The two inner loops of the classic pivot recurrence are whole-row/column
    minimum-plus updates, so each pivot is a single vectorized pass.
    """
    adj = np.array(adjacency, dtype=np.float64)
    n = adj.shape[0]
    if adj.ndim != 2 or adj.shape[1] != n:
        raise InvalidArgumentError("adjacency must be square")
    if np.any(np.isnan(adj)) or np.any(adj < 0):
        raise InvalidArgumentError("adjacency entries must be non-negative (or +inf)")
    if np.any(np.diag(adj) != 0):
        raise InvalidArgumentError("adjacency diagonal must be zero")
    dist = adj
    for pivot in range(n):
        np.minimum(dist, dist[:, pivot, None] + dist[None, pivot, :], out=dist)
    return dist


def geodesic_adjacency(cloud: PointCloud, k_base: int) -> NDArray[np.float64]:
    """Symmetric Euclidean k_base-NN adjacency with edge weights = lengths."""
    base = knn(cloud, k_base, METRIC_EUCLIDEAN)
    pts = cloud.points
    n = len(cloud)
    adj = np.full((n, n), np.inf)
    rows = np.repeat(np.arange(n), k_base)
    cols = base.neighbors.reshape(-1)
    lengths = np.linalg.norm(pts[rows] - pts[cols], axis=1)
    adj[rows, cols] = lengths
    adj[cols, rows] = lengths  # union of directed edges keeps the matrix symmetric
    np.fill_diagonal(adj, 0.0)
    return adj


def knn_geodesic(cloud: PointCloud, k_base: int, k: int) -> NeighborGraph:
    """k nearest points by shortest-path length through the Euclidean graph.

    Infinite (unreachable) distances rank last, so a point in a small
    disconnected component still gets k neighbors, padded by index order.
    k_base may be smaller than k: a sparse base graph is exactly what makes
    shortest-path neighborhoods differ from Euclidean ones.
    """
    if k_base < 1:
        raise InvalidArgumentError("k_base must be >= 1")
    dist = floyd_warshall(geodesic_adjacency(cloud, k_base))
    np.fill_diagonal(dist, np.inf)
    return NeighborGraph(_rank_rows(dist, k), METRIC_GEODESIC, k)


def build_graph(
    cloud: PointCloud,
    metric: str,
    k: int,
    k_base: int | None = None,
    regularizer: float = DEFAULT_REGULARIZER,
) -> NeighborGraph:
    """The k-NN graph of a cloud under a metric name.

    Mahalanobis uses the cloud's own regularized global covariance; geodesic
    walks a Euclidean k_base-NN graph (k_base defaults to k).
    """
    if metric == METRIC_GEODESIC:
        return knn_geodesic(cloud, k if k_base is None else k_base, k)
    if metric == METRIC_MAHALANOBIS:
        return knn(cloud, k, METRIC_MAHALANOBIS, estimate_covariance(cloud, regularizer))
    return knn(cloud, k, metric)


def graph_to_text(graph: NeighborGraph) -> str:
    """Debug dump: one line per point, `i: j1 j2 ... jk`."""
    lines = [
        f"{i}: " + " ".join(str(j) for j in row)
        for i, row in enumerate(graph.neighbors)
    ]
    return "\n".join(lines) + "\n"
