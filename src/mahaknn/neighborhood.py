"""k-NN graph construction under Euclidean, Mahalanobis, and geodesic metrics.

Every neighbour query in the toolkit runs on one exact engine in this module.
Distances are computed one block of rows at a time, so memory stays O(block)
instead of O(n^2); `rank_first_k` orders the first k entries of each row and
`nearest` (k = 1) serves correspondence search and set distance. Ties break
toward the lower point index, so every graph and match is deterministic and
equal to a full stable sort of the all-pairs matrix. The geodesic variant
runs all-pairs shortest paths (vectorized Floyd-Warshall) on a symmetrized
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
# Every metric name `build_graph` accepts.
METRICS = (METRIC_EUCLIDEAN, METRIC_MAHALANOBIS, METRIC_GEODESIC)


@dataclass(frozen=True)
class NeighborGraph:
    """Per-point ordered neighbor indices (nearest first), k entries each."""

    neighbors: NDArray[np.intp]

    def __post_init__(self):
        nb = np.asarray(self.neighbors, dtype=np.intp)
        if nb.ndim != 2:
            raise InvalidArgumentError("neighbors must be an (n, k) index array")
        nb.setflags(write=False)
        object.__setattr__(self, "neighbors", nb)

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    def __len__(self) -> int:
        return len(self.neighbors)


# Entries in the largest float64 temporary of one row block (512 KiB).
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n_rows: int, entries_per_row: int) -> list[slice]:
    """Consecutive row slices whose temporaries stay within _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // max(entries_per_row, 1))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _first_k(values: NDArray[np.float64], k: int) -> NDArray[np.intp]:
    """`rank_first_k` of one block: partition, then order only the candidates.

    When exactly k entries of a row are <= the row's k-th smallest value, they
    are the first k of its stable sort, and ordering them by (value, index)
    gives that sort's prefix. Rows with ties at the boundary, or NaNs, take
    the full stable sort.
    """
    cand = np.sort(np.argpartition(values, k - 1, axis=1)[:, :k], axis=1)
    cand_values = np.take_along_axis(values, cand, axis=1)
    order = np.argsort(cand_values, axis=1, kind="stable")
    first = np.take_along_axis(cand, order, axis=1)
    kth = cand_values.max(axis=1)
    tied = np.flatnonzero(np.count_nonzero(values <= kth[:, None], axis=1) != k)
    if len(tied):
        first[tied] = np.argsort(values[tied], axis=1, kind="stable")[:, :k]
    return first


def rank_first_k(values: NDArray[np.float64], k: int) -> NDArray[np.intp]:
    """First k column indices of each row by ascending value, ties to lower index."""
    out = np.empty((len(values), k), dtype=np.intp)
    for rows in _row_blocks(len(values), values.shape[1]):
        out[rows] = _first_k(values[rows], k)
    return out


def nearest(
    queries: NDArray[np.float64], points: NDArray[np.float64]
) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
    """Each query's nearest point (ties to the lower index) and squared distance.

    Distances are `q^2 - 2 q.p + p^2`, the expression of the full queries x
    points matrix, evaluated one block of query rows at a time.
    """
    q2 = np.sum(queries**2, axis=1)
    p2 = np.sum(points**2, axis=1)
    index = np.empty(len(queries), dtype=np.intp)
    dist = np.empty(len(queries))
    for rows in _row_blocks(len(queries), len(points)):
        d2 = q2[rows, None] - 2.0 * queries[rows] @ points.T + p2[None, :]
        index[rows] = np.argmin(d2, axis=1)
        dist[rows] = d2[np.arange(len(d2)), index[rows]]
    return index, dist


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
    out = np.empty((n, k), dtype=np.intp)
    # Each block's largest temporary is its (rows, n, 3) difference tensor.
    for rows in _row_blocks(n, 3 * n):
        diff = coords[rows, None, :] - coords[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[np.arange(len(d2)), np.arange(rows.start, rows.stop)] = np.inf
        out[rows] = _first_k(d2, k)
    return NeighborGraph(out)


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
    if not 1 <= k < len(cloud):
        raise InvalidArgumentError(f"k must satisfy 1 <= k < {len(cloud)}, got {k}")
    dist = floyd_warshall(geodesic_adjacency(cloud, k_base))
    np.fill_diagonal(dist, np.inf)
    return NeighborGraph(rank_first_k(dist, k))


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
