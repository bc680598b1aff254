"""k-NN graph construction under Euclidean, Mahalanobis, and geodesic metrics.

Every neighbour query in the toolkit runs on one exact engine in this module.
Distances are computed one block of rows at a time, so memory stays O(block)
instead of O(n^2); `_first_k` orders the first k entries of each block row
and `nearest` (k = 1) serves correspondence search, set distance and k-means.
Each call allocates its block buffers once and fills them in place for every
block. `knn` sums squared coordinate differences into one (rows, n) buffer,
with one scratch buffer of the same shape, and builds no difference tensor;
the values are the bytes of the einsum of the difference tensor. `nearest`
ranks each block with one matrix product of lifted coordinates, the queries
as [q, 1] times the points as [-2 p; p^2], which leaves p^2 - 2 q.p in one
(rows, m) buffer; q^2 is added to each row's picked value after the argmin.
Rows per block are fixed by `_BLOCK_ENTRIES` (n per row in `knn`,
max(m, d+1) in `nearest`), because the rounding of `nearest`'s matrix
product depends on its row count.
Every ranking is deterministic and sends ties in the computed distances to
the lower index, as a full stable sort of the all-pairs matrix would. In
`knn` that covers duplicate points, whose difference-form distances are
bitwise equal. In `nearest` it does not: p^2 - 2 q.p goes through a matrix
product that can round bitwise-identical target rows apart, so a
higher-index copy can win by an ulp (64-d points, 500 rows each stored three
times, 2500 random queries: 7 matched a higher copy with one BLAS thread, 5
with two); the match is the lowest index among equal computed values. The
geodesic variant runs one Dijkstra search per point over the adjacency lists
of a symmetrized Euclidean k-NN graph and stops once k points are settled,
plus any tied with the k-th.
Points are ranked by (path length, index); a point whose component has fewer
than k other points is padded with the unreached points, itself included, in
index order. `floyd_warshall` and `geodesic_adjacency` are the dense all-pairs
form of the same ranking, kept as references. `build_graph` is the one
metric -> graph dispatch; with a covariance estimated from the cloud itself,
each of its graphs is invariant under rigid motion of the cloud.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError
from .geometry import PointCloud
from .statistics import CovarianceModel, estimate_covariance

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


# Entries in one row-block buffer (512 KiB of float64). Rows per block follow
# from it, and gemm rounding in `nearest` depends on the row count, so a
# different value can move distances by an ulp: it is fixed, not tuned.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n_rows: int, entries_per_row: int) -> list[slice]:
    """Consecutive row slices whose block buffers stay within _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // max(entries_per_row, 1))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _first_k(values: NDArray[np.float64], k: int) -> NDArray[np.intp]:
    """First k column indices of each row by ascending value, ties to lower index.

    Partition, then order only the candidates. When exactly k entries of a
    row are <= the row's k-th smallest value, they are the first k of its
    stable sort, and ordering them by (value, index) gives that sort's
    prefix. Rows with ties at the boundary, or NaNs, take the full stable
    sort.
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


def nearest(
    queries: NDArray[np.float64], points: NDArray[np.float64]
) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
    """Each query's nearest point and squared distance.

    One matrix product of lifted coordinates per block of query rows ranks
    the points: the block's queries as `[q, 1]`, copied into one reused
    (rows, d+1) buffer, times the points as `[-2 p; p^2]` (d+1, m), built
    once per call, leave `p^2 - 2 q.p` in one reused (rows, m) buffer.
    `q^2` is the same along a row, so it is added to each row's picked value
    after the argmin; it is summed before the buffers are allocated. Rows per
    block are `_BLOCK_ENTRIES // max(m, d+1)`. Ties in the computed value go
    to the lower index; bitwise-duplicate points can still round apart, so a
    higher copy can win (see the module docstring).
    """
    if queries.ndim != 2 or points.ndim != 2:
        raise InvalidArgumentError("queries and points must be 2-d arrays")
    if len(points) == 0:
        raise InvalidArgumentError("points must hold at least one point")
    if queries.shape[1] != points.shape[1]:
        raise InvalidArgumentError(
            f"queries have dimension {queries.shape[1]} but points have {points.shape[1]}"
        )
    m, dim = points.shape
    q2 = np.sum(queries**2, axis=1)
    lifted_p = np.empty((dim + 1, m))
    np.multiply(points.T, -2.0, out=lifted_p[:dim])
    lifted_p[dim] = np.sum(points**2, axis=1)
    index = np.empty(len(queries), dtype=np.intp)
    dist = np.empty(len(queries))
    blocks = _row_blocks(len(queries), max(m, dim + 1))
    block_rows = blocks[0].stop if blocks else 0
    lifted_q = np.empty((block_rows, dim + 1))
    lifted_q[:, dim] = 1.0
    buf = np.empty((block_rows, m))
    for rows in blocks:
        size = rows.stop - rows.start
        lifted_q[:size, :dim] = queries[rows]
        block = buf[:size]
        np.matmul(lifted_q[:size], lifted_p, out=block)
        np.argmin(block, axis=1, out=index[rows])
        dist[rows] = block[np.arange(size), index[rows]]
    dist += q2
    return index, dist


def _squared_distances(
    axes: NDArray[np.float64],
    rows: slice,
    d2_buf: NDArray[np.float64],
    sq_buf: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Squared distances from the points in `rows` to every point, in `d2_buf`.

    `axes` is the (3, n) C-contiguous transpose of the coordinates. The
    sum is (dx^2 + dz^2) + dy^2, the order in which numpy's
    einsum("ijk,ijk->ij") sums a length-3 axis, so the values equal that
    difference-tensor form bit for bit without building the tensor.
    `sq_buf` is scratch; both buffers hold at least as many rows as `rows`.
    Returns the filled leading rows of `d2_buf`.
    """
    x, y, z = axes
    d2, sq = d2_buf[: rows.stop - rows.start], sq_buf[: rows.stop - rows.start]
    np.subtract(x[rows, None], x, out=d2)
    d2 *= d2
    np.subtract(z[rows, None], z, out=sq)
    sq *= sq
    d2 += sq
    np.subtract(y[rows, None], y, out=sq)
    sq *= sq
    d2 += sq
    return d2


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
    axes = np.ascontiguousarray(coords.T)
    out = np.empty((n, k), dtype=np.intp)
    blocks = _row_blocks(n, n)
    d2_buf = np.empty((blocks[0].stop, n))
    sq_buf = np.empty_like(d2_buf)
    for rows in blocks:
        d2 = _squared_distances(axes, rows, d2_buf, sq_buf)
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


def _base_edges(
    cloud: PointCloud, k_base: int
) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.float64]]:
    """Directed edges (row -> column) of the Euclidean k_base-NN graph, with lengths."""
    base = knn(cloud, k_base, METRIC_EUCLIDEAN)
    pts = cloud.points
    rows = np.repeat(np.arange(len(cloud)), k_base)
    cols = base.neighbors.reshape(-1)
    return rows, cols, np.linalg.norm(pts[rows] - pts[cols], axis=1)


def geodesic_adjacency(cloud: PointCloud, k_base: int) -> NDArray[np.float64]:
    """Symmetric Euclidean k_base-NN adjacency with edge weights = lengths."""
    rows, cols, lengths = _base_edges(cloud, k_base)
    n = len(cloud)
    adj = np.full((n, n), np.inf)
    adj[rows, cols] = lengths
    adj[cols, rows] = lengths  # union of directed edges keeps the matrix symmetric
    np.fill_diagonal(adj, 0.0)
    return adj


def _adjacency_lists(
    n: int, rows: NDArray[np.intp], cols: NDArray[np.intp], lengths: NDArray[np.float64]
) -> tuple[list[list[int]], list[list[float]]]:
    """Neighbours and edge lengths of each node of an undirected edge list.

    Every edge is walked both ways; of repeated (node, neighbour) pairs only the
    shortest is kept. Each node's neighbours are in index order.
    """
    key = np.concatenate([rows * n + cols, cols * n + rows])
    weight = np.concatenate([lengths, lengths])
    order = np.lexsort((weight, key))
    key, weight = key[order], weight[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key, weight = key[first], weight[first]
    bounds = np.searchsorted(key // n, np.arange(n + 1)).tolist()
    dst_list, weight_list = (key % n).tolist(), weight.tolist()
    return (
        [dst_list[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
        [weight_list[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
    )


def _shortest_first_k(
    n: int, rows: NDArray[np.intp], cols: NDArray[np.intp], lengths: NDArray[np.float64], k: int
) -> NDArray[np.intp]:
    """Each node's k nearest other nodes by path length through an undirected edge list.

    One Dijkstra search per node pops (distance, index) pairs and stops once
    its k-th node is settled and the heap holds nothing at that distance, so
    ties and zero-length edges at the k-th distance are settled too. The
    settled nodes are ranked by (distance, index). A node whose component has
    fewer than k other nodes is padded with the unreached nodes, itself
    included, in index order. This is the first k of a stable sort of the
    all-pairs path-length matrix with +inf on its diagonal.
    """
    nbrs, weights = _adjacency_lists(n, rows, cols, lengths)
    out = np.empty((n, k), dtype=np.intp)
    best = [math.inf] * n  # tentative distances of the current search
    push, pop = heapq.heappush, heapq.heappop
    for source in range(n):
        best[source] = 0.0
        touched = [source]
        heap = [(0.0, source)]
        settled = []
        kth = math.inf
        while heap:
            d, u = pop(heap)
            if d > best[u]:
                continue  # a stale entry: u was reached more cheaply later
            if d > kth:
                break
            if u != source:
                settled.append((d, u))
                if len(settled) == k:
                    kth = d
            for v, w in zip(nbrs[u], weights[u]):
                nd = d + w
                if nd < best[v] and nd <= kth:
                    if best[v] == math.inf:
                        touched.append(v)
                    best[v] = nd
                    push(heap, (nd, v))
        for v in touched:
            best[v] = math.inf
        settled.sort()
        first = [u for _, u in settled[:k]]
        if len(first) < k:
            reached = set(first)
            unreached = (i for i in range(n) if i not in reached)
            first += itertools.islice(unreached, k - len(first))
        out[source] = first
    return out


def knn_geodesic(cloud: PointCloud, k_base: int, k: int) -> NeighborGraph:
    """k nearest points by shortest-path length through the Euclidean graph.

    The path lengths run over the union of the directed k_base-NN edges. An
    unreachable point ranks after every reachable one, so a point in a small
    disconnected component still gets k neighbors, padded by index order.
    k_base may be smaller than k: a sparse base graph is exactly what makes
    shortest-path neighborhoods differ from Euclidean ones.
    """
    n = len(cloud)
    if not 1 <= k_base < n:
        raise InvalidArgumentError(f"k_base must satisfy 1 <= k_base < {n}, got {k_base}")
    if not 1 <= k < n:
        raise InvalidArgumentError(f"k must satisfy 1 <= k < {n}, got {k}")
    rows, cols, lengths = _base_edges(cloud, k_base)
    return NeighborGraph(_shortest_first_k(n, rows, cols, lengths, k))


def build_graph(
    cloud: PointCloud,
    metric: str,
    k: int,
    k_base: int | None = None,
) -> NeighborGraph:
    """The k-NN graph of a cloud under a metric name.

    Mahalanobis uses the cloud's own regularized global covariance; geodesic
    walks a Euclidean k_base-NN graph (k_base defaults to k), and k_base is
    read by no other metric. With k_base >= k the geodesic graph equals the
    Euclidean one up to the rounding of tied distances: the direct base edge
    to each of a point's k Euclidean nearest is a shortest path, and every
    other point is at least its Euclidean distance away. That case is not
    shortcut; it runs the full search.
    """
    if metric == METRIC_GEODESIC:
        return knn_geodesic(cloud, k if k_base is None else k_base, k)
    if metric == METRIC_MAHALANOBIS:
        return knn(cloud, k, METRIC_MAHALANOBIS, estimate_covariance(cloud))
    return knn(cloud, k, metric)
