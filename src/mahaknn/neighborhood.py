"""k-NN graph construction under Euclidean, Mahalanobis, and geodesic metrics.

Every neighbour query in the toolkit runs on one exact engine in this module.
Every ranking is deterministic and sends ties in the computed distances to
the lower index, as a full stable sort of the all-pairs matrix would.

`knn` ranks 3-d coordinates, Euclidean or whitened, of a cloud within the
coordinate range of `geometry.check_range`, outside which squared distances
overflow or leave float64's normal range. It buckets them into a uniform
cell grid sized for about `_CELL_OCCUPANCY` points per occupied cell, with
the occupancy exponent measured from the counts of occupied cells at two
cell sizes. A point's candidates are the points of its 3x3x3 block of
cells, sorted by index and ranked by `_first_k`. Cell keys order the cells
by (x, y, z), z fastest, so each block is nine runs of consecutive keys,
found in the key-sorted points with two binary searches. A row is accepted
only when its k-th distance is below the square of its face distance: on
each axis, the gap to the nearest coordinate of any point two or more cells
away, computed as the distances are, so that monotone rounding keeps every
point outside the block strictly farther. Every other row, and every row of
a cloud with no grid, falls back to the brute force: one block of rows at a
time against all points, so memory stays O(budget) instead of O(n^2). Both
paths take their distances from one kernel, `_squared_distances`, which sums
squared coordinate differences as (dx^2 + dz^2) + dy^2, the bytes of the
einsum of the difference tensor, without building that tensor, so duplicate
points tie bitwise and the neighbour arrays are those of the brute force.
Each call allocates its buffers once and fills them in place for every
chunk or block.

`nearest` (k = 1) serves correspondence search, set distance and k-means. It
ranks each block with one matrix product of lifted coordinates, the queries
as [q, 1] times the points as [-2 p; p^2], lifted once per point set by
`lift`, which leaves p^2 - 2 q.p in one (rows, m) buffer; q^2 is added to
each row's picked value after the argmin. Rows per block are fixed by
`_BLOCK_ENTRIES` (max(m, d+1) entries per row), because the rounding of
`nearest`'s matrix product depends on its row count. A one-row block runs as
two copies of its row: a one-row product goes through gemv, which rounds
apart from gemm. So a query's result does not depend on which other queries
share its call, as far as the BLAS rounds a row of a product alike at every
row count. With OpenBLAS 0.3.31 on AVX-512 that held in every 3-d and 6-d
case tested, while some 64-d products rounded a row by the product's size
and the row's place in it, so there only the ranking of random points is
independent of the other queries. Its tie rule covers computed values only:
p^2 - 2 q.p can round bitwise-identical target rows apart, so a higher-index
copy can win by an ulp (64-d points, 500 rows each stored three times, 2500
random queries: 7 matched a higher copy with one BLAS thread, 5 with two);
the match is the lowest index among equal computed values.

Every other per-point kernel keeps its scratch within one budget,
`_SCRATCH_ENTRIES`: `knn`'s cell-grid chunks, and, cut into rows by the
same `row_blocks`, `knn`'s brute force (n entries per row), the edge
lengths of `_base_edges`, and `descriptors.eigen_features` and
`descriptors.edgeconv_features`. So their working memory is their output
plus O(budget), whatever n is. None of them runs a BLAS product on a block,
and each row's values are computed as they would be in one whole-cloud
pass, so that budget moves no value; only `nearest`'s budget is fixed for
its bytes.

The geodesic variant runs one Dijkstra search per point over the adjacency
lists of a symmetrized Euclidean k-NN graph and stops once k points are
settled, plus any tied with the k-th. Points are ranked by (path length,
index); a point whose component has fewer than k other points is padded with
the unreached points, itself included, in index order. `floyd_warshall` and
`geodesic_adjacency` are the dense all-pairs form of the same ranking, kept as
references. `build_graph` is the one graph builder, the geodesic base graph
included, and keeps each graph on its cloud; with a covariance estimated
from the cloud itself, each of its graphs is invariant under rigid motion of
the cloud.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError
from .geometry import PointCloud, check_finite, check_range, hold
from .statistics import CovarianceModel, estimate_covariance

METRIC_EUCLIDEAN = "euclidean"
METRIC_MAHALANOBIS = "mahalanobis"
METRIC_GEODESIC = "geodesic"
# Every metric name `build_graph` accepts.
METRICS = (METRIC_EUCLIDEAN, METRIC_MAHALANOBIS, METRIC_GEODESIC)

# Largest whitened coordinate that `knn` ranks. Squared distances stay finite
# below it (3 * (2e153)**2 < 1.8e308), and it is above every whitened
# coordinate of a `build_graph` cloud: a regularized covariance's whitener has
# norm at most 1 / sqrt(DEFAULT_REGULARIZER), about 316, and raw coordinates
# are at most sqrt(3) * MAX_ABS_COORDINATE long.
MAX_ABS_WHITENED = 1e153


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Per-point ordered neighbor indices (nearest first), k entries each,
    into the graph's own points: a graph of n rows holds indices in [0, n)."""

    neighbors: NDArray[np.intp]

    def __post_init__(self):
        hold(self, "neighbors", (None, None), np.intp)
        n = len(self.neighbors)
        if self.neighbors.size and not 0 <= self.neighbors.min() <= self.neighbors.max() < n:
            raise InvalidArgumentError(f"neighbors must lie in [0, {n}) for a graph of {n} rows")

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    def __len__(self) -> int:
        return len(self.neighbors)


# Entries in one row-block buffer of `nearest` (512 KiB of float64). Rows per
# block follow from it, and gemm rounding depends on the row count, so a
# different value can move distances by an ulp: it is fixed, not tuned.
_BLOCK_ENTRIES = 1 << 16
# Entries in one scratch buffer of every other blocked kernel (128 KiB of
# float64): `knn`'s grid chunks and brute-force blocks, `_base_edges` and the
# eigen and edge-conv descriptors. No matrix product runs on their blocks,
# so its size moves no value.
_SCRATCH_ENTRIES = 1 << 14


def row_blocks(n_rows: int, entries_per_row: int, budget: int | None = None) -> list[slice]:
    """Consecutive row slices of at most `budget` entries each, and at least one row.

    The budget is `_SCRATCH_ENTRIES` unless given; only `nearest` gives its own.
    """
    budget = _SCRATCH_ENTRIES if budget is None else budget
    step = max(1, budget // max(entries_per_row, 1))
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


def lift(points: NDArray[np.float64]) -> NDArray[np.float64]:
    """The points as `nearest` ranks them: read-only (m, d+1) rows `[-2 p, p^2]`,
    the transpose of the C-ordered (d+1, m) right operand of its product.
    Non-finite points raise InvalidArgumentError."""
    if points.ndim != 2:
        raise InvalidArgumentError("points must be a 2-d array")
    check_finite("points", points)
    lifted = np.empty((points.shape[1] + 1, len(points)))
    np.multiply(points.T, -2.0, out=lifted[:-1])
    lifted[-1] = np.sum(points**2, axis=1)
    lifted.flags.writeable = False
    return lifted.T


def nearest(
    queries: NDArray[np.float64], lifted: NDArray[np.float64]
) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
    """Each query's nearest point and squared distance, the points lifted by `lift`.

    Each block of query rows is copied as `[q, 1]` into one reused (rows,
    d+1) buffer and multiplied by the lifted points into one reused (rows, m)
    buffer; `q^2`, summed first, is added to each row's picked value after
    the argmin. Rows per block, the one-row rule and the tie rule are the
    module docstring's. An empty point set, mismatched dimensions and
    non-finite queries raise InvalidArgumentError; zero queries give two
    empty arrays.
    """
    if queries.ndim != 2 or lifted.ndim != 2:
        raise InvalidArgumentError("queries and points must be 2-d arrays")
    if len(lifted) == 0:
        raise InvalidArgumentError("points must hold at least one point")
    m, dim = len(lifted), lifted.shape[1] - 1
    if queries.shape[1] != dim:
        raise InvalidArgumentError(
            f"queries have dimension {queries.shape[1]} but points have {dim}"
        )
    check_finite("queries", queries)
    q2 = np.sum(queries**2, axis=1)
    index = np.empty(len(queries), dtype=np.intp)
    dist = np.empty(len(queries))
    blocks = row_blocks(len(queries), max(m, dim + 1), _BLOCK_ENTRIES)
    block_rows = max(blocks[0].stop, 2) if blocks else 0
    lifted_q = np.empty((block_rows, dim + 1))
    lifted_q[:, dim] = 1.0
    buf = np.empty((block_rows, m))
    row_ids = np.arange(block_rows)
    for rows in blocks:
        size = rows.stop - rows.start
        product_rows = max(size, 2)  # one row is broadcast into both
        lifted_q[:product_rows, :dim] = queries[rows]
        block = buf[:product_rows]
        np.matmul(lifted_q[:product_rows], lifted.T, out=block)
        picked = index[rows]
        block[:size].argmin(axis=1, out=picked)
        dist[rows] = block[row_ids[:size], picked]
    dist += q2
    return index, dist


def _squared_distances(
    q, p, d2: NDArray[np.float64], sq: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Squared distances between query and point coordinates, written to `d2`.

    `q` and `p` are (x, y, z) triples of arrays whose differences broadcast
    to the shape of `d2`: the brute force pairs a column of queries with all
    points, the cell grid pairs a column of queries with gathered candidate
    tables. The sum is (dx^2 + dz^2) + dy^2, the order in which numpy's
    einsum("ijk,ijk->ij") sums a length-3 axis, so the values equal that
    difference-tensor form bit for bit without building the tensor. `sq` is
    scratch of the same shape. p's x may be held in `d2` and its z in `sq`,
    since each is read before it is overwritten; its y may be neither.
    """
    qx, qy, qz = q
    px, py, pz = p
    np.subtract(qx, px, out=d2)
    d2 *= d2
    np.subtract(qz, pz, out=sq)
    sq *= sq
    d2 += sq
    np.subtract(qy, py, out=sq)
    sq *= sq
    d2 += sq
    return d2


def _brute_force_rows(
    axes: NDArray[np.float64], rows: NDArray[np.intp], k: int, out: NDArray[np.intp]
) -> None:
    """Rank every point for each row in `rows`, one (block rows, n) buffer at a time."""
    n = axes.shape[1]
    blocks = row_blocks(len(rows), n)
    if not blocks:
        return
    d2_buf = np.empty((blocks[0].stop, n))
    sq_buf = np.empty_like(d2_buf)
    for block in blocks:
        index = rows[block]
        size = len(index)
        d2 = _squared_distances(axes[:, index, None], axes, d2_buf[:size], sq_buf[:size])
        d2[np.arange(size), index] = np.inf
        out[index] = _first_k(d2, k)


# Points per occupied cell that the grid's cell edge aims for.
_CELL_OCCUPANCY = 8


def _cell_edge(unit: NDArray[np.float64]) -> float:
    """Edge of cubic cells that hold about `_CELL_OCCUPANCY` points when occupied.

    `unit` holds the coordinates shifted and scaled into [0, 1]. Occupied
    cells are counted at edges 1/8 and 1/16. Their ratio gives the occupancy
    exponent (1 on a curve, 2 on a surface, 3 in a volume), clamped to
    [1, 3], and the edge is extrapolated from the coarser count with it.
    Structure finer than 1/16 can break that extrapolation (two parallel
    planes closer than a coarse cell fill twice the cells once the cells are
    finer than their gap), so the occupied cells are counted once more at the
    extrapolated edge. When they hold fewer points than aimed for, the edge
    grows by the same exponent; it never shrinks, since smaller cells only
    leave more rows without k candidates inside their faces.
    """
    n = len(unit)
    fine = np.minimum((unit * 16.0).astype(np.intp), 15)
    n_fine = np.count_nonzero(np.bincount((fine[:, 0] * 16 + fine[:, 1]) * 16 + fine[:, 2]))
    fine >>= 1
    n_coarse = np.count_nonzero(np.bincount((fine[:, 0] * 8 + fine[:, 1]) * 8 + fine[:, 2]))
    exponent = min(max(math.log2(n_fine / n_coarse), 1.0), 3.0)
    edge = (_CELL_OCCUPANCY * n_coarse / n) ** (1.0 / exponent) / 8.0
    cell = (unit / edge).astype(np.intp)
    key = _cell_keys(cell, cell.max(axis=0) + 1)
    if key is None:
        return edge
    key.sort()
    occupied = np.count_nonzero(np.diff(key)) + 1
    return edge * max(1.0, _CELL_OCCUPANCY * occupied / n) ** (1.0 / exponent)


def _cell_keys(cell: NDArray[np.intp], dims: NDArray[np.intp]) -> NDArray[np.intp] | None:
    """The int64 key of each cell of a grid of `dims` cells, or None if keys could overflow."""
    if not math.prod(dims.tolist()) < 2**62:
        return None
    return (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]


def _face_distances(coords: NDArray[np.float64], cell: NDArray[np.intp]) -> NDArray[np.float64]:
    """Squared lower bound on every computed distance from a point to the points outside its block.

    On each axis the bound is the gap, computed as `knn` computes a
    coordinate difference, from the point to the nearest coordinate of any
    point two or more cells away. Rounding is monotone, so every point
    outside the block has a computed squared distance of at least the
    square of the smallest gap. Gaps are clamped at 0.
    """
    n = len(coords)
    face = np.full(n, np.inf)
    for axis in range(3):
        x, c = coords[:, axis], cell[:, axis]
        order = np.argsort(c, kind="stable")
        by_cell, x_by_cell = c[order], x[order]
        # Largest coordinate in cells <= c - 2, smallest in cells >= c + 2.
        below = np.maximum.accumulate(np.append(-np.inf, x_by_cell))
        above = np.minimum.accumulate(np.append(x_by_cell, np.inf)[::-1])[::-1]
        np.minimum(face, x - below[np.searchsorted(by_cell, c - 2, side="right")], out=face)
        np.minimum(face, above[np.searchsorted(by_cell, c + 2, side="left")] - x, out=face)
    np.maximum(face, 0.0, out=face)
    return face * face


def _grid(coords: NDArray[np.float64]):
    """The cell grid of an (n, 3) array, or None where no grid can be built.

    Points are bucketed into cubic cells of edge `_cell_edge`, with two empty
    layers on each side so that cell-key arithmetic never wraps. Keys order
    the cells by (x, y, z), z fastest, so the cells (x+i, y+j, z-1 ... z+1)
    of a 3x3x3 block hold three consecutive keys, and the block of an
    occupied cell is nine runs of the key-sorted points; the empty layers
    keep a run from reaching into the next column. Returns the point order
    by (cell key, index), the rank of each sorted point's cell, each
    occupied cell's nine run starts and stops as (cells, 9) sorted
    positions, and each sorted point's squared face distance. None when
    every point sits at one position, or when cell keys could overflow
    int64 (a far outlier can make the grid huge).
    """
    lo = coords.min(axis=0)
    extent = float(np.max(coords.max(axis=0) - lo))
    if extent == 0.0:
        return None
    unit = (coords - lo) / extent
    cell = (unit / _cell_edge(unit)).astype(np.intp) + 2
    del unit
    dims = cell.max(axis=0) + 3
    key = _cell_keys(cell, dims)
    if key is None:
        return None
    face2 = _face_distances(coords, cell)
    del cell
    order = np.argsort(key, kind="stable")
    face2 = face2[order]
    sorted_key = key[order]
    head = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    # Key of the middle cell of each of the block's nine z-columns.
    step = np.arange(-1, 2)
    columns = sorted_key[head, None] + ((step[:, None] * dims[1] + step) * dims[2]).reshape(-1)
    run_start = np.searchsorted(sorted_key, columns - 1)
    run_stop = np.searchsorted(sorted_key, columns + 1, side="right")
    row_cell = np.repeat(np.arange(len(head)), np.diff(head, append=len(key)))
    return order, row_cell, run_start, run_stop, face2


def _grid_rows(axes: NDArray[np.float64], k: int, out: NDArray[np.intp]) -> NDArray[np.intp]:
    """Rank the rows the cell grid proves exact into `out`; return the other rows.

    A point's candidates are the points of its cell's nine runs (`_grid`).
    For each cell of a chunk of rows the runs are padded with the sentinel
    position n to the chunk's width, mapped through the point order (the
    sentinel to a point at +inf) and sorted, so each table row lists the
    block's points by index with the sentinels last. Each row's table is
    gathered coordinate by coordinate and its distances are taken by
    `_squared_distances`, so they equal the brute-force values bit for bit,
    and `_first_k` ranks them with ties to the lower index. A row is
    accepted only when its k-th distance is below its squared face distance
    (`_face_distances`): then no point outside the block can reach the first
    k or tie with the k-th. Rows of a cloud with no grid, rows with fewer
    than k other candidates and rows whose block alone overflows a chunk
    buffer are returned unranked.
    """
    n = axes.shape[1]
    grid = _grid(axes.T)
    if grid is None:
        return np.arange(n)
    order, row_cell, run_start, run_stop, face2 = grid
    run_length = run_stop - run_start
    width = run_length.sum(axis=1)
    row_width = width[row_cell]
    # Sorted position n, and every padding position clipped to it, is the
    # sentinel point n, whose coordinates are +inf. The other gathers use
    # mode="clip" only so that numpy writes straight into `out`; their
    # indices are all in range.
    point = np.append(order, n)
    sx, sy, sz = np.append(axes, np.full((3, 1), np.inf), axis=1)
    cand_buf = np.empty(_SCRATCH_ENTRIES, dtype=np.intp)
    d2_buf, y_buf, sq_buf = np.empty((3, _SCRATCH_ENTRIES))
    rejected = [np.empty(0, dtype=np.intp)]
    start = 0
    while start < n:
        # The longest run of rows whose padded candidate table fits a buffer.
        span = row_width[start : start + max(1, _SCRATCH_ENTRIES // row_width[start])]
        fits = np.arange(1, len(span) + 1) * np.maximum.accumulate(span) <= _SCRATCH_ENTRIES
        stop = start + max(1, np.count_nonzero(fits))
        cols = int(row_width[start:stop].max())
        if not k < cols <= _SCRATCH_ENTRIES:
            rejected.append(order[start:stop])
            start = stop
            continue
        # Candidate lists of the chunk's cells: the sorted positions of each
        # cell's nine runs, padded with the sentinel to the chunk's width,
        # then mapped to point indices and sorted.
        cells = slice(row_cell[start], row_cell[stop - 1] + 1)
        lengths = np.column_stack([run_length[cells], cols - width[cells]]).ravel()
        heads = np.column_stack([run_start[cells], np.full(cells.stop - cells.start, n)]).ravel()
        table = np.repeat(heads - (np.cumsum(lengths) - lengths), lengths)
        table += np.arange(len(table))
        np.take(point, table, mode="clip", out=table)
        table = table.reshape(-1, cols)
        table.sort(axis=1)
        # Each row's candidates, and their distances.
        rows = order[start:stop]
        size = stop - start
        cand = cand_buf[: size * cols].reshape(size, cols)
        np.take(table, row_cell[start:stop] - cells.start, axis=0, mode="clip", out=cand)
        d2, py, sq = (buf[: size * cols].reshape(size, cols) for buf in (d2_buf, y_buf, sq_buf))
        np.take(sx, cand, mode="clip", out=d2)
        np.take(sy, cand, mode="clip", out=py)
        np.take(sz, cand, mode="clip", out=sq)
        _squared_distances(axes[:, rows, None], (d2, py, sq), d2, sq)
        np.copyto(d2, np.inf, where=cand == rows[:, None])
        first = _first_k(d2, k)
        accept = d2[np.arange(size), first[:, -1]] < face2[start:stop]
        out[rows[accept]] = np.take_along_axis(cand, first, axis=1)[accept]
        rejected.append(rows[~accept])
        start = stop
    return np.concatenate(rejected)


def knn(
    cloud: PointCloud,
    k: int,
    metric: str = METRIC_EUCLIDEAN,
    model: CovarianceModel | None = None,
) -> NeighborGraph:
    """Exact k nearest neighbors of every point under the chosen metric.

    A cloud outside `geometry.check_range`'s coordinate range, or whitened
    coordinates above `MAX_ABS_WHITENED`, raise InvalidArgumentError naming
    the limit. Euclidean and whitened coordinates are both 3-d. A uniform
    cell grid ranks each point's 3x3x3 block of cells and keeps the rows
    whose k-th distance is provably below the distance to the block's faces
    (`_grid_rows`); every other row, and every row of a cloud with no grid,
    is ranked against all points by the blocked brute force. Both compute
    the same difference-form distances and rank them with `_first_k`, so
    the neighbour arrays are the same either way.
    """
    n = len(cloud)
    if not 1 <= k < n:
        raise InvalidArgumentError(f"k must satisfy 1 <= k < {n}, got {k}")
    check_range("cloud", cloud.points)
    pts = cloud.points
    if metric == METRIC_EUCLIDEAN:
        coords = pts
    elif metric == METRIC_MAHALANOBIS:
        if model is None:
            raise InvalidArgumentError("mahalanobis metric requires a covariance model")
        # Finite, since a finite whitener's norm is at most sqrt(float max).
        coords = pts @ model.whitener().T
        check_range("whitened cloud", coords, MAX_ABS_WHITENED)
    else:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    axes = np.ascontiguousarray(coords.T)
    out = np.empty((n, k), dtype=np.intp)
    _brute_force_rows(axes, _grid_rows(axes, k, out), k, out)
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
    """Directed edges (row -> column) of the cloud's Euclidean k_base-NN graph, with lengths.

    The lengths are taken one `row_blocks` block of edges at a time.
    """
    base = build_graph(cloud, METRIC_EUCLIDEAN, k_base)
    pts = cloud.points
    rows = np.repeat(np.arange(len(cloud)), k_base)
    cols = base.neighbors.reshape(-1)
    lengths = np.empty(len(rows))
    for edges in row_blocks(len(rows), 3):
        lengths[edges] = np.linalg.norm(pts[rows[edges]] - pts[cols[edges]], axis=1)
    return rows, cols, lengths


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


def graph_key(metric: str, k: int, k_base: int | None = None) -> tuple:
    """The key under which `build_graph` keeps a cloud's graph: (metric, k,
    k_base), with k_base (default k) only for geodesic graphs and None for
    the others, which do not read it."""
    if metric != METRIC_GEODESIC:
        return (metric, k, None)
    return (metric, k, k if k_base is None else k_base)


def build_graph(
    cloud: PointCloud,
    metric: str,
    k: int,
    k_base: int | None = None,
) -> NeighborGraph:
    """The k-NN graph of a cloud under a metric name, built once per cloud.

    Mahalanobis uses the cloud's own regularized global covariance; geodesic
    walks a Euclidean k_base-NN graph (k_base defaults to k), and k_base is
    read by no other metric. With k_base >= k the geodesic graph equals the
    Euclidean one up to the rounding of tied distances: the direct base edge
    to each of a point's k Euclidean nearest is a shortest path, and every
    other point is at least its Euclidean distance away. That case is not
    shortcut; it runs the full search.

    This is the one graph builder: every graph asked of a cloud, the
    geodesic search's Euclidean base graph included, is built here and kept
    on the cloud under `graph_key` by `PointCloud.kept`, so a later call with
    the same key returns it without a rebuild. One metric's graph is never
    served for another, even where the two are equal.
    """
    key = graph_key(metric, k, k_base)
    if metric == METRIC_GEODESIC:
        return cloud.kept(key, lambda: knn_geodesic(cloud, key[2], k))
    if metric == METRIC_MAHALANOBIS:
        return cloud.kept(key, lambda: knn(cloud, k, metric, estimate_covariance(cloud)))
    return cloud.kept(key, lambda: knn(cloud, k, metric))
