"""Per-point features over a neighbor graph and the clustering probe.

Edge-conv features use fixed, seeded random weights in place of trained
parameters: the variable under study is the graph metric, not the weights.
Eigen features are deterministic covariance-shape descriptors. Features are
read-only (n, d) arrays, finite on the clouds `geometry.check_range` admits.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError
from .geometry import PointCloud, check_range
from .neighborhood import NeighborGraph, lift, nearest, row_blocks

# Output channels of the single edge-conv layer.
EDGECONV_WIDTH = 64
# k-means stops after this many Lloyd rounds, or once no center moves by the tolerance.
_KMEANS_MAX_ITERS = 100
_KMEANS_TOL = 1e-6


def edgeconv_features(
    cloud: PointCloud, graph: NeighborGraph, seed: int = 0
) -> NDArray[np.float64]:
    """One edge convolution of the points with seeded random weights.

    Each edge evaluates relu(W @ [x_i || (x_j - x_i)] + b) and a point's
    features are the elementwise max over its k neighbors. W, then b, are
    drawn from the seeded stream, scaled for unit fan-in variance.

    With W = [W1 | W2] the edge is relu(P_i + Q_j), where P = x (W1 - W2)^T + b
    and Q = x W2^T. ReLU is monotone, so the max over neighbors is
    relu(P_i + max_j Q_j): two (n, 3) @ (3, width) products and a running max
    over the k neighbor columns, with no (n, k, width) edge tensor. This
    equals the direct evaluation up to rounding, not bitwise.

    P and Q are whole-cloud products, and P + b is the output buffer. The
    running max runs one `neighborhood.row_blocks` block of points at a time,
    over a contiguous copy of the block's neighbor columns, and the ReLU of
    its sum with the block's output rows is written back into them. Working
    memory is the output plus Q, two (n, width) arrays, plus O(scratch budget).
    """
    if len(graph) != len(cloud):
        raise InvalidArgumentError("graph and cloud sizes differ")
    check_range("cloud", cloud.points)
    rng = np.random.default_rng(seed)
    pts = cloud.points
    # An edge [x_i || x_j - x_i] has fan-in 6.
    w = rng.normal(0.0, 1.0 / np.sqrt(6), size=(EDGECONV_WIDTH, 6))
    b = rng.normal(0.0, 1.0 / np.sqrt(6), size=EDGECONV_WIDTH)
    w_center, w_offset = w[:, :3], w[:, 3:]
    q = pts @ w_offset.T
    out = pts @ (w_center - w_offset).T
    out += b
    for rows in row_blocks(len(cloud), EDGECONV_WIDTH):
        columns = graph.neighbors[rows].T.copy()
        max_q = q[columns[0]]
        for column in columns[1:]:
            np.maximum(max_q, q[column], out=max_q)
        np.maximum(out[rows] + max_q, 0.0, out=out[rows])
    out.flags.writeable = False
    return out


def _orient_normals(normals: NDArray[np.float64]) -> NDArray[np.float64]:
    """Flip each normal into the positive z-hemisphere; on z == 0 the sign of
    y, then of x, decides. Zero rows stay zero, and no -0.0 is returned."""
    flip = (normals[:, 2] < 0) | (
        (normals[:, 2] == 0) & ((normals[:, 1] < 0) | ((normals[:, 1] == 0) & (normals[:, 0] < 0)))
    )
    return np.where(flip[:, None], -normals, normals) + 0.0


def eigen_features(cloud: PointCloud, graph: NeighborGraph) -> NDArray[np.float64]:
    """Covariance-shape descriptor per point: (linearity, planarity,
    scattering, normal), with the normal oriented to the positive z-hemisphere.

    Rows whose neighborhood has no spread (largest eigenvalue 0) are all zero.
    Each `neighborhood.row_blocks` block of points is gathered, centred and
    solved on its own and written straight into the (n, 6) output, so the
    working memory is the output plus O(scratch budget).
    """
    if len(graph) != len(cloud):
        raise InvalidArgumentError("graph and cloud sizes differ")
    if graph.k < 3:
        raise InvalidArgumentError("eigen features need k >= 3")
    check_range("cloud", cloud.points)
    pts = cloud.points
    n, k = len(cloud), graph.k
    out = np.zeros((n, 6))
    for rows in row_blocks(n, 3 * (k + 1)):
        local = pts[np.column_stack([np.arange(rows.start, rows.stop), graph.neighbors[rows]])]
        centered = local - local.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
        vals, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
        l3, l2, l1 = np.clip(vals[:, 0], 0.0, None), np.clip(vals[:, 1], 0.0, None), vals[:, 2]
        block = out[rows]
        ok = l1 > 0
        np.divide(l1 - l2, l1, out=block[:, 0], where=ok)
        np.divide(l2 - l3, l1, out=block[:, 1], where=ok)
        np.divide(l3, l1, out=block[:, 2], where=ok)
        # The eigenvector of the smallest eigenvalue.
        np.copyto(block[:, 3:], _orient_normals(vecs[:, :, 0]), where=ok[:, None])
    out.flags.writeable = False
    return out


def pose_eigen_features(
    features: NDArray[np.float64], rotation: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Eigen features of a cloud turned by rotation, from that cloud's
    features before the turn.

    The three eigenvalue ratios do not change under rigid motion and are kept
    as they are; each normal turns with the cloud and is oriented again. This
    equals eigen_features of the moved cloud on the same graph up to rounding,
    except where rounding moves a normal across the z = 0 boundary of the
    orientation rule.
    """
    out = np.array(features, dtype=np.float64)
    out[:, 3:] = _orient_normals(out[:, 3:] @ np.asarray(rotation, dtype=np.float64).T)
    out.flags.writeable = False
    return out


def kmeans(features: NDArray[np.float64], n_clusters: int, seed: int) -> NDArray[np.intp]:
    """Lloyd iterations from farthest-point seeding; returns per-point labels.

    Every point-to-center distance (seeding, each assignment, the re-seed of
    an emptied cluster and the final labels) comes from `nearest`, so ties
    go where `nearest` sends them and memory stays bounded by its row blocks.
    """
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    if not 1 <= n_clusters <= n:
        raise InvalidArgumentError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(seed)
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    min_d2 = nearest(x, lift(centers[:1]))[1]
    for c in range(1, n_clusters):
        centers[c] = x[int(np.argmax(min_d2))]
        np.minimum(min_d2, nearest(x, lift(centers[c : c + 1]))[1], out=min_d2)
    for _ in range(_KMEANS_MAX_ITERS):
        labels, d2 = nearest(x, lift(centers))
        new_centers = centers.copy()
        for c in range(n_clusters):
            mask = labels == c
            if mask.any():
                new_centers[c] = x[mask].mean(axis=0)
            else:
                # Re-seed an emptied cluster at the worst-assigned point.
                new_centers[c] = x[int(np.argmax(d2))]
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift < _KMEANS_TOL:
            break
    return nearest(x, lift(centers))[0]
