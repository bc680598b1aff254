"""Per-point features over a neighbor graph and the clustering probe.

Edge-conv features use fixed, seeded random weights in place of trained
parameters: the variable under study is the graph metric, not the weights.
Eigen features are deterministic covariance-shape descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError
from .geometry import PointCloud
from .neighborhood import NeighborGraph, nearest

# Output channels of the single edge-conv layer.
EDGECONV_WIDTH = 64
# k-means stops after this many Lloyd rounds, or once no center moves by the tolerance.
_KMEANS_MAX_ITERS = 100
_KMEANS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class DescriptorSet:
    """One fixed-width feature vector per cloud point."""

    vectors: NDArray[np.float64]

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise InvalidArgumentError("vectors must be a 2-D array")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("descriptor vectors contain non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return len(self.vectors)


def edgeconv_features(cloud: PointCloud, graph: NeighborGraph, seed: int = 0) -> DescriptorSet:
    """One edge convolution of the points with seeded random weights.

    Each edge evaluates relu(W @ [x_i || (x_j - x_i)] + b) and a point's
    features are the elementwise max over its k neighbors. W, then b, are
    drawn from the seeded stream, scaled for unit fan-in variance.

    With W = [W1 | W2] the edge is relu(P_i + Q_j), where P = x (W1 - W2)^T + b
    and Q = x W2^T. ReLU is monotone, so the max over neighbors is
    relu(P_i + max_j Q_j): two (n, 3) @ (3, width) products and a running max
    over the k neighbor columns, with no (n, k, width) edge tensor. This
    equals the direct evaluation up to rounding, not bitwise.
    """
    if len(graph) != len(cloud):
        raise InvalidArgumentError("graph and cloud sizes differ")
    rng = np.random.default_rng(seed)
    pts = cloud.points
    # An edge [x_i || x_j - x_i] has fan-in 6.
    w = rng.normal(0.0, 1.0 / np.sqrt(6), size=(EDGECONV_WIDTH, 6))
    b = rng.normal(0.0, 1.0 / np.sqrt(6), size=EDGECONV_WIDTH)
    w_center, w_offset = w[:, :3], w[:, 3:]
    q = pts @ w_offset.T
    max_q = q[graph.neighbors[:, 0]]
    for column in graph.neighbors.T[1:]:
        np.maximum(max_q, q[column], out=max_q)
    return DescriptorSet(np.maximum(pts @ (w_center - w_offset).T + b + max_q, 0.0))


def _orient_normals(normals: NDArray[np.float64]) -> NDArray[np.float64]:
    """Flip each normal into the positive z-hemisphere; on z == 0 the sign of
    y, then of x, decides. Zero rows stay zero, and no -0.0 is returned."""
    flip = (normals[:, 2] < 0) | (
        (normals[:, 2] == 0) & ((normals[:, 1] < 0) | ((normals[:, 1] == 0) & (normals[:, 0] < 0)))
    )
    return np.where(flip[:, None], -normals, normals) + 0.0


def eigen_features(cloud: PointCloud, graph: NeighborGraph) -> DescriptorSet:
    """Covariance-shape descriptor per point: (linearity, planarity,
    scattering, normal), with the normal oriented to the positive z-hemisphere.

    Rows whose neighborhood has no spread (largest eigenvalue 0) are all zero.
    """
    if len(graph) != len(cloud):
        raise InvalidArgumentError("graph and cloud sizes differ")
    if graph.k < 3:
        raise InvalidArgumentError("eigen features need k >= 3")
    pts = cloud.points
    n = len(cloud)
    nbr = np.concatenate([np.arange(n)[:, None], graph.neighbors], axis=1)
    local = pts[nbr]  # (n, k+1, 3)
    centered = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / local.shape[1]
    vals, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    l3, l2, l1 = vals[:, 0], vals[:, 1], vals[:, 2]
    l3 = np.clip(l3, 0.0, None)
    l2 = np.clip(l2, 0.0, None)
    out = np.zeros((n, 6))
    ok = l1 > 0
    out[ok, 0] = (l1[ok] - l2[ok]) / l1[ok]
    out[ok, 1] = (l2[ok] - l3[ok]) / l1[ok]
    out[ok, 2] = l3[ok] / l1[ok]
    out[ok, 3:] = _orient_normals(vecs[ok, :, 0])  # eigenvector of the smallest eigenvalue
    return DescriptorSet(out)


def pose_eigen_features(features: DescriptorSet, rotation: NDArray[np.float64]) -> DescriptorSet:
    """Eigen features of a cloud turned by rotation, from that cloud's
    features before the turn.

    The three eigenvalue ratios do not change under rigid motion and are kept
    as they are; each normal turns with the cloud and is oriented again. This
    equals eigen_features of the moved cloud on the same graph up to rounding,
    except where rounding moves a normal across the z = 0 boundary of the
    orientation rule.
    """
    out = features.vectors.copy()
    out[:, 3:] = _orient_normals(out[:, 3:] @ np.asarray(rotation, dtype=np.float64).T)
    return DescriptorSet(out)


def kmeans(features: DescriptorSet, n_clusters: int, seed: int) -> NDArray[np.intp]:
    """Lloyd iterations from farthest-point seeding; returns per-point labels.

    Every point-to-center distance (seeding, each assignment, the re-seed of
    an emptied cluster and the final labels) comes from `nearest`, so ties
    go where `nearest` sends them and memory stays bounded by its row blocks.
    """
    x = features.vectors
    n = len(x)
    if not 1 <= n_clusters <= n:
        raise InvalidArgumentError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(seed)
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    min_d2 = nearest(x, centers[:1])[1]
    for c in range(1, n_clusters):
        centers[c] = x[int(np.argmax(min_d2))]
        np.minimum(min_d2, nearest(x, centers[c : c + 1])[1], out=min_d2)
    for _ in range(_KMEANS_MAX_ITERS):
        labels, d2 = nearest(x, centers)
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
    return nearest(x, centers)[0]
