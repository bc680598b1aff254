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
from .neighborhood import NeighborGraph

AGGREGATE_MAX = "max"
AGGREGATE_SUM = "sum"


@dataclass(frozen=True)
class DescriptorSet:
    """One fixed-width feature vector per cloud point."""

    vectors: NDArray[np.float64]
    layer_count: int
    seed: int
    graph_metric: str

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


def edgeconv_features(
    cloud: PointCloud,
    graph: NeighborGraph,
    layers: int = 1,
    width: int = 64,
    seed: int = 0,
    aggregate: str = AGGREGATE_MAX,
) -> DescriptorSet:
    """Stacked edge convolutions with seeded random weights.

    Each edge evaluates relu(W @ [x_i || (x_j - x_i)] + b); features are the
    elementwise max (or sum) over the k neighbors. W and b are drawn once per
    layer from the seeded stream, scaled for unit fan-in variance.
    """
    if len(graph) != len(cloud):
        raise InvalidArgumentError("graph and cloud sizes differ")
    if layers < 1:
        raise InvalidArgumentError("layers must be >= 1")
    if aggregate not in (AGGREGATE_MAX, AGGREGATE_SUM):
        raise InvalidArgumentError(f"unknown aggregate {aggregate!r}")
    rng = np.random.default_rng(seed)
    feats = cloud.points
    for _ in range(layers):
        fan_in = 2 * feats.shape[1]
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(width, fan_in))
        b = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=width)
        center = feats[:, None, :]
        offset = feats[graph.neighbors] - center
        edges = np.concatenate([np.broadcast_to(center, offset.shape), offset], axis=2)
        h = np.maximum(edges @ w.T + b, 0.0)
        feats = h.max(axis=1) if aggregate == AGGREGATE_MAX else h.sum(axis=1)
    return DescriptorSet(feats, layers, seed, graph.metric_tag)


def eigen_features(cloud: PointCloud, graph: NeighborGraph) -> DescriptorSet:
    """Covariance-shape descriptor per point: (linearity, planarity,
    scattering, normal), with the normal oriented to the positive z-hemisphere.
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
    normal = vecs[:, :, 0]  # eigenvector of the smallest eigenvalue
    flip = (normal[:, 2] < 0) | (
        (normal[:, 2] == 0) & ((normal[:, 1] < 0) | ((normal[:, 1] == 0) & (normal[:, 0] < 0)))
    )
    normal = np.where(flip[:, None], -normal, normal)
    out[ok, 3:] = normal[ok]
    return DescriptorSet(out, 0, 0, graph.metric_tag)


def kmeans(
    features: DescriptorSet,
    n_clusters: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    return_history: bool = False,
):
    """Lloyd iterations from farthest-point seeding; returns per-point labels.

    With return_history=True also returns the per-iteration objective
    (sum of squared distances to the assigned centroid).
    """
    x = features.vectors
    n = len(x)
    if not 1 <= n_clusters <= n:
        raise InvalidArgumentError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(seed)
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    min_d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        centers[c] = x[int(np.argmax(min_d2))]
        min_d2 = np.minimum(min_d2, np.sum((x - centers[c]) ** 2, axis=1))
    labels = np.zeros(n, dtype=np.intp)
    history = []
    for _ in range(max_iters):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1).astype(np.intp)
        history.append(float(d2[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for c in range(n_clusters):
            mask = labels == c
            if mask.any():
                new_centers[c] = x[mask].mean(axis=0)
            else:
                # Re-seed an emptied cluster at the worst-assigned point.
                worst = int(np.argmax(d2[np.arange(n), labels]))
                new_centers[c] = x[worst]
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift < tol:
            break
    d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1).astype(np.intp)
    if return_history:
        return labels, history
    return labels
