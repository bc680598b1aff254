"""End-to-end registration pipelines.

Alternates correspondence estimation and the closed-form SVD solve: the
point-ICP baseline matches raw coordinates, the descriptor pipelines match
edge-conv or eigen features built on the configured neighbor graph. The
cumulative motion maps the original source onto the target frame.

Graphs are built once per cloud per registration: the target never moves,
and every metric's graph is invariant under rigid motion of the source. Only
the moved source's descriptors, which depend on its pose, are recomputed on
each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet, edgeconv_features, eigen_features
from .errors import InvalidArgumentError, MahaknnError, NoCorrespondenceError
from .geometry import (
    CorrespondenceSet,
    PointCloud,
    RigidMotion,
    apply,
    compose,
    identity_motion,
    kabsch,
    rotation_angle_rad,
)
from .neighborhood import (
    METRIC_EUCLIDEAN,
    METRICS,
    NeighborGraph,
    build_graph,
    nearest,
)
from .statistics import DEFAULT_REGULARIZER

DESCRIPTOR_EDGECONV = "edgeconv"
DESCRIPTOR_EIGEN = "eigen"
DESCRIPTOR_NONE = "none"  # point-ICP on raw coordinates


@dataclass(frozen=True)
class RegistrationConfig:
    metric: str = METRIC_EUCLIDEAN
    descriptor: str = DESCRIPTOR_NONE
    k: int = 20
    max_iters: int = 30
    convergence_tol: float = 1e-4
    trim_fraction: float = 0.3
    seed: int = 0
    k_base: int = 20
    edgeconv_layers: int = 1
    edgeconv_width: int = 64
    regularizer: float = DEFAULT_REGULARIZER
    mutual: bool = False
    # Point-ICP only: seed the iteration with a one-shot match of
    # rotation-invariant eigen components instead of starting at identity.
    coarse_init: bool = True

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgumentError(f"unknown metric {self.metric!r}")
        if self.descriptor not in (DESCRIPTOR_EDGECONV, DESCRIPTOR_EIGEN, DESCRIPTOR_NONE):
            raise InvalidArgumentError(f"unknown descriptor {self.descriptor!r}")
        if not 0 <= self.trim_fraction < 1:
            raise InvalidArgumentError("trim_fraction must be in [0, 1)")
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be >= 1")


@dataclass(frozen=True)
class RegistrationResult:
    motion: RigidMotion
    iterations: int
    per_iteration_residuals: tuple
    correspondences_final: CorrespondenceSet


def match_descriptors(
    source_desc: DescriptorSet,
    target_desc: DescriptorSet,
    trim_fraction: float,
) -> CorrespondenceSet:
    """Nearest-target assignment in feature space with hard trimming.

    Each source point pairs with its closest target descriptor (ties to the
    lower index); the trim_fraction of pairs with the largest feature distance
    is dropped, weights are 1.
    """
    src = source_desc.vectors
    tgt = target_desc.vectors
    if src.shape[1] != tgt.shape[1]:
        raise InvalidArgumentError("descriptor dimensions differ")
    if not 0 <= trim_fraction < 1:
        raise InvalidArgumentError("trim_fraction must be in [0, 1)")
    nearest_tgt, dist = nearest(src, tgt)
    n_drop = int(np.floor(trim_fraction * len(src)))
    keep = np.sort(np.argsort(dist, kind="stable")[: len(src) - n_drop])
    if len(keep) == 0:
        raise NoCorrespondenceError("trimming removed every correspondence")
    return CorrespondenceSet(keep, nearest_tgt[keep])


def _build_graph(cloud: PointCloud, cfg: RegistrationConfig) -> NeighborGraph:
    return build_graph(cloud, cfg.metric, cfg.k, k_base=cfg.k_base, regularizer=cfg.regularizer)


def _build_descriptors(
    cloud: PointCloud, graph: NeighborGraph, cfg: RegistrationConfig
) -> DescriptorSet:
    if cfg.descriptor == DESCRIPTOR_EDGECONV:
        return edgeconv_features(
            cloud, graph, cfg.edgeconv_layers, cfg.edgeconv_width, cfg.seed
        )
    return eigen_features(cloud, graph)


def _coordinate_descriptors(cloud: PointCloud) -> DescriptorSet:
    return DescriptorSet(cloud.points)


def _coarse_alignment(
    source: PointCloud, target: PointCloud, cfg: RegistrationConfig
) -> RigidMotion:
    """One-shot alignment from the rotation-invariant eigen components.

    Falls back to identity when the match is too degenerate to solve.
    """
    try:
        fs = eigen_features(source, build_graph(source, METRIC_EUCLIDEAN, cfg.k)).vectors[:, :3]
        ft = eigen_features(target, build_graph(target, METRIC_EUCLIDEAN, cfg.k)).vectors[:, :3]
        corr = match_descriptors(DescriptorSet(fs), DescriptorSet(ft), cfg.trim_fraction)
        return kabsch(source, target, corr)
    except (MahaknnError, np.linalg.LinAlgError):
        return identity_motion()


def register(
    source: PointCloud, target: PointCloud, cfg: RegistrationConfig
) -> RegistrationResult:
    """Alternating match-then-solve registration of source onto target."""
    if len(source) < cfg.k + 1 or len(target) < cfg.k + 1:
        raise InvalidArgumentError("clouds must contain at least k + 1 points")
    cumulative = identity_motion()
    current = source
    src_graph = None
    if cfg.descriptor == DESCRIPTOR_NONE:
        if cfg.coarse_init and cfg.k >= 3:
            cumulative = _coarse_alignment(source, target, cfg)
            current = apply(cumulative, source)
        tgt_desc = _coordinate_descriptors(target)
    else:
        # The target never moves and the source graph is invariant under the
        # rigid motions applied below, so each graph is built exactly once.
        src_graph = _build_graph(source, cfg)
        tgt_desc = _build_descriptors(target, _build_graph(target, cfg), cfg)
    residuals: list[float] = []
    corr = None
    iterations = 0
    for _ in range(cfg.max_iters):
        if src_graph is None:
            src_desc = _coordinate_descriptors(current)
        else:
            src_desc = _build_descriptors(current, src_graph, cfg)
        corr = match_descriptors(src_desc, tgt_desc, cfg.trim_fraction)
        if cfg.mutual:
            corr = _mutual_filter(src_desc, tgt_desc, corr)
        matched_src = current.points[corr.source_indices]
        matched_tgt = target.points[corr.target_indices]
        residuals.append(float(np.sum((matched_src - matched_tgt) ** 2)))
        delta = kabsch(current, target, corr)
        cumulative = compose(delta, cumulative)
        current = apply(delta, current)
        iterations += 1
        if rotation_angle_rad(delta.rotation) < cfg.convergence_tol:
            break
    assert corr is not None
    return RegistrationResult(cumulative, iterations, tuple(residuals), corr)


def _mutual_filter(
    src_desc: DescriptorSet, tgt_desc: DescriptorSet, corr: CorrespondenceSet
) -> CorrespondenceSet:
    """Keep only pairs where the target's nearest source is the pairing source."""
    back, _ = nearest(tgt_desc.vectors, src_desc.vectors)
    keep = back[corr.target_indices] == corr.source_indices
    if not keep.any():
        raise NoCorrespondenceError("mutual filtering removed every correspondence")
    return CorrespondenceSet(corr.source_indices[keep], corr.target_indices[keep])
