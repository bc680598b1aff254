"""End-to-end registration pipelines.

Alternates correspondence estimation and the closed-form SVD solve: the
point-ICP baseline matches raw coordinates, the descriptor pipelines match
edge-conv or eigen features built on the configured neighbor graph. The
cumulative motion maps the original source onto the target frame.

What is computed from one cloud is kept on it by `PointCloud.kept`: the
graphs that `neighborhood.build_graph` builds under the configured metric, k
and k_base, and their eigen features. The target never moves, and every
metric's graph is invariant under rigid motion of the source, so each is
built once per cloud, not per registration: pipelines handed the same cloud
objects, as the harness does within a trial, share them, and `corrupt`
returns a side it leaves untouched as the input object, whose kept values
then serve every trial. Each iteration only turns the source's eigen normals
by the cumulative rotation and orients them again, since the eigenvalue
ratios are rotation-invariant. Edge-conv features of the moved source are
recomputed on each iteration, in the factored form relu(P_i + max_j Q_j):
two products of the (n, 3) points with a (3, 64) weight block and a running
max over the k neighbor columns.

Point-ICP's graphs serve only its start pose: a one-shot match of their
rotation-invariant eigen components (k >= 3), kept when it leaves a smaller
trimmed nearest-point residual than identity does. The first iteration
reuses the match that scored the chosen start. The start is the one value
kept for a pair rather than a cloud (`_start_pose`), so the pipelines of a
trial that differ only in `mutual`, `max_iters` or `convergence_tol`
compute it once. The mutual filter's backward pass ranks only the distinct
targets that a pair points at.

`register` rejects a source or target outside `geometry.check_range`'s
coordinate range before any work, with InvalidArgumentError naming the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet, edgeconv_features, eigen_features, pose_eigen_features
from .errors import InvalidArgumentError, MahaknnError, NoCorrespondenceError
from .geometry import (
    CorrespondenceSet,
    PointCloud,
    RigidMotion,
    apply,
    check_range,
    compose,
    identity_motion,
    kabsch,
    rotation_angle_rad,
)
from .neighborhood import METRIC_EUCLIDEAN, METRICS, build_graph, graph_key, nearest

DESCRIPTOR_EDGECONV = "edgeconv"
DESCRIPTOR_EIGEN = "eigen"
DESCRIPTOR_NONE = "none"  # point-ICP on raw coordinates

@dataclass(frozen=True)
class RegistrationConfig:
    # Edge-conv weights (seed 0, one layer of width 64) and the covariance
    # regularizer are fixed in edgeconv_features and build_graph: the
    # variable under study is the graph metric.
    metric: str = METRIC_EUCLIDEAN
    descriptor: str = DESCRIPTOR_NONE
    k: int = 20
    max_iters: int = 30
    convergence_tol: float = 1e-4
    trim_fraction: float = 0.3
    k_base: int = 20
    mutual: bool = False

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgumentError(f"unknown metric {self.metric!r}")
        if self.descriptor not in (DESCRIPTOR_EDGECONV, DESCRIPTOR_EIGEN, DESCRIPTOR_NONE):
            raise InvalidArgumentError(f"unknown descriptor {self.descriptor!r}")
        if not 0 <= self.trim_fraction < 1:
            raise InvalidArgumentError("trim_fraction must be in [0, 1)")
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be >= 1")
        if self.k < 1 or self.k_base < 1:
            raise InvalidArgumentError("k and k_base must be >= 1")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0):
            raise InvalidArgumentError("convergence_tol must be finite and >= 0")


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
    is dropped.
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


def _pair_residual(moved: PointCloud, target: PointCloud, corr: CorrespondenceSet) -> float:
    """Sum of squared distances between the paired points."""
    matched_src = moved.points[corr.source_indices]
    matched_tgt = target.points[corr.target_indices]
    return float(np.sum((matched_src - matched_tgt) ** 2))


def _coarse_alignment(
    source: PointCloud,
    target: PointCloud,
    source_eigen: DescriptorSet,
    target_eigen: DescriptorSet,
    trim_fraction: float,
) -> tuple[RigidMotion, PointCloud, CorrespondenceSet]:
    """Point-ICP start pose: a one-shot alignment from the rotation-invariant
    eigen components, kept only if it starts with a strictly smaller trimmed
    nearest-point residual than identity.

    Returns identity otherwise, and when the match is too degenerate to solve.
    Also returns the source placed at the start pose and the nearest-point
    match that scored it, which the first iteration reuses.
    """
    target_points = DescriptorSet(target.points)
    identity_corr = match_descriptors(DescriptorSet(source.points), target_points, trim_fraction)
    try:
        corr = match_descriptors(
            DescriptorSet(source_eigen.vectors[:, :3]),
            DescriptorSet(target_eigen.vectors[:, :3]),
            trim_fraction,
        )
        coarse = kabsch(source, target, corr)
        moved = apply(coarse, source)
        coarse_corr = match_descriptors(DescriptorSet(moved.points), target_points, trim_fraction)
        if _pair_residual(moved, target, coarse_corr) < _pair_residual(
            source, target, identity_corr
        ):
            return coarse, moved, coarse_corr
    except (MahaknnError, np.linalg.LinAlgError):
        pass
    return identity_motion(), source, identity_corr


def _eigen(cloud: PointCloud, cfg: RegistrationConfig) -> DescriptorSet:
    """Eigen features of a cloud on cfg's graph, kept on the cloud under the graph's key."""
    return cloud.kept(
        ("eigen", graph_key(cfg.metric, cfg.k, cfg.k_base)),
        lambda: eigen_features(cloud, build_graph(cloud, cfg.metric, cfg.k, k_base=cfg.k_base)),
    )


def _start_pose(source: PointCloud, target: PointCloud, cfg: RegistrationConfig):
    """Point-ICP's start from `_coarse_alignment`, computed once per pair.

    The one value not kept by `PointCloud.kept`, since it belongs to a pair:
    it is kept on the target with the source object it was computed for,
    keyed by cfg's graph key and trim_fraction, the only fields it reads.
    One start is kept per key, and a call with another source replaces it.
    The target holds it because an identity start places the source itself:
    kept on the source, it would make the source refer to itself, a cycle
    that outlives the last reference to the pair until the garbage
    collector runs.
    """
    key = ("start", graph_key(cfg.metric, cfg.k, cfg.k_base), cfg.trim_fraction)
    kept = target._kept.get(key)
    if kept is None or kept[0] is not source:
        start = _coarse_alignment(
            source, target, _eigen(source, cfg), _eigen(target, cfg), cfg.trim_fraction
        )
        kept = target._kept[key] = (source, start)
    return kept[1]


def _setup(source: PointCloud, target: PointCloud, cfg: RegistrationConfig):
    """The target features, a function giving the source features at a pose
    (moved cloud, cumulative rotation) and the start (motion, source placed
    there, the match that scored it or None), picked once per pipeline. The
    loop holds only these; graphs, eigen features and start poses stay kept
    on the clouds."""
    start = (identity_motion(), source, None)
    if cfg.descriptor == DESCRIPTOR_EDGECONV:
        src_graph = build_graph(source, cfg.metric, cfg.k, k_base=cfg.k_base)
        tgt_graph = build_graph(target, cfg.metric, cfg.k, k_base=cfg.k_base)
        tgt_desc = edgeconv_features(target, tgt_graph)
        return tgt_desc, lambda moved, rotation: edgeconv_features(moved, src_graph), start
    if cfg.descriptor == DESCRIPTOR_EIGEN:
        tgt_desc = _eigen(target, cfg)
        src_eigen = _eigen(source, cfg)
        return tgt_desc, lambda moved, rotation: pose_eigen_features(src_eigen, rotation), start
    if cfg.k >= 3:
        start = _start_pose(source, target, cfg)
    return DescriptorSet(target.points), lambda moved, rotation: DescriptorSet(moved.points), start


def register(
    source: PointCloud, target: PointCloud, cfg: RegistrationConfig
) -> RegistrationResult:
    """Alternating match-then-solve registration of source onto target."""
    if len(source) < cfg.k + 1 or len(target) < cfg.k + 1:
        raise InvalidArgumentError("clouds must contain at least k + 1 points")
    for name, cloud in (("source", source), ("target", target)):
        check_range(name, cloud.points)
    tgt_desc, describe, (cumulative, current, start_corr) = _setup(source, target, cfg)
    residuals: list[float] = []
    corr = None
    for _ in range(cfg.max_iters):
        src_desc = describe(current, cumulative.rotation)
        if start_corr is None:
            corr = match_descriptors(src_desc, tgt_desc, cfg.trim_fraction)
        else:
            corr, start_corr = start_corr, None
        if cfg.mutual:
            corr = _mutual_filter(src_desc, tgt_desc, corr)
        residuals.append(_pair_residual(current, target, corr))
        delta = kabsch(current, target, corr)
        cumulative = compose(delta, cumulative)
        current = apply(delta, current)
        if rotation_angle_rad(delta.rotation) < cfg.convergence_tol:
            break
    assert corr is not None
    return RegistrationResult(cumulative, len(residuals), tuple(residuals), corr)


def _mutual_filter(
    src_desc: DescriptorSet, tgt_desc: DescriptorSet, corr: CorrespondenceSet
) -> CorrespondenceSet:
    """Keep only pairs where the target's nearest source is the pairing source.

    Only the distinct paired targets are ranked. `nearest` ranks a query the
    same whichever other queries share its call (see the `neighborhood`
    module docstring for where this is bitwise), so this equals ranking
    every target.
    """
    paired, where = np.unique(corr.target_indices, return_inverse=True)
    back, _ = nearest(tgt_desc.vectors[paired], src_desc.vectors)
    keep = back[where] == corr.source_indices
    if not keep.any():
        raise NoCorrespondenceError("mutual filtering removed every correspondence")
    return CorrespondenceSet(corr.source_indices[keep], corr.target_indices[keep])
