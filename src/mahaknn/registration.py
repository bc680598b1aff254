"""End-to-end registration pipelines.

Alternates correspondence estimation and the closed-form SVD solve: the
point-ICP baseline matches raw coordinates, the descriptor pipelines match
edge-conv or eigen features built on the configured neighbor graph. The
cumulative motion maps the original source onto the target frame.

What is computed from one cloud is kept on it by `PointCloud.kept`: the
graphs that `neighborhood.build_graph` builds under the configured metric, k
and k_base, and the features on them. The target never moves, and every
metric's graph is invariant under rigid motion of the source, so each is
built once per cloud, not per registration: pipelines handed the same cloud
objects, as the harness does within a trial, share them, and `corrupt`
returns a side it leaves untouched as the input object, whose kept values
then serve every trial. Each iteration only turns the source's eigen normals
by the cumulative rotation and orients them again, since the eigenvalue
ratios are rotation-invariant, and recomputes the moved source's edge-conv
features. Matching ranks plain feature arrays against the target's features
as `neighborhood.lift` lifts them. Every pipeline keeps its target features
and their lift on the target under one key rule, (descriptor, graph key);
point-ICP's features are the points, so its start pose shares their lift.

`register` places the source at its start (`_start`), then alternates match
and solve. Every pipeline starts from identity but point-ICP, whose graphs
serve only its start pose: a one-shot match of their rotation-invariant
eigen components (k >= 3), kept when it leaves a smaller trimmed
nearest-point residual than identity does. The first iteration reuses the
match that scored the start. The start belongs to a pair, not a cloud, so it
is kept on the target for its source by `PointCloud.kept_for`, and the
pipelines of a trial that differ only in `mutual`, `max_iters` or
`convergence_tol` compute it once. The mutual filter's backward pass ranks
only the distinct targets that a pair points at, against the moving source
lifted per call.

`register` rejects a source or target outside `geometry.check_range`'s range
before any work. A Kabsch step keeps the moved source within the looser
limit of `edgeconv_features`, and every feature array within `nearest`'s; a
later numpy `LinAlgError` is raised as `LinearAlgebraError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .descriptors import edgeconv_features, eigen_features, pose_eigen_features
from .errors import InvalidArgumentError, LinearAlgebraError, MahaknnError, NoCorrespondenceError
from .geometry import (
    CorrespondenceSet,
    PointCloud,
    RigidMotion,
    apply,
    check_range,
    compose,
    hold_fields,
    identity_motion,
    kabsch,
    rotation_angle_rad,
)
from .neighborhood import METRIC_EUCLIDEAN, METRICS, build_graph, graph_key, lift, nearest

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
        hold_fields(self)
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
    source_desc: NDArray[np.float64],
    target_desc: NDArray[np.float64],
    trim_fraction: float,
) -> CorrespondenceSet:
    """Nearest-target assignment in feature space with hard trimming.

    Each source row pairs with its nearest target row, the target lifted by
    `lift`. Ties go where `nearest` sends them: to the lower index among
    equal computed distances, while bitwise-duplicate target rows can round
    apart, so a higher copy can win. The trim_fraction of pairs with the
    largest feature distance is dropped.
    """
    if not 0 <= trim_fraction < 1:
        raise InvalidArgumentError("trim_fraction must be in [0, 1)")
    nearest_tgt, dist = nearest(source_desc, target_desc)
    n_drop = int(np.floor(trim_fraction * len(source_desc)))
    keep = np.sort(np.argsort(dist, kind="stable")[: len(source_desc) - n_drop])
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
    lifted_target: NDArray[np.float64],
    cfg: RegistrationConfig,
) -> tuple[RigidMotion, PointCloud, CorrespondenceSet]:
    """Point-ICP start pose: a one-shot alignment from the rotation-invariant
    eigen components, kept only if it starts with a strictly smaller trimmed
    nearest-point residual than identity.

    Returns identity otherwise, and when the match is too degenerate to solve.
    Also returns the source placed at the start pose and the nearest-point
    match that scored it, which the first iteration reuses. `lifted_target`
    is the target's points lifted by `lift`.
    """
    # Outside the try, so that a graph cfg cannot build raises.
    source_eigen, target_eigen = (_features(c, DESCRIPTOR_EIGEN, cfg) for c in (source, target))
    identity_corr = match_descriptors(source.points, lifted_target, cfg.trim_fraction)
    try:
        corr = match_descriptors(source_eigen[:, :3], lift(target_eigen[:, :3]), cfg.trim_fraction)
        coarse = kabsch(source, target, corr)
        moved = apply(coarse, source)
        coarse_corr = match_descriptors(moved.points, lifted_target, cfg.trim_fraction)
        if _pair_residual(moved, target, coarse_corr) < _pair_residual(
            source, target, identity_corr
        ):
            return coarse, moved, coarse_corr
    except (MahaknnError, np.linalg.LinAlgError):
        pass
    return identity_motion(), source, identity_corr


def _features(cloud: PointCloud, descriptor: str, cfg: RegistrationConfig) -> NDArray[np.float64]:
    """A cloud's `descriptor` features on cfg's graph, kept on the cloud under
    (descriptor, graph key). Point-ICP's features are the cloud's points."""
    if descriptor == DESCRIPTOR_NONE:
        return cloud.points
    key = (descriptor, graph_key(cfg.metric, cfg.k, cfg.k_base))
    kernel = eigen_features if descriptor == DESCRIPTOR_EIGEN else edgeconv_features
    return cloud.kept(key, lambda: kernel(cloud, build_graph(cloud, cfg.metric, cfg.k, cfg.k_base)))


def _start(source: PointCloud, target: PointCloud, lifted, cfg: RegistrationConfig):
    """Every pipeline's start: (motion, the source placed there, the match
    that scored it or None). Point-ICP with k >= 3 starts from
    `_coarse_alignment`, kept on the target for this source under cfg's graph
    key and trim_fraction, the only fields it reads; every other pipeline
    starts from identity."""
    if cfg.descriptor != DESCRIPTOR_NONE or cfg.k < 3:
        return identity_motion(), source, None
    key = ("start", graph_key(cfg.metric, cfg.k, cfg.k_base), cfg.trim_fraction)
    return target.kept_for(source, key, lambda: _coarse_alignment(source, target, lifted, cfg))


def _setup(source: PointCloud, target: PointCloud, cfg: RegistrationConfig):
    """The target features and the same lifted by `lift`, both kept on the
    target, and a function giving the source features at a pose (moved
    cloud, cumulative rotation)."""
    tgt = _features(target, cfg.descriptor, cfg)
    key = ("lifted", cfg.descriptor, graph_key(cfg.metric, cfg.k, cfg.k_base))
    lifted = target.kept(key, lambda: lift(tgt))
    if cfg.descriptor == DESCRIPTOR_EDGECONV:
        src_graph = build_graph(source, cfg.metric, cfg.k, k_base=cfg.k_base)
        return tgt, lifted, lambda moved, rotation: edgeconv_features(moved, src_graph)
    if cfg.descriptor == DESCRIPTOR_EIGEN:
        src_eigen = _features(source, DESCRIPTOR_EIGEN, cfg)
        return tgt, lifted, lambda moved, rotation: pose_eigen_features(src_eigen, rotation)
    return tgt, lifted, lambda moved, rotation: moved.points


def register(
    source: PointCloud, target: PointCloud, cfg: RegistrationConfig
) -> RegistrationResult:
    """Alternating match-then-solve registration of source onto target."""
    if len(source) < cfg.k + 1 or len(target) < cfg.k + 1:
        raise InvalidArgumentError("clouds must contain at least k + 1 points")
    for name, cloud in (("source", source), ("target", target)):
        check_range(name, cloud.points)
    try:
        tgt, lifted_tgt, describe = _setup(source, target, cfg)
        cumulative, current, first = _start(source, target, lifted_tgt, cfg)
        residuals: list[float] = []
        for _ in range(cfg.max_iters):
            src = describe(current, cumulative.rotation)
            corr = match_descriptors(src, lifted_tgt, cfg.trim_fraction) if first is None else first
            first = None
            if cfg.mutual:
                corr = _mutual_filter(src, tgt, corr)
            residuals.append(_pair_residual(current, target, corr))
            delta = kabsch(current, target, corr)
            cumulative = compose(delta, cumulative)
            current = apply(delta, current)
            if rotation_angle_rad(delta.rotation) < cfg.convergence_tol:
                break
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"registration failed: {exc}") from exc
    return RegistrationResult(cumulative, len(residuals), tuple(residuals), corr)


def _mutual_filter(
    src: NDArray[np.float64], tgt: NDArray[np.float64], corr: CorrespondenceSet
) -> CorrespondenceSet:
    """Keep only pairs where the target's nearest source is the pairing source.

    Only the distinct paired targets are ranked, against the source lifted
    on each call, since it moves. `nearest` ranks a query the same whichever
    other queries share its call (see the `neighborhood` module docstring
    for where this is bitwise), so this equals ranking every target.
    """
    paired, where = np.unique(corr.target_indices, return_inverse=True)
    back, _ = nearest(tgt[paired], lift(src))
    keep = back[where] == corr.source_indices
    if not keep.any():
        raise NoCorrespondenceError("mutual filtering removed every correspondence")
    return CorrespondenceSet(corr.source_indices[keep], corr.target_indices[keep])
