"""Rigid-motion algebra, the closed-form SVD alignment solver, the coordinate
range of ranked clouds and how value types hold fields (`hold`, `hold_fields`,
`interval`).

All rotations are 3x3 proper orthogonal matrices; Euler angles use the
intrinsic Z*Y*X convention throughout (Rz @ Ry @ Rx), fixed so that
transform sampling and rotation-error reporting are reproducible.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError, RankDeficiencyError

_ORTHO_TOL = 1e-9
# Second singular value of the cross-covariance below this (relative to the
# largest) means the paired source points are essentially collinear.
_RANK_TOL = 1e-12

# Coordinate range of the clouds that `check_range` accepts. Squared
# distances and covariances of larger coordinates overflow float64, and those
# of a smaller nonzero extent fall below its normal range, where neither can
# be ranked or solved.
MAX_ABS_COORDINATE = 1e150
MIN_EXTENT = 1e-150
# Largest finite float64: a longdouble beyond it would be held as inf.
_FLOAT_MAX = np.finfo(np.float64).max


def hold(value, field: str, shape: tuple, dtype=np.float64, copy: bool = False) -> None:
    """Set `value.field` to a read-only `dtype` array of `shape`, where `None`
    matches any length: the one rule for the arrays that value types hold.

    Floats must be finite and an integer `dtype` takes integral values only;
    a failure raises InvalidArgumentError naming the field. The array handed
    in is frozen in place, or a copy of it is when it is a view, whose base
    stays writable, or when `copy` is set, as `PointCloud` sets it for the
    points that key every value kept on it.
    """
    arr = np.asarray(getattr(value, field))
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{field} must hold numbers, got dtype {arr.dtype}")
    if arr.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, arr.shape)):
        raise InvalidArgumentError(f"{field} must have shape {shape}, got {arr.shape}")
    if arr.dtype.kind == "f":
        check_finite(field, arr)
    if arr.dtype.kind == "f" and np.dtype(dtype).kind == "i" and np.any(arr % 1):
        raise InvalidArgumentError(f"{field} must hold integers")
    held = arr.astype(dtype, copy=copy or arr.base is not None)
    held.setflags(write=False)
    object.__setattr__(value, field, held)


def check_finite(name: str, arr: NDArray, max_abs: float = _FLOAT_MAX) -> None:
    """Reject an array holding NaN or inf, or a magnitude above `max_abs`,
    with InvalidArgumentError naming it.

    The one finiteness rule, of `hold`, of `check_range` and of
    `neighborhood.lift` and `nearest`, which pass the magnitude whose products
    stay finite: min and max are tested apart, not summed, since 1.7e308 +
    1.7e308 overflows, and a longdouble beyond float64 counts as inf.
    """
    if not arr.size:
        return
    lo, hi = arr.min(), arr.max()
    if not -max_abs <= lo <= hi <= max_abs:
        if not -_FLOAT_MAX <= lo <= hi <= _FLOAT_MAX:
            raise InvalidArgumentError(f"{name} must be finite")
        raise InvalidArgumentError(
            f"{name} has a magnitude of {float(max(-lo, hi)):.3g}, above the limit {max_abs:.3g}"
        )


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise InvalidArgumentError(f"boolean must be 1/true/yes or 0/false/no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# Config-field annotation (a string) -> admitted types, stored Python type, text parser.
FIELD_TYPES = {
    "str": (str, str, str),
    "int": (numbers.Integral, int, int),
    "float": (numbers.Real, float, float),
    "bool": ((bool, np.bool_), bool, _parse_bool),
}


def scalar(field: str, annotation: str, v):
    """`v` as its annotation's Python type, else InvalidArgumentError; a bool is never a number."""
    admits, stored, _ = FIELD_TYPES[annotation]
    if not isinstance(v, admits) or (isinstance(v, bool) and annotation != "bool"):
        raise InvalidArgumentError(f"{field} must be {annotation}, got {v!r}")
    try:
        return stored(v)
    except OverflowError:  # an int beyond the float range
        raise InvalidArgumentError(f"{field} must be {annotation} within the float range") from None


def interval(field: str, pair) -> tuple:
    """`pair` as finite `(lo, hi)` floats with lo <= hi: the one rule for a sampling interval."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise InvalidArgumentError(f"{field} must be two real numbers, got {pair!r}")
    lo, hi = (scalar(field, "float", v) for v in pair)
    if not -np.inf < lo <= hi < np.inf:
        raise InvalidArgumentError(f"{field} must be finite with lo <= hi, got {pair!r}")
    return lo, hi


def hold_fields(value) -> None:
    """The one rule for config types: each field `FIELD_TYPES` annotates holds its `scalar`."""
    for f in fields(value):
        if f.type in FIELD_TYPES:
            object.__setattr__(value, f.name, scalar(f.name, f.type, getattr(value, f.name)))


def text_parsers(cls) -> dict:
    """The text parser of each field of config type `cls` that `FIELD_TYPES` annotates."""
    return {f.name: FIELD_TYPES[f.type][2] for f in fields(cls) if f.type in FIELD_TYPES}


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered sequence of at least one 3D point, held in a copy of its own."""

    points: NDArray[np.float64]
    _kept: dict = field(default_factory=dict, init=False, repr=False)  # see `kept`

    def __post_init__(self):
        hold(self, "points", (None, 3), copy=True)
        if len(self.points) < 1:
            raise InvalidArgumentError("point cloud must contain at least one point")

    def __len__(self) -> int:
        return len(self.points)

    def kept(self, key, build):
        """The value kept on this cloud under `key`, built by `build()` on first
        use; the points are a private copy, so a kept value cannot go stale."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def kept_for(self, other, key, build):
        """The value kept on this cloud under `key` for the pair (this cloud,
        `other`), built by `build()` on first use; a call with another `other`
        replaces it. `register` keeps its start on the target: an identity
        start is the source itself, so kept on the source it would make a
        cycle that outlives the pair until the garbage collector runs."""
        kept = self._kept.get(key)
        if kept is None or kept[0] is not other:
            kept = self._kept[key] = (other, build())
        return kept[1]


def check_range(name: str, points, max_abs: float = MAX_ABS_COORDINATE) -> None:
    """Reject coordinates outside the range in which distances stay normal floats:
    NaN, inf and magnitudes above `max_abs` by `check_finite`'s rule, and a
    nonzero extent below `MIN_EXTENT`.

    Called where coordinates are first ranked or solved: `register`,
    `statistics.estimate_covariance` and `neighborhood.knn`, which also
    checks the whitened coordinates it ranks against a looser `max_abs`. It
    is not a `PointCloud` invariant, since motions applied along the way may
    place a cloud just past the limit. A cloud at a single position (extent
    0) passes: it is degenerate geometry, which the graph, covariance and
    solver steps classify.
    """
    check_finite(name, points, max_abs)
    extent = float(np.max(np.ptp(points, axis=0)))
    if 0.0 < extent < MIN_EXTENT:
        raise InvalidArgumentError(
            f"{name} has a bounding-box extent of {extent:.3g}, below the limit {MIN_EXTENT:g}"
        )


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """Element of SE(3): a proper rotation (orthogonal, determinant +1) plus a translation."""

    rotation: NDArray[np.float64]
    translation: NDArray[np.float64]

    def __post_init__(self):
        hold(self, "rotation", (3, 3))
        hold(self, "translation", (3,))
        if np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3))) > _ORTHO_TOL:
            raise InvalidArgumentError("rotation is not orthogonal")
        if abs(np.linalg.det(self.rotation) - 1.0) > _ORTHO_TOL:
            raise InvalidArgumentError("rotation determinant is not +1")


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Equal-length index arrays pairing source and target points; `kabsch` weighs pairs alike."""

    source_indices: NDArray[np.intp]
    target_indices: NDArray[np.intp]

    def __post_init__(self):
        hold(self, "source_indices", (None,), np.intp)
        hold(self, "target_indices", (None,), np.intp)
        if len(self.source_indices) != len(self.target_indices):
            raise InvalidArgumentError("index arrays differ in length")

    def __len__(self) -> int:
        return len(self.source_indices)


def identity_motion() -> RigidMotion:
    return RigidMotion(np.eye(3), np.zeros(3))


def _axis_rotation(axis: int, angle_rad: float) -> NDArray[np.float64]:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    m = np.eye(3)
    i, j = [(1, 2), (0, 2), (0, 1)][axis]
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s if axis != 1 else s
    m[j, i] = s if axis != 1 else -s
    return m


def make_rigid(euler_deg, translation) -> RigidMotion:
    """Build a motion from (alpha, beta, gamma) degrees as Rz(g) @ Ry(b) @ Rx(a)."""
    ang = np.asarray(euler_deg, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(ang)):
        raise InvalidArgumentError("non-finite Euler angles")
    a, b, g = np.deg2rad(ang)
    rot = _axis_rotation(2, g) @ _axis_rotation(1, b) @ _axis_rotation(0, a)
    return RigidMotion(rot, translation)


def euler_zyx_deg(rotation: NDArray[np.float64]) -> NDArray[np.float64]:
    """Extract (alpha, beta, gamma) in degrees from R = Rz(g) @ Ry(b) @ Rx(a)."""
    r = np.asarray(rotation, dtype=np.float64)
    beta = np.arcsin(np.clip(-r[2, 0], -1.0, 1.0))
    if abs(abs(r[2, 0]) - 1.0) < 1e-12:
        # Gimbal lock: only the sum/difference of alpha and gamma is defined.
        alpha = np.arctan2(-r[1, 2], r[1, 1])
        gamma = 0.0
    else:
        alpha = np.arctan2(r[2, 1], r[2, 2])
        gamma = np.arctan2(r[1, 0], r[0, 0])
    return np.rad2deg(np.array([alpha, beta, gamma]))


def sample_rigid(
    rng: np.random.Generator,
    rot_range_deg=(0.0, 45.0),
    trans_range=(-0.5, 0.5),
) -> RigidMotion:
    """Draw each Euler angle and translation component i.i.d. uniform."""
    euler = rng.uniform(*interval("rot_range_deg", rot_range_deg), size=3)
    trans = rng.uniform(*interval("trans_range", trans_range), size=3)
    return make_rigid(euler, trans)


def apply(motion: RigidMotion, cloud: PointCloud) -> PointCloud:
    """Map every point to R @ p + t, preserving order."""
    return PointCloud(cloud.points @ motion.rotation.T + motion.translation)


def compose(a: RigidMotion, b: RigidMotion) -> RigidMotion:
    """Motion acting as a after b: apply(compose(a, b), X) == apply(a, apply(b, X))."""
    return RigidMotion(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(m: RigidMotion) -> RigidMotion:
    rt = m.rotation.T
    return RigidMotion(rt, -rt @ m.translation)


def rotation_angle_rad(rotation: NDArray[np.float64]) -> float:
    """Geodesic angle of a rotation matrix in radians.

    Uses atan2 of the skew norm against the trace: well conditioned near the
    identity, where the arccos form bottoms out around 1e-8.
    """
    r = np.asarray(rotation, dtype=np.float64)
    skew = (r - r.T) / 2.0
    sin_theta = np.sqrt(skew[0, 1] ** 2 + skew[0, 2] ** 2 + skew[1, 2] ** 2)
    cos_theta = (float(np.trace(r)) - 1.0) / 2.0
    return float(np.arctan2(sin_theta, cos_theta))


def kabsch(source: PointCloud, target: PointCloud, corr: CorrespondenceSet) -> RigidMotion:
    """Closed-form least-squares motion mapping source onto target.

    Minimizes sum_s ||t_s - (R @ s_s + t)||^2 over SO(3) x R^3 via SVD of
    the cross-covariance of the centred pairs, with the determinant sign
    corrected so the result is always a proper rotation. Fewer than 3 pairs
    cannot fix a rotation, so they raise RankDeficiencyError like collinear
    pairs do.
    """
    si, ti = corr.source_indices, corr.target_indices
    n = len(corr)
    if n < 3:
        raise RankDeficiencyError(f"at least 3 correspondences are required, got {n}")
    if si.min() < 0 or si.max() >= len(source) or ti.min() < 0 or ti.max() >= len(target):
        raise InvalidArgumentError("correspondence indices out of range")
    src = source.points[si]
    tgt = target.points[ti]
    # Centroids summed as a product with ones, the order report bytes depend on.
    ones = np.ones(n)
    src_c = (ones @ src) / n
    tgt_c = (ones @ tgt) / n
    h = (src - src_c).T @ (tgt - tgt_c)  # maximizes tr(R @ h)
    u, sig, vt = np.linalg.svd(h)
    if sig[1] < _RANK_TOL * max(sig[0], np.finfo(float).tiny):
        raise RankDeficiencyError("source points are (nearly) collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    # Re-orthonormalize to keep the SO(3) invariants tight under roundoff.
    uu, _, vv = np.linalg.svd(rot)
    rot = uu @ np.diag([1.0, 1.0, np.sign(np.linalg.det(uu @ vv))]) @ vv
    trans = tgt_c - rot @ src_c
    return RigidMotion(rot, trans)
