"""Error metrics: rotation/translation RMSE, Chamfer and Hausdorff distances.

Rotation error is reported both as per-axis Euler RMSE (convention-dependent)
and as the geodesic angle between the two rotations (convention-free).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, RigidMotion, euler_zyx_deg, rotation_angle_rad
from .neighborhood import lift, nearest


@dataclass(frozen=True)
class PoseError:
    rmse_r_deg: float
    rmse_t: float
    geodesic_r_deg: float


@dataclass(frozen=True)
class SetDistance:
    chamfer: float
    hausdorff: float


def _wrap_deg(angles):
    """Wrap angle differences to (-180, 180]."""
    return -((-np.asarray(angles) + 180.0) % 360.0 - 180.0)


def pose_error(predicted: RigidMotion, truth: RigidMotion) -> PoseError:
    diff_euler = _wrap_deg(euler_zyx_deg(predicted.rotation) - euler_zyx_deg(truth.rotation))
    rmse_r = float(np.sqrt(np.mean(diff_euler**2)))
    rmse_t = float(np.sqrt(np.mean((predicted.translation - truth.translation) ** 2)))
    geo = np.rad2deg(rotation_angle_rad(predicted.rotation.T @ truth.rotation))
    return PoseError(rmse_r, rmse_t, float(geo))


def _min_sq_dist(x, y):
    """Per-row min squared distance from x to y, clipped at zero."""
    return np.clip(nearest(x, lift(y))[1], 0.0, None)


def set_distance(x: PointCloud, y: PointCloud) -> SetDistance:
    """Squared-distance Chamfer plus symmetric Hausdorff."""
    xp, yp = x.points, y.points
    x_to_y = _min_sq_dist(xp, yp)
    y_to_x = _min_sq_dist(yp, xp)
    chamfer = float(x_to_y.mean() + y_to_x.mean())
    hausdorff = float(np.sqrt(max(x_to_y.max(), y_to_x.max())))
    return SetDistance(chamfer, hausdorff)
