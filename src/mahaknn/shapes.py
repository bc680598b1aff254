"""Seeded synthetic point-cloud generators used by tests, CLI, and harness."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .geometry import PointCloud


def plane(n: int, seed: int) -> PointCloud:
    """Uniform sample of the z = 0 square [-1, 1]^2."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, size=(n, 2))
    return PointCloud(np.column_stack([xy, np.zeros(n)]))


def sphere(n: int, seed: int) -> PointCloud:
    """Uniform sample of the unit sphere surface."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return PointCloud(v)


def sphere_cap(n: int, seed: int) -> PointCloud:
    """Uniform sample of the unit sphere's cap z >= 0.5."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.5, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r_xy = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    return PointCloud(np.column_stack([r_xy * np.cos(phi), r_xy * np.sin(phi), z]))


def torus(n: int, seed: int) -> PointCloud:
    """Uniform-angle sample of the torus with major radius 1 and minor radius 0.3."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    x = (1.0 + 0.3 * np.cos(v)) * np.cos(u)
    y = (1.0 + 0.3 * np.cos(v)) * np.sin(u)
    z = 0.3 * np.sin(v)
    return PointCloud(np.column_stack([x, y, z]))


def box(n: int, seed: int) -> PointCloud:
    """Uniform sample of the surface of the cube [-1, 1]^3."""
    rng = np.random.default_rng(seed)
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        mask = axis == a
        others = [i for i in range(3) if i != a]
        pts[mask, a] = sign[mask]
        pts[np.ix_(mask, others)] = uv[mask]
    return PointCloud(pts)


def two_planes(n_per_plane: int, seed: int, gap: float = 0.1) -> PointCloud:
    """Two parallel [-1, 1]^2 squares at z = 0 and z = gap; first half lies on z = 0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n_per_plane, 2))
    b = rng.uniform(-1.0, 1.0, size=(n_per_plane, 2))
    pts = np.vstack(
        [
            np.column_stack([a, np.zeros(n_per_plane)]),
            np.column_stack([b, np.full(n_per_plane, gap)]),
        ]
    )
    return PointCloud(pts)


def c_ring(n: int, seed: int) -> PointCloud:
    """Unit ring in the z = 0 plane with a 40-degree gap centered at angle 0."""
    rng = np.random.default_rng(seed)
    half = np.deg2rad(40.0) / 2.0
    theta = rng.uniform(half, 2.0 * np.pi - half, size=n)
    return PointCloud(np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)]))


def _two_planes_total(n: int, seed: int) -> PointCloud:
    """two_planes with n the total count, split evenly between the planes."""
    if n < 2 or n % 2:
        raise InvalidArgumentError(f"two-planes needs an even n >= 2, got {n}")
    return two_planes(n // 2, seed)


# Every shape name `generate` accepts, with its generator(n, seed).
SHAPES = {
    "plane": plane,
    "sphere": sphere,
    "sphere-cap": sphere_cap,
    "torus": torus,
    "box": box,
    "two-planes": _two_planes_total,
    "c-ring": c_ring,
}


def generate(shape: str, n: int, seed: int) -> PointCloud:
    """Dispatch by shape name; two-planes takes n as the total count, which must be even."""
    if shape not in SHAPES:
        raise InvalidArgumentError(f"unknown shape {shape!r}")
    if n < 1:
        raise InvalidArgumentError(f"{shape} needs n >= 1, got {n}")
    return SHAPES[shape](n, seed)
