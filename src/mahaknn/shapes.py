"""Seeded synthetic point-cloud generators used by tests, CLI, and harness."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .geometry import PointCloud


def plane(n: int, seed: int, extent: float = 1.0) -> PointCloud:
    """Uniform sample of the z = 0 square [-extent, extent]^2."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-extent, extent, size=(n, 2))
    pts = np.column_stack([xy, np.zeros(n)])
    return PointCloud(pts, "plane")


def sphere(n: int, seed: int, radius: float = 1.0) -> PointCloud:
    """Uniform sample of the sphere surface."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return PointCloud(radius * v, "sphere")


def sphere_cap(n: int, seed: int, radius: float = 1.0, cos_min: float = 0.5) -> PointCloud:
    """Uniform sample of the spherical cap z/r >= cos_min."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(cos_min, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r_xy = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    pts = radius * np.column_stack([r_xy * np.cos(phi), r_xy * np.sin(phi), z])
    return PointCloud(pts, "sphere-cap")


def torus(n: int, seed: int, major: float = 1.0, minor: float = 0.3) -> PointCloud:
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    x = (major + minor * np.cos(v)) * np.cos(u)
    y = (major + minor * np.cos(v)) * np.sin(u)
    z = minor * np.sin(v)
    return PointCloud(np.column_stack([x, y, z]), "torus")


def box(n: int, seed: int, extent: float = 1.0) -> PointCloud:
    """Uniform sample of the surface of the cube [-extent, extent]^3."""
    rng = np.random.default_rng(seed)
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-extent, extent, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, extent, -extent)
    for a in range(3):
        mask = axis == a
        others = [i for i in range(3) if i != a]
        pts[mask, a] = sign[mask]
        pts[np.ix_(mask, others)] = uv[mask]
    return PointCloud(pts, "box")


def two_planes(
    n_per_plane: int, seed: int, gap: float = 0.1, extent: float = 1.0
) -> PointCloud:
    """Two parallel planes z = 0 and z = gap; first half lies on z = 0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-extent, extent, size=(n_per_plane, 2))
    b = rng.uniform(-extent, extent, size=(n_per_plane, 2))
    pts = np.vstack(
        [
            np.column_stack([a, np.zeros(n_per_plane)]),
            np.column_stack([b, np.full(n_per_plane, gap)]),
        ]
    )
    return PointCloud(pts, "two-planes")


def c_ring(n: int, seed: int, radius: float = 1.0, gap_deg: float = 40.0) -> PointCloud:
    """Open ring in the z = 0 plane with an angular gap centered at angle 0."""
    rng = np.random.default_rng(seed)
    half = np.deg2rad(gap_deg) / 2.0
    theta = rng.uniform(half, 2.0 * np.pi - half, size=n)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    return PointCloud(pts, "c-ring")


# Every shape name `generate` accepts, with its generator(n, seed).
SHAPES = {
    "plane": plane,
    "sphere": sphere,
    "sphere-cap": sphere_cap,
    "torus": torus,
    "box": box,
    "two-planes": lambda n, seed: two_planes(n // 2, seed),
    "c-ring": c_ring,
}


def generate(shape: str, n: int, seed: int) -> PointCloud:
    """Dispatch by shape name; two-planes interprets n as the total count."""
    if shape not in SHAPES:
        raise InvalidArgumentError(f"unknown shape {shape!r}")
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    return SHAPES[shape](n, seed)
