"""Noise and density perturbations for building benchmark pairs.

Variants: gaussian (clipped additive noise), bernoulli (random point drop),
sampling (disjoint random subsets of a corresponding pair), zero_intersection
(a half/half split with no shared indices), subsample (fixed-count random
subset), none.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError
from .geometry import PointCloud

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
SAMPLING = "sampling"
ZERO_INTERSECTION = "zero_intersection"
SUBSAMPLE = "subsample"
NONE = "none"

# The parameters each variant reads, in text-form order; parse rejects any other.
_VARIANT_PARAMS = {
    GAUSSIAN: ("sigma", "clip", "applied_to"),
    BERNOULLI: ("keep_prob", "applied_to"),
    SAMPLING: ("ratio",),
    ZERO_INTERSECTION: (),
    SUBSAMPLE: ("count", "applied_to"),
    NONE: (),
}
_TARGETS = ("source", "target", "both")


@dataclass(frozen=True)
class NoiseSpec:
    variant: str = NONE
    sigma: float = 0.01
    clip: float = 0.05
    keep_prob: float = 0.7
    ratio: float = 0.5
    count: int = 1
    applied_to: str = "both"

    def __post_init__(self):
        if self.variant not in _VARIANT_PARAMS:
            raise InvalidArgumentError(f"unknown noise variant {self.variant!r}")
        if self.applied_to not in _TARGETS:
            raise InvalidArgumentError(f"applied_to must be one of {_TARGETS}")
        if not 0 < self.sigma < np.inf or not self.clip >= 0:  # NaN fails both
            raise InvalidArgumentError("require 0 < sigma < inf and clip >= 0")
        if not 0 < self.keep_prob <= 1:
            raise InvalidArgumentError("keep_prob must be in (0, 1]")
        if not 0 < self.ratio <= 1:
            raise InvalidArgumentError("ratio must be in (0, 1]")
        if self.count < 1:
            raise InvalidArgumentError("count must be >= 1")

    def serialize(self) -> str:
        """Compact text form, e.g. gaussian:sigma=0.01,clip=0.05; applied_to only when not both."""
        params = [
            (key, getattr(self, key))
            for key in _VARIANT_PARAMS[self.variant]
            if not (key == "applied_to" and self.applied_to == "both")
        ]
        if not params:
            return self.variant
        return self.variant + ":" + ",".join(f"{k}={v}" for k, v in params)

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        variant, _, rest = text.strip().partition(":")
        variant = variant.strip()
        if variant not in _VARIANT_PARAMS:
            raise InvalidArgumentError(f"unknown noise variant {variant!r}")
        kwargs = {}
        for item in rest.split(","):
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise InvalidArgumentError(f"malformed noise parameter {item!r}")
            key = key.strip()
            value = value.strip()
            if key not in _VARIANT_PARAMS[variant]:
                raise InvalidArgumentError(f"noise variant {variant!r} has no parameter {key!r}")
            try:
                kwargs[key] = _PARAM_PARSERS[key](value)
            except ValueError:
                raise InvalidArgumentError(f"bad noise parameter {key}={value!r}") from None
        return cls(variant=variant, **kwargs)


# Text parser of every NoiseSpec parameter (annotations are strings here).
_PARAM_PARSERS = {
    f.name: {"float": float, "int": int, "str": str}[f.type]
    for f in fields(NoiseSpec)
    if f.name != "variant"
}


def _add_gaussian(pts, spec: NoiseSpec, rng: np.random.Generator):
    noise = np.clip(rng.normal(0.0, spec.sigma, size=pts.shape), -spec.clip, spec.clip)
    return pts + noise


def _bernoulli_mask(n: int, keep_prob: float, rng: np.random.Generator):
    while True:
        mask = rng.random(n) < keep_prob
        if mask.any():
            return mask


def corrupt(
    source: PointCloud,
    target: PointCloud,
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> tuple[PointCloud, PointCloud]:
    """Apply spec to the pair; deterministic for a fixed generator state.

    Source-side draws always precede target-side draws so applied_to does not
    change the meaning of a seed for unrelated clouds.
    """
    s_pts, t_pts = source.points, target.points
    v = spec.variant
    on_source = spec.applied_to in ("source", "both")
    on_target = spec.applied_to in ("target", "both")

    if v == NONE:
        pass
    elif v == GAUSSIAN:
        if on_source:
            s_pts = _add_gaussian(s_pts, spec, rng)
        if on_target:
            t_pts = _add_gaussian(t_pts, spec, rng)
    elif v == BERNOULLI:
        if on_source:
            s_pts = s_pts[_bernoulli_mask(len(s_pts), spec.keep_prob, rng)]
        if on_target:
            t_pts = t_pts[_bernoulli_mask(len(t_pts), spec.keep_prob, rng)]
    elif v == SAMPLING:
        if len(s_pts) != len(t_pts):
            raise InvalidArgumentError("sampling noise needs equal-length clouds")
        n = len(s_pts)
        m = int(np.floor(spec.ratio * n))
        if m < 1 or 2 * m > n:
            raise InvalidArgumentError(
                "sampling ratio must leave room for two disjoint subsets"
            )
        perm = rng.permutation(n)
        s_pts = s_pts[np.sort(perm[:m])]
        t_pts = t_pts[np.sort(perm[m : 2 * m])]
    elif v == ZERO_INTERSECTION:
        if len(s_pts) != len(t_pts):
            raise InvalidArgumentError("zero_intersection needs equal-length clouds")
        n = len(s_pts)
        if n < 2:
            raise InvalidArgumentError("zero_intersection needs at least 2 points")
        perm = rng.permutation(n)
        half = n // 2
        s_pts = s_pts[np.sort(perm[:half])]
        t_pts = t_pts[np.sort(perm[half:])]
    elif v == SUBSAMPLE:
        if on_source:
            if spec.count > len(s_pts):
                raise InvalidArgumentError("subsample count exceeds source size")
            s_pts = s_pts[np.sort(rng.choice(len(s_pts), spec.count, replace=False))]
        if on_target:
            if spec.count > len(t_pts):
                raise InvalidArgumentError("subsample count exceeds target size")
            t_pts = t_pts[np.sort(rng.choice(len(t_pts), spec.count, replace=False))]

    return PointCloud(s_pts), PointCloud(t_pts)
