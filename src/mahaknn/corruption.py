"""Noise and density perturbations for building benchmark pairs.

Per-side variants perturb each cloud that `applied_to` names (source, target
or both): gaussian (clipped additive noise), bernoulli (random point drop,
always keeping the point with the smallest draw, so no side comes out empty)
and subsample (fixed-count random subset). Split variants (`PAIR_VARIANTS`)
split one permutation of an equal-length pair's n indices into disjoint sets:
sampling gives each side floor(ratio * n) points, zero_intersection gives the
source floor(n / 2) and the target the rest. `none` changes nothing. A side
the spec leaves untouched is returned as the input object itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .geometry import PointCloud, hold_fields, text_parsers

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
SAMPLING = "sampling"
ZERO_INTERSECTION = "zero_intersection"
SUBSAMPLE = "subsample"
NONE = "none"
# Variants that split one corresponding pair into a source and a target.
PAIR_VARIANTS = (SAMPLING, ZERO_INTERSECTION)

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
        hold_fields(self)
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
        kwargs, parsers = {}, text_parsers(cls)
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
                kwargs[key] = parsers[key](value)
            except ValueError:
                raise InvalidArgumentError(f"bad noise parameter {key}={value!r}") from None
        return cls(variant=variant, **kwargs)


def _perturb(pts, spec: NoiseSpec, rng: np.random.Generator, side: str):
    """One cloud's points under a per-side variant (gaussian, bernoulli or subsample)."""
    if spec.variant == GAUSSIAN:
        return pts + np.clip(rng.normal(0.0, spec.sigma, size=pts.shape), -spec.clip, spec.clip)
    if spec.variant == BERNOULLI:
        # One draw per point; the point with the smallest draw is always kept,
        # which changes the draw's outcome only where it would keep none.
        draw = rng.random(len(pts))
        keep = draw < spec.keep_prob
        keep[np.argmin(draw)] = True
        return pts[keep]
    if spec.count > len(pts):
        raise InvalidArgumentError(f"subsample count exceeds {side} size")
    return pts[np.sort(rng.choice(len(pts), spec.count, replace=False))]


def _split(s_pts, t_pts, spec: NoiseSpec, rng: np.random.Generator):
    """The split variants' pair: perm[:m] of one permutation and perm[m:stop], each in order."""
    n = len(s_pts)
    if len(t_pts) != n:
        raise InvalidArgumentError(f"{spec.variant} needs equal-length clouds")
    if spec.variant == SAMPLING:
        m = int(np.floor(spec.ratio * n))
        stop = 2 * m
    else:
        m, stop = n // 2, n
    if m < 1 or stop > n:
        raise InvalidArgumentError(
            f"{spec.variant} leaves no room for two disjoint non-empty subsets of {n} points"
        )
    perm = rng.permutation(n)
    return s_pts[np.sort(perm[:m])], t_pts[np.sort(perm[m:stop])]


def corrupt(
    source: PointCloud,
    target: PointCloud,
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> tuple[PointCloud, PointCloud]:
    """Apply spec to the pair; deterministic for a fixed generator state.

    Source-side draws always precede target-side draws so applied_to does not
    change the meaning of a seed for unrelated clouds. A side the spec leaves
    untouched is returned as the input object itself, so what was kept on it
    (graphs, eigen features) serves every pair it is part of.
    """
    s_pts, t_pts = source.points, target.points
    if spec.variant in PAIR_VARIANTS:
        s_pts, t_pts = _split(s_pts, t_pts, spec, rng)
    elif spec.variant != NONE:
        if spec.applied_to in ("source", "both"):
            s_pts = _perturb(s_pts, spec, rng, "source")
        if spec.applied_to in ("target", "both"):
            t_pts = _perturb(t_pts, spec, rng, "target")
    return (
        source if s_pts is source.points else PointCloud(s_pts),
        target if t_pts is target.points else PointCloud(t_pts),
    )
