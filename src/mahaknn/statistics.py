"""Covariance estimation and the Mahalanobis distance kernel.

One global covariance is estimated per cloud with population (1/M)
normalization; a small diagonal bias keeps the inverse well defined for
flat or degenerate point distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError, SingularCovarianceError
from .geometry import PointCloud, check_range

DEFAULT_REGULARIZER = 1e-5

_SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Regularized 3x3 covariance and its inverse, both finite."""

    covariance: NDArray[np.float64]
    inverse: NDArray[np.float64]

    def __post_init__(self):
        for name in ("covariance", "inverse"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (3, 3):
                raise InvalidArgumentError(f"{name} must be 3x3")
            if not np.all(np.isfinite(m)):
                raise InvalidArgumentError(f"{name} must be finite")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def whitener(self) -> NDArray[np.float64]:
        """Matrix W with ||W @ d|| equal to the Mahalanobis length of d."""
        vals, vecs = np.linalg.eigh(self.inverse)
        vals = np.clip(vals, 0.0, None)
        return (vecs * np.sqrt(vals)) @ vecs.T


def identity_model() -> CovarianceModel:
    """Unit covariance; Mahalanobis distance degenerates to Euclidean."""
    return CovarianceModel(np.eye(3), np.eye(3))


def estimate_covariance(
    cloud: PointCloud, regularizer: float = DEFAULT_REGULARIZER
) -> CovarianceModel:
    """Population covariance of the cloud plus regularizer * I on the diagonal.

    A cloud outside `geometry.check_range`'s range, where the products
    overflow, raises InvalidArgumentError naming the limit. The inverse is
    computed through a symmetric eigendecomposition with the eigenvalues
    floored at the regularizer, so positive definiteness survives
    floating-point cancellation.
    """
    if regularizer < 0 or not np.isfinite(regularizer):
        raise InvalidArgumentError("regularizer must be finite and >= 0")
    pts = cloud.points
    check_range("cloud", pts)
    mu = pts.mean(axis=0)
    centered = pts - mu
    cov = centered.T @ centered / len(pts) + regularizer * np.eye(3)
    cov = (cov + cov.T) / 2.0
    vals, vecs = np.linalg.eigh(cov)
    scale = max(vals[-1], np.finfo(float).tiny)
    if vals[0] <= _SINGULAR_REL_TOL * scale:
        if regularizer == 0:
            raise SingularCovarianceError(
                "covariance is singular and no regularizer was supplied"
            )
        vals = np.maximum(vals, regularizer)
    inv = (vecs / vals) @ vecs.T
    inv = (inv + inv.T) / 2.0
    return CovarianceModel(cov, inv)


def mahalanobis_distance(p, q, model: CovarianceModel) -> float:
    """sqrt(d^T C^-1 d) for d = p - q; symmetric, zero iff p == q."""
    d = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return float(np.sqrt(max(d @ model.inverse @ d, 0.0)))
