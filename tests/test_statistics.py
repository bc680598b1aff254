import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahaknn.errors import InvalidArgumentError, SingularCovarianceError
from mahaknn.geometry import PointCloud, apply, make_rigid
from mahaknn.shapes import sphere_cap
from mahaknn.statistics import (
    CovarianceModel,
    DEFAULT_REGULARIZER,
    estimate_covariance,
    identity_model,
    mahalanobis_distance,
)


class TestEstimateCovariance:
    def test_four_point_closed_form(self):
        cloud = PointCloud([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        model = estimate_covariance(cloud)
        expected = np.diag([0.5 + 1e-5, 0.5 + 1e-5, 1e-5])
        np.testing.assert_allclose(model.covariance, expected, atol=1e-15)

    def test_default_bias_value(self):
        # test_four_point_closed_form checks that this bias is what lands on the diagonal.
        assert DEFAULT_REGULARIZER == 1e-5

    def test_unit_sphere_second_moment(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(10_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        model = estimate_covariance(PointCloud(v))
        np.testing.assert_allclose(model.covariance, np.eye(3) / 3.0, atol=0.02)

    def test_inverse_is_actual_inverse(self):
        rng = np.random.default_rng(1)
        model = estimate_covariance(PointCloud(rng.normal(size=(100, 3))))
        np.testing.assert_allclose(model.covariance @ model.inverse, np.eye(3), atol=1e-8)

    def test_eigenvalue_floor(self):
        # Flat cloud: smallest eigenvalue equals the bias exactly.
        cloud = PointCloud([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        model = estimate_covariance(cloud, regularizer=1e-3)
        vals = np.linalg.eigvalsh(model.covariance)
        assert np.all(vals >= 1e-3 - 1e-12)

    def test_eigenvalue_floor_under_cancellation(self):
        # A tilted flat cloud spanning +-1e4: its normal's variance is the bias,
        # which the cancellation in the products can leave just below it.
        pts = np.random.default_rng(0).uniform(-1e4, 1e4, size=(200, 3)) * [1, 1, 0]
        cloud = apply(make_rigid((10, 20, 30), (0, 0, 0)), PointCloud(pts))
        vals = np.linalg.eigvalsh(estimate_covariance(cloud).inverse)
        assert 0 < vals.min() and vals.max() <= (1 + 1e-3) / DEFAULT_REGULARIZER

    def test_singular_without_regularizer(self):
        cloud = PointCloud([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        with pytest.raises(SingularCovarianceError):
            estimate_covariance(cloud, regularizer=0.0)

    def test_negative_regularizer_rejected(self):
        with pytest.raises(InvalidArgumentError):
            estimate_covariance(PointCloud([(0, 0, 0)]), regularizer=-1.0)

    @pytest.mark.parametrize(
        "scale,limit", [(1e160, "above the limit 1e+150"), (1e-160, "below the limit 1e-150")]
    )
    def test_coordinate_range_is_rejected(self, scale, limit):
        # The products of 1e160-scale points overflow and those of
        # 1e-160-scale points are subnormal.
        cloud = PointCloud(sphere_cap(200, seed=0).points * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=re.escape(limit)):
                estimate_covariance(cloud)


class TestCovarianceModel:
    @pytest.mark.parametrize("name", ["covariance", "inverse"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_rejected(self, name, bad):
        # An infinite inverse gives an all-NaN whitener, whose coordinates
        # pass every range comparison in knn.
        matrices = {"covariance": np.eye(3), "inverse": np.eye(3)}
        matrices[name] = np.diag([bad, 1.0, 1.0])
        with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
            CovarianceModel(**matrices)


class TestMahalanobisDistance:
    def test_zero_for_equal_points(self):
        assert mahalanobis_distance((1, 2, 3), (1, 2, 3), identity_model()) == 0.0

    def test_identity_model_is_euclidean(self):
        rng = np.random.default_rng(2)
        model = identity_model()
        for _ in range(100):
            p, q = rng.normal(size=3), rng.normal(size=3)
            assert abs(
                mahalanobis_distance(p, q, model) - np.linalg.norm(p - q)
            ) < 1e-12

    def test_diagonal_covariance_scales_axes(self):
        cov = np.diag([4.0, 1.0, 1.0])
        model = CovarianceModel(cov, np.linalg.inv(cov))
        assert mahalanobis_distance((0, 0, 0), (2, 0, 0), model) == pytest.approx(1.0)
        assert mahalanobis_distance((0, 0, 0), (0, 2, 0), model) == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(30, 3)) @ rng.normal(size=(3, 3)))
        model = estimate_covariance(cloud)
        p, q, r = rng.normal(size=(3, 3))
        dpq = mahalanobis_distance(p, q, model)
        dqp = mahalanobis_distance(q, p, model)
        dpr = mahalanobis_distance(p, r, model)
        drq = mahalanobis_distance(r, q, model)
        assert abs(dpq - dqp) < 1e-9
        assert mahalanobis_distance(p, p, model) == 0.0
        assert dpq <= dpr + drq + 1e-9

    def test_linear_invariance(self):
        # Distances computed on A @ x with covariance re-estimated from the
        # transformed set equal the originals (regularizer 0).
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 3))
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        assert abs(np.linalg.det(a)) > 1e-3
        cloud = PointCloud(pts)
        mapped = PointCloud(pts @ a.T)
        m0 = estimate_covariance(cloud, regularizer=0.0)
        m1 = estimate_covariance(mapped, regularizer=0.0)
        for i, j in [(0, 1), (5, 99), (42, 137), (10, 11)]:
            d0 = mahalanobis_distance(pts[i], pts[j], m0)
            d1 = mahalanobis_distance(mapped.points[i], mapped.points[j], m1)
            assert abs(d0 - d1) < 1e-6


class TestWhitener:
    def test_whitener_reproduces_distance(self):
        rng = np.random.default_rng(4)
        model = estimate_covariance(PointCloud(rng.normal(size=(50, 3))))
        w = model.whitener()
        p, q = rng.normal(size=(2, 3))
        assert np.linalg.norm(w @ (p - q)) == pytest.approx(
            mahalanobis_distance(p, q, model), abs=1e-10
        )
