import numpy as np
import pytest

from mahaknn import registration
from mahaknn.descriptors import DescriptorSet
from mahaknn.errors import InvalidArgumentError
from mahaknn.geometry import (
    apply,
    compose,
    identity_motion,
    invert,
    make_rigid,
    rotation_angle_rad,
    sample_rigid,
)
from mahaknn.neighborhood import build_graph
from mahaknn.registration import (
    RegistrationConfig,
    match_descriptors,
    register,
)
from mahaknn.shapes import sphere_cap


def feats(pts):
    return DescriptorSet(np.asarray(pts, dtype=float), 0, 0, "test")


class TestMatchDescriptors:
    def test_identical_sets_match_identity(self):
        v = np.random.default_rng(0).normal(size=(20, 4))
        corr = match_descriptors(feats(v), feats(v), 0.0)
        np.testing.assert_array_equal(corr.source_indices, np.arange(20))
        np.testing.assert_array_equal(corr.target_indices, np.arange(20))

    def test_nearest_assignment_small_case(self):
        src = feats([[0.0], [10.0], [20.0]])
        tgt = feats([[19.0], [1.0], [11.0]])
        corr = match_descriptors(src, tgt, 0.0)
        np.testing.assert_array_equal(corr.target_indices, [1, 2, 0])

    def test_trim_drops_worst_pairs(self):
        # 10 perfect pairs plus 2 sources far from every target.
        v = np.random.default_rng(1).normal(size=(10, 3))
        src = feats(np.vstack([v, [[100, 0, 0], [0, 100, 0.0]]]))
        corr = match_descriptors(src, feats(v), 2.0 / 12.0)
        np.testing.assert_array_equal(corr.source_indices, np.arange(10))
        np.testing.assert_array_equal(corr.target_indices, np.arange(10))

    def test_trim_count_uses_floor(self):
        v = np.random.default_rng(2).normal(size=(10, 2))
        assert len(match_descriptors(feats(v), feats(v), 0.19)) == 10 - 1
        assert len(match_descriptors(feats(v), feats(v), 0.20)) == 10 - 2

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            match_descriptors(feats(np.zeros((5, 3))), feats(np.zeros((5, 4))), 0.0)


class TestRegister:
    def test_already_aligned_converges_immediately(self):
        cloud = sphere_cap(128, seed=0)
        cfg = RegistrationConfig(descriptor="none", trim_fraction=0.0, coarse_init=False)
        res = register(cloud, cloud, cfg)
        assert res.iterations <= 2
        assert rotation_angle_rad(res.motion.rotation) < 1e-6
        assert np.linalg.norm(res.motion.translation) < 1e-6

    def test_recovers_planted_motion(self):
        source = sphere_cap(256, seed=1)
        truth = make_rigid((10, -7, 12), (0.2, -0.1, 0.3))
        target = apply(truth, source)
        cfg = RegistrationConfig(
            descriptor="none", trim_fraction=0.0, max_iters=60, convergence_tol=1e-8
        )
        res = register(source, target, cfg)
        err = compose(invert(truth), res.motion)
        assert np.rad2deg(rotation_angle_rad(err.rotation)) < 0.1
        assert np.linalg.norm(err.translation) < 1e-3

    def test_residuals_non_increasing_untrimmed(self):
        # With trim 0 the recorded objective is the classic ICP sum of
        # squares, which Lloyd-style alternation cannot increase. Trimmed
        # runs re-select the kept subset each round, so only the untrimmed
        # objective is guaranteed monotone.
        source = sphere_cap(200, seed=2)
        truth = sample_rigid(np.random.default_rng(3), (0, 20))
        target = apply(truth, source)
        cfg = RegistrationConfig(
            descriptor="none", trim_fraction=0.0, max_iters=40, coarse_init=False
        )
        res = register(source, target, cfg)
        r = res.per_iteration_residuals
        assert all(b <= a + 1e-9 for a, b in zip(r, r[1:]))

    def test_bi_invariance_of_recovered_error(self):
        # Pre-rotating both clouds by the same motion conjugates the
        # problem, so the residual error angle is preserved.
        source = sphere_cap(200, seed=4)
        truth = make_rigid((15, 5, -10), (0.1, 0.2, -0.1))
        target = apply(truth, source)
        cfg = RegistrationConfig(
            descriptor="none", trim_fraction=0.0, max_iters=60, convergence_tol=1e-9
        )
        res0 = register(source, target, cfg)
        h = make_rigid((30, -20, 40), (1, -2, 0.5))
        res1 = register(apply(h, source), apply(h, target), cfg)
        e0 = rotation_angle_rad(compose(invert(truth), res0.motion).rotation)
        t1 = compose(h, compose(truth, invert(h)))
        e1 = rotation_angle_rad(compose(invert(t1), res1.motion).rotation)
        assert abs(e0 - e1) < 1e-6

    def test_eigen_pipeline_runs_and_improves(self):
        source = sphere_cap(200, seed=5)
        truth = make_rigid((8, 4, -6), (0.05, -0.05, 0.1))
        target = apply(truth, source)
        cfg = RegistrationConfig(
            metric="mahalanobis", descriptor="eigen", k=15, trim_fraction=0.2
        )
        res = register(source, target, cfg)
        before = np.sum((source.points - target.points) ** 2)
        after = np.sum((apply(res.motion, source).points - target.points) ** 2)
        assert after < before

    def test_deterministic(self):
        source = sphere_cap(150, seed=6)
        target = apply(make_rigid((12, 3, 9), (0.1, 0, -0.2)), source)
        cfg = RegistrationConfig(metric="euclidean", descriptor="edgeconv", k=10, seed=3)
        a = register(source, target, cfg)
        b = register(source, target, cfg)
        np.testing.assert_array_equal(a.motion.rotation, b.motion.rotation)
        np.testing.assert_array_equal(a.motion.translation, b.motion.translation)
        assert a.per_iteration_residuals == b.per_iteration_residuals

    def test_cloud_smaller_than_k_rejected(self):
        small = sphere_cap(10, seed=7)
        with pytest.raises(InvalidArgumentError):
            register(small, small, RegistrationConfig(k=20))

    def test_invalid_config_values(self):
        with pytest.raises(InvalidArgumentError):
            RegistrationConfig(metric="manhattan")
        with pytest.raises(InvalidArgumentError):
            RegistrationConfig(descriptor="sift")
        with pytest.raises(InvalidArgumentError):
            RegistrationConfig(trim_fraction=1.0)
        with pytest.raises(InvalidArgumentError):
            RegistrationConfig(max_iters=0)


class TestGraphReuse:
    @staticmethod
    def _count_graph_builds(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(registration, "build_graph", counting)
        return calls

    @staticmethod
    def _pair(seed):
        source = sphere_cap(120, seed=seed)
        return source, apply(make_rigid((9, -6, 11), (0.1, 0.05, -0.1)), source)

    @pytest.mark.parametrize("max_iters", [1, 4, 9])
    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_descriptor_pipeline_builds_two_graphs(self, monkeypatch, metric, max_iters):
        calls = self._count_graph_builds(monkeypatch)
        cfg = RegistrationConfig(
            metric=metric, descriptor="eigen", k=10, k_base=6,
            max_iters=max_iters, convergence_tol=0.0,
        )
        res = register(*self._pair(11), cfg)
        assert res.iterations == max_iters
        assert calls == [metric, metric]

    @pytest.mark.parametrize("max_iters", [1, 6])
    def test_point_icp_builds_graphs_only_in_coarse_init(self, monkeypatch, max_iters):
        calls = self._count_graph_builds(monkeypatch)
        source, target = self._pair(12)
        base = dict(descriptor="none", k=10, max_iters=max_iters, convergence_tol=0.0)
        register(source, target, RegistrationConfig(coarse_init=False, **base))
        assert calls == []
        register(source, target, RegistrationConfig(coarse_init=True, **base))
        assert calls == ["euclidean", "euclidean"]  # one per cloud, for the coarse match
        calls.clear()
        monkeypatch.setattr(registration, "_coarse_alignment", lambda *a: identity_motion())
        register(source, target, RegistrationConfig(coarse_init=True, **base))
        assert calls == []

    @pytest.mark.parametrize("descriptor", ["eigen", "edgeconv"])
    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_matches_rebuilding_the_graph_every_iteration(self, monkeypatch, metric, descriptor):
        # Oracle: describe every pose on a graph built from that pose.
        cfg = RegistrationConfig(
            metric=metric, descriptor=descriptor, k=10, k_base=6, max_iters=8, seed=2
        )
        source, target = self._pair(13)
        cached = register(source, target, cfg)
        describe = registration._build_descriptors

        def rebuilt(cloud, graph, cfg):
            fresh = build_graph(cloud, cfg.metric, cfg.k, cfg.k_base, cfg.regularizer)
            return describe(cloud, fresh, cfg)

        monkeypatch.setattr(registration, "_build_descriptors", rebuilt)
        oracle = register(source, target, cfg)
        np.testing.assert_array_equal(cached.motion.rotation, oracle.motion.rotation)
        np.testing.assert_array_equal(cached.motion.translation, oracle.motion.translation)
        assert cached.per_iteration_residuals == oracle.per_iteration_residuals
