import tracemalloc

import numpy as np
import pytest

from mahaknn import neighborhood, registration
from mahaknn.descriptors import DescriptorSet
from mahaknn.errors import InvalidArgumentError, MahaknnError
from mahaknn.geometry import (
    PointCloud,
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
    return DescriptorSet(np.asarray(pts, dtype=float))


def dense_match(src, tgt, trim_fraction):
    """All-pairs oracle for match_descriptors: full matrix, argmin, trim."""
    d2 = np.sum(src**2, axis=1)[:, None] - 2.0 * src @ tgt.T + np.sum(tgt**2, axis=1)[None, :]
    nearest = np.argmin(d2, axis=1)
    dist = d2[np.arange(len(src)), nearest]
    n_drop = int(np.floor(trim_fraction * len(src)))
    keep = np.sort(np.argsort(dist, kind="stable")[: len(src) - n_drop])
    return keep, nearest[keep]


def dense_mutual(src, tgt, source_indices, target_indices):
    """All-pairs oracle for _mutual_filter: each target's nearest source."""
    d2 = np.sum(tgt**2, axis=1)[:, None] - 2.0 * tgt @ src.T + np.sum(src**2, axis=1)[None, :]
    keep = np.argmin(d2, axis=1)[target_indices] == source_indices
    return source_indices[keep], target_indices[keep]


def descriptor_pair(kind, n_src, n_tgt, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "grid":  # integer lattice: many exactly tied distances
        return rng.integers(0, 5, size=(n_src, 3)) * 1.0, rng.integers(0, 5, size=(n_tgt, 3)) * 1.0
    if kind == "duplicated":
        tgt = np.repeat(rng.normal(size=((n_tgt + 1) // 2, 3)), 2, axis=0)[:n_tgt]
        return tgt[rng.integers(0, n_tgt, size=n_src)], tgt
    dim = 64 if kind == "wide" else 3
    return rng.normal(size=(n_src, dim)), rng.normal(size=(n_tgt, dim))


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


class TestMatchingParity:
    """match_descriptors and _mutual_filter against the dense all-pairs formula."""

    @pytest.mark.parametrize("trim", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["random", "wide", "grid", "duplicated"])
    def test_matches_dense_formula(self, kind, trim):
        # 1400 targets give 46-row blocks, so 1500 sources span 33 of them.
        src, tgt = descriptor_pair(kind, 1500, 1400)
        corr = match_descriptors(feats(src), feats(tgt), trim)
        keep, nearest = dense_match(src, tgt, trim)
        np.testing.assert_array_equal(corr.source_indices, keep)
        np.testing.assert_array_equal(corr.target_indices, nearest)
        try:
            mutual = registration._mutual_filter(feats(src), feats(tgt), corr)
        except MahaknnError:
            assert len(dense_mutual(src, tgt, keep, nearest)[0]) == 0
        else:
            want_src, want_tgt = dense_mutual(src, tgt, keep, nearest)
            np.testing.assert_array_equal(mutual.source_indices, want_src)
            np.testing.assert_array_equal(mutual.target_indices, want_tgt)

    @pytest.mark.parametrize("n_src", [45, 46, 47, 10])
    def test_block_boundaries(self, monkeypatch, n_src):
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", 46 * 30)
        src, tgt = descriptor_pair("grid", n_src, 30, seed=n_src)
        corr = match_descriptors(feats(src), feats(tgt), 0.2)
        keep, nearest = dense_match(src, tgt, 0.2)
        np.testing.assert_array_equal(corr.source_indices, keep)
        np.testing.assert_array_equal(corr.target_indices, nearest)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        src, tgt = descriptor_pair("random", 300, 280, seed=7)
        p_src, p_tgt = rng.permutation(300), rng.permutation(280)
        corr = match_descriptors(feats(src), feats(tgt), 0.25)
        permuted = match_descriptors(feats(src[p_src]), feats(tgt[p_tgt]), 0.25)
        # Map the permuted result's indices back to the original positions.
        pairs = set(zip(p_src[permuted.source_indices], p_tgt[permuted.target_indices]))
        assert pairs == set(zip(corr.source_indices, corr.target_indices))

    def test_memory_is_bounded(self):
        # The dense 4096 x 4096 float64 matrix alone is 128 MiB.
        src, tgt = descriptor_pair("random", 4096, 4096, seed=8)
        tracemalloc.start()
        try:
            match_descriptors(feats(src), feats(tgt), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def degenerate_cloud(kind):
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, 40)
    base = rng.normal(size=(20, 3))
    return PointCloud({
        "duplicate": np.vstack([base, base]),
        "coincident": np.ones((40, 3)),
        "collinear": np.column_stack([t, 2.0 * t, -t]),
        "planar": np.column_stack([rng.normal(size=(40, 2)), np.zeros(40)]),
    }[kind])


class TestDegenerateInputs:
    PIPELINES = {
        "point-icp": {},
        "point-icp-mutual": {"mutual": True},
        "euclidean-eigen": {"descriptor": "eigen"},
        "mahalanobis-eigen": {"metric": "mahalanobis", "descriptor": "eigen"},
        "mahalanobis-unregularized": {"metric": "mahalanobis", "descriptor": "eigen", "regularizer": 0.0},
        "geodesic-edgeconv": {"metric": "geodesic", "descriptor": "edgeconv", "k_base": 4},
    }

    @pytest.mark.parametrize("k", [8, 39])  # 39 = n - 1
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("kind", ["duplicate", "coincident", "collinear", "planar"])
    def test_returns_or_raises_a_toolkit_error(self, kind, pipeline, k):
        source = degenerate_cloud(kind)
        target = apply(make_rigid((10, -5, 20), (0.1, 0.2, -0.3)), source)
        cfg = RegistrationConfig(k=k, max_iters=4, **self.PIPELINES[pipeline])
        try:
            result = register(source, target, cfg)
        except (MahaknnError, np.linalg.LinAlgError):
            return
        assert np.all(np.isfinite(result.motion.rotation))
        assert np.all(np.isfinite(result.motion.translation))


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
