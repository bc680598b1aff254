import dataclasses
import functools
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from mahaknn import harness, neighborhood, registration
from mahaknn.corruption import NoiseSpec, corrupt
from mahaknn.descriptors import (
    edgeconv_features,
    eigen_features,
    pose_eigen_features,
)
from mahaknn.errors import InvalidArgumentError, MahaknnError, NoCorrespondenceError, SingularCovarianceError
from mahaknn.geometry import (
    MAX_ABS_COORDINATE,
    CorrespondenceSet,
    PointCloud,
    RigidMotion,
    apply,
    compose,
    invert,
    kabsch,
    make_rigid,
    rotation_angle_rad,
    sample_rigid,
)
from mahaknn.neighborhood import METRICS, build_graph
from mahaknn.registration import (
    RegistrationConfig,
    match_descriptors,
    register,
)
from mahaknn.shapes import sphere_cap
from mahaknn.statistics import estimate_covariance


def scenario_of(**overrides):
    """A valid Scenario with `overrides` set."""
    return harness.Scenario(**{
        "name": "s", "input": "shape:plane:30", "pipelines": (("p", RegistrationConfig()),),
        **overrides,
    })


def feats(pts):
    return np.asarray(pts, dtype=float)


def lifted(pts):
    return neighborhood.lift(feats(pts))


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
        corr = match_descriptors(feats(v), lifted(v), 0.0)
        np.testing.assert_array_equal(corr.source_indices, np.arange(20))
        np.testing.assert_array_equal(corr.target_indices, np.arange(20))

    def test_nearest_assignment_small_case(self):
        src = feats([[0.0], [10.0], [20.0]])
        tgt = lifted([[19.0], [1.0], [11.0]])
        corr = match_descriptors(src, tgt, 0.0)
        np.testing.assert_array_equal(corr.target_indices, [1, 2, 0])

    def test_trim_drops_worst_pairs(self):
        # 10 perfect pairs plus 2 sources far from every target.
        v = np.random.default_rng(1).normal(size=(10, 3))
        src = feats(np.vstack([v, [[100, 0, 0], [0, 100, 0.0]]]))
        corr = match_descriptors(src, lifted(v), 2.0 / 12.0)
        np.testing.assert_array_equal(corr.source_indices, np.arange(10))
        np.testing.assert_array_equal(corr.target_indices, np.arange(10))

    def test_trim_count_uses_floor(self):
        v = np.random.default_rng(2).normal(size=(10, 2))
        assert len(match_descriptors(feats(v), lifted(v), 0.19)) == 10 - 1
        assert len(match_descriptors(feats(v), lifted(v), 0.20)) == 10 - 2

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            match_descriptors(feats(np.zeros((5, 3))), lifted(np.zeros((5, 4))), 0.0)

    def test_trim_fraction_of_one_is_rejected(self):
        v = np.zeros((5, 3))
        with pytest.raises(InvalidArgumentError, match="trim_fraction"):
            match_descriptors(feats(v), lifted(v), 1.0)

    def test_no_source_rows_leave_no_correspondence(self):
        with pytest.raises(NoCorrespondenceError):
            match_descriptors(feats(np.zeros((0, 3))), lifted(np.zeros((5, 3))), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_features_are_rejected_by_name(self, bad):
        # Unchecked, a NaN source row ranks nowhere and an inf target row wins
        # ties: [1, 1, 1] would lose its exact copy to [inf, 0, 0].
        good = feats([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        poisoned = good.copy()
        poisoned[0, 0] = bad
        with pytest.raises(InvalidArgumentError, match="^queries must be finite"):
            match_descriptors(poisoned, lifted(good), 0.0)
        with pytest.raises(InvalidArgumentError, match="^points must be finite"):
            match_descriptors(good, lifted(poisoned), 0.0)
        corr = CorrespondenceSet([0, 1, 2], [0, 1, 2])
        with pytest.raises(InvalidArgumentError, match="^points must be finite"):
            registration._mutual_filter(poisoned, good, corr)
        with pytest.raises(InvalidArgumentError, match="^queries must be finite"):
            registration._mutual_filter(good, poisoned, corr)


class TestMatchingParity:
    """match_descriptors and _mutual_filter against the dense all-pairs formula."""

    @pytest.mark.parametrize("trim", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["random", "wide", "grid", "duplicated"])
    def test_matches_dense_formula(self, kind, trim):
        # 1400 targets give 46-row blocks, so 1500 sources span 33 of them.
        src, tgt = descriptor_pair(kind, 1500, 1400)
        corr = match_descriptors(feats(src), lifted(tgt), trim)
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
        corr = match_descriptors(feats(src), lifted(tgt), 0.2)
        keep, nearest = dense_match(src, tgt, 0.2)
        np.testing.assert_array_equal(corr.source_indices, keep)
        np.testing.assert_array_equal(corr.target_indices, nearest)

    @staticmethod
    def _check_mutual(src, tgt, source_indices, target_indices):
        corr = CorrespondenceSet(source_indices, target_indices)
        want_src, want_tgt = dense_mutual(src, tgt, corr.source_indices, corr.target_indices)
        try:
            got = registration._mutual_filter(feats(src), feats(tgt), corr)
        except MahaknnError:
            assert len(want_src) == 0
            return
        np.testing.assert_array_equal(got.source_indices, want_src)
        np.testing.assert_array_equal(got.target_indices, want_tgt)

    @pytest.mark.parametrize("kind", ["random", "grid"])
    def test_mutual_with_many_sources_on_one_target(self, monkeypatch, kind):
        src, tgt = descriptor_pair(kind, 200, 150, seed=3)
        ranked = []

        def recording(queries, points):
            ranked.append(len(queries))
            return neighborhood.nearest(queries, points)

        monkeypatch.setattr(registration, "nearest", recording)
        sources = np.arange(len(src))
        self._check_mutual(src, tgt, sources, np.full(len(src), 17))
        self._check_mutual(src, tgt, sources, np.where(sources % 3 == 0, 17, 42))
        # The backward pass ranks the distinct paired targets only.
        assert ranked == [1, 2]

    @pytest.mark.parametrize("kind", ["random", "grid"])
    def test_mutual_with_a_single_pair(self, kind):
        src, tgt = descriptor_pair(kind, 50, 40, seed=4)
        target = 7
        nearest_source = int(np.argmin(np.sum((src - tgt[target]) ** 2, axis=1)))
        # A pair the filter keeps, then one it drops (every pair dropped raises).
        self._check_mutual(src, tgt, [nearest_source], [target])
        self._check_mutual(src, tgt, [(nearest_source + 1) % len(src)], [target])

    @pytest.mark.parametrize("kind", ["random", "wide", "grid", "duplicated"])
    def test_mutual_with_a_one_row_remainder_block(self, monkeypatch, kind):
        # 30 sources give 4 rows per block; 9 distinct paired targets leave
        # blocks of 4, 4 and 1 rows.
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", 30 * 4)
        src, tgt = descriptor_pair(kind, 30, 25, seed=5)
        rng = np.random.default_rng(5)
        paired = rng.choice(len(tgt), size=9, replace=False)
        targets = paired[rng.integers(0, 9, size=len(src))]
        targets[:9] = paired
        self._check_mutual(src, tgt, np.arange(len(src)), targets)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        src, tgt = descriptor_pair("random", 300, 280, seed=7)
        p_src, p_tgt = rng.permutation(300), rng.permutation(280)
        corr = match_descriptors(feats(src), lifted(tgt), 0.25)
        permuted = match_descriptors(feats(src[p_src]), lifted(tgt[p_tgt]), 0.25)
        # Map the permuted result's indices back to the original positions.
        pairs = set(zip(p_src[permuted.source_indices], p_tgt[permuted.target_indices]))
        assert pairs == set(zip(corr.source_indices, corr.target_indices))

    def test_memory_is_bounded(self):
        # The dense 4096 x 4096 float64 matrix alone is 128 MiB.
        src, tgt = descriptor_pair("random", 4096, 4096, seed=8)
        tracemalloc.start()
        try:
            match_descriptors(feats(src), lifted(tgt), 0.3)
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
        "mahalanobis-unregularized": {"metric": "mahalanobis", "descriptor": "eigen"},
        "geodesic-edgeconv": {"metric": "geodesic", "descriptor": "edgeconv", "k_base": 4},
    }
    # The regularizer is not an argument of register or build_graph; this
    # pipeline estimates its covariance with none, so a flat cloud is singular.
    UNREGULARIZED = "mahalanobis-unregularized"

    @pytest.mark.parametrize("k", [8, 39])  # 39 = n - 1
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("kind", ["duplicate", "coincident", "collinear", "planar"])
    def test_returns_or_raises_a_toolkit_error(self, monkeypatch, kind, pipeline, k):
        if pipeline == self.UNREGULARIZED:
            monkeypatch.setattr(
                neighborhood,
                "estimate_covariance",
                functools.partial(estimate_covariance, regularizer=0.0),
            )
        source = degenerate_cloud(kind)
        target = apply(make_rigid((10, -5, 20), (0.1, 0.2, -0.3)), source)
        cfg = RegistrationConfig(k=k, max_iters=4, **self.PIPELINES[pipeline])
        if pipeline == self.UNREGULARIZED and kind != "duplicate":
            with pytest.raises(SingularCovarianceError):
                register(source, target, cfg)
            return
        try:
            result = register(source, target, cfg)
        except (MahaknnError, np.linalg.LinAlgError):
            return
        assert np.all(np.isfinite(result.motion.rotation))
        assert np.all(np.isfinite(result.motion.translation))


class TestRegister:
    def test_already_aligned_converges_immediately(self):
        cloud = sphere_cap(128, seed=0)
        cfg = RegistrationConfig(descriptor="none", trim_fraction=0.0)
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
        cfg = RegistrationConfig(descriptor="none", trim_fraction=0.0, max_iters=40)
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
        cfg = RegistrationConfig(metric="euclidean", descriptor="edgeconv", k=10)
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
        for bad in ({"k": 0}, {"k": -3}, {"k_base": 0}, {"convergence_tol": float("nan")},
                    {"convergence_tol": -1e-4}, {"convergence_tol": float("inf")}):
            with pytest.raises(InvalidArgumentError):
                RegistrationConfig(**bad)

    # Every config type holds its fields by one rule. A string is truthy, a
    # float k or trials would fail only when used, and a bool count would
    # serialize to a text NoiseSpec.parse rejects.
    @pytest.mark.parametrize("make,field,value", [
        # a bool for an int or float field
        (RegistrationConfig, "k", True), (RegistrationConfig, "trim_fraction", False),
        (NoiseSpec, "count", True), (NoiseSpec, "sigma", True),
        (scenario_of, "trials", True), (scenario_of, "base_seed", np.bool_(False)),
        (scenario_of, "rot_range_deg", (True, 1.0)),
        # a float for an int field
        (RegistrationConfig, "k", 20.5), (RegistrationConfig, "max_iters", 2.5),
        (RegistrationConfig, "k_base", np.float64(6)), (NoiseSpec, "count", 2.5),
        (scenario_of, "trials", 2.0), (scenario_of, "base_seed", np.float64(1)),
        # a str for a number field
        (RegistrationConfig, "convergence_tol", "1e-4"), (NoiseSpec, "sigma", "0.1"),
        (scenario_of, "trials", "2"), (scenario_of, "trans_range", ("0", "1")),
        # None for a str field
        (RegistrationConfig, "metric", None), (NoiseSpec, "variant", None),
        (NoiseSpec, "applied_to", None), (scenario_of, "name", None), (scenario_of, "input", None),
        # anything but a bool for a bool field, and anything but two numbers for an interval
        (RegistrationConfig, "mutual", "no"), (RegistrationConfig, "mutual", 1),
        (scenario_of, "rot_range_deg", (0.0,)), (scenario_of, "trans_range", None),
        # an int beyond the float range for a float field
        pytest.param(RegistrationConfig, "convergence_tol", 10**400, id="RegistrationConfig-convergence_tol-10**400"),
        pytest.param(scenario_of, "trans_range", (0, 10**400), id="scenario_of-trans_range-(0, 10**400)"),
        # a text noise spec, and pipelines that are not (str, RegistrationConfig) pairs
        (scenario_of, "noise", "gaussian"), (scenario_of, "pipelines", (("p", {"k": 10}),)),
        (scenario_of, "pipelines", [("p", RegistrationConfig())]),
        (scenario_of, "pipelines", ((3, RegistrationConfig()),)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_config_field_of_another_type_is_rejected(self, make, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be "):
            make(**{field: value})

    def test_config_takes_numpy_scalars(self):
        cfg = RegistrationConfig(
            metric=np.str_("euclidean"), k=np.int64(6), max_iters=np.int32(2),
            convergence_tol=np.float32(0), trim_fraction=np.float64(0.1), k_base=np.int64(3),
            mutual=np.bool_(True),
        )
        assert cfg == RegistrationConfig(
            metric="euclidean", k=6, max_iters=2, convergence_tol=0.0, trim_fraction=0.1,
            k_base=3, mutual=True,
        )
        assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == [
            str, str, int, int, float, float, int, bool,
        ]
        scenario = scenario_of(trials=np.int64(2), base_seed=np.uint8(3),
                               rot_range_deg=(np.float32(1), np.int64(10)),
                               trans_range=[np.float64(-0.5), 0.5])
        assert (type(scenario.trials), type(scenario.base_seed)) == (int, int)
        assert scenario.rot_range_deg == (1.0, 10.0) and scenario.trans_range == (-0.5, 0.5)
        assert all(type(v) is float for v in scenario.rot_range_deg + scenario.trans_range)

    @staticmethod
    def _bernoulli_trial(trial):
        """Harness trial `trial` of sphere-cap n=512 under bernoulli:keep_prob=0.7."""
        source = sphere_cap(512, seed=0)
        rng = np.random.default_rng(trial)
        target = apply(sample_rigid(rng), source)
        return corrupt(source, target, NoiseSpec.parse("bernoulli:keep_prob=0.7"), rng)

    @staticmethod
    def _start_pose(src, tgt, cfg):
        """_coarse_alignment on the eigen features of cfg's graphs, as register calls it."""
        return registration._coarse_alignment(src, tgt, lifted(tgt.points), cfg)

    @staticmethod
    def _nearest_match(moved, tgt, trim_fraction):
        """The match the first point-ICP iteration from this pose makes (before mutual filtering)."""
        return match_descriptors(feats(moved.points), lifted(tgt.points), trim_fraction)

    # Harness trials 0-3 of sphere-cap n=512 under bernoulli:keep_prob=0.7. Start
    # residuals, coarse vs identity: 14.16 vs 12.31, 16.45 vs 32.57, 1.21 vs 5.53,
    # 7.11 vs 5.79; the coarse pose is kept only where it is strictly lower.
    @pytest.mark.parametrize("trial,keeps_coarse", [(0, False), (1, True), (2, True), (3, False)])
    def test_start_pose_is_the_lower_residual_one(self, trial, keeps_coarse):
        src, tgt = self._bernoulli_trial(trial)
        cfg = RegistrationConfig()
        start, moved, start_corr = self._start_pose(src, tgt, cfg)
        # The returned match is the one the first iteration would make from the start pose.
        want = self._nearest_match(moved, tgt, cfg.trim_fraction)
        np.testing.assert_array_equal(start_corr.source_indices, want.source_indices)
        np.testing.assert_array_equal(start_corr.target_indices, want.target_indices)
        from_identity = registration._pair_residual(
            src, tgt, self._nearest_match(src, tgt, cfg.trim_fraction)
        )
        from_start = registration._pair_residual(moved, tgt, start_corr)
        if keeps_coarse:
            assert rotation_angle_rad(start.rotation) > 0.1
            assert moved.points.tobytes() == apply(start, src).points.tobytes()
            assert from_start < from_identity
        else:
            np.testing.assert_array_equal(start.rotation, np.eye(3))
            np.testing.assert_array_equal(start.translation, np.zeros(3))
            assert moved is src

    @pytest.mark.parametrize("mutual", [False, True])
    @pytest.mark.parametrize("trial", [0, 1])
    def test_first_iteration_reuses_the_start_match(self, monkeypatch, trial, mutual):
        # Trial 0 starts from identity, trial 1 from the coarse pose.
        src, tgt = self._bernoulli_trial(trial)
        cfg = RegistrationConfig(max_iters=5, convergence_tol=0.0, mutual=mutual)
        calls = []

        def counting(*args):
            calls.append(1)
            return match_descriptors(*args)

        monkeypatch.setattr(registration, "match_descriptors", counting)
        reused = register(src, tgt, cfg)
        # Three matches score the start (identity, eigen components, coarse pose);
        # the first iteration makes none of its own.
        assert len(calls) == 3 + cfg.max_iters - 1
        # Oracle: place the source at the chosen start and match it afresh.
        coarse_alignment = registration._coarse_alignment

        def without_reuse(source, target, *args):
            start, _, _ = coarse_alignment(source, target, *args)
            return start, apply(start, source), None

        monkeypatch.setattr(registration, "_coarse_alignment", without_reuse)
        fresh = register(src, tgt, cfg)
        assert reused.per_iteration_residuals == fresh.per_iteration_residuals
        assert reused.motion.rotation.tobytes() == fresh.motion.rotation.tobytes()
        assert reused.motion.translation.tobytes() == fresh.motion.translation.tobytes()

    # One iteration solves the match that scored point-ICP's start.
    @pytest.mark.parametrize("exit,max_iters,tol", [
        ("converged", 30, 1e-3), ("max_iters", 5, 0.0), ("one-iteration", 1, 0.0),
    ])
    @pytest.mark.parametrize("mutual", [False, True])
    @pytest.mark.parametrize("descriptor", ["none", "eigen"])
    def test_final_correspondences_are_the_last_solved_match(
        self, monkeypatch, descriptor, mutual, exit, max_iters, tol
    ):
        solved = []

        def recording(source, target, corr):
            solved.append(corr)
            return kabsch(source, target, corr)

        monkeypatch.setattr(registration, "kabsch", recording)
        cfg = RegistrationConfig(
            descriptor=descriptor, k=10, max_iters=max_iters, convergence_tol=tol, mutual=mutual
        )
        res = register(*TestGraphReuse._pair(13), cfg)
        assert (res.iterations < max_iters) == (exit == "converged")
        assert res.correspondences_final is solved[-1]

    @pytest.mark.parametrize("descriptor,k,starts", [
        ("none", 3, 1), ("none", 2, 0), ("eigen", 10, 0), ("edgeconv", 10, 0),
    ])
    def test_only_point_icp_with_eigen_features_aligns_coarsely(
        self, monkeypatch, descriptor, k, starts
    ):
        calls = TestStartPoseReuse._count_starts(monkeypatch)
        register(*TestGraphReuse._pair(14), RegistrationConfig(descriptor=descriptor, k=k))
        assert len(calls) == starts


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

    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("max_iters", [1, 6])
    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_point_icp_builds_graphs_only_in_coarse_init(self, monkeypatch, metric, max_iters, k):
        calls = self._count_graph_builds(monkeypatch)
        cfg = RegistrationConfig(
            metric=metric, descriptor="none", k=k, k_base=6,
            max_iters=max_iters, convergence_tol=0.0,
        )
        register(*self._pair(12), cfg)
        # One per cloud, under the pipeline's metric, for the coarse match;
        # none when k < 3, where eigen features and so the coarse start are undefined.
        assert calls == ([metric, metric] if k >= 3 else [])

    @pytest.mark.parametrize("max_iters", [1, 4, 9])
    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_eigen_pipeline_decomposes_each_cloud_once(self, monkeypatch, metric, max_iters):
        calls = []

        def counting(cloud, graph):
            calls.append(len(cloud))
            return eigen_features(cloud, graph)

        monkeypatch.setattr(registration, "eigen_features", counting)
        cfg = RegistrationConfig(
            metric=metric, descriptor="eigen", k=10, k_base=6,
            max_iters=max_iters, convergence_tol=0.0,
        )
        source, target = self._pair(11)
        res = register(source, target, cfg)
        assert res.iterations == max_iters
        assert calls == [len(target), len(source)]

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_edgeconv_matches_rebuilding_the_graph_every_iteration(self, monkeypatch, metric):
        # Oracle: describe every pose on a graph built from that pose.
        cfg = RegistrationConfig(
            metric=metric, descriptor="edgeconv", k=10, k_base=6, max_iters=8
        )
        source, target = self._pair(13)
        cached = register(source, target, cfg)

        def rebuilt(cloud, graph):
            return edgeconv_features(cloud, build_graph(cloud, cfg.metric, cfg.k, cfg.k_base))

        monkeypatch.setattr(registration, "edgeconv_features", rebuilt)
        oracle = register(source, target, cfg)
        np.testing.assert_array_equal(cached.motion.rotation, oracle.motion.rotation)
        np.testing.assert_array_equal(cached.motion.translation, oracle.motion.translation)
        assert cached.per_iteration_residuals == oracle.per_iteration_residuals

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_eigen_poses_match_rebuilding_every_iteration(self, monkeypatch, metric):
        # Oracle: every iteration's posed source features against a fresh graph
        # and eigen decomposition of the source as that iteration places it.
        cfg = RegistrationConfig(
            metric=metric, descriptor="eigen", k=10, k_base=6, max_iters=8, convergence_tol=0.0
        )
        source, target = self._pair(13)
        posed = []

        def recording(features, rotation):
            out = pose_eigen_features(features, rotation)
            posed.append((rotation, out))
            return out

        monkeypatch.setattr(registration, "pose_eigen_features", recording)
        res = register(source, target, cfg)
        assert len(posed) == res.iterations == cfg.max_iters
        np.testing.assert_array_equal(posed[0][0], np.eye(3))
        assert rotation_angle_rad(posed[-1][0]) > 0.1
        for rotation, got in posed:
            moved = apply(RigidMotion(rotation, np.zeros(3)), source)
            want = eigen_features(moved, build_graph(moved, cfg.metric, cfg.k, cfg.k_base))
            np.testing.assert_allclose(got[:, :3], want[:, :3], atol=1e-12, rtol=0)
            off = (np.abs(got[:, 5]) > 1e-9) & (np.abs(want[:, 5]) > 1e-9)
            np.testing.assert_allclose(got[off, 3:], want[off, 3:], atol=1e-12, rtol=0)


    @staticmethod
    def _count_builds(monkeypatch):
        """Count the graph builds behind build_graph, as (engine, k) pairs.

        The base-edge `knn` inside a geodesic build is part of that build.
        """
        builds, in_geodesic = [], []
        knn, knn_geodesic = neighborhood.knn, neighborhood.knn_geodesic

        def counting_knn(cloud, k, *args):
            if not in_geodesic:
                builds.append(("knn", k))
            return knn(cloud, k, *args)

        def counting_geodesic(cloud, k_base, k):
            builds.append(("geodesic", k))
            in_geodesic.append(True)
            try:
                return knn_geodesic(cloud, k_base, k)
            finally:
                in_geodesic.pop()

        monkeypatch.setattr(neighborhood, "knn", counting_knn)
        monkeypatch.setattr(neighborhood, "knn_geodesic", counting_geodesic)
        return builds

    @pytest.mark.parametrize("metric", METRICS)
    def test_same_key_builds_once(self, monkeypatch, metric):
        builds = self._count_builds(monkeypatch)
        cloud = self._pair(14)[0]
        first = build_graph(cloud, metric, 8, k_base=5)
        again = build_graph(cloud, metric, 8, k_base=5)
        assert again is first
        assert len(builds) == 1
        fresh = build_graph(PointCloud(cloud.points), metric, 8, k_base=5)
        np.testing.assert_array_equal(first.neighbors, fresh.neighbors)

    def test_metric_k_and_geodesic_k_base_build_again(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        cloud = self._pair(15)[0]
        keys = [("euclidean", 8, 5), ("mahalanobis", 8, 5), ("geodesic", 8, 5),
                ("euclidean", 9, 5), ("geodesic", 9, 5), ("geodesic", 8, 6)]
        graphs = [build_graph(cloud, metric, k, k_base=k_base) for metric, k, k_base in keys]
        assert len(builds) == len(keys)
        for (metric, k, k_base), graph in zip(keys, graphs):
            assert build_graph(cloud, metric, k, k_base=k_base) is graph
        assert len(builds) == len(keys)

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    def test_k_base_does_not_split_non_geodesic_keys(self, monkeypatch, metric):
        builds = self._count_builds(monkeypatch)
        cloud = self._pair(16)[0]
        graphs = {id(build_graph(cloud, metric, 8, k_base=k_base)) for k_base in (None, 3, 8, 20)}
        assert len(graphs) == 1 and builds == [("knn", 8)]

    def test_geodesic_is_never_served_the_euclidean_graph(self, monkeypatch):
        # With k = k_base the two graphs are equal up to rounding, but
        # criterion 7 times the geodesic search, so it must run.
        builds = self._count_builds(monkeypatch)
        cloud = self._pair(17)[0]
        euclidean = build_graph(cloud, "euclidean", 10, k_base=10)
        geodesic = build_graph(cloud, "geodesic", 10, k_base=10)
        assert geodesic is not euclidean
        assert builds == [("knn", 10), ("geodesic", 10)]
        # An omitted k_base is k, so both spellings share one geodesic entry.
        assert build_graph(cloud, "geodesic", 10) is geodesic
        assert builds == [("knn", 10), ("geodesic", 10)]

    def test_geodesic_base_graph_is_kept_and_shared(self, monkeypatch):
        built = []
        knn = neighborhood.knn

        def recording_knn(*args, **kwargs):
            built.append(knn(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(neighborhood, "knn", recording_knn)
        cloud = self._pair(22)[0]
        build_graph(cloud, "geodesic", 10, k_base=6)
        euclidean = build_graph(cloud, "euclidean", 6)
        assert len(built) == 1
        assert euclidean is built[0]
        np.testing.assert_array_equal(euclidean.neighbors, knn(cloud, 6).neighbors)

    def test_second_pipeline_of_a_trial_builds_no_graph(self, monkeypatch):
        # The harness hands the same corrupted pair to every pipeline of a trial.
        knn_calls = []
        knn = neighborhood.knn

        def counting_knn(*args, **kwargs):
            knn_calls.append(1)
            return knn(*args, **kwargs)

        per_register = []

        def recording(source, target, cfg):
            before = len(knn_calls)
            result = register(source, target, cfg)
            per_register.append(len(knn_calls) - before)
            return result

        monkeypatch.setattr(neighborhood, "knn", counting_knn)
        monkeypatch.setattr(harness, "register", recording)
        pipelines = tuple(
            (name, RegistrationConfig(metric="mahalanobis", descriptor=name, k=10, max_iters=3))
            for name in ("eigen", "edgeconv")
        )
        harness.run_scenario(harness.Scenario(
            name="memo", input="shape:sphere-cap:120:0", trials=2, pipelines=pipelines,
        ))
        # The default noise leaves the source untouched, so corrupt returns the
        # input cloud itself and its graph serves the second trial too.
        assert per_register == [2, 0, 1, 0]

    @pytest.mark.parametrize("write", ["view", "flag"])
    def test_writes_to_the_callers_array_reach_neither_cloud_nor_graph(self, write):
        base = sphere_cap(120, seed=18).points.copy()
        original = base.copy()
        if write == "view":
            # A cloud built on a view of a wider writable array.
            wide = np.hstack([base, np.zeros((len(base), 1))])
            cloud = PointCloud(wide[:, :3])
            graph = build_graph(cloud, "euclidean", 8)
            wide[:, :3] = wide[::-1, :3]
        else:
            # A cloud built on an array the caller makes writable again.
            cloud = PointCloud(base)
            graph = build_graph(cloud, "euclidean", 8)
            base.setflags(write=True)
            base[:] = base[::-1]
        np.testing.assert_array_equal(cloud.points, original)
        assert not cloud.points.flags.writeable
        assert build_graph(cloud, "euclidean", 8) is graph
        fresh = build_graph(PointCloud(original), "euclidean", 8)
        np.testing.assert_array_equal(graph.neighbors, fresh.neighbors)


class TestStartPoseReuse:
    """Point-ICP's start pose is computed once per (source, target) pair."""

    @staticmethod
    def _count_starts(monkeypatch):
        calls = []
        coarse_alignment = registration._coarse_alignment

        def counting(source, target, *args):
            calls.append(1)
            return coarse_alignment(source, target, *args)

        monkeypatch.setattr(registration, "_coarse_alignment", counting)
        return calls

    @staticmethod
    def _outcome(res):
        return (
            res.motion.rotation.tobytes(),
            res.motion.translation.tobytes(),
            res.per_iteration_residuals,
        )

    def test_one_harness_trial_of_point_icp_decomposes_each_cloud_once(self, monkeypatch):
        # The point-icp benchmark workload, one trial: point-ICP, then point-ICP
        # with the mutual filter, on one corrupted pair.
        eigen_calls = []

        def counting(cloud, graph):
            eigen_calls.append(len(cloud))
            return eigen_features(cloud, graph)

        monkeypatch.setattr(registration, "eigen_features", counting)
        starts = self._count_starts(monkeypatch)
        scenario = harness.Scenario(
            name="point-icp", input="shape:sphere-cap:3072:0",
            noise=NoiseSpec.parse("bernoulli:keep_prob=0.7"), trials=1,
            pipelines=(
                ("point-icp", RegistrationConfig(convergence_tol=0.0)),
                ("point-icp-mutual", RegistrationConfig(convergence_tol=0.0, mutual=True)),
            ),
        )
        report = harness.run_scenario(scenario)
        assert all(cell["failures"] == 0 for cell in report.cells.values())
        assert len(eigen_calls) == 2 and len(set(eigen_calls)) == 2
        assert len(starts) == 1

    def test_loop_settings_share_the_start(self, monkeypatch):
        source, target = TestGraphReuse._pair(19)
        base = RegistrationConfig(max_iters=6, convergence_tol=0.0)
        # Oracle: each configuration on fresh copies of the clouds.
        configs = [
            base,
            dataclasses.replace(base, mutual=True),
            dataclasses.replace(base, max_iters=2),
            dataclasses.replace(base, convergence_tol=1e-2),
            # Non-geodesic graphs do not read k_base, so neither does their start.
            dataclasses.replace(base, k_base=7),
        ]
        fresh = [
            self._outcome(register(PointCloud(source.points), PointCloud(target.points), cfg))
            for cfg in configs
        ]
        starts = self._count_starts(monkeypatch)
        shared = [self._outcome(register(source, target, cfg)) for cfg in configs]
        assert len(starts) == 1
        assert shared == fresh

    @pytest.mark.parametrize("change", [
        {"metric": "mahalanobis"},
        {"k": 8},
        {"trim_fraction": 0.2},
        {"metric": "geodesic", "k_base": 7},
    ])
    def test_start_is_not_served_for_other_graphs_or_trimming(self, monkeypatch, change):
        source, target = TestGraphReuse._pair(20)
        base = RegistrationConfig(
            metric="geodesic" if "k_base" in change else "euclidean", k=10, k_base=6
        )
        starts = self._count_starts(monkeypatch)
        register(source, target, base)
        register(source, target, dataclasses.replace(base, **change))
        assert len(starts) == 2

    def test_start_is_not_served_for_another_pair(self, monkeypatch):
        source, target = TestGraphReuse._pair(21)
        cfg = RegistrationConfig(max_iters=4)
        starts = self._count_starts(monkeypatch)
        first = self._outcome(register(source, target, cfg))
        # Equal points in other objects: computed again, to the same result.
        assert self._outcome(register(source, PointCloud(target.points), cfg)) == first
        assert len(starts) == 2
        assert self._outcome(register(PointCloud(source.points), target, cfg)) == first
        assert len(starts) == 3
        # One start is kept per key, so the first source's was replaced.
        assert self._outcome(register(source, target, cfg)) == first
        assert len(starts) == 4
        register(source, target, cfg)
        assert len(starts) == 4

    # Trial 0 starts from identity, where the placed source is the source
    # itself, and trial 1 from the coarse pose.
    @pytest.mark.parametrize("trial", [0, 1])
    def test_kept_start_leaves_no_reference_cycle(self, trial):
        source, target = TestRegister._bernoulli_trial(trial)
        register(source, target, RegistrationConfig(max_iters=2))
        refs = [weakref.ref(source), weakref.ref(target)]
        gc.disable()
        try:
            del source, target
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestTargetLift:
    """The fixed target is lifted for `nearest` at most once per registration,
    not per iteration, and its lift is kept for later registrations."""

    @staticmethod
    def _count_lifts(monkeypatch):
        sizes = []

        def counting(points):
            sizes.append(len(points))
            return neighborhood.lift(points)

        monkeypatch.setattr(registration, "lift", counting)
        return sizes

    @pytest.mark.parametrize("max_iters", [2, 30])
    @pytest.mark.parametrize("descriptor,mutual,target_lifts", [
        # Every pipeline's lifted target features are kept on the target, and
        # point-ICP also lifts the eigen components its start pose matches,
        # kept with the start, so a second registration on the same pair
        # lifts nothing of the target.
        ("none", False, (2, 0)),
        ("none", True, (2, 0)),
        ("eigen", False, (1, 0)),
        ("edgeconv", False, (1, 0)),
    ], ids=["none", "none-mutual", "eigen", "edgeconv"])
    def test_target_is_lifted_once_per_registration(
        self, monkeypatch, descriptor, mutual, target_lifts, max_iters
    ):
        # Clouds of different sizes, so the size of a lifted array names its side.
        source = sphere_cap(120, seed=23)
        target = PointCloud(apply(make_rigid((8, -5, 10), (0.1, 0.0, -0.1)), source).points[:100])
        cfg = RegistrationConfig(
            descriptor=descriptor, k=10, max_iters=max_iters, convergence_tol=0.0, mutual=mutual
        )
        sizes = self._count_lifts(monkeypatch)
        for want in target_lifts:
            sizes.clear()
            res = register(source, target, cfg)
            assert res.iterations == max_iters
            assert sizes.count(len(target)) == want
            # The mutual filter's backward pass ranks against the moving
            # source, lifted on each call.
            assert sizes.count(len(source)) == (max_iters if mutual else 0)
            assert len(sizes) == want + (max_iters if mutual else 0)


class TestKeptFeatures:
    """Every pipeline keeps its target features and their lift on the target
    under (descriptor, graph key), read-only."""

    @pytest.mark.parametrize("descriptor", ["none", "eigen", "edgeconv"])
    def test_kept_target_features_are_read_only(self, descriptor):
        source = sphere_cap(120, seed=23)
        target = apply(make_rigid((8, -5, 10), (0.1, 0.0, -0.1)), source)
        cfg = RegistrationConfig(descriptor=descriptor, k=10, max_iters=2)
        register(source, target, cfg)
        key = (descriptor, neighborhood.graph_key(cfg.metric, cfg.k, cfg.k_base))
        features = registration._features(target, descriptor, cfg)
        lifted_features = target._kept[("lifted",) + key]
        np.testing.assert_array_equal(lifted_features, neighborhood.lift(features))
        if descriptor != "none":
            assert target._kept[key] is features
        for kept in (features, lifted_features):
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 1.0


class TestCoordinateRange:
    """register names the coordinate range it accepts."""

    PIPELINES = {"point-icp": {}, "point-icp-mutual": {"mutual": True}}
    PIPELINES.update({
        f"{metric}-{descriptor}": {"metric": metric, "descriptor": descriptor}
        for metric in METRICS for descriptor in ("eigen", "edgeconv")
    })

    @staticmethod
    def _pair(scale):
        # Unit-sphere coordinates moved by a pure rotation stay within 1, and
        # the cap's bounding box is 1.7 wide.
        source = sphere_cap(200, seed=19)
        target = apply(make_rigid((10, -5, 20), (0.0, 0.0, 0.0)), source)
        return PointCloud(source.points * scale), PointCloud(target.points * scale)

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize(
        "scale,limit", [(1e160, "above the limit 1e+150"), (1e-160, "below the limit 1e-150")]
    )
    def test_out_of_range_is_named(self, pipeline, scale, limit):
        cfg = RegistrationConfig(k=10, k_base=6, max_iters=3, **self.PIPELINES[pipeline])
        with pytest.raises(InvalidArgumentError, match=re.escape(limit)):
            register(*self._pair(scale), cfg)

    # Edge-conv is left out at 1e-150: its layer is not scale-equivariant, and
    # at small scales its features stop separating the points, so the solver
    # raises RankDeficiencyError.
    @pytest.mark.parametrize("pipeline,scale", [
        (pipeline, scale)
        for pipeline in sorted(PIPELINES)
        for scale in (1e150, 1e-150)
        if scale > 1 or not pipeline.endswith("edgeconv")
    ])
    def test_edges_of_the_range_register(self, pipeline, scale):
        cfg = RegistrationConfig(k=10, k_base=6, max_iters=3, **self.PIPELINES[pipeline])
        result = register(*self._pair(scale), cfg)
        assert np.all(np.isfinite(result.motion.rotation))
        assert np.all(np.isfinite(result.motion.translation))

    def test_whitened_edgeconv_runs_past_the_range_it_starts_in(self):
        # Kabsch steps carry the moved source past MAX_ABS_COORDINATE, which
        # edgeconv_features admits up to MAX_ABS_EDGECONV.
        rng = np.random.default_rng(0)
        source = PointCloud(rng.uniform(-1e150, 1e150, size=(200, 3)))
        moved = apply(make_rigid((30, 20, 10), (0.0, 0.0, 0.0)), source).points
        target = PointCloud(moved * (1e150 / np.abs(moved).max()))
        cfg = RegistrationConfig(metric="mahalanobis", descriptor="edgeconv")
        result = register(source, target, cfg)
        assert result.iterations == cfg.max_iters
        assert np.abs(apply(result.motion, source).points).max() > MAX_ABS_COORDINATE
        assert np.all(np.isfinite(result.motion.translation))

    def test_coincident_points_are_left_to_the_solver(self):
        # Extent 0 is degenerate geometry, not a coordinate range.
        cloud = PointCloud(np.ones((40, 3)))
        with pytest.raises(MahaknnError) as exc:
            register(cloud, cloud, RegistrationConfig(k=8, max_iters=2))
        assert not isinstance(exc.value, InvalidArgumentError)


# Combinations of a RegistrationConfig field and a pipeline in which nothing
# reads the field, as (field, descriptor, metric, k); "any" matches every value.
# Every other change of a field changes register's output or is rejected with
# a message. The README quotes this table.
UNREAD_FIELDS = (
    ("k_base", "any", "euclidean", "any"),
    ("k_base", "any", "mahalanobis", "any"),
    ("metric", "none", "any", "< 3"),
    ("k_base", "none", "any", "< 3"),
)


def listed_unread(field, cfg):
    return any(
        name == field
        and descriptor in ("any", cfg.descriptor)
        and metric in ("any", cfg.metric)
        and (k == "any" or cfg.k < 3)
        for name, descriptor, metric, k in UNREAD_FIELDS
    )


class TestConfigFields:
    """Each RegistrationConfig field, changed alone, in every pipeline."""

    # k = 6 for every pipeline, and k = 2 for point-ICP, which then has no
    # coarse start. k_base < k, so geodesic graphs differ from Euclidean ones.
    BASES = [
        {"descriptor": d, "metric": m, "k": 6} for d in ("none", "eigen", "edgeconv") for m in METRICS
    ] + [{"descriptor": "none", "metric": m, "k": 2} for m in METRICS]
    COMMON = {"max_iters": 4, "convergence_tol": 0.0, "trim_fraction": 0.3, "k_base": 3}
    # Changed values; a step above pi rad ends the first iteration.
    CHANGES = {
        "metric": list(METRICS),
        "descriptor": ["none", "eigen", "edgeconv"],
        "k": [4],
        "max_iters": [2],
        "convergence_tol": [4.0],
        "trim_fraction": [0.1],
        "k_base": [5],
        "mutual": [True],
    }

    @staticmethod
    def _pair():
        # Anisotropic Gaussian blob, which no rigid motion maps onto itself; the
        # target is a moved copy with its own noise, so matches are not exact.
        rng = np.random.default_rng(21)
        source = PointCloud(rng.normal(size=(60, 3)) * (1.0, 0.6, 0.3))
        moved = apply(make_rigid((70, -40, 25), (0.3, -0.2, 0.1)), source).points
        return source, PointCloud(moved + rng.normal(scale=0.05, size=moved.shape))

    @staticmethod
    def _outcome(source, target, cfg):
        try:
            res = register(source, target, cfg)
        except InvalidArgumentError as exc:
            assert str(exc), cfg
            return None
        corr = res.correspondences_final
        return (
            res.motion.rotation.tobytes(),
            res.motion.translation.tobytes(),
            res.iterations,
            res.per_iteration_residuals,
            corr.source_indices.tobytes(),
            corr.target_indices.tobytes(),
        )

    def test_every_field_is_covered(self):
        assert list(self.CHANGES) == [f.name for f in dataclasses.fields(RegistrationConfig)]

    @pytest.mark.parametrize("field", sorted(CHANGES))
    @pytest.mark.parametrize(
        "base", BASES, ids=[f"{b['descriptor']}-{b['metric']}-k{b['k']}" for b in BASES]
    )
    def test_field_is_read_rejected_or_listed(self, base, field):
        source, target = self._pair()
        cfg = RegistrationConfig(**base, **self.COMMON)
        before = self._outcome(source, target, cfg)
        assert before is not None
        for value in self.CHANGES[field]:
            if value == getattr(cfg, field):
                continue
            after = self._outcome(source, target, dataclasses.replace(cfg, **{field: value}))
            if listed_unread(field, cfg):
                assert after == before, (field, value)
            else:
                assert after != before, (field, value)
