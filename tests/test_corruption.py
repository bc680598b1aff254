import numpy as np
import pytest

from mahaknn.corruption import NoiseSpec, corrupt
from mahaknn.errors import InvalidArgumentError
from mahaknn.geometry import PointCloud


def pair(n=100, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    return PointCloud(pts), PointCloud(pts + 1.0)


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec("gaussian")
        assert spec.sigma == 0.01
        assert spec.clip == 0.05
        assert spec.keep_prob == 0.7
        assert spec.ratio == 0.5
        assert spec.applied_to == "both"

    def test_serialize_parse_round_trip(self):
        cases = [
            NoiseSpec("none"),
            NoiseSpec("gaussian", sigma=0.02, clip=0.1),
            NoiseSpec("bernoulli", keep_prob=0.5, applied_to="source"),
            NoiseSpec("sampling", ratio=0.25),
            NoiseSpec("zero_intersection"),
            NoiseSpec("subsample", count=128, applied_to="target"),
        ]
        for spec in cases:
            assert NoiseSpec.parse(spec.serialize()) == spec

    def test_parse_rejects_garbage(self):
        for bad in ("speckle", "gaussian:sigma", "gaussian:volume=2", "gaussian:sigma=abc",
                    "subsample:count=1.5",
                    # Parameters the variant never reads.
                    "gaussian:keep_prob=0.5", "sampling:applied_to=target", "none:sigma=3",
                    "zero_intersection:ratio=0.2", "bernoulli:sigma=-1",
                    # Non-finite noise: NaN would surface as a bad cloud, inf as +-clip.
                    "gaussian:sigma=nan", "gaussian:sigma=inf", "gaussian:clip=nan"):
            with pytest.raises(InvalidArgumentError):
                NoiseSpec.parse(bad)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidArgumentError):
            NoiseSpec("gaussian", sigma=0.0)
        with pytest.raises(InvalidArgumentError):
            NoiseSpec("bernoulli", keep_prob=0.0)
        with pytest.raises(InvalidArgumentError):
            NoiseSpec("subsample", count=0)
        with pytest.raises(InvalidArgumentError):
            NoiseSpec("gaussian", applied_to="everything")


class TestGaussian:
    def test_clip_bound_holds_exactly(self):
        s, t = pair(5000, seed=1)
        cs, ct = corrupt(s, t, NoiseSpec("gaussian"), np.random.default_rng(2))
        assert np.max(np.abs(cs.points - s.points)) <= 0.05
        assert np.max(np.abs(ct.points - t.points)) <= 0.05

    def test_empirical_sigma(self):
        s, t = pair(10_000, seed=3)
        spec = NoiseSpec("gaussian", sigma=0.01, clip=1.0)  # clip far out
        cs, _ = corrupt(s, t, spec, np.random.default_rng(4))
        assert np.std(cs.points - s.points) == pytest.approx(0.01, rel=0.05)

    def test_applied_to_source_only(self):
        s, t = pair(50, seed=5)
        cs, ct = corrupt(s, t, NoiseSpec("gaussian", applied_to="source"),
                         np.random.default_rng(6))
        assert not np.array_equal(cs.points, s.points)
        np.testing.assert_array_equal(ct.points, t.points)


class TestDensityVariants:
    def test_bernoulli_keeps_subset_in_order(self):
        s, t = pair(200, seed=7)
        cs, ct = corrupt(s, t, NoiseSpec("bernoulli", keep_prob=0.7),
                         np.random.default_rng(8))
        for orig, kept in ((s, cs), (t, ct)):
            rows = {tuple(p) for p in orig.points}
            assert all(tuple(p) in rows for p in kept.points)
            assert len(kept) < len(orig)

    def test_sampling_produces_disjoint_index_sets(self):
        s, t = pair(100, seed=9)
        cs, ct = corrupt(s, t, NoiseSpec("sampling", ratio=0.4),
                         np.random.default_rng(10))
        assert len(cs) == len(ct) == 40
        si = {tuple(p) for p in cs.points}
        ti = {tuple(p - 1.0) for p in ct.points}
        assert not si & ti

    def test_zero_intersection_splits_everything(self):
        s, t = pair(101, seed=11)
        cs, ct = corrupt(s, t, NoiseSpec("zero_intersection"),
                         np.random.default_rng(12))
        assert len(cs) + len(ct) == 101
        si = {tuple(p) for p in cs.points}
        ti = {tuple(p - 1.0) for p in ct.points}
        assert not si & ti
        assert len(si | ti) == 101

    def test_subsample_target_half(self):
        s, t = pair(2048, seed=13)
        spec = NoiseSpec("subsample", count=1024, applied_to="target")
        cs, ct = corrupt(s, t, spec, np.random.default_rng(14))
        assert len(cs) == 2048
        assert len(ct) == 1024
        rows = {tuple(p) for p in t.points}
        assert all(tuple(p) in rows for p in ct.points)

    def test_subsample_count_too_large(self):
        s, t = pair(10, seed=15)
        with pytest.raises(InvalidArgumentError):
            corrupt(s, t, NoiseSpec("subsample", count=11), np.random.default_rng(0))

    def test_sampling_needs_room(self):
        s, t = pair(10, seed=16)
        with pytest.raises(InvalidArgumentError):
            corrupt(s, t, NoiseSpec("sampling", ratio=0.6), np.random.default_rng(0))


def test_none_is_identity():
    s, t = pair(30, seed=17)
    cs, ct = corrupt(s, t, NoiseSpec("none"), np.random.default_rng(18))
    np.testing.assert_array_equal(cs.points, s.points)
    np.testing.assert_array_equal(ct.points, t.points)


def test_deterministic_for_fixed_seed():
    s, t = pair(300, seed=19)
    for spec in (NoiseSpec("gaussian"), NoiseSpec("bernoulli"),
                 NoiseSpec("sampling"), NoiseSpec("subsample", count=100)):
        a = corrupt(s, t, spec, np.random.default_rng(20))
        b = corrupt(s, t, spec, np.random.default_rng(20))
        np.testing.assert_array_equal(a[0].points, b[0].points)
        np.testing.assert_array_equal(a[1].points, b[1].points)
