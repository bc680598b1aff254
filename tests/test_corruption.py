import hashlib

import numpy as np
import pytest

from mahaknn import corruption
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
            # Numpy scalars are stored as their Python values, whose text parses back.
            NoiseSpec("gaussian", sigma=np.float32(0.1), clip=np.float64(0.5), applied_to=np.str_("source")),
            NoiseSpec(np.str_("subsample"), count=np.int64(128)),
        ]
        for spec in cases:
            assert NoiseSpec.parse(spec.serialize()) == spec
            assert {type(v) for v in vars(spec).values()} <= {str, int, float}

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
        with pytest.raises(InvalidArgumentError, match="unknown noise variant"):
            NoiseSpec("speckle")
        with pytest.raises(InvalidArgumentError, match="ratio"):
            NoiseSpec("sampling", ratio=0.0)


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

    def test_bernoulli_keeps_the_smallest_draw_when_the_draw_keeps_none(self):
        # keep_prob=1e-300 keeps no point by its draw; each side then keeps the
        # one point with its smallest draw, source draws before target draws.
        s, t = pair(100, seed=3)
        draws = np.random.default_rng(4)
        expected = [orig.points[[np.argmin(draws.random(len(orig)))]] for orig in (s, t)]
        kept = corrupt(s, t, NoiseSpec("bernoulli", keep_prob=1e-300), np.random.default_rng(4))
        for cloud, points in zip(kept, expected):
            np.testing.assert_array_equal(cloud.points, points)

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


@pytest.mark.parametrize("text,source_kept,target_kept", [
    ("none", True, True),
    ("gaussian", False, False),
    ("gaussian:applied_to=source", False, True),
    ("bernoulli:applied_to=target", True, False),
    ("subsample:count=20,applied_to=source", False, True),
    ("subsample:count=20,applied_to=target", True, False),
    ("sampling", False, False),
    ("zero_intersection", False, False),
])
def test_untouched_side_is_the_input_object(text, source_kept, target_kept):
    # What is kept on an input cloud (graphs, eigen features) then serves
    # every pair the harness corrupts from it.
    s, t = pair(40, seed=21)
    cs, ct = corrupt(s, t, NoiseSpec.parse(text), np.random.default_rng(22))
    assert (cs is s) == source_kept
    assert (ct is t) == target_kept


def test_deterministic_for_fixed_seed():
    s, t = pair(300, seed=19)
    for spec in (NoiseSpec("gaussian"), NoiseSpec("bernoulli"),
                 NoiseSpec("sampling"), NoiseSpec("subsample", count=100)):
        a = corrupt(s, t, spec, np.random.default_rng(20))
        b = corrupt(s, t, spec, np.random.default_rng(20))
        np.testing.assert_array_equal(a[0].points, b[0].points)
        np.testing.assert_array_equal(a[1].points, b[1].points)


# sha256 of len(source) and the (source, target) point bytes, first 16 hex
# digits, at seeds 0, 1 and 2 on `digest_pair`. Any change to the draw order
# or to what a draw selects changes a digest.
DIGESTS = {
    "none": ("c389461975a3fc5a", "c389461975a3fc5a", "c389461975a3fc5a"),
    "gaussian:applied_to=source": ("c95ecba2440dd095", "288c77c08cebf908", "de59d51dc3f05f0a"),
    "gaussian:applied_to=target": ("141a19cc7c2eec79", "1e43903c515c1678", "d957c3bafebaa7f4"),
    "gaussian": ("88797f34bf80aa29", "86224ed9eaed7c01", "9f3b6c647af15d87"),
    "bernoulli:keep_prob=0.5,applied_to=source": (
        "208131847aeb7115", "e9c5d479d5cb8262", "9e2d5122b3cd5a32"),
    "bernoulli:keep_prob=0.5,applied_to=target": (
        "b224009b1be51ffb", "bc25ca5362ba58f3", "177c2d5e8c7654c2"),
    "bernoulli:keep_prob=0.5": ("d860c9b0f6d22a70", "98ea15ad8f879c96", "ef5442d7b87869cf"),
    "subsample:count=4,applied_to=source": (
        "229746318f919428", "50e1db3a34e7b7d7", "469f6ebafa6163ce"),
    "subsample:count=4,applied_to=target": (
        "5fa739e6aff92509", "458c17392739ff82", "8a1cced08b52affc"),
    "subsample:count=4": ("e9c0153e885335ee", "3d2fd3b769755e57", "7eb26e2f18694cf2"),
    "sampling:ratio=0.3": ("a1c24eb1dd9bebed", "2ce635f524a8c1fe", "54bee3b993d2b7b8"),
    "sampling": ("6b90ddd87ccbb49b", "1024a63cc603b9a1", "d594eb9a0e3c2c75"),
    "zero_intersection": ("a6fe6e27f95cf94b", "eca3f501fd2c9d26", "7d8b33e5af3f1244"),
}


def digest_pair():
    """11 points, so sampling and zero_intersection leave points over and split unevenly."""
    pts = np.arange(33, dtype=float).reshape(11, 3) / 7.0
    return PointCloud(pts), PointCloud(2.0 * pts + 1.0)


@pytest.mark.parametrize("text", DIGESTS)
def test_output_bytes_are_pinned(text):
    s, t = digest_pair()
    for seed, want in enumerate(DIGESTS[text]):
        cs, ct = corrupt(s, t, NoiseSpec.parse(text), np.random.default_rng(seed))
        blob = b"%d;" % len(cs) + cs.points.tobytes() + ct.points.tobytes()
        assert hashlib.sha256(blob).hexdigest()[:16] == want, (text, seed)


def test_digests_cover_every_variant_and_side():
    specs = [NoiseSpec.parse(text) for text in DIGESTS]
    for variant, params in corruption._VARIANT_PARAMS.items():
        sides = corruption._TARGETS if "applied_to" in params else ("both",)
        for side in sides:
            assert any(s.variant == variant and s.applied_to == side for s in specs)


@pytest.mark.parametrize("variant", corruption.PAIR_VARIANTS)
def test_split_needs_equal_lengths(variant):
    s, t = pair(10, seed=23)
    with pytest.raises(InvalidArgumentError, match=f"^{variant} needs equal-length"):
        corrupt(s, PointCloud(t.points[:9]), NoiseSpec(variant), np.random.default_rng(0))


def test_zero_intersection_needs_two_points():
    one = PointCloud(np.zeros((1, 3)))
    with pytest.raises(InvalidArgumentError, match="^zero_intersection leaves no room"):
        corrupt(one, one, NoiseSpec("zero_intersection"), np.random.default_rng(0))
