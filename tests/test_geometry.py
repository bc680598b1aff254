import gc
import weakref

import numpy as np
import pytest

from mahaknn.errors import InvalidArgumentError, RankDeficiencyError
from mahaknn.geometry import (
    CorrespondenceSet,
    PointCloud,
    RigidMotion,
    apply,
    check_finite,
    check_range,
    compose,
    euler_zyx_deg,
    identity_motion,
    invert,
    kabsch,
    make_rigid,
    rotation_angle_rad,
    sample_rigid,
)
from mahaknn.neighborhood import NeighborGraph
from mahaknn.statistics import CovarianceModel, identity_model


def random_cloud(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return PointCloud(scale * rng.normal(size=(n, 3)))


def identity_corr(n):
    idx = np.arange(n)
    return CorrespondenceSet(idx, idx)


class TestMakeRigid:
    def test_identity(self):
        m = make_rigid((0, 0, 0), (0, 0, 0))
        np.testing.assert_allclose(m.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(m.translation, 0.0)

    def test_quarter_turn_z(self):
        m = make_rigid((0, 0, 90), (0, 0, 0))
        out = apply(m, PointCloud([(1, 0, 0)]))
        np.testing.assert_allclose(out.points[0], (0, 1, 0), atol=1e-12)

    def test_matches_elemental_product(self):
        # Oracle: multiply the three axis rotations built by hand.
        a, b, g = np.deg2rad([10.0, 20.0, 30.0])
        rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
        ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
        rz = np.array([[np.cos(g), -np.sin(g), 0], [np.sin(g), np.cos(g), 0], [0, 0, 1]])
        m = make_rigid((10, 20, 30), (0.1, -0.2, 0.3))
        np.testing.assert_allclose(m.rotation, rz @ ry @ rx, atol=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            make_rigid((np.nan, 0, 0), (0, 0, 0))

    def test_euler_round_trip(self):
        m = make_rigid((10, 20, 30), (0, 0, 0))
        np.testing.assert_allclose(euler_zyx_deg(m.rotation), (10, 20, 30), atol=1e-10)

    @pytest.mark.parametrize("angles", [(30, 90, 20), (-40, -90, 10)])
    def test_euler_at_gimbal_lock_rebuilds_the_rotation(self, angles):
        # At beta = +-90 only alpha -+ gamma is defined; gamma is reported as 0.
        rotation = make_rigid(angles, (0, 0, 0)).rotation
        alpha, beta, gamma = euler_zyx_deg(rotation)
        assert (beta, gamma) == (angles[1], 0.0)
        np.testing.assert_allclose(make_rigid((alpha, beta, gamma), (0, 0, 0)).rotation, rotation, atol=1e-15)


class TestSampleRigid:
    def test_zero_width_intervals_give_identity(self):
        m = sample_rigid(np.random.default_rng(0), (0, 0), (0, 0))
        np.testing.assert_allclose(m.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(m.translation, 0.0)

    def test_uniform_law(self):
        # Per-angle mean of 1e4 draws should sit near 22.5 and inside range.
        rng = np.random.default_rng(42)
        angles = np.array(
            [euler_zyx_deg(sample_rigid(rng).rotation) for _ in range(10_000)]
        )
        assert np.all(np.abs(angles.mean(axis=0) - 22.5) < 1.0)
        assert np.all(angles > -1e-9) and np.all(angles < 45 + 1e-9)

    def test_deterministic_for_fixed_seed(self):
        m1 = sample_rigid(np.random.default_rng(7))
        m2 = sample_rigid(np.random.default_rng(7))
        np.testing.assert_array_equal(m1.rotation, m2.rotation)
        np.testing.assert_array_equal(m1.translation, m2.translation)

    def test_invalid_interval(self):
        with pytest.raises(InvalidArgumentError):
            sample_rigid(np.random.default_rng(0), (10, 0), (0, 0))


class TestApplyComposeInvert:
    def test_identity_apply(self):
        cloud = random_cloud(20)
        out = apply(identity_motion(), cloud)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_group_inverse(self):
        m = make_rigid((10, 20, 30), (0.5, -0.3, 0.1))
        cloud = random_cloud(15)
        back = apply(m, apply(invert(m), cloud))
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-9)

    def test_quarter_turn_with_shift(self):
        m = make_rigid((0, 0, 90), (1, 0, 0))
        out = apply(m, PointCloud([(1, 0, 0)]))
        np.testing.assert_allclose(out.points[0], (1, 1, 0), atol=1e-12)

    def test_compose_identity_element(self):
        m = make_rigid((3, 4, 5), (1, 2, 3))
        c = compose(identity_motion(), m)
        np.testing.assert_allclose(c.rotation, m.rotation, atol=1e-15)
        np.testing.assert_allclose(c.translation, m.translation, atol=1e-15)

    def test_invert_involution(self):
        m = make_rigid((3, 4, 5), (1, 2, 3))
        mm = invert(invert(m))
        np.testing.assert_allclose(mm.rotation, m.rotation, atol=1e-9)
        np.testing.assert_allclose(mm.translation, m.translation, atol=1e-9)

    def test_z_rotations_add(self):
        c = compose(make_rigid((0, 0, 45), (0, 0, 0)), make_rigid((0, 0, 45), (0, 0, 0)))
        np.testing.assert_allclose(c.rotation, make_rigid((0, 0, 90), (0, 0, 0)).rotation, atol=1e-12)

    def test_compose_matches_sequential_apply(self):
        a = make_rigid((10, -5, 30), (0.1, 0.2, 0.3))
        b = make_rigid((-20, 15, 5), (-0.3, 0.1, 0.0))
        cloud = random_cloud(10, seed=3)
        lhs = apply(compose(a, b), cloud)
        rhs = apply(a, apply(b, cloud))
        np.testing.assert_allclose(lhs.points, rhs.points, atol=1e-12)

    def test_rigidity_preserves_pairwise_distances(self):
        cloud = random_cloud(40, seed=5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = sample_rigid(rng, (0, 180), (-2, 2))
            moved = apply(m, cloud)
            d0 = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
            d1 = np.linalg.norm(moved.points[:, None] - moved.points[None, :], axis=2)
            assert np.max(np.abs(d0 - d1)) < 1e-9


def _residual(motion, src, tgt, w=None):
    diff = src @ motion.rotation.T + motion.translation - tgt
    r = np.sum(diff**2, axis=1)
    return float(np.sum(r if w is None else w * r))


class TestKabsch:
    def test_self_alignment_is_identity(self):
        cloud = random_cloud(25)
        m = kabsch(cloud, cloud, identity_corr(25))
        np.testing.assert_allclose(m.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(m.translation, 0.0, atol=1e-9)

    def test_recovers_planted_motion(self):
        cloud = random_cloud(50, seed=1)
        g = make_rigid((25, -40, 10), (0.4, -0.5, 0.2))
        target = apply(g, cloud)
        m = kabsch(cloud, target, identity_corr(50))
        assert rotation_angle_rad(m.rotation.T @ g.rotation) < 1e-9
        np.testing.assert_allclose(m.translation, g.translation, atol=1e-9)

    def test_reflection_trap_keeps_proper_rotation(self):
        # Coplanar points whose unconstrained Procrustes optimum is a
        # reflection; the solver must stay in SO(3) and still reach the
        # constrained optimum found by a coarse-to-fine rotation grid search
        # refined to 0.5 degree resolution.
        src_pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 2, 0], [0, -2, 0.0]])
        tgt_pts = src_pts * np.array([-1, 1, 1.0])  # mirror through the yz plane
        src, tgt = PointCloud(src_pts), PointCloud(tgt_pts)
        m = kabsch(src, tgt, identity_corr(4))
        assert abs(np.linalg.det(m.rotation) - 1.0) < 1e-9
        res = _residual(m, src_pts, tgt_pts)

        src_c = src_pts - src_pts.mean(0)
        tgt_c = tgt_pts - tgt_pts.mean(0)

        def grid_best(centers, step, span):
            # Every (alpha, beta, gamma) offset of the grid at once, in the
            # nested-loop order (alpha outermost), so argmin keeps the first
            # minimum exactly as a strict `<` scan would.
            offsets = np.arange(-span, span + step / 2, step)
            grid = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), -1)
            euler = np.asarray(centers) + grid.reshape(-1, 3)
            a, b, g = np.deg2rad(euler).T
            ca, sa, cb, sb, cg, sg = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g)
            one, zero = np.ones_like(a), np.zeros_like(a)
            rx = np.stack([one, zero, zero, zero, ca, -sa, zero, sa, ca], -1).reshape(-1, 3, 3)
            ry = np.stack([cb, zero, sb, zero, one, zero, -sb, zero, cb], -1).reshape(-1, 3, 3)
            rz = np.stack([cg, -sg, zero, sg, cg, zero, zero, zero, one], -1).reshape(-1, 3, 3)
            rot = rz @ ry @ rx  # make_rigid's Rz(g) @ Ry(b) @ Rx(a)
            diff = np.einsum("pj,nij->npi", src_c, rot) - tgt_c
            r = np.sum(diff**2, axis=(1, 2))
            best = int(np.argmin(r))
            return float(r[best]), tuple(euler[best])

        coarse = grid_best((0.0, 0.0, 0.0), 6.0, 180.0)
        fine = grid_best(coarse[1], 0.5, 6.0)
        assert res <= fine[0] + 1e-9
        assert fine[0] - res < 1e-2 * max(res, 1.0)

    def test_collinear_source_raises(self):
        src = PointCloud(np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)]))
        tgt = random_cloud(5, seed=9)
        with pytest.raises(RankDeficiencyError):
            kabsch(src, tgt, identity_corr(5))

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_fewer_than_three_pairs_raise_rank_deficiency(self, pairs):
        cloud = random_cloud(5, seed=3)
        with pytest.raises(RankDeficiencyError):
            kabsch(cloud, cloud, identity_corr(pairs))

    def test_bad_indices_raise(self):
        cloud = random_cloud(5)
        with pytest.raises(InvalidArgumentError):
            kabsch(cloud, cloud, CorrespondenceSet([0, 1, 7], [0, 1, 2]))

    def test_left_equivariance(self):
        cloud = random_cloud(40, seed=4)
        tgt = apply(make_rigid((12, 34, -7), (0.3, 0, 0.1)), cloud)
        corr = identity_corr(40)
        h = make_rigid((-30, 12, 60), (1.0, -2.0, 0.5))
        base = kabsch(cloud, tgt, corr)
        # Moving the source by h must shift the answer by h^-1 on the right:
        # kabsch(h(X), Y) = kabsch(X, Y) o h^-1, equivalently
        # kabsch(X, h(Y)) = h o kabsch(X, Y).
        lifted = kabsch(cloud, apply(h, tgt), corr)
        expect = compose(h, base)
        np.testing.assert_allclose(lifted.rotation, expect.rotation, atol=1e-7)
        np.testing.assert_allclose(lifted.translation, expect.translation, atol=1e-7)
        moved_src = kabsch(apply(h, cloud), tgt, corr)
        expect2 = compose(base, invert(h))
        np.testing.assert_allclose(moved_src.rotation, expect2.rotation, atol=1e-7)
        np.testing.assert_allclose(moved_src.translation, expect2.translation, atol=1e-7)

    def test_optimality_spot_check(self):
        cloud = random_cloud(20, seed=6)
        tgt = apply(make_rigid((18, -22, 40), (0.2, 0.1, -0.3)), cloud)
        pts = tgt.points + np.random.default_rng(8).normal(0, 0.05, size=(20, 3))
        noisy = PointCloud(pts)
        corr = identity_corr(20)
        m = kabsch(cloud, noisy, corr)
        best = _residual(m, cloud.points, pts)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            cand = sample_rigid(rng, (0, 360), (-1, 1))
            assert best <= _residual(cand, cloud.points, pts) + 1e-12


class TestValidation:
    def test_cloud_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            PointCloud([(0, 0, np.nan)])

    def test_cloud_rejects_zero_rows(self):
        with pytest.raises(InvalidArgumentError, match="at least one point"):
            PointCloud(np.empty((0, 3)))

    def test_motion_rejects_non_orthogonal_rotation(self):
        with pytest.raises(InvalidArgumentError, match="not orthogonal"):
            RigidMotion(np.diag([1.0, 2.0, 0.5]), np.zeros(3))

    def test_motion_rejects_improper_rotation(self):
        with pytest.raises(InvalidArgumentError):
            RigidMotion(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_correspondence_holds_only_index_pairs(self):
        with pytest.raises(TypeError):
            CorrespondenceSet([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])

    def test_correspondence_rejects_unequal_lengths(self):
        with pytest.raises(InvalidArgumentError):
            CorrespondenceSet([0, 1, 2], [0, 1])


@pytest.mark.parametrize("make", [
    lambda: PointCloud(np.zeros((3, 3))),
    identity_motion,
    lambda: CorrespondenceSet([0, 1], [1, 0]),
    lambda: NeighborGraph(np.zeros((3, 2))),
    identity_model,
], ids=["cloud", "motion", "correspondences", "graph", "covariance"])
def test_array_value_types_compare_by_identity(make):
    # Generated field-wise equality would compare arrays and raise.
    x, copy = make(), make()
    assert x == x
    assert x != copy
    assert x in [x] and copy not in [x]
    assert {x, copy} == {copy, x} and len({x, copy}) == 2


# One array field of each value type: a builder taking that field's array,
# the field's name, and a valid array for it.
HELD_FIELDS = {
    "cloud": (PointCloud, "points", lambda: np.arange(12.0).reshape(4, 3)),
    "rotation": (lambda a: RigidMotion(a, np.zeros(3)), "rotation", lambda: np.eye(3)),
    "translation": (lambda a: RigidMotion(np.eye(3), a), "translation", lambda: np.zeros(3)),
    "make-rigid": (lambda a: make_rigid((10, 20, 30), a), "translation", lambda: np.zeros(3)),
    "source-indices": (lambda a: CorrespondenceSet(a, [0, 1, 2]), "source_indices", lambda: np.arange(3)),
    "target-indices": (lambda a: CorrespondenceSet([0, 1, 2], a), "target_indices", lambda: np.arange(3)),
    "graph": (NeighborGraph, "neighbors", lambda: np.array([[1, 2], [0, 2], [0, 1]])),
    "covariance": (lambda a: CovarianceModel(a, np.eye(3)), "covariance", lambda: 2.0 * np.eye(3)),
    "inverse": (lambda a: CovarianceModel(np.eye(3), a), "inverse", lambda: 0.5 * np.eye(3)),
}


@pytest.mark.parametrize("name", HELD_FIELDS)
def test_writes_to_the_base_of_a_view_do_not_reach_the_value(name):
    build, field, make = HELD_FIELDS[name]
    original = make()
    base = np.stack([original, original])
    value = build(base[0])
    base += 1
    np.testing.assert_array_equal(getattr(value, field), original)


@pytest.mark.parametrize("name", HELD_FIELDS)
def test_a_plain_array_is_frozen_or_copied(name):
    build, field, make = HELD_FIELDS[name]
    given, original = make(), make()
    held = getattr(build(given), field)
    assert not held.flags.writeable
    if given.flags.writeable:
        assert not np.shares_memory(given, held)
        given += 1
    else:
        with pytest.raises(ValueError):
            given += 1
    np.testing.assert_array_equal(held, original)


# A 6-row graph, each row naming two other rows.
SIX_ROWS = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]


@pytest.mark.parametrize("field,make", [
    ("translation", lambda: RigidMotion(np.eye(3), np.zeros(4))),
    ("translation", lambda: RigidMotion(np.eye(3), np.zeros((3, 1)))),
    ("translation", lambda: make_rigid((0, 0, 0), (1, 2))),
    ("source_indices", lambda: CorrespondenceSet(np.zeros((2, 2)), np.zeros(4))),
    ("target_indices", lambda: CorrespondenceSet(np.zeros(4), np.zeros((2, 2)))),
    ("source_indices", lambda: CorrespondenceSet([0.9, 1, 2], [0, 1, 2])),
    ("source_indices", lambda: CorrespondenceSet(np.array([True, False]), [0, 1])),
    ("neighbors", lambda: NeighborGraph([[1, 2], [0, 2], [0, 0.9]])),
    ("points", lambda: PointCloud([["a", "b", "c"]])),
    ("rotation", lambda: RigidMotion([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], np.zeros(3))),
    ("target_indices", lambda: CorrespondenceSet([0], ["zero"])),
    ("neighbors", lambda: NeighborGraph([["x"]])),
    ("translation", lambda: RigidMotion(np.eye(3), ["x", "y", "z"])),
    ("inverse", lambda: CovarianceModel(np.eye(3), np.full((3, 3), "x"))),
    ("points", lambda: PointCloud([(0.0, 0.0, np.inf)])),
    ("translation", lambda: RigidMotion(np.eye(3), [0.0, np.nan, 0.0])),
    ("target_indices", lambda: CorrespondenceSet([0], [np.nan])),
    # A graph of n rows indexes its own n points, 0 to n - 1.
    ("neighbors", lambda: NeighborGraph(SIX_ROWS[:5] + [[3, -1]])),
    ("neighbors", lambda: NeighborGraph(SIX_ROWS[:5] + [[3, 6]])),
    ("neighbors", lambda: NeighborGraph(SIX_ROWS[:5] + [[3, 99]])),
], ids=[
    "translation-4", "translation-3x1", "make-rigid-2", "source-2d", "target-2d",
    "source-0.9", "source-mask", "graph-0.9", "cloud-text", "rotation-text", "target-text", "graph-text",
    "translation-text", "inverse-text", "cloud-inf", "translation-nan", "target-nan",
    "graph-minus-1", "graph-6", "graph-99",
])
def test_malformed_array_is_rejected_by_name(field, make):
    with pytest.raises(InvalidArgumentError, match=f"^{field} must "):
        make()


def test_integral_float_indices_are_accepted():
    corr = CorrespondenceSet(np.array([0.0, 2.0]), [1, -0.0])
    assert corr.source_indices.dtype == corr.target_indices.dtype == np.intp
    np.testing.assert_array_equal(corr.source_indices, [0, 2])
    np.testing.assert_array_equal(NeighborGraph(np.zeros((3, 2))).neighbors, np.zeros((3, 2)))


def test_finiteness_is_checked_at_the_extremes_of_the_float_range():
    # min and max are tested apart, not summed: 1.7e308 + 1.7e308 overflows.
    for held in ([1.7e308, -1.7e308, 0.0], [1.7e308, 1.7e308, 0.0]):
        np.testing.assert_array_equal(RigidMotion(np.eye(3), held).translation, held)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError, match="^translation must be finite"):
            RigidMotion(np.eye(3), [1.0, bad, 0.0])
    # A finite longdouble beyond float64 would be held as inf, after a RuntimeWarning.
    for bad in (np.longdouble("1e400"), -np.longdouble("1e400")):
        with pytest.raises(InvalidArgumentError, match="^translation must be finite"):
            RigidMotion(np.eye(3), np.array([bad, 0, 0]))
    # An empty array has no min or max: it passes the finiteness check, and
    # the cloud's own size rule rejects it.
    with pytest.raises(InvalidArgumentError, match="^point cloud must contain at least one point"):
        PointCloud(np.empty((0, 3)))


def test_a_bound_magnitude_is_named_and_non_finite_is_still_refused_as_such():
    check_finite("x", np.array([-2.0, 2.0]), 2.0)
    for arr in ([0.0, 2.5], [-2.5, 0.0]):
        with pytest.raises(InvalidArgumentError, match=r"^x has a magnitude of 2.5, above the limit 2$"):
            check_finite("x", np.array(arr), 2.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError, match="^x must be finite$"):
            check_finite("x", np.array([3.0, bad]), 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_range_refuses_non_finite_coordinates(bad):
    with pytest.raises(InvalidArgumentError, match="^x must be finite$"):
        check_range("x", np.array([[bad, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestKeptFor:
    """`PointCloud.kept_for` keeps one value per key for a pair of clouds."""

    @staticmethod
    def _counting_build(value):
        calls = []

        def build():
            calls.append(1)
            return value

        return calls, build

    def test_the_same_other_is_served_the_kept_value(self):
        cloud, other = random_cloud(4, seed=1), random_cloud(4, seed=2)
        calls, build = self._counting_build(object())
        first = cloud.kept_for(other, "key", build)
        assert cloud.kept_for(other, "key", build) is first
        assert len(calls) == 1
        # Another key is another value.
        cloud.kept_for(other, "other key", build)
        assert len(calls) == 2

    def test_another_other_rebuilds_and_replaces_it(self):
        cloud, other = random_cloud(4, seed=1), random_cloud(4, seed=2)
        cloud.kept_for(other, "key", lambda: "first")
        # Equal points in another object are another pair.
        twin = PointCloud(other.points)
        assert cloud.kept_for(twin, "key", lambda: "second") == "second"
        # Only one value is kept per key: the first pair's was replaced.
        assert cloud.kept_for(other, "key", lambda: "third") == "third"
        assert cloud.kept_for(other, "key", lambda: "fourth") == "third"

    def test_a_build_returning_other_leaves_no_cycle(self):
        # As an identity start returns the source itself.
        cloud, other = random_cloud(4, seed=1), random_cloud(4, seed=2)
        assert cloud.kept_for(other, "key", lambda: other) is other
        refs = [weakref.ref(cloud), weakref.ref(other)]
        gc.disable()
        try:
            del cloud, other
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
