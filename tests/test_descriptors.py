import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mahaknn import descriptors, neighborhood
from mahaknn.descriptors import edgeconv_features, eigen_features, kmeans, pose_eigen_features
from mahaknn.errors import InvalidArgumentError
from mahaknn.geometry import PointCloud, apply, make_rigid, sample_rigid
from mahaknn.neighborhood import (
    METRICS,
    NeighborGraph,
    build_graph,
    floyd_warshall,
    geodesic_adjacency,
    knn,
    nearest,
)
from mahaknn.shapes import plane, sphere, sphere_cap, two_planes
from test_neighborhood import SCRATCH_BUDGETS, budget_clouds


def random_cloud(n, seed=0):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))


def unfactored_edgeconv(cloud, graph, seed=0):
    """Oracle: the direct edge evaluation, max of relu(W @ [x_i || x_j - x_i] + b)
    over an (n, k, 64) tensor, with the same seeded weight draw."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(6), size=(64, 6))
    b = rng.normal(0.0, 1.0 / np.sqrt(6), size=64)
    center = cloud.points[:, None, :]
    offset = cloud.points[graph.neighbors] - center
    edges = np.concatenate([np.broadcast_to(center, offset.shape), offset], axis=2)
    return np.maximum(edges @ w.T + b, 0.0).max(axis=1)


def unblocked_edgeconv(cloud, graph, seed=0):
    """Oracle: the factored evaluation of `edgeconv_features` over the whole
    cloud at once, with the running max over strided neighbour columns."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(6), size=(64, 6))
    b = rng.normal(0.0, 1.0 / np.sqrt(6), size=64)
    q = cloud.points @ w[:, 3:].T
    max_q = q[graph.neighbors[:, 0]]
    for column in graph.neighbors.T[1:]:
        np.maximum(max_q, q[column], out=max_q)
    return np.maximum(cloud.points @ (w[:, :3] - w[:, 3:]).T + b + max_q, 0.0)


def unblocked_eigen_features(cloud, graph):
    """Oracle: `eigen_features` over the whole cloud at once."""
    pts, n = cloud.points, len(cloud)
    local = pts[np.concatenate([np.arange(n)[:, None], graph.neighbors], axis=1)]
    centered = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / local.shape[1]
    vals, vecs = np.linalg.eigh(cov)
    l3, l2, l1 = np.clip(vals[:, 0], 0.0, None), np.clip(vals[:, 1], 0.0, None), vals[:, 2]
    out = np.zeros((n, 6))
    ok = l1 > 0
    out[ok, 0] = (l1[ok] - l2[ok]) / l1[ok]
    out[ok, 1] = (l2[ok] - l3[ok]) / l1[ok]
    out[ok, 2] = l3[ok] / l1[ok]
    out[ok, 3:] = descriptors._orient_normals(vecs[ok, :, 0])
    return out


SURFACES = {
    "sphere-cap": lambda: sphere_cap(300, seed=4),
    "two-planes": lambda: two_planes(150, seed=4),
}


class TestEdgeConv:
    def test_coincident_points_share_features(self):
        pts = np.tile([[0.3, -0.2, 0.7]], (6, 1))
        cloud = PointCloud(pts)
        graph = NeighborGraph(np.array([[(i + 1) % 6, (i + 2) % 6] for i in range(6)]))
        feats = edgeconv_features(cloud, graph, seed=1)
        assert np.all(feats == feats[0])

    def test_permutation_equivariance(self):
        cloud = random_cloud(30, seed=1)
        graph = knn(cloud, 4)
        feats = edgeconv_features(cloud, graph, seed=2)
        rng = np.random.default_rng(3)
        perm = rng.permutation(30)
        inv = np.empty(30, dtype=int)
        inv[perm] = np.arange(30)
        permuted = PointCloud(cloud.points[perm])
        pgraph = NeighborGraph(inv[graph.neighbors[perm]])
        pfeats = edgeconv_features(permuted, pgraph, seed=2)
        np.testing.assert_array_equal(pfeats, feats[perm])

    def test_single_neighbor_chain_closed_form(self):
        # k=1 chain: each descriptor must equal the direct evaluation of
        # relu(W @ [x_i || (x_n(i) - x_i)] + b), up to the rounding of the
        # factored sum relu(P_i + Q_j).
        cloud = PointCloud([(0, 0, 0), (1, 0, 0), (3, 0, 0), (6, 0, 0.0)])
        graph = NeighborGraph(np.array([[1], [0], [1], [2]]))
        seed = 5
        out = edgeconv_features(cloud, graph, seed=seed)
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.0 / np.sqrt(6), size=(64, 6))
        b = rng.normal(0.0, 1.0 / np.sqrt(6), size=64)
        for i, j in enumerate([1, 0, 1, 2]):
            xi = cloud.points[i]
            edge = np.concatenate([xi, cloud.points[j] - xi])
            np.testing.assert_allclose(out[i], np.maximum(w @ edge + b, 0.0), atol=1e-12, rtol=0)

    def test_deterministic(self):
        cloud = random_cloud(20, seed=4)
        graph = knn(cloud, 3)
        a = edgeconv_features(cloud, graph, seed=9)
        b = edgeconv_features(cloud, graph, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_size_mismatch_rejected(self):
        cloud = random_cloud(10)
        graph = knn(random_cloud(12, seed=1), 3)
        with pytest.raises(InvalidArgumentError):
            edgeconv_features(cloud, graph)

    # k = 1 takes no step of the running max, k = 2 one step, k = 12 many.
    @pytest.mark.parametrize("k", [1, 2, 12])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("shape", sorted(SURFACES))
    def test_factored_max_matches_direct_edges(self, shape, metric, k):
        cloud = SURFACES[shape]()
        graph = build_graph(cloud, metric, k, k_base=8)
        got = edgeconv_features(cloud, graph, seed=3)
        want = unfactored_edgeconv(cloud, graph, seed=3)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_memory_is_bounded(self):
        # The (n, k, width) edge tensor alone would take 4096 * 20 * 64 * 8 B = 40 MiB.
        # Two (n, width) arrays, the output and Q, plus per block of rows at
        # most four _SCRATCH_ENTRIES-sized arrays: the running max, one
        # gathered column, the block's neighbour columns and its sum with the
        # output rows before the ReLU. 32 KiB more
        # covers the weights and small arrays. A whole-cloud running max, a
        # third (n, width) array, does not fit, nor does a finiteness mask of
        # the output (n width B).
        n, width = 4096, descriptors.EDGECONV_WIDTH
        cloud = PointCloud(np.random.default_rng(6).normal(size=(n, 3)))
        graph = knn(cloud, 20)
        tracemalloc.start()
        try:
            edgeconv_features(cloud, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * width + 4 * 8 * neighborhood._SCRATCH_ENTRIES + 2**15


class TestEigenFeatures:
    def test_planar_neighborhood(self):
        cloud = plane(100, seed=0)
        graph = knn(cloud, 8)
        feats = eigen_features(cloud, graph)
        np.testing.assert_allclose(feats[:, 2], 0.0, atol=1e-12)  # scattering
        np.testing.assert_allclose(np.abs(feats[:, 5]), 1.0, atol=1e-9)  # normal z
        assert np.all(feats[:, 5] > 0)  # oriented to +z

    def test_collinear_neighborhood(self):
        cloud = PointCloud([(float(i), 0, 0) for i in range(10)])
        graph = knn(cloud, 3)
        feats = eigen_features(cloud, graph)
        np.testing.assert_allclose(feats[:, 0], 1.0, atol=1e-12)  # linearity
        np.testing.assert_allclose(feats[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(feats[:, 2], 0.0, atol=1e-12)

    def test_ball_scatters_more_than_plane(self):
        rng = np.random.default_rng(1)
        ball = PointCloud(rng.normal(size=(500, 3)) * rng.uniform(0, 1, size=(500, 1)))
        flat = plane(500, seed=2)
        sc_ball = eigen_features(ball, knn(ball, 20))[:, 2].mean()
        sc_flat = eigen_features(flat, knn(flat, 20))[:, 2].mean()
        assert sc_ball > sc_flat

    def test_rotation_invariant_shape_and_covariant_normal(self):
        cloud = sphere(200, seed=3)
        graph = knn(cloud, 10)
        base = eigen_features(cloud, graph)
        motion = make_rigid((20, -35, 50), (0, 0, 0))
        rotated = apply(motion, cloud)
        rgraph = knn(rotated, 10)
        np.testing.assert_array_equal(graph.neighbors, rgraph.neighbors)
        feats = eigen_features(rotated, rgraph)
        np.testing.assert_allclose(feats[:, :3], base[:, :3], atol=1e-9)
        # normals rotate, up to the hemisphere flip
        expect = base[:, 3:] @ motion.rotation.T
        got = feats[:, 3:]
        sign = np.sign(np.sum(expect * got, axis=1))
        np.testing.assert_allclose(got, expect * sign[:, None], atol=1e-9)

    def test_requires_k_at_least_3(self):
        cloud = random_cloud(10)
        with pytest.raises(InvalidArgumentError):
            eigen_features(cloud, knn(cloud, 2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="graph and cloud sizes differ"):
            eigen_features(random_cloud(10), knn(random_cloud(12, seed=1), 3))

    def test_memory_is_bounded(self):
        # The output (48 n B), plus per block of rows at most four
        # _SCRATCH_ENTRIES-sized arrays: the gathered neighbourhoods, their
        # centred copy, and the block's neighbour indices and eigen solution.
        # 32 KiB more covers small arrays. One whole-cloud gather, n (k + 1) 3
        # floats (3.9 MiB), does not fit.
        n, k = 8192, 20
        cloud = sphere_cap(n, seed=0)
        graph = knn(cloud, k)
        tracemalloc.start()
        try:
            eigen_features(cloud, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * n + 4 * 8 * neighborhood._SCRATCH_ENTRIES + 2**15


class TestScratchBudget:
    """Both descriptors under `_SCRATCH_ENTRIES` against their unblocked oracles, bit for bit."""

    # 40 rows: 16 per block leave 8 in the last.
    N, K, K_BASE = 40, 10, 5

    @pytest.mark.parametrize("budget", sorted(SCRATCH_BUDGETS))
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("kind", sorted(budget_clouds(N)))
    def test_descriptors_match_unblocked_oracles(self, budget, metric, kind):
        cloud = PointCloud(budget_clouds(self.N)[kind])
        graph = build_graph(cloud, metric, self.K, self.K_BASE)
        # A point's neighbourhood takes 3 (k + 1) entries, its edge-conv row 64.
        with mock.patch.object(neighborhood, "_SCRATCH_ENTRIES", SCRATCH_BUDGETS[budget](3 * (self.K + 1))):
            eigen = eigen_features(cloud, graph)
        with mock.patch.object(neighborhood, "_SCRATCH_ENTRIES", SCRATCH_BUDGETS[budget](64)):
            edgeconv = edgeconv_features(cloud, graph, seed=2)
        assert eigen.tobytes() == unblocked_eigen_features(cloud, graph).tobytes()
        assert edgeconv.tobytes() == unblocked_edgeconv(cloud, graph, seed=2).tobytes()

    def test_duplicated_rows_mix_spreadless_and_spread_rows(self):
        # So the oracle test above takes both sides of eigen features' spread mask.
        cloud = PointCloud(budget_clouds(self.N)["duplicated-rows"])
        feats = eigen_features(cloud, knn(cloud, self.K))
        spreadless = np.all(feats == 0, axis=1)
        assert 0 < np.count_nonzero(spreadless) < self.N


class TestPoseEigenFeatures:
    """Posing cached eigen features by a rotation stands in for recomputing them."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("shape", sorted(SURFACES))
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_recomputing_on_the_moved_cloud(self, shape, metric, seed):
        cloud = SURFACES[shape]()
        graph = build_graph(cloud, metric, 10, k_base=8)
        motion = sample_rigid(np.random.default_rng(seed), (-180.0, 180.0), (-2.0, 2.0))
        posed = pose_eigen_features(eigen_features(cloud, graph), motion.rotation)
        direct = eigen_features(apply(motion, cloud), graph)
        np.testing.assert_allclose(posed[:, :3], direct[:, :3], atol=1e-12, rtol=0)
        # Off the z = 0 boundary of the orientation rule, rounding cannot flip a normal.
        off = (np.abs(posed[:, 5]) > 1e-9) & (np.abs(direct[:, 5]) > 1e-9)
        np.testing.assert_allclose(posed[off, 3:], direct[off, 3:], atol=1e-12, rtol=0)
        sign = np.sign(np.sum(posed[:, 3:] * direct[:, 3:], axis=1))
        np.testing.assert_allclose(posed[:, 3:], direct[:, 3:] * sign[:, None], atol=1e-12, rtol=0)

    def test_spreadless_rows_stay_zero(self):
        # Four coincident points are each other's three nearest: no spread, l1 == 0.
        pts = np.vstack([np.tile([[0.2, -0.4, 0.9]], (4, 1)), sphere(40, seed=1).points])
        cloud = PointCloud(pts)
        graph = knn(cloud, 3)
        feats = eigen_features(cloud, graph)
        assert np.all(feats[:4] == 0)
        for seed in range(5):
            motion = sample_rigid(np.random.default_rng(seed), (-180.0, 180.0))
            posed = pose_eigen_features(feats, motion.rotation)
            assert np.all(posed[:4] == 0)
            assert not np.any(np.signbit(posed[:4]))
            assert np.all(np.any(posed[4:, 3:] != 0, axis=1))

    # On the x-z plane eigh can return normals (0, -1, 0) that the orientation rule
    # flips, which would leave -0.0 entries for the identity pose to turn into 0.0.
    @pytest.mark.parametrize(
        "cloud",
        [PointCloud(plane(100, seed=0).points[:, [0, 2, 1]]), sphere_cap(200, seed=2)],
        ids=["xz-plane", "sphere-cap"],
    )
    def test_identity_pose_is_bitwise(self, cloud):
        feats = eigen_features(cloud, knn(cloud, 8))
        posed = pose_eigen_features(feats, np.eye(3))
        assert posed.tobytes() == feats.tobytes()


class TestKernelContract:
    """Both kernels return read-only arrays and take only clouds within `check_range`."""

    KERNELS = {"eigen": eigen_features, "edgeconv": edgeconv_features}

    @pytest.mark.parametrize("kernel", sorted(KERNELS) + ["pose"])
    def test_output_is_read_only(self, kernel):
        cloud = sphere_cap(60, seed=1)
        graph = knn(cloud, 8)
        if kernel == "pose":
            rotation = make_rigid((10, 20, 30), (0, 0, 0)).rotation
            feats = pose_eigen_features(eigen_features(cloud, graph), rotation)
        else:
            feats = self.KERNELS[kernel](cloud, graph)
        assert feats.dtype == np.float64 and feats.shape[0] == len(cloud)
        with pytest.raises(ValueError, match="read-only"):
            feats[0, 0] = 1.0

    @pytest.mark.parametrize("scale,limit", [
        # Edge-conv admits the larger coordinates of a moved source.
        (1e151, {"eigen": "above the limit 1e+150", "edgeconv": "above the limit 5e+150"}),
        (1e-160, {"eigen": "below the limit 1e-150", "edgeconv": "below the limit 1e-150"}),
    ], ids=["above", "below"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_cloud_outside_the_range_is_rejected(self, kernel, scale, limit):
        # The graph is built before scaling: knn itself rejects the scaled cloud.
        cloud = sphere_cap(60, seed=1)
        graph = knn(cloud, 8)
        with pytest.raises(InvalidArgumentError, match=f"^cloud has .*{re.escape(limit[kernel])}"):
            self.KERNELS[kernel](PointCloud(cloud.points * scale), graph)


class TestKMeans:
    def _features(self, pts):
        return np.asarray(pts, dtype=float)

    def test_single_cluster(self):
        feats = self._features(np.random.default_rng(0).normal(size=(15, 4)))
        assert np.all(kmeans(feats, 1, seed=0) == 0)

    def test_two_blobs_match_ground_truth(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 3)) * 0.1
        b = rng.normal(size=(10, 3)) * 0.1 + 10.0
        feats = self._features(np.vstack([a, b]))
        labels = kmeans(feats, 2, seed=0)
        assert len(set(labels[:10])) == 1 and len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_saturated_clustering(self):
        feats = self._features(np.random.default_rng(2).normal(size=(8, 3)))
        labels = kmeans(feats, 8, seed=0)
        assert sorted(labels) == list(range(8))

    def test_objective_non_increasing(self, monkeypatch):
        # Every assignment to all 4 centers is one nearest() call; the sum of
        # its squared distances is the objective at that round.
        history = []

        def recording(queries, points):
            index, dist = nearest(queries, points)
            if len(points) == 4:
                history.append(float(dist.sum()))
            return index, dist

        monkeypatch.setattr(descriptors, "nearest", recording)
        feats = self._features(np.random.default_rng(3).normal(size=(100, 5)))
        kmeans(feats, 4, seed=1)
        assert len(history) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_emptied_cluster_is_reseeded(self):
        # Farthest-point seeding puts two of the three centres on the triple
        # point; ties send it to the lower centre, which empties the other.
        labels = kmeans(self._features([[0, 0], [0, 0], [0, 0], [1, 0]]), 3, seed=0)
        assert labels[0] == labels[1] == labels[2] != labels[3]

    def test_invalid_k(self):
        feats = self._features(np.random.default_rng(4).normal(size=(5, 2)))
        with pytest.raises(InvalidArgumentError):
            kmeans(feats, 6, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_features_are_rejected(self, bad):
        feats = np.random.default_rng(4).normal(size=(5, 2))
        feats[3, 1] = bad
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            kmeans(feats, 2, seed=0)

    def test_deterministic(self):
        feats = self._features(np.random.default_rng(5).normal(size=(50, 6)))
        np.testing.assert_array_equal(kmeans(feats, 3, seed=7), kmeans(feats, 3, seed=7))

    def test_memory_is_bounded(self):
        # One (n, K, d) difference tensor alone would take 16384 * 8 * 64 * 8 B = 64 MiB.
        feats = self._features(np.random.default_rng(8).normal(size=(16384, 64)))
        tracemalloc.start()
        try:
            kmeans(feats, 8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPermutationEquivariance:
    """Relabelling a cloud's points relabels its graph and permutes its features."""

    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_graph_and_features_follow_the_points(self, metric, seed):
        rng = np.random.default_rng(seed)
        # Continuous coordinates leave no distance ties between points.
        cloud = PointCloud(rng.normal(size=(40, 3)))
        # A disconnected base graph pads neighbours by index, which no relabelling preserves.
        assume(np.all(np.isfinite(floyd_warshall(geodesic_adjacency(cloud, 8)))))
        perm = rng.permutation(40)
        inv = np.empty(40, dtype=np.intp)
        inv[perm] = np.arange(40)
        permuted = PointCloud(cloud.points[perm])
        graph = build_graph(cloud, metric, 6, k_base=8)
        pgraph = build_graph(permuted, metric, 6, k_base=8)
        np.testing.assert_array_equal(pgraph.neighbors, inv[graph.neighbors[perm]])
        for describe in (eigen_features, edgeconv_features):
            np.testing.assert_array_equal(
                describe(permuted, pgraph), describe(cloud, graph)[perm]
            )
