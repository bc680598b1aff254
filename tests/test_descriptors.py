import numpy as np
import pytest

from mahaknn.descriptors import (
    DescriptorSet,
    edgeconv_features,
    eigen_features,
    kmeans,
)
from mahaknn.errors import InvalidArgumentError
from mahaknn.geometry import PointCloud, apply, make_rigid
from mahaknn.neighborhood import NeighborGraph, knn
from mahaknn.shapes import plane, sphere


def random_cloud(n, seed=0):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))


class TestEdgeConv:
    def test_coincident_points_share_features(self):
        pts = np.tile([[0.3, -0.2, 0.7]], (6, 1))
        cloud = PointCloud(pts)
        graph = NeighborGraph(np.array([[(i + 1) % 6, (i + 2) % 6] for i in range(6)]))
        feats = edgeconv_features(cloud, graph, seed=1).vectors
        assert np.all(feats == feats[0])

    def test_permutation_equivariance(self):
        cloud = random_cloud(30, seed=1)
        graph = knn(cloud, 4)
        feats = edgeconv_features(cloud, graph, seed=2).vectors
        rng = np.random.default_rng(3)
        perm = rng.permutation(30)
        inv = np.empty(30, dtype=int)
        inv[perm] = np.arange(30)
        permuted = PointCloud(cloud.points[perm])
        pgraph = NeighborGraph(inv[graph.neighbors[perm]])
        pfeats = edgeconv_features(permuted, pgraph, seed=2).vectors
        np.testing.assert_array_equal(pfeats, feats[perm])

    def test_single_neighbor_chain_closed_form(self):
        # k=1 chain: each descriptor must equal the direct evaluation of
        # relu(W @ [x_i || (x_n(i) - x_i)] + b).
        cloud = PointCloud([(0, 0, 0), (1, 0, 0), (3, 0, 0), (6, 0, 0.0)])
        graph = NeighborGraph(np.array([[1], [0], [1], [2]]))
        seed = 5
        out = edgeconv_features(cloud, graph, seed=seed).vectors
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.0 / np.sqrt(6), size=(64, 6))
        b = rng.normal(0.0, 1.0 / np.sqrt(6), size=64)
        for i, j in enumerate([1, 0, 1, 2]):
            xi = cloud.points[i]
            edge = np.concatenate([xi, cloud.points[j] - xi])
            np.testing.assert_array_equal(out[i], np.maximum(w @ edge + b, 0.0))

    def test_deterministic(self):
        cloud = random_cloud(20, seed=4)
        graph = knn(cloud, 3)
        a = edgeconv_features(cloud, graph, layers=2, seed=9).vectors
        b = edgeconv_features(cloud, graph, layers=2, seed=9).vectors
        np.testing.assert_array_equal(a, b)

    def test_size_mismatch_rejected(self):
        cloud = random_cloud(10)
        graph = knn(random_cloud(12, seed=1), 3)
        with pytest.raises(InvalidArgumentError):
            edgeconv_features(cloud, graph)


class TestEigenFeatures:
    def test_planar_neighborhood(self):
        cloud = plane(100, seed=0)
        graph = knn(cloud, 8)
        feats = eigen_features(cloud, graph).vectors
        np.testing.assert_allclose(feats[:, 2], 0.0, atol=1e-12)  # scattering
        np.testing.assert_allclose(np.abs(feats[:, 5]), 1.0, atol=1e-9)  # normal z
        assert np.all(feats[:, 5] > 0)  # oriented to +z

    def test_collinear_neighborhood(self):
        cloud = PointCloud([(float(i), 0, 0) for i in range(10)])
        graph = knn(cloud, 3)
        feats = eigen_features(cloud, graph).vectors
        np.testing.assert_allclose(feats[:, 0], 1.0, atol=1e-12)  # linearity
        np.testing.assert_allclose(feats[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(feats[:, 2], 0.0, atol=1e-12)

    def test_ball_scatters_more_than_plane(self):
        rng = np.random.default_rng(1)
        ball = PointCloud(rng.normal(size=(500, 3)) * rng.uniform(0, 1, size=(500, 1)))
        flat = plane(500, seed=2)
        sc_ball = eigen_features(ball, knn(ball, 20)).vectors[:, 2].mean()
        sc_flat = eigen_features(flat, knn(flat, 20)).vectors[:, 2].mean()
        assert sc_ball > sc_flat

    def test_rotation_invariant_shape_and_covariant_normal(self):
        cloud = sphere(200, seed=3)
        graph = knn(cloud, 10)
        base = eigen_features(cloud, graph).vectors
        motion = make_rigid((20, -35, 50), (0, 0, 0))
        rotated = apply(motion, cloud)
        rgraph = knn(rotated, 10)
        np.testing.assert_array_equal(graph.neighbors, rgraph.neighbors)
        feats = eigen_features(rotated, rgraph).vectors
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


class TestKMeans:
    def _features(self, pts):
        return DescriptorSet(np.asarray(pts, dtype=float))

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

    def test_objective_non_increasing(self):
        feats = self._features(np.random.default_rng(3).normal(size=(100, 5)))
        _, history = kmeans(feats, 4, seed=1, return_history=True)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_invalid_k(self):
        feats = self._features(np.random.default_rng(4).normal(size=(5, 2)))
        with pytest.raises(InvalidArgumentError):
            kmeans(feats, 6, seed=0)

    def test_deterministic(self):
        feats = self._features(np.random.default_rng(5).normal(size=(50, 6)))
        np.testing.assert_array_equal(kmeans(feats, 3, seed=7), kmeans(feats, 3, seed=7))
