import heapq
import tracemalloc

import numpy as np
import pytest

from mahaknn import neighborhood
from mahaknn.errors import InvalidArgumentError
from mahaknn.geometry import PointCloud, apply, sample_rigid
from mahaknn.neighborhood import (
    NeighborGraph,
    build_graph,
    floyd_warshall,
    geodesic_adjacency,
    knn,
    knn_geodesic,
    nearest,
    rank_first_k,
)
from mahaknn.shapes import c_ring, generate, two_planes
from mahaknn.statistics import estimate_covariance, identity_model


def dijkstra_all_pairs(adj):
    """Independent APSP oracle: binary-heap Dijkstra from every source."""
    n = len(adj)
    out = np.full((n, n), np.inf)
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in range(n):
                w = adj[u, v]
                if np.isfinite(w) and d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        out[s] = dist
    return out


def dense_knn(coords, k):
    """All-pairs oracle: the full difference tensor and a full stable sort."""
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def dense_nearest(queries, points):
    """All-pairs oracle: the full queries x points matrix and its row argmin."""
    d2 = (
        np.sum(queries**2, axis=1)[:, None]
        - 2.0 * queries @ points.T
        + np.sum(points**2, axis=1)[None, :]
    )
    index = np.argmin(d2, axis=1)
    return index, d2[np.arange(len(queries)), index]


def integer_grid(nx, ny, nz):
    """Lattice points: nearly every neighbour distance is tied with others."""
    g = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"), -1)
    return g.reshape(-1, 3).astype(float)


def tie_heavy_clouds(n, seed=0):
    rng = np.random.default_rng(seed)
    grid = integer_grid(7, 7, 7)[rng.permutation(343)[:n]]
    base = rng.normal(size=((n + 2) // 3, 3))
    duplicated = np.vstack([base, base, base])[rng.permutation(len(base) * 3)[:n]]
    return {"grid": grid, "duplicated": duplicated, "random": rng.normal(size=(n, 3))}


class TestEngine:
    """The blocked engine against full stable-sort / dense-argmin oracles."""

    # (n, rows per block): n one below, at and above the block, n inside one
    # block, and several blocks with a partial last one.
    SIZES = [(15, 16), (16, 16), (17, 16), (5, 16), (40, 16)]

    @pytest.mark.parametrize("n,rows", SIZES)
    @pytest.mark.parametrize("kind", ["grid", "duplicated", "random"])
    def test_knn_matches_dense_oracle(self, monkeypatch, n, rows, kind):
        # knn counts its (rows, n, 3) difference tensor against the budget.
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", 3 * n * rows)
        coords = tie_heavy_clouds(n)[kind]
        for k in sorted({1, min(4, n - 1), n - 1}):
            got = knn(PointCloud(coords), k).neighbors
            np.testing.assert_array_equal(got, dense_knn(coords, k))

    @pytest.mark.parametrize("kind", ["grid", "duplicated", "random"])
    def test_knn_default_block_matches_dense_oracle(self, kind):
        coords = tie_heavy_clouds(300, seed=1)[kind]
        for k in (1, 20, 299):
            np.testing.assert_array_equal(knn(PointCloud(coords), k).neighbors, dense_knn(coords, k))

    @pytest.mark.parametrize("n,rows", SIZES)
    def test_rank_first_k_matches_stable_sort(self, monkeypatch, n, rows):
        m = 30
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", m * rows)
        rng = np.random.default_rng(n)
        values = rng.integers(0, 6, size=(n, m)).astype(float)
        values[rng.random((n, m)) < 0.1] = np.inf
        values[0, 3] = np.nan
        for k in (1, 5, m - 1, m):
            want = np.argsort(values, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(rank_first_k(values, k), want)

    @pytest.mark.parametrize("n,rows", SIZES)
    @pytest.mark.parametrize("kind", ["grid", "duplicated", "random"])
    def test_nearest_matches_dense_oracle(self, monkeypatch, n, rows, kind):
        points = tie_heavy_clouds(23, seed=2)[kind]
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", len(points) * rows)
        queries = tie_heavy_clouds(n, seed=3)[kind]
        got_index, got_dist = nearest(queries, points)
        want_index, want_dist = dense_nearest(queries, points)
        np.testing.assert_array_equal(got_index, want_index)
        assert got_dist.tobytes() == want_dist.tobytes()

    def test_nearest_default_block_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for dim in (3, 64):
            queries, points = rng.normal(size=(700, dim)), rng.normal(size=(1100, dim))
            got_index, got_dist = nearest(queries, points)
            want_index, want_dist = dense_nearest(queries, points)
            np.testing.assert_array_equal(got_index, want_index)
            assert got_dist.tobytes() == want_dist.tobytes()

    def test_knn_memory_is_bounded(self):
        # The all-pairs difference tensor alone would take 4096^2 * 3 * 8 B = 384 MiB.
        cloud = PointCloud(np.random.default_rng(5).normal(size=(4096, 3)))
        tracemalloc.start()
        try:
            knn(cloud, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestKnn:
    def test_collinear_line(self):
        cloud = PointCloud([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        expected = [[1], [0], [1], [2]]
        for metric, model in (("euclidean", None), ("mahalanobis", identity_model())):
            g = knn(cloud, 1, metric, model)
            np.testing.assert_array_equal(g.neighbors, expected)

    def test_identity_model_matches_euclidean(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(60, 3)))
        ge = knn(cloud, 7)
        gm = knn(cloud, 7, "mahalanobis", identity_model())
        np.testing.assert_array_equal(ge.neighbors, gm.neighbors)

    def test_two_planes_same_plane_fraction(self):
        # Brute-force oracle computes both fractions directly from the
        # pairwise distance matrices.
        cloud = two_planes(200, seed=0, gap=0.1)
        plane = (cloud.points[:, 2] > 0.05).astype(int)
        model = estimate_covariance(cloud)
        white = cloud.points @ model.whitener().T

        def frac(coords):
            d = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            nb = np.argsort(d, axis=1, kind="stable")[:, :10]
            return np.mean(plane[nb] == plane[:, None])

        assert frac(white) > frac(cloud.points)
        # The library agrees with the oracle.
        ge = knn(cloud, 10)
        gm = knn(cloud, 10, "mahalanobis", model)
        lib_e = np.mean(plane[ge.neighbors] == plane[:, None])
        lib_m = np.mean(plane[gm.neighbors] == plane[:, None])
        assert lib_e == pytest.approx(frac(cloud.points))
        assert lib_m == pytest.approx(frac(white))
        assert lib_m > lib_e

    def test_k_out_of_range(self):
        cloud = PointCloud(np.random.default_rng(1).normal(size=(5, 3)))
        with pytest.raises(InvalidArgumentError):
            knn(cloud, 5)
        with pytest.raises(InvalidArgumentError):
            knn(cloud, 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        perm = rng.permutation(40)
        permuted = PointCloud(cloud.points[perm])
        g0 = knn(cloud, 5)
        g1 = knn(permuted, 5)
        # inv maps an original index to its position in the permuted cloud
        inv = np.empty(40, dtype=int)
        inv[perm] = np.arange(40)
        np.testing.assert_array_equal(inv[g0.neighbors[perm]], g1.neighbors)

    def test_mahalanobis_linear_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(80, 3))
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        cloud = PointCloud(pts)
        mapped = PointCloud(pts @ a.T)
        g0 = knn(cloud, 6, "mahalanobis", estimate_covariance(cloud, regularizer=0.0))
        g1 = knn(mapped, 6, "mahalanobis", estimate_covariance(mapped, regularizer=0.0))
        np.testing.assert_array_equal(g0.neighbors, g1.neighbors)


class TestFloydWarshall:
    def test_triangle_shortcut(self):
        inf = np.inf
        adj = np.array([[0, 1, 3.0], [1, 0, 1], [3, 1, 0]])
        dist = floyd_warshall(adj)
        assert dist[0, 2] == 2.0

    def test_disconnected_stays_infinite(self):
        inf = np.inf
        adj = np.array([[0, 1, inf], [1, 0, inf], [inf, inf, 0.0]])
        dist = floyd_warshall(adj)
        assert np.isinf(dist[0, 2]) and np.isinf(dist[2, 1])

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            floyd_warshall(np.array([[0, -1.0], [-1.0, 0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            floyd_warshall(np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_matches_dijkstra_on_random_knn_graphs(self):
        # Weights are snapped to a dyadic grid so path sums are exact in
        # floating point and both algorithms must agree bitwise.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cloud = PointCloud(rng.normal(size=(64, 3)))
            adj = geodesic_adjacency(cloud, 5)
            adj = np.round(adj * 1024.0) / 1024.0
            np.testing.assert_array_equal(floyd_warshall(adj), dijkstra_all_pairs(adj))

    def test_close_to_dijkstra_on_raw_weights(self):
        rng = np.random.default_rng(33)
        cloud = PointCloud(rng.normal(size=(48, 3)))
        adj = geodesic_adjacency(cloud, 5)
        np.testing.assert_allclose(floyd_warshall(adj), dijkstra_all_pairs(adj), atol=1e-12)

    def test_triangle_inequality_on_output(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        dist = floyd_warshall(geodesic_adjacency(cloud, 6))
        for _ in range(200):
            i, j, m = rng.integers(0, 40, size=3)
            if np.isfinite(dist[i, m]) and np.isfinite(dist[m, j]):
                assert dist[i, j] <= dist[i, m] + dist[m, j] + 1e-9

    def test_symmetry_for_undirected_input(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.normal(size=(30, 3)))
        dist = floyd_warshall(geodesic_adjacency(cloud, 4))
        np.testing.assert_array_equal(dist, dist.T)


class TestKnnGeodesic:
    def test_straight_line_equals_euclidean(self):
        cloud = PointCloud([(i, 0, 0) for i in range(5)])
        gg = knn_geodesic(cloud, 2, 2)
        ge = knn(cloud, 2)
        np.testing.assert_array_equal(gg.neighbors, ge.neighbors)

    def test_c_ring_gap_endpoints(self):
        # Open ring whose gap chord is larger than the arc spacing but
        # smaller than the second-neighbor distance: the sparse (k_base=1)
        # base graph follows the arc, so the opposite gap endpoint is
        # Euclidean-near yet geodesic-far. Verified against a brute-force
        # geodesic oracle.
        theta = np.deg2rad(np.linspace(3.5, 356.5, 59))
        pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
        cloud = PointCloud(pts)
        start, end = 0, len(pts) - 1
        ge = knn(cloud, 4)
        assert end in ge.neighbors[start]  # Euclidean jumps the gap
        gg = knn_geodesic(cloud, 1, 4)
        assert end not in gg.neighbors[start]
        adj = geodesic_adjacency(cloud, 1)
        oracle = dijkstra_all_pairs(adj)
        np.fill_diagonal(oracle, np.inf)
        np.testing.assert_array_equal(
            gg.neighbors[start], np.argsort(oracle[start], kind="stable")[:4]
        )

    def test_disconnected_components_stay_separate(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(20, 3)) * 0.1
        b = rng.normal(size=(20, 3)) * 0.1 + 100.0
        cloud = PointCloud(np.vstack([a, b]))
        g = knn_geodesic(cloud, 4, 3)
        for i in range(20):
            assert np.all(g.neighbors[i] < 20)
        for i in range(20, 40):
            assert np.all(g.neighbors[i] >= 20)

    def test_k_base_validation(self):
        cloud = PointCloud(np.random.default_rng(6).normal(size=(10, 3)))
        with pytest.raises(InvalidArgumentError):
            knn_geodesic(cloud, 0, 3)

    def test_k_out_of_range(self):
        cloud = PointCloud(np.random.default_rng(6).normal(size=(10, 3)))
        for k in (0, 10, 11):
            with pytest.raises(InvalidArgumentError):
                knn_geodesic(cloud, 3, k)

    def test_ranking_matches_stable_sort_of_path_lengths(self):
        # Unreachable points tie at +inf, so the tie fallback pads by index.
        rng = np.random.default_rng(9)
        cloud = PointCloud(np.vstack([rng.normal(size=(30, 3)), rng.normal(size=(4, 3)) + 50]))
        dist = floyd_warshall(geodesic_adjacency(cloud, 3))
        np.fill_diagonal(dist, np.inf)
        for k in (1, 8, 33):
            want = np.argsort(dist, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(knn_geodesic(cloud, 3, k).neighbors, want)


class TestBuildGraph:
    def test_dispatches_to_each_metric(self):
        cloud = two_planes(60, seed=1)
        model = estimate_covariance(cloud, regularizer=1e-3)
        cases = (
            (build_graph(cloud, "euclidean", 7), knn(cloud, 7)),
            (
                build_graph(cloud, "mahalanobis", 7, regularizer=1e-3),
                knn(cloud, 7, "mahalanobis", model),
            ),
            (build_graph(cloud, "geodesic", 7, k_base=4), knn_geodesic(cloud, 4, 7)),
            (build_graph(cloud, "geodesic", 7), knn_geodesic(cloud, 7, 7)),
        )
        for got, want in cases:
            np.testing.assert_array_equal(got.neighbors, want.neighbors)

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_graph(two_planes(20, seed=0), "manhattan", 3)

    # Registration builds each graph once and reuses it at every later pose,
    # which is exact only if rigid motion leaves the graph unchanged.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["sphere-cap", "two-planes"])
    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis", "geodesic"])
    def test_invariant_under_rigid_motion(self, metric, shape, seed):
        cloud = generate(shape, 160, seed)
        motion = sample_rigid(np.random.default_rng(100 + seed), (-180.0, 180.0), (-2.0, 2.0))
        g0 = build_graph(cloud, metric, 10, k_base=6)
        g1 = build_graph(apply(motion, cloud), metric, 10, k_base=6)
        np.testing.assert_array_equal(g0.neighbors, g1.neighbors)

