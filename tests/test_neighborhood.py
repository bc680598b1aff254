import heapq
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahaknn import neighborhood
from mahaknn.corruption import NoiseSpec, corrupt
from mahaknn.errors import InvalidArgumentError
from mahaknn.geometry import MAX_ABS_COORDINATE, MIN_EXTENT, PointCloud, apply, sample_rigid
from mahaknn.neighborhood import (
    METRICS,
    NeighborGraph,
    build_graph,
    floyd_warshall,
    geodesic_adjacency,
    knn,
    knn_geodesic,
    nearest,
)
from mahaknn.shapes import c_ring, generate, sphere, sphere_cap, torus, two_planes
from mahaknn.statistics import CovarianceModel, estimate_covariance, identity_model


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


def lift(queries, points):
    """`[q, 1]` per query row and `[-2 p; p^2]` per point column: their product is p^2 - 2 q.p.

    Both are C-ordered, as in the engine: gemm can round a transposed
    operand differently.
    """
    lifted_q = np.hstack([queries, np.ones((len(queries), 1))])
    lifted_p = np.ascontiguousarray(np.vstack([-2.0 * points.T, np.sum(points**2, axis=1)]))
    return lifted_q, lifted_p


def pick(products, queries):
    """Row argmin of the lifted products, and the picked value plus q^2."""
    index = np.argmin(products, axis=1)
    return index, products[np.arange(len(queries)), index] + np.sum(queries**2, axis=1)


def dense_nearest(queries, points):
    """All-pairs oracle: the full queries x points lifted product and its row argmin."""
    lifted_q, lifted_p = lift(queries, points)
    return pick(lifted_q @ lifted_p, queries)


def blocked_products(queries, points):
    """The lifted product of each of the engine's row blocks, with temporaries.

    A matrix product's rounding can depend on how many rows it has, so this
    uses the engine's own row blocks rather than one all-rows product. A
    one-row block is multiplied as two copies of its row, as the engine does.
    """
    lifted_q, lifted_p = lift(queries, points)
    blocks = neighborhood._row_blocks(len(queries), max(len(points), points.shape[1] + 1))
    products = [np.empty((0, len(points)))]
    for rows in blocks:
        block = lifted_q[rows]
        if len(block) == 1:
            block = np.vstack([block, block])
        products.append((block @ lifted_p)[: rows.stop - rows.start])
    return np.vstack(products)


def blocked_nearest(queries, points):
    """Reference for the buffer kernel: the row argmin of `blocked_products`."""
    return pick(blocked_products(queries, points), queries)


def difference_form(queries, points):
    """Squared distances summed from coordinate differences (exact on small integers)."""
    return np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)


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
        # knn counts its (rows, n) distance buffer against the budget.
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", n * rows)
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
    def test_first_k_matches_stable_sort(self, monkeypatch, n, rows):
        m = 30
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", m * rows)
        rng = np.random.default_rng(n)
        values = rng.integers(0, 6, size=(n, m)).astype(float)
        values[rng.random((n, m)) < 0.1] = np.inf
        values[0, 3] = np.nan
        for k in (1, 5, m - 1, m):
            want = np.argsort(values, axis=1, kind="stable")[:, :k]
            got = np.vstack(
                [neighborhood._first_k(values[b], k) for b in neighborhood._row_blocks(n, m)]
            )
            np.testing.assert_array_equal(got, want)

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
            np.testing.assert_array_equal(got_index, dense_nearest(queries, points)[0])
            # One 700-row product rounds a few distances apart from the
            # engine's 59-row blocks (3 of 700 at d = 3), so the bytes are
            # those of the same products on the engine's blocks.
            want_index, want_dist = blocked_nearest(queries, points)
            np.testing.assert_array_equal(got_index, want_index)
            assert got_dist.tobytes() == want_dist.tobytes()

    def test_nearest_duplicate_rows_follow_computed_value(self):
        # Every target row is stored three times. The computed p^2 - 2 q.p can
        # round bitwise-equal copies apart, so the rule is on the computed
        # value: its row minimum, and the lowest index among equal minima. On
        # this fixture some queries do match a second or third copy.
        rng = np.random.default_rng(7)
        base = rng.normal(size=(500, 64))
        points = np.vstack([base, base, base])
        queries = rng.normal(size=(2500, 64))
        index, dist = nearest(queries, points)
        products = blocked_products(queries, points)
        row_min = products.min(axis=1)
        assert dist.tobytes() == (row_min + np.sum(queries**2, axis=1)).tobytes()
        lowest = np.argmax(products == row_min[:, None], axis=1)
        np.testing.assert_array_equal(index, lowest)
        assert np.count_nonzero(index >= len(base)) > 0

    # Budgets giving a partial last block (40 = 2 * 16 + 8 rows), one row per
    # block, and a budget below one row, which still takes one row per block.
    @pytest.mark.parametrize("block_entries", [23 * 16, 23, 1, 1 << 16])
    @pytest.mark.parametrize("n", [40, 0])
    def test_nearest_equals_temporaries_expression_bitwise(self, monkeypatch, block_entries, n):
        monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(7)
        points = rng.normal(size=(23, 5)) * 10.0 ** rng.integers(-3, 4, size=(23, 1))
        queries = rng.normal(size=(n, 5))
        got_index, got_dist = nearest(queries, points)
        want_index, want_dist = blocked_nearest(queries, points)
        assert got_index.dtype == np.intp and got_dist.dtype == np.float64
        assert got_index.shape == got_dist.shape == (n,)
        np.testing.assert_array_equal(got_index, want_index)
        assert got_dist.tobytes() == want_dist.tobytes()

    def test_nearest_rejects_empty_points(self):
        with pytest.raises(InvalidArgumentError, match="points must hold at least one point"):
            nearest(np.zeros((4, 3)), np.zeros((0, 3)))
        with pytest.raises(InvalidArgumentError, match="points must hold at least one point"):
            nearest(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_nearest_rejects_mismatched_dimensions(self):
        with pytest.raises(InvalidArgumentError, match="queries have dimension 3 but points have 6"):
            nearest(np.zeros((4, 3)), np.zeros((5, 6)))
        with pytest.raises(InvalidArgumentError, match="must be 2-d arrays"):
            nearest(np.zeros(3), np.zeros((5, 3)))

    # The point-icp shape, whose full 3072 x 2150 matrix alone would take 50 MiB,
    # and k-means seeding's one center at d = 64, where d + 1 sets the rows.
    @pytest.mark.parametrize("n,m,dim", [(3072, 2150, 3), (16384, 1, 64)])
    def test_nearest_memory_is_bounded(self, n, m, dim):
        # q^2 is summed first, through an (n, d) temporary: 8 (d + 1) B per
        # query. Then the kernel holds one (rows, m) block buffer, the lifted
        # points and one block of lifted queries ((d+1) x (m + rows) floats),
        # and q^2, the index and the distance (24 B per query). The peak is the
        # larger of the two; 32 KiB more covers the list of block slices, each
        # block's small index arrays and what numpy caches on a first call. A
        # second (rows, m) buffer at the point-icp shape (504 KiB), or lifting
        # every query at once, does not fit.
        rng = np.random.default_rng(8)
        queries, points = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
        tracemalloc.start()
        try:
            nearest(queries, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = neighborhood._BLOCK_ENTRIES // max(m, dim + 1)
        blocks = 8 * rows * m + 8 * (dim + 1) * (m + rows) + 24 * n
        assert peak < max(8 * (dim + 1) * n, blocks) + 2**15

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


def integer_cloud(rng, n, dim, copies_of=None):
    """Integer coordinates in -8..8, where every product, square and sum is exact."""
    cloud = rng.integers(-8, 9, size=(n, dim)).astype(float)
    if copies_of is not None:
        cloud[: n // 2] = copies_of[rng.integers(0, len(copies_of), size=n // 2)]
    return cloud


@st.composite
def offset_clouds(draw):
    """Queries and points at scales 1e-3 to 1e3, around an offset far from the origin."""
    dim = draw(st.sampled_from([3, 6, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = rng.normal(size=dim) * scale * 10.0 ** draw(st.floats(0.0, 3.0))
    points = offset + rng.normal(size=(draw(st.integers(1, 30)), dim)) * scale
    if draw(st.booleans()):
        points = points[rng.integers(0, len(points), size=len(points))]
    queries = offset + rng.normal(size=(draw(st.integers(1, 30)), dim)) * scale
    return queries, points


class TestNearestAccuracy:
    """`nearest` against difference-form distances, which do not depend on its formula."""

    # Rows per block below, at and above the 37 queries, one row per block,
    # and the default budget. With m = 1 at d = 64, d + 1 sets the rows.
    @pytest.mark.parametrize("rows", [1, 16, 36, 37, 38, None])
    @pytest.mark.parametrize("dim,m", [(3, 40), (6, 40), (64, 40), (64, 1)])
    def test_exact_on_integer_clouds(self, monkeypatch, rows, dim, m):
        if rows is not None:
            monkeypatch.setattr(neighborhood, "_BLOCK_ENTRIES", rows * max(m, dim + 1))
        rng = np.random.default_rng(dim + m)
        base = integer_cloud(rng, 6, dim)
        points = integer_cloud(rng, m, dim, copies_of=base)
        queries = integer_cloud(rng, 37, dim, copies_of=points)
        index, dist = nearest(queries, points)
        true = difference_form(queries, points)
        np.testing.assert_array_equal(index, np.argmin(true, axis=1))
        assert dist.tobytes() == true[np.arange(len(queries)), index].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(offset_clouds())
    def test_picks_a_true_minimum_within_rounding(self, clouds):
        queries, points = clouds
        index, dist = nearest(queries, points)
        true = difference_form(queries, points)
        picked = true[np.arange(len(queries)), index]
        tol = 64 * np.finfo(float).eps * (
            np.sum(queries**2, axis=1) + np.max(np.sum(points**2, axis=1))
        )
        assert np.all(picked - true.min(axis=1) <= tol)
        assert np.all(np.abs(dist - picked) <= tol)


@st.composite
def row_subsets(draw):
    """Queries, points and a random subset of query rows: a single row, or
    each row with a drawn probability."""
    dim = draw(st.sampled_from([3, 6, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    points = rng.normal(size=(draw(st.integers(1, 300)), dim)) * scale
    queries = rng.normal(size=(draw(st.integers(1, 200)), dim)) * scale
    if draw(st.booleans()):
        subset = rng.integers(len(queries), size=1)
    else:
        subset = np.flatnonzero(rng.random(len(queries)) < draw(st.floats(0.0, 1.0)))
    return queries, points, subset


class TestNearestRowSubsets:
    """A query's result does not depend on which other queries share its call."""

    # From one row per block, where every block runs as two, to the default
    # budget; single-row subsets and remainders make one-row blocks at each.
    @pytest.mark.parametrize("block_entries", [1, 23 * 16, 1 << 12, 1 << 16])
    @settings(max_examples=100, deadline=None)
    @given(clouds=row_subsets())
    def test_subset_of_rows_equals_rows_of_the_full_call(self, block_entries, clouds):
        queries, points, subset = clouds
        with mock.patch.object(neighborhood, "_BLOCK_ENTRIES", block_entries):
            index, dist = nearest(queries, points)
            sub_index, sub_dist = nearest(queries[subset], points)
        np.testing.assert_array_equal(sub_index, index[subset])
        if queries.shape[1] < 64:
            assert sub_dist.tobytes() == dist[subset].tobytes()
        else:
            # At d = 64 the BLAS can round a product row by the product's size
            # and the row's place in it, so only the ranking is checked.
            np.testing.assert_allclose(sub_dist, dist[subset], rtol=1e-12, atol=0)


@st.composite
def distance_clouds(draw):
    """Small 3-d clouds whose squared distances stress the summation order.

    Random points at scales 1e-3 to 1e3 per axis, copies of a few points,
    integer grids scaled by a power of two (many exactly tied sums), and
    whitened coordinates.
    """
    kind = draw(st.sampled_from(["scaled", "duplicated", "grid", "whitened"]))
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    if kind == "grid":
        return rng.integers(-20, 21, size=(n, 3)).astype(float) * 2.0 ** draw(st.integers(-10, 10))
    coords = rng.normal(size=(n, 3)) * scale
    if kind == "duplicated":
        return coords[rng.integers(0, max(1, n // 3), size=n)]
    if kind == "whitened":
        return coords @ estimate_covariance(PointCloud(coords)).whitener().T
    return coords


class TestSquaredDistances:
    """knn's coordinate-wise block sum against the einsum difference tensor."""

    @settings(max_examples=300, deadline=None)
    @given(distance_clouds(), st.data())
    def test_equals_einsum_bitwise(self, coords, data):
        # Both call forms: a column of queries against all points (the brute
        # force), or against a gathered candidate table with p's x held in the
        # d2 buffer and its z in the scratch buffer (the cell grid).
        n = len(coords)
        start = data.draw(st.integers(0, n - 1))
        rows = slice(start, data.draw(st.integers(start + 1, n)))
        size = rows.stop - rows.start
        axes = np.ascontiguousarray(coords.T)
        q = axes[:, rows, None]
        if data.draw(st.booleans()):
            cand = np.arange(n)
            buf, scratch = np.full((size, n), np.nan), np.full((size, n), np.nan)
            got = neighborhood._squared_distances(q, axes, buf, scratch)
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            cand = rng.integers(0, n, size=(size, data.draw(st.integers(1, 2 * n))))
            buf, scratch = np.take(axes[0], cand), np.take(axes[2], cand)
            got = neighborhood._squared_distances(q, (buf, axes[1][cand], scratch), buf, scratch)
        diff = coords[rows, None, :] - coords[cand]
        want = np.einsum("ijk,ijk->ij", diff, diff)
        assert got is buf
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def brute_force_knn(coords, k):
    """The blocked brute force over every row: the fallback for rows the grid cannot prove."""
    axes = np.ascontiguousarray(coords.T)
    out = np.empty((len(coords), k), dtype=np.intp)
    neighborhood._brute_force_rows(axes, np.arange(len(coords)), k, out)
    return out


def assert_knn_is_brute_force(coords, k):
    np.testing.assert_array_equal(knn(PointCloud(coords), k).neighbors, brute_force_knn(coords, k))


def grid_fallback(coords, k):
    """The rows the grid path leaves to the brute force."""
    out = np.empty((len(coords), k), dtype=np.intp)
    return neighborhood._grid_rows(np.ascontiguousarray(coords.T), k, out)


@st.composite
def grid_clouds(draw):
    """Clouds that stress the cell grid: ties, duplicates, flat and thin shapes, outliers."""
    kind = draw(st.sampled_from(
        ["scaled", "duplicated", "grid", "planar", "collinear", "outlier", "whitened", "clusters"]
    ))
    n = draw(st.integers(min_value=2, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    if kind == "grid":
        coords = rng.integers(-6, 7, size=(n, 3)).astype(float)
    elif kind == "duplicated":
        coords = rng.normal(size=(max(1, n // 4), 3))[rng.integers(0, max(1, n // 4), size=n)]
    elif kind == "planar":
        coords = np.column_stack([rng.normal(size=(n, 2)), np.zeros(n)])
    elif kind == "collinear":
        coords = np.outer(rng.uniform(-1.0, 1.0, size=n), rng.normal(size=3))
    elif kind == "clusters":
        centers = rng.normal(size=(4, 3))[rng.integers(0, 4, size=n)]
        coords = centers + rng.normal(size=(n, 3)) * 0.01
    else:
        coords = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-1.0, 1.0, size=3)
    if kind == "outlier":
        coords[rng.integers(0, n)] = 10.0 ** draw(st.integers(3, 12))
    if kind == "whitened" and n > 3:
        coords = coords @ estimate_covariance(PointCloud(coords)).whitener().T
    return coords * scale


def tied_cloud(rng, n, scale):
    """A normal cloud with many tied distances: rounded coordinates and duplicated rows."""
    coords = np.round(rng.normal(size=(n, 3)) * scale)
    copies = rng.integers(0, n, size=rng.integers(0, n // 2 + 1))
    coords[rng.integers(0, n, size=len(copies))] = coords[copies]
    return coords


class TestKnnPrefix:
    """A narrower k-NN list is the prefix of a wider one, bit for bit."""

    # A small chunk budget sends the wide blocks of a normal cloud's dense
    # middle to the brute force, while the grid ranks its sparser rows.
    ENTRIES = 256

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(min_value=300, max_value=500),
        st.sampled_from([1.0, 4.0, 100.0]),
        st.sampled_from(["euclidean", "mahalanobis"]),
        st.data(),
    )
    def test_narrower_list_is_a_prefix(self, seed, n, scale, metric, data):
        cloud = PointCloud(tied_cloud(np.random.default_rng(seed), n, scale))
        k = data.draw(st.integers(2, 16))
        model = estimate_covariance(cloud) if metric == "mahalanobis" else None
        with mock.patch.object(neighborhood, "_GRID_ENTRIES", self.ENTRIES):
            wide = knn(cloud, k, metric, model).neighbors
            for j in range(1, k):
                narrow = knn(cloud, j, metric, model).neighbors
                assert narrow.tobytes() == wide[:, :j].tobytes()

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    def test_both_paths_rank_rows(self, metric):
        coords = tied_cloud(np.random.default_rng(0), 300, 4.0)
        if metric == "mahalanobis":
            coords = coords @ estimate_covariance(PointCloud(coords)).whitener().T
        with mock.patch.object(neighborhood, "_GRID_ENTRIES", self.ENTRIES):
            for k in (1, 16):
                assert 0 < len(grid_fallback(coords, k)) < len(coords)


class TestGridKnn:
    """`knn`'s cell grid against the blocked brute force it falls back to."""

    @settings(max_examples=300, deadline=None)
    @given(grid_clouds(), st.data())
    def test_equals_brute_force(self, coords, data):
        n = len(coords)
        k = data.draw(st.sampled_from(sorted({1, min(6, n - 1), n - 1})))
        # A small chunk budget splits clouds into several chunks of rows, and
        # leaves some blocks too wide for one chunk.
        entries = data.draw(st.sampled_from([64, 1024, neighborhood._GRID_ENTRIES]))
        # The drawn scales reach past the coordinate range knn accepts.
        extent = np.max(np.ptp(coords, axis=0))
        in_range = np.max(np.abs(coords)) <= MAX_ABS_COORDINATE and not 0 < extent < MIN_EXTENT
        with mock.patch.object(neighborhood, "_GRID_ENTRIES", entries):
            if not in_range:
                with pytest.raises(InvalidArgumentError, match="the limit"):
                    knn(PointCloud(coords), k)
                return
            got = knn(PointCloud(coords), k).neighbors
        np.testing.assert_array_equal(got, dense_knn(coords, k))

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    @pytest.mark.parametrize("shape,n,noise,k", [
        pytest.param("sphere-cap", 2150, "none", 20, id="sphere-cap-2150"),
        pytest.param("torus", 4096, "none", 20, id="torus-4096"),
        pytest.param("c-ring", 2048, "none", 20, id="c-ring-2048"),
        # The benchmark's clouds below 1024 points: whitened-descriptor's
        # 768-point source and 384-point subsample, and geodesic-manifold's
        # 384-point halves at its k and k_base.
        pytest.param("sphere-cap", 768, "subsample:count=384,applied_to=target", 20,
                     id="whitened-descriptor"),
        pytest.param("two-planes", 768, "zero_intersection", 10, id="geodesic-manifold-k10"),
        pytest.param("two-planes", 768, "zero_intersection", 6, id="geodesic-manifold-k6"),
    ])
    def test_workload_shapes(self, shape, n, noise, k, metric):
        # The pair of a trial as `harness.run_scenario` draws it at seed 0.
        source = generate(shape, n, 0)
        rng = np.random.default_rng(0)
        target = apply(sample_rigid(rng, (0.0, 45.0), (-0.5, 0.5)), source)
        for cloud in corrupt(source, target, NoiseSpec.parse(noise), rng):
            model = estimate_covariance(cloud) if metric == "mahalanobis" else None
            coords = cloud.points if model is None else cloud.points @ model.whitener().T
            got = knn(cloud, k, metric, model).neighbors
            np.testing.assert_array_equal(got, brute_force_knn(coords, k))
            # The grid proves most rows. On a curve that takes the measured
            # occupancy exponent: a surface rule put every c-ring row in the fallback.
            assert len(grid_fallback(coords, k)) < len(cloud) // 4

    def test_integer_grid_with_duplicates(self):
        lattice = integer_grid(11, 11, 11)
        coords = np.vstack([lattice, lattice[::3]])
        coords = coords[np.random.default_rng(0).permutation(len(coords))]
        for k in (1, 6, 26):
            assert_knn_is_brute_force(coords, k)
        assert len(grid_fallback(coords, 6)) < len(coords) // 4

    def test_identical_points_fall_back(self):
        coords = np.full((1100, 3), 0.25)
        assert neighborhood._grid(coords) is None
        assert_knn_is_brute_force(coords, 7)

    @pytest.mark.parametrize("shape", ["planar", "collinear"])
    def test_flat_and_thin_clouds(self, shape):
        rng = np.random.default_rng(1)
        if shape == "planar":
            coords = np.column_stack([rng.normal(size=(1200, 2)), np.zeros(1200)])
        else:
            coords = np.outer(rng.normal(size=1200), [1.0, -2.0, 0.5])
        assert_knn_is_brute_force(coords, 10)
        assert len(grid_fallback(coords, 10)) < 1200 // 4

    def test_far_outlier(self):
        coords = sphere_cap(1100, seed=2).points.copy()
        coords[17] = (1e12, -1e12, 1e12)
        assert_knn_is_brute_force(coords, 10)

    def test_cell_key_overflow_falls_back(self):
        # With the measured occupancy exponent a grid has at most about n cells
        # per axis, so keys cannot overflow at these sizes; a cell edge forced
        # down to 1e-8 of the extent gives about 1e24 cells.
        coords = sphere_cap(1100, seed=3).points.copy()
        coords[5] = (1e6, 1e6, 1e6)
        with mock.patch.object(neighborhood, "_cell_edge", lambda unit: 1e-8):
            assert neighborhood._grid(coords) is None
            assert_knn_is_brute_force(coords, 10)

    def test_absent_neighbour_cell_is_not_gathered(self):
        # Occupied cells of a lattice with holes. Each cell's nine runs of
        # sorted points are disjoint and hold exactly the points whose cell
        # indices differ from the cell's by at most 1 on every axis: an absent
        # cell adds no point and no point is gathered twice. The indices are
        # computed here from the coordinates, not from cell keys.
        rng = np.random.default_rng(4)
        lattice = integer_grid(14, 14, 14)
        keep = lattice[rng.random(len(lattice)) < 0.5]
        coords = np.repeat(keep, 3, axis=0) + rng.uniform(-0.2, 0.2, size=(3 * len(keep), 3))
        order, row_cell, run_start, run_stop, face2 = neighborhood._grid(coords)
        assert run_start.shape == run_stop.shape == (row_cell[-1] + 1, 9)
        lo = coords.min(axis=0)
        unit = (coords - lo) / float(np.max(coords.max(axis=0) - lo))
        cell = (unit / neighborhood._cell_edge(unit)).astype(np.intp)
        for c, (starts, stops) in enumerate(zip(run_start, run_stop)):
            own = cell[order[np.searchsorted(row_cell, c)]]
            positions = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
            assert len(np.unique(positions)) == len(positions)
            block = np.flatnonzero(np.all(np.abs(cell - own) <= 1, axis=1))
            np.testing.assert_array_equal(np.sort(order[positions]), block)
        assert_knn_is_brute_force(coords, 12)

    @pytest.mark.parametrize("exponent", [-150, -100, -10, 0, 10, 100, 150])
    def test_scales(self, exponent):
        coords = sphere_cap(1100, seed=5).points * 10.0**exponent
        assert_knn_is_brute_force(coords, 20)
        assert len(grid_fallback(coords, 20)) < 1100 // 4

    @pytest.mark.parametrize(
        "scale,limit", [(1e160, "above the limit 1e+150"), (1e-160, "below the limit 1e-150")]
    )
    def test_overflowing_distances_are_rejected(self, scale, limit):
        # Squared distances of 1e160-scale points are +inf and those of
        # 1e-160-scale points subnormal, so neither can be ranked. Every graph
        # is refused before its covariance or its distances are computed.
        cloud = PointCloud(sphere_cap(1100, seed=5).points * scale)
        with pytest.raises(InvalidArgumentError, match=re.escape(limit)):
            knn(cloud, 20)
        for metric in METRICS:
            with pytest.raises(InvalidArgumentError, match=re.escape(limit)):
                build_graph(cloud, metric, 20)

    def test_whitened_coordinates(self):
        cloud = two_planes(1536, seed=1)
        model = estimate_covariance(cloud)
        got = knn(cloud, 20, "mahalanobis", model).neighbors
        np.testing.assert_array_equal(got, brute_force_knn(cloud.points @ model.whitener().T, 20))

    def test_whitened_overflow_is_rejected(self):
        # The raw coordinates are in range, but a caller's model whitens them
        # to 1e250, whose squared differences are +inf: unchecked, every row
        # got the neighbours [0 1 2 3 4], row 0 itself included.
        cloud = PointCloud(sphere_cap(200, seed=0).points * 1e100)
        model = CovarianceModel(np.eye(3) * 1e-300, np.eye(3) * 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=re.escape("above the limit 1e+153")):
                knn(cloud, 5, "mahalanobis", model)

    def test_whitened_limit_admits_every_build_graph_cloud(self):
        # A coordinate near the raw limit that never varies is whitened by the
        # regularizer alone, about 316-fold, and is still ranked. A power of
        # two keeps the mean exact, so the variance on that axis is 0.
        pts = sphere_cap(1100, seed=5).points.copy()
        pts[:, 0] = 2.0**498
        cloud = PointCloud(pts)
        whitened = pts @ estimate_covariance(cloud).whitener().T
        assert np.max(np.abs(whitened)) > 100 * MAX_ABS_COORDINATE
        got = build_graph(cloud, "mahalanobis", 20).neighbors
        np.testing.assert_array_equal(got, brute_force_knn(whitened, 20))

    def test_k_is_n_minus_one(self):
        coords = sphere_cap(1030, seed=6).points
        assert_knn_is_brute_force(coords, 1029)

    @pytest.mark.parametrize("shape", [sphere, torus])
    def test_memory_is_bounded(self, shape):
        # The graph (8 n k B) and the transposed coordinates (24 n B), plus the
        # largest of three phases. The grid set-up holds at most 16 arrays of
        # n 8-byte entries (coordinates, cell indices, keys, orders, faces,
        # run bounds). The chunk loop holds the grid's tables (at most 12 such
        # arrays, the nine run starts, stops and lengths of about n / 8 cells
        # included), its four reused _GRID_ENTRIES buffers (the candidates and
        # their x, y and z) and at most four temporaries of one chunk's size
        # (the chunk's table of padded runs among them). The brute force of
        # the rows the grid cannot prove (5 on the sphere, 96 on the torus)
        # holds two reused (rows, n) buffers, _first_k's (rows, n) partition
        # and its (rows, n) comparison. 32 KiB more covers small index arrays.
        # Gathering every row's candidates at once (about 100 n entries) does
        # not fit.
        n, k = 8192, 20
        cloud = shape(n, 0)
        tracemalloc.start()
        try:
            knn(cloud, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = neighborhood._BLOCK_ENTRIES // n
        setup = 16 * 8 * n
        chunks = 12 * 8 * n + 8 * 8 * neighborhood._GRID_ENTRIES
        brute = 3 * 8 * rows * n + rows * n
        assert peak < 8 * n * k + 24 * n + max(setup, chunks, brute) + 2**15


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
        for k_base in (0, 10, 11):
            with pytest.raises(InvalidArgumentError, match=f"k_base .* got {k_base}"):
                knn_geodesic(cloud, k_base, 3)
        knn_geodesic(cloud, 9, 3)

    def test_k_base_named_through_build_graph(self):
        with pytest.raises(InvalidArgumentError) as exc:
            build_graph(generate("sphere", 20, 0), "geodesic", 5, k_base=50)
        assert str(exc.value) == "k_base must satisfy 1 <= k_base < 20, got 50"

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


def stable_first_k_of_paths(n, rows, cols, lengths, k):
    """Oracle: Floyd-Warshall on the symmetric dense matrix, then a stable sort."""
    adj = np.full((n, n), np.inf)
    np.minimum.at(adj, (rows, cols), lengths)
    np.minimum.at(adj, (cols, rows), lengths)
    np.fill_diagonal(adj, 0.0)
    dist = floyd_warshall(adj)
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


@st.composite
def dyadic_edge_lists(draw):
    """Random undirected edge lists; weights are multiples of 1/1024, zero included.

    Path sums stay exact in float64, so any ranking difference is a real one.
    Sparse draws leave several components.
    """
    n = draw(st.integers(min_value=2, max_value=14))
    edge = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3) | st.integers(0, 2048)
    )
    edges = draw(st.lists(edge, max_size=3 * n))
    rows = np.array([e[0] for e in edges], dtype=np.intp)
    cols = np.array([e[1] for e in edges], dtype=np.intp)
    lengths = np.array([e[2] for e in edges], dtype=np.float64) / 1024.0
    return n, rows, cols, lengths


class TestShortestFirstK:
    """The bounded per-point search against all-pairs Floyd-Warshall."""

    @settings(max_examples=300, deadline=None)
    @given(dyadic_edge_lists())
    def test_matches_floyd_warshall_stable_sort(self, graph):
        n, rows, cols, lengths = graph
        for k in sorted({1, max(1, n // 2), n - 1}):
            got = neighborhood._shortest_first_k(n, rows, cols, lengths, k)
            np.testing.assert_array_equal(got, stable_first_k_of_paths(n, rows, cols, lengths, k))

    def test_tie_at_kth_reached_through_zero_length_edge(self):
        # From 0, node 3 is reached directly at length 1 and settles as the
        # first neighbour; node 1 sits at the same length only through the
        # zero-length edge 3-1, and must still win the tie on its lower index.
        rows = np.array([0, 3, 0], dtype=np.intp)
        cols = np.array([3, 1, 2], dtype=np.intp)
        lengths = np.array([1.0, 0.0, 2.0])
        got = neighborhood._shortest_first_k(4, rows, cols, lengths, 1)
        np.testing.assert_array_equal(got[0], [1])
        for k in (1, 2, 3):
            np.testing.assert_array_equal(
                neighborhood._shortest_first_k(4, rows, cols, lengths, k),
                stable_first_k_of_paths(4, rows, cols, lengths, k),
            )

    def test_duplicate_points_tie_at_kth(self):
        # Each x in 0..4 is stored twice, in shuffled order, so every point has
        # a copy at length 0 and two points at each further integer length:
        # with k = 2 the second neighbour is a tie between the two copies at
        # length 1, and with k = 4 between those at length 2.
        rng = np.random.default_rng(11)
        xs = rng.permutation(np.repeat(np.arange(5.0), 2))
        cloud = PointCloud(np.column_stack([xs, np.zeros(10), np.zeros(10)]))
        rows, cols, lengths = neighborhood._base_edges(cloud, 3)
        for k in range(1, 10):
            got = knn_geodesic(cloud, 3, k).neighbors
            np.testing.assert_array_equal(got, stable_first_k_of_paths(10, rows, cols, lengths, k))
        start = int(np.flatnonzero(xs == 0.0)[0])
        copy = int(np.flatnonzero(xs == 0.0)[1])
        ones = np.flatnonzero(xs == 1.0)
        np.testing.assert_array_equal(knn_geodesic(cloud, 3, 2).neighbors[start], [copy, ones[0]])

    def test_memory_is_bounded(self):
        # One dense float64 n x n matrix alone would take 4096^2 * 8 B = 128 MiB.
        cloud = PointCloud(np.random.default_rng(12).normal(size=(4096, 3)))
        tracemalloc.start()
        try:
            knn_geodesic(cloud, 20, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestBuildGraph:
    def test_dispatches_to_each_metric(self):
        cloud = two_planes(60, seed=1)
        cases = (
            (build_graph(cloud, "euclidean", 7), knn(cloud, 7)),
            (
                build_graph(cloud, "mahalanobis", 7),
                knn(cloud, 7, "mahalanobis", estimate_covariance(cloud)),
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

