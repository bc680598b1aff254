"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so the gate's outcome is readable straight from the log. Criteria
are property-based or comparative orderings; none depend on trained models.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mahaknn.corruption import NoiseSpec, corrupt
from mahaknn.descriptors import edgeconv_features, kmeans
from mahaknn.evaluation import pose_error
from mahaknn.geometry import (
    CorrespondenceSet,
    PointCloud,
    apply,
    kabsch,
    rotation_angle_rad,
    sample_rigid,
)
from mahaknn.harness import Scenario, run_scenario, write_report
from mahaknn.neighborhood import floyd_warshall, geodesic_adjacency, knn
from mahaknn.registration import RegistrationConfig, register
from mahaknn.shapes import sphere, sphere_cap, two_planes
from mahaknn.statistics import (
    CovarianceModel,
    estimate_covariance,
    identity_model,
    mahalanobis_distance,
)

from test_neighborhood import dijkstra_all_pairs


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_metric_correctness():
    """Identity-covariance distance equals Euclidean on 1e5 pairs within
    1e-12; metric axioms hold on 1e4 triples with random positive-definite
    covariances."""
    rng = np.random.default_rng(0)
    ident = identity_model()
    p = rng.normal(size=(100_000, 3))
    q = rng.normal(size=(100_000, 3))
    max_dev = 0.0
    for i in range(100_000):
        max_dev = max(
            max_dev,
            abs(mahalanobis_distance(p[i], q[i], ident) - np.linalg.norm(p[i] - q[i])),
        )
    axiom_violations = 0
    for _ in range(10_000):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.1 * np.eye(3)
        model = CovarianceModel(cov, np.linalg.inv(cov))
        x, y, z = rng.normal(size=(3, 3))
        dxy = mahalanobis_distance(x, y, model)
        dyx = mahalanobis_distance(y, x, model)
        dxz = mahalanobis_distance(x, z, model)
        dzy = mahalanobis_distance(z, y, model)
        if (
            abs(dxy - dyx) > 1e-9
            or mahalanobis_distance(x, x, model) != 0.0
            or dxy > dxz + dzy + 1e-9
        ):
            axiom_violations += 1
    ok = max_dev < 1e-12 and axiom_violations == 0
    report(
        1,
        "metric correctness",
        ok,
        f"max identity-model deviation {max_dev:.2e} (tol 1e-12), "
        f"{axiom_violations} axiom violations in 10000 triples",
    )


def test_criterion_2_shortest_path_oracle():
    """Floyd-Warshall matches per-source Dijkstra exactly on 20 random
    64-node k-NN graphs. Edge weights are snapped to a dyadic grid so both
    algorithms accumulate path sums without rounding."""
    mismatches = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(64, 3)))
        adj = geodesic_adjacency(cloud, 5)
        adj = np.round(adj * 1024.0) / 1024.0
        if not np.array_equal(floyd_warshall(adj), dijkstra_all_pairs(adj)):
            mismatches += 1
    report(
        2,
        "shortest-path oracle equivalence",
        mismatches == 0,
        f"{mismatches} of 20 graphs disagreed with the Dijkstra oracle",
    )


def test_criterion_3_solver_optimality():
    """The closed-form solver recovers planted motions (rotation uniform in
    [0, 45] degrees per axis, translation in [-0.5, 0.5]) with geodesic error
    below 1e-9 rad, and its residual beats 1e4 random candidate motions on
    every one of 100 seeded trials."""
    worst_angle = 0.0
    beaten = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        truth = sample_rigid(rng)
        src = PointCloud(rng.normal(size=(50, 3)))
        tgt = apply(truth, src)
        corr = CorrespondenceSet(np.arange(50), np.arange(50))
        est = kabsch(src, tgt, corr)
        worst_angle = max(
            worst_angle, rotation_angle_rad(est.rotation.T @ truth.rotation)
        )
        solver_res = float(
            np.sum((src.points @ est.rotation.T + est.translation - tgt.points) ** 2)
        )
        euler = rng.uniform(0.0, 45.0, size=(10_000, 3))
        rots = Rotation.from_euler("ZYX", euler[:, ::-1], degrees=True).as_matrix()
        trans = rng.uniform(-0.5, 0.5, size=(10_000, 3))
        moved = np.einsum("mij,nj->mni", rots, src.points) + trans[:, None, :]
        cand_res = np.sum((moved - tgt.points) ** 2, axis=(1, 2))
        if solver_res > cand_res.min() + 1e-12:
            beaten += 1
    ok = worst_angle < 1e-9 and beaten == 0
    report(
        3,
        "solver optimality",
        ok,
        f"worst geodesic error {worst_angle:.2e} rad (tol 1e-9), "
        f"solver beaten by random candidates on {beaten} of 100 trials",
    )


def test_criterion_4_linear_invariance():
    """Whitened-metric neighbor lists are identical before and after a random
    invertible linear map with covariance re-estimated (no regularizer),
    across 20 fixtures."""
    broken = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(80, 3))
        a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        cloud = PointCloud(pts)
        mapped = PointCloud(pts @ a.T)
        g0 = knn(cloud, 6, "mahalanobis", estimate_covariance(cloud, regularizer=0.0))
        g1 = knn(mapped, 6, "mahalanobis", estimate_covariance(mapped, regularizer=0.0))
        if not np.array_equal(g0.neighbors, g1.neighbors):
            broken += 1
    report(
        4,
        "linear invariance",
        broken == 0,
        f"neighbor lists changed under the linear map on {broken} of 20 fixtures",
    )


def _purity(labels, classes):
    n = len(labels)
    total = 0
    for lab in np.unique(labels):
        members = classes[labels == lab]
        total += max(np.sum(members == 0), np.sum(members == 1))
    return total / n


def test_criterion_5_surface_awareness_ordering():
    """Two parallel planes (gap 0.1, 200 points each, k = 10): the whitened
    metric's mean same-plane neighbor fraction must beat the Euclidean one,
    and clustering purity over edge-conv features on the whitened graph must
    be >= the Euclidean-graph purity for every K in {2..5} across 5 seeds.

    The fraction half holds decisively. The purity half does not: with random
    (untrained) edge-conv weights the 64-d features of the two graphs carry
    statistically indistinguishable class structure, so the per-cell ordering
    is a coin flip. This test reports the honest failure; see the decisions
    ledger for the structural analysis.
    """
    cloud = two_planes(200, seed=0, gap=0.1)
    classes = (cloud.points[:, 2] > 0.05).astype(int)
    model = estimate_covariance(cloud)
    g_euc = knn(cloud, 10)
    g_mah = knn(cloud, 10, "mahalanobis", model)
    frac_euc = float(np.mean(classes[g_euc.neighbors] == classes[:, None]))
    frac_mah = float(np.mean(classes[g_mah.neighbors] == classes[:, None]))
    fraction_ok = frac_mah > frac_euc

    cells = 0
    ordered = 0
    for seed in range(5):
        fe = edgeconv_features(cloud, g_euc, seed=seed)
        fm = edgeconv_features(cloud, g_mah, seed=seed)
        for n_clusters in (2, 3, 4, 5):
            pe = _purity(kmeans(fe, n_clusters, seed=seed), classes)
            pm = _purity(kmeans(fm, n_clusters, seed=seed), classes)
            cells += 1
            if pm >= pe:
                ordered += 1
    purity_ok = ordered == cells
    report(
        5,
        "surface-awareness ordering",
        fraction_ok and purity_ok,
        f"same-plane fraction whitened {frac_mah:.3f} vs euclidean {frac_euc:.3f} "
        f"({'ordered' if fraction_ok else 'NOT ordered'}); "
        f"purity ordering held in {ordered} of {cells} (K, seed) cells",
    )


def test_criterion_6_registration_recovery():
    """Point-ICP on noiseless 512-point fixtures with planted motions reaches
    per-axis rotation RMSE below 1 degree in at least 90% of 20 seeded
    trials."""
    source = sphere_cap(512, seed=7)
    cfg = RegistrationConfig(
        descriptor="none", trim_fraction=0.0, max_iters=50, convergence_tol=1e-7
    )
    hits = 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        truth = sample_rigid(rng)
        target = apply(truth, source)
        result = register(source, target, cfg)
        if pose_error(result.motion, truth).rmse_r_deg < 1.0:
            hits += 1
    report(
        6,
        "registration recovery",
        hits >= 18,
        f"rotation RMSE < 1 degree in {hits} of 20 trials (need >= 18)",
    )


def test_criterion_7_density_imbalance_ordering():
    """With the target subsampled to half density, the whitened-metric eigen
    pipeline's 5-degree success rate must be >= the Euclidean eigen
    pipeline's over 20 paired trials, and on 1024-point clouds the geodesic
    pipeline must spend more wall time than the whitened one."""
    source = sphere_cap(256, seed=3)
    spec = NoiseSpec("subsample", count=128, applied_to="target")
    cfg_m = RegistrationConfig(metric="mahalanobis", descriptor="eigen", k=20)
    cfg_e = RegistrationConfig(metric="euclidean", descriptor="eigen", k=20)
    wins = {"mahalanobis": 0, "euclidean": 0}
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        truth = sample_rigid(rng)
        target = apply(truth, source)
        src_c, tgt_c = corrupt(source, target, spec, rng)
        for name, cfg in (("mahalanobis", cfg_m), ("euclidean", cfg_e)):
            result = register(src_c, tgt_c, cfg)
            if pose_error(result.motion, truth).geodesic_r_deg < 5.0:
                wins[name] += 1
    rate_ok = wins["mahalanobis"] >= wins["euclidean"]

    timing = run_scenario(
        Scenario(
            name="walltime",
            input="shape:sphere:1024:0",
            noise=NoiseSpec("none"),
            trials=1,
            pipelines=(
                ("geodesic", RegistrationConfig(
                    metric="geodesic", descriptor="eigen", k=20, max_iters=1)),
                ("mahalanobis", RegistrationConfig(
                    metric="mahalanobis", descriptor="eigen", k=20, max_iters=1)),
            ),
            base_seed=0,
        )
    ).timings
    timing_ok = timing["geodesic"] > timing["mahalanobis"]
    report(
        7,
        "density-imbalance ordering",
        rate_ok and timing_ok,
        f"5-degree successes whitened {wins['mahalanobis']}/20 vs euclidean "
        f"{wins['euclidean']}/20; geodesic wall {timing['geodesic']:.2f}s vs "
        f"whitened {timing['mahalanobis']:.2f}s",
    )


def test_criterion_8_noise_suite_integrity():
    """Gaussian corruption respects the clip bound exactly with empirical
    sigma within 15% on 1e4 points; the sampling and zero-intersection
    variants produce provably disjoint point sets."""
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10_000, 3))
    pair = (PointCloud(pts), PointCloud(pts + 5.0))

    noisy, _ = corrupt(*pair, NoiseSpec("gaussian", applied_to="source"),
                       np.random.default_rng(1))
    delta = noisy.points - pts
    clip_ok = np.max(np.abs(delta)) <= 0.05
    wide, _ = corrupt(*pair, NoiseSpec("gaussian", sigma=0.01, clip=1.0,
                                       applied_to="source"),
                      np.random.default_rng(2))
    sigma_hat = float(np.std(wide.points - pts))
    sigma_ok = abs(sigma_hat - 0.01) <= 0.15 * 0.01

    s1, t1 = corrupt(*pair, NoiseSpec("sampling", ratio=0.4), np.random.default_rng(3))
    s2, t2 = corrupt(*pair, NoiseSpec("zero_intersection"), np.random.default_rng(4))
    disjoint_ok = (
        not ({tuple(p) for p in s1.points} & {tuple(p - 5.0) for p in t1.points})
        and not ({tuple(p) for p in s2.points} & {tuple(p - 5.0) for p in t2.points})
    )
    ok = clip_ok and sigma_ok and disjoint_ok
    report(
        8,
        "noise suite integrity",
        ok,
        f"clip bound {'held' if clip_ok else 'VIOLATED'}, empirical sigma "
        f"{sigma_hat:.5f} (target 0.01 +/- 15%), disjointness "
        f"{'exact' if disjoint_ok else 'VIOLATED'}",
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    """Running the same benchmark scenario twice with a fixed base seed
    produces bitwise-identical report files."""
    def scenario():
        return Scenario(
            name="determinism",
            input="shape:sphere-cap:128:3",
            noise=NoiseSpec("gaussian"),
            trials=3,
            pipelines=(
                ("icp", RegistrationConfig(descriptor="none", trim_fraction=0.0, k=10)),
                ("eigen", RegistrationConfig(metric="mahalanobis",
                                             descriptor="eigen", k=10)),
            ),
            base_seed=11,
        )

    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    write_report(run_scenario(scenario()), d1)
    write_report(run_scenario(scenario()), d2)
    json_same = (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    csv_same = (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
    report(
        9,
        "end-to-end determinism",
        json_same and csv_same,
        f"report.json bitwise identical: {json_same}, "
        f"report.csv bitwise identical: {csv_same}",
    )
