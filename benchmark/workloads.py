"""The benchmark's workloads: one generated cloud, one corruption, two pipelines.

Each workload puts its cost in a different layer (see mapping.json), so an
optimisation of one layer is exercised by one workload and bypassed by another.
Pipelines are given as keyword arguments of `mahaknn.registration.RegistrationConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    shape: str  # name understood by mahaknn.shapes.generate
    n: int
    noise: str  # NoiseSpec text form
    trials: int  # trials per untraced scenario pass; every pass repeats the same trials
    pipelines: tuple  # ((pipeline name, RegistrationConfig kwargs), ...)
    # Functions whose summed self time the workload is built to make the largest.
    hotspot: tuple


WORKLOADS = {
    # The k-NN graph is rebuilt for source and target on every iteration.
    "whitened-descriptor": Workload(
        shape="sphere-cap",
        n=768,
        noise="subsample:count=384,applied_to=target",
        trials=6,
        pipelines=(
            ("whitened-eigen", {"metric": "mahalanobis", "descriptor": "eigen", "k": 20, "max_iters": 30}),
            ("whitened-edgeconv", {"metric": "mahalanobis", "descriptor": "edgeconv", "k": 20, "max_iters": 30}),
        ),
        hotspot=("neighborhood.knn",),
    ),
    # Dense n x m matching every iteration; k-NN only in the two coarse-init calls.
    # With the default tolerance a registration stops after 8 to 30 iterations
    # depending on the seed, which spread registrations_per_s by 20% between
    # seeds; a zero tolerance runs all 30, so every seed does the same work.
    "point-icp": Workload(
        shape="sphere-cap",
        n=3072,
        noise="bernoulli:keep_prob=0.7",
        trials=5,
        pipelines=(
            ("point-icp", {"convergence_tol": 0.0}),
            ("point-icp-mutual", {"convergence_tol": 0.0, "mutual": True}),
        ),
        hotspot=("registration.match_descriptors", "registration.register"),
    ),
    # O(n^3) Floyd-Warshall runs only in the geodesic pipeline.
    "geodesic-manifold": Workload(
        shape="two-planes",
        n=768,
        noise="zero_intersection",
        trials=3,
        pipelines=(
            ("geodesic-eigen", {"metric": "geodesic", "descriptor": "eigen", "k": 10, "k_base": 6}),
            ("euclidean-eigen", {"metric": "euclidean", "descriptor": "eigen", "k": 10}),
        ),
        hotspot=("neighborhood.floyd_warshall",),
    ),
}
