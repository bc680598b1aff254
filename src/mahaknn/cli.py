"""Command-line surface for generation, corruption, registration, probing,
and benchmarking.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .cloudio import coordinate_rows, load_cloud, save_cloud, write_csv
from .corruption import PAIR_VARIANTS, NoiseSpec, corrupt
from .descriptors import edgeconv_features, kmeans
from .errors import (
    CloudParseError,
    LinearAlgebraError,
    MahaknnError,
    NoCorrespondenceError,
    RankDeficiencyError,
    SingularCovarianceError,
)
from .geometry import apply, euler_zyx_deg
from .harness import PIPELINE_FIELDS, load_scenario, non_negative_int, run_scenario, write_report
from .neighborhood import METRIC_EUCLIDEAN, METRIC_MAHALANOBIS, METRICS, build_graph
from .registration import RegistrationConfig, register
from .shapes import SHAPES, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    RankDeficiencyError,
    SingularCovarianceError,
    NoCorrespondenceError,
    LinearAlgebraError,
    np.linalg.LinAlgError,  # from knn-compare and cluster, which do not go through `register`
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mahaknn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic point cloud")
    p.add_argument("--shape", required=True, choices=list(SHAPES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("corrupt", help="apply a noise/density perturbation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--noise", required=True, help="e.g. gaussian:sigma=0.01,clip=0.05")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("register", help="register a source cloud onto a target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    # One flag per config field; like every flag, it takes any unique prefix (--trim).
    for f in fields(RegistrationConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=PIPELINE_FIELDS[f.name],
                       default=f.default, help="default: %(default)s")
    p.add_argument("--report", required=True, help="output JSON report path")
    p.add_argument("--aligned", default=None,
                   help="aligned source cloud output (default: <report stem>_aligned.xyz)")

    p = sub.add_parser("knn-compare",
                       help="per-point Euclidean vs Mahalanobis neighbor overlap")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cluster", help="cluster edge-conv features on a graph metric")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--metric", default=METRIC_EUCLIDEAN, choices=METRICS)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--k", type=int, default=10, help="graph neighborhood size")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="run a benchmark scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    cloud = generate(args.shape, args.n, args.seed)
    save_cloud(cloud, args.out)
    return EXIT_OK


def _cmd_corrupt(args) -> int:
    cloud = load_cloud(args.input)
    spec = NoiseSpec.parse(args.noise)
    rng = np.random.default_rng(args.seed)
    src, tgt = corrupt(cloud, cloud, spec, rng)
    if spec.variant in PAIR_VARIANTS:
        stem, ext = os.path.splitext(args.out)
        save_cloud(src, f"{stem}_source{ext}")
        save_cloud(tgt, f"{stem}_target{ext}")
    else:
        # The touched side, the target when both are: an untouched side is `cloud` itself.
        save_cloud(tgt if tgt is not cloud else src, args.out)
    return EXIT_OK


def _cmd_register(args) -> int:
    cfg = RegistrationConfig(**{f.name: getattr(args, f.name) for f in fields(RegistrationConfig)})
    source = load_cloud(args.source)
    target = load_cloud(args.target)
    result = register(source, target, cfg)
    aligned = apply(result.motion, source)
    aligned_path = args.aligned or os.path.splitext(args.report)[0] + "_aligned.xyz"
    save_cloud(aligned, aligned_path)
    doc = {
        "rotation": result.motion.rotation.tolist(),
        "translation": result.motion.translation.tolist(),
        "euler_zyx_deg": euler_zyx_deg(result.motion.rotation).tolist(),
        "iterations": result.iterations,
        "per_iteration_residuals": list(result.per_iteration_residuals),
        "correspondence_count": len(result.correspondences_final),
        "config": vars(cfg),
        "aligned_cloud": aligned_path,
        "euler_convention": "intrinsic Z*Y*X (Rz@Ry@Rx)",
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _cmd_knn_compare(args) -> int:
    cloud = load_cloud(args.input)
    euc = build_graph(cloud, METRIC_EUCLIDEAN, args.k)
    mah = build_graph(cloud, METRIC_MAHALANOBIS, args.k)
    per_point = zip(coordinate_rows(cloud.points), euc.neighbors.tolist(), mah.neighbors.tolist())
    rows = ([i, *xyz, repr(len(set(e) & set(m)) / args.k), " ".join(map(str, e)), " ".join(map(str, m))]
            for i, (xyz, e, m) in enumerate(per_point))
    write_csv(args.out, ["point_index", "x", "y", "z", "overlap_fraction",
                         "euclidean_neighbors", "mahalanobis_neighbors"], rows)
    return EXIT_OK


def _cmd_cluster(args) -> int:
    cloud = load_cloud(args.input)
    graph = build_graph(cloud, args.metric, args.k)
    features = edgeconv_features(cloud, graph, seed=args.seed)
    labels = kmeans(features, args.K, args.seed)
    per_point = zip(coordinate_rows(cloud.points), labels.tolist())
    rows = ([i, *xyz, lab] for i, (xyz, lab) in enumerate(per_point))
    write_csv(args.out, ["point_index", "x", "y", "z", "label"], rows)
    return EXIT_OK


def _cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    write_report(report, args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "corrupt": _cmd_corrupt,
    "register": _cmd_register,
    "knn-compare": _cmd_knn_compare,
    "cluster": _cmd_cluster,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CloudParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MahaknnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
