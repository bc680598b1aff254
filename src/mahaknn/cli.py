"""Command-line surface for generation, corruption, registration, probing,
and benchmarking.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .cloudio import load_cloud, save_cloud
from .corruption import NoiseSpec, corrupt
from .descriptors import edgeconv_features, kmeans
from .errors import (
    CloudParseError,
    InvalidArgumentError,
    MahaknnError,
    NoCorrespondenceError,
    RankDeficiencyError,
    SingularCovarianceError,
)
from .geometry import PointCloud, apply, euler_zyx_deg
from .harness import PIPELINE_FIELDS, load_scenario, run_scenario, write_report
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
    np.linalg.LinAlgError,
)


# Earlier spellings of `register` flags, kept beside the derived ones.
_REGISTER_ALIASES = {"trim_fraction": ("--trim",)}


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("corrupt", help="apply a noise/density perturbation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--noise", required=True, help="e.g. gaussian:sigma=0.01,clip=0.05")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("register", help="register a source cloud onto a target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    for f in fields(RegistrationConfig):
        flags = ("--" + f.name.replace("_", "-"),) + _REGISTER_ALIASES.get(f.name, ())
        p.add_argument(*flags, dest=f.name, type=PIPELINE_FIELDS[f.name], default=f.default,
                       help="default: %(default)s")
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
    p.add_argument("--seed", type=int, default=0)
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
    if spec.variant in ("sampling", "zero_intersection"):
        # These produce a genuine pair; write two files.
        stem, ext = os.path.splitext(args.out)
        save_cloud(src, f"{stem}_source{ext}")
        save_cloud(tgt, f"{stem}_target{ext}")
        return EXIT_OK
    # Single-cloud result: write whichever side the spec touched (target wins).
    save_cloud(tgt if spec.applied_to in ("target", "both") else src, args.out)
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
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "point_index", "x", "y", "z", "overlap_fraction",
            "euclidean_neighbors", "mahalanobis_neighbors",
        ])
        for i, p in enumerate(cloud.points):
            e_set = set(euc.neighbors[i].tolist())
            m_set = set(mah.neighbors[i].tolist())
            overlap = len(e_set & m_set) / args.k
            writer.writerow([
                i, f"{p[0]:.17g}", f"{p[1]:.17g}", f"{p[2]:.17g}", repr(overlap),
                " ".join(map(str, euc.neighbors[i])),
                " ".join(map(str, mah.neighbors[i])),
            ])
    return EXIT_OK


def _cmd_cluster(args) -> int:
    cloud = load_cloud(args.input)
    graph = build_graph(cloud, args.metric, args.k)
    features = edgeconv_features(cloud, graph, seed=args.seed)
    labels = kmeans(features, args.K, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", "x", "y", "z", "label"])
        for i, (p, lab) in enumerate(zip(cloud.points, labels)):
            writer.writerow([i, f"{p[0]:.17g}", f"{p[1]:.17g}", f"{p[2]:.17g}", int(lab)])
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
    except CloudParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, IOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidArgumentError, MahaknnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
