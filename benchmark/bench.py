"""Scenario passes, output checks and metrics of one benchmark run.

Imported by run.py once the BLAS thread count is pinned and ./src is on the
path. A run generates its input cloud from the seed, writes it, and hands the
file to `harness.run_scenario` as `Scenario.input`. It then runs scenario
passes until --seconds have passed. Every pass repeats the same trials, so
every pass must write the same report.json bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack

import numpy as np

from mahaknn import cloudio, harness, shapes
from mahaknn.corruption import NoiseSpec
from mahaknn.errors import MahaknnError
from mahaknn.registration import RegistrationConfig
from tracer import Tracer, patch
from workloads import WORKLOADS

SETUP_REPEATS = 5
OUT_DIR = ".bench_out"

# One set-up, from the first statement of a fresh interpreter: argv is
# src, shape, n, seed, path. The time is printed last.
SETUP_CHILD = """
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
from mahaknn import cloudio, shapes
cloudio.save_cloud(shapes.generate(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])), sys.argv[5])
print(time.perf_counter() - start)
"""

TRACED = (
    "neighborhood.knn",
    "neighborhood.knn_geodesic",
    "neighborhood.geodesic_adjacency",
    "neighborhood.floyd_warshall",
    "statistics.estimate_covariance",
    "descriptors.eigen_features",
    "descriptors.edgeconv_features",
    "registration.register",
    "registration.match_descriptors",
    "geometry.kabsch",
    "geometry.apply",
    "geometry.compose",
    "evaluation.pose_error",
    "evaluation.set_distance",
    "corruption.corrupt",
    "harness.run_scenario",
    "harness.write_report",
    "cloudio.save_cloud",
    "cloudio.load_cloud",
    "shapes.generate",
)

SIZES = {
    "neighborhood.knn": lambda a: {"n": len(a["cloud"]), "k": a["k"]},
    "neighborhood.knn_geodesic": lambda a: {"n": len(a["cloud"]), "k": a["k"], "k_base": a["k_base"]},
    "neighborhood.geodesic_adjacency": lambda a: {"n": len(a["cloud"]), "k_base": a["k_base"]},
    "neighborhood.floyd_warshall": lambda a: {"n": len(a["adjacency"])},
    "registration.match_descriptors": lambda a: {
        "n_source": len(a["source_desc"]),
        "n_target": len(a["target_desc"]),
    },
    "registration.register": lambda a: {"n_source": len(a["source"]), "n_target": len(a["target"])},
}

OUTCOMES = {
    "registration.register": lambda a, r: {
        "iterations": r.iterations,
        "max_iters": a["cfg"].max_iters,
        "descriptor": a["cfg"].descriptor,
        "kept": len(r.correspondences_final.source_indices),
    },
    "evaluation.pose_error": lambda a, r: {"geodesic_r_deg": r.geodesic_r_deg},
}


class OutputMismatch(Exception):
    """The program's output failed a check."""


class Registrations:
    """Thin wrappers on the harness's bindings of register and pose_error.

    Each register call is timed and kept with its pipeline config and the
    class of any exception, which is re-raised unchanged. The harness scores
    a registration right after it returns, so a pose_error result belongs to
    the latest call.
    """

    def __init__(self):
        self.calls = []

    def _register(self, fn):
        def timed(*args, **kwargs):
            call = {
                "cfg": args[2] if len(args) > 2 else kwargs.get("cfg"),
                "error": None,
                "iterations": None,
                "rot_err_deg": None,
            }
            self.calls.append(call)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                call["iterations"] = result.iterations
                return result
            except Exception as exc:
                call["error"] = exc
                raise
            finally:
                call["seconds"] = time.perf_counter() - start

        return timed

    def _pose_error(self, fn):
        def observed(*args, **kwargs):
            err = fn(*args, **kwargs)
            self.calls[-1]["rot_err_deg"] = err.geodesic_r_deg
            return err

        return observed

    def install(self, stack):
        stack.enter_context(patch("harness.register", self._register))
        stack.enter_context(patch("harness.pose_error", self._pose_error))


def source_digest(src):
    """SHA-256 over the package sources, so results name the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((src / "mahaknn").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root):
    """HEAD's commit read from .git without running git; None outside a checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: ") :]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(root, seed, blas_threads):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "workload_seed": seed,
    }


def setup_seconds(root, wl, seed, input_path):
    """Median time a fresh interpreter takes to import the package, generate and write the input.

    Import time swings by a factor of two between processes on a busy machine,
    so one set-up per run would make a noisy figure.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(root / "src"), wl.shape, str(wl.n), str(seed), str(input_path)],
            cwd=root,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def write_input(wl, seed, input_path):
    """Generate and write the input cloud in this process; it must read back bitwise."""
    cloud = shapes.generate(wl.shape, wl.n, seed)
    cloudio.save_cloud(cloud, input_path)
    if not np.array_equal(cloudio.load_cloud(input_path).points, cloud.points):
        raise OutputMismatch("the input cloud does not survive save_cloud/load_cloud bitwise")


def run_pass(scenario, regs, out_dir):
    """One run_scenario + write_report; returns what the pass observed."""
    first = len(regs.calls)
    start = time.perf_counter()
    report = abort = None
    try:
        report = harness.run_scenario(scenario)
    except Exception as exc:  # a scenario the harness could not finish is counted, not fatal
        abort = {"class": type(exc).__name__, "message": str(exc), "traceback": traceback.format_exc()}
    wall = time.perf_counter() - start
    calls = regs.calls[first:]
    names = {id(cfg): name for name, cfg in scenario.pipelines}
    for c in calls:
        c["pipeline"] = names.get(id(c["cfg"]))
    outcome = {
        "wall_s": wall,
        "calls": calls,
        "planned": scenario.trials * len(scenario.pipelines),
        "abort": abort,
        "sha256": None,
    }
    if report is None:
        outcome["signature"] = f"aborted after {len(calls)} registrations: {abort['class']}: {abort['message']}"
        return outcome
    harness.write_report(report, out_dir)
    outcome["signature"] = outcome["sha256"] = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
    check_report(scenario, report, calls)
    return outcome


def check_report(scenario, report, calls):
    """The report's failures, success rates and mean errors match the calls observed."""
    for name, _ in scenario.pipelines:
        mine = [c for c in calls if c["pipeline"] == name]
        cell = report.cells[name]
        failures = sum(isinstance(c["error"], MahaknnError) for c in mine)
        errs = [c["rot_err_deg"] for c in mine if c["error"] is None]
        successes = sum(e < harness.SUCCESS_THRESHOLD_DEG for e in errs)
        mean = float(np.asarray(errs, dtype=float).mean()) if errs else float("nan")
        if cell["failures"] != failures:
            raise OutputMismatch(f"{name}: report counts {cell['failures']} failures, observed {failures}")
        if cell["success_rate"] != successes / scenario.trials:
            raise OutputMismatch(f"{name}: report success_rate {cell['success_rate']}, observed {successes}")
        got = cell["geodesic_r_deg_mean"]
        if not (got == mean or (np.isnan(got) and np.isnan(mean))):
            raise OutputMismatch(f"{name}: report geodesic_r_deg_mean {got!r}, observed {mean!r}")


def check_repeatable(passes, digest_file):
    """Every pass, traced or not, and every earlier run of this code and scenario agree."""
    signatures = {p["signature"] for p in passes}
    if len(signatures) != 1:
        raise OutputMismatch(f"report.json differs between passes: {sorted(signatures)}")
    (signature,) = signatures
    if digest_file.is_file():
        earlier = digest_file.read_text().strip()
        if earlier != signature:
            raise OutputMismatch(f"report.json differs from an earlier run: {signature} vs {earlier}")
    else:
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        digest_file.write_text(signature + "\n")
    return signature


def failures_by_class(passes):
    counts = {}
    for p in passes:
        for c in p["calls"]:
            if c["error"] is not None:
                key = type(c["error"]).__name__
                counts[key] = counts.get(key, 0) + 1
        if p["abort"] is not None:
            key = f"not attempted ({p['abort']['class']} aborted the scenario)"
            counts[key] = counts.get(key, 0) + p["planned"] - len(p["calls"])
    return counts


def end_to_end(passes, setup_s):
    completed = [c for p in passes for c in p["calls"] if c["error"] is None]
    errs = [c["rot_err_deg"] for c in completed if c["rot_err_deg"] is not None]
    planned = sum(p["planned"] for p in passes)
    by_pipeline = {}
    for c in completed:
        by_pipeline.setdefault(c["pipeline"], []).append(c["seconds"])
    p50 = {name: statistics.median(v) for name, v in by_pipeline.items()}
    return {
        "setup_s": setup_s,
        "registrations_per_s": len(completed) / sum(p["wall_s"] for p in passes),
        # Pipelines differ in cost, so the median of the pooled calls falls in the
        # gap between them and swings with the two calls that border it.
        "register_s_p50": statistics.fmean(p50.values()) if p50 else float("nan"),
        "register_s_p50_by_pipeline": p50,
        "register_s_p50_pooled": statistics.median(c["seconds"] for c in completed) if completed else float("nan"),
        "register_samples": len(completed),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": sum(e < harness.SUCCESS_THRESHOLD_DEG for e in errs) / planned,
        "rot_err_deg_p50": statistics.median(errs) if errs else float("nan"),
        "failure_rate": (planned - len(completed)) / planned,
    }


def per_layer(tracer, traced_passes, untraced_passes, wl):
    """Per-layer metrics: per traced pass, or of the set-up for set-up-only functions."""
    table = {}  # unit -> name -> [calls, busy_s, self_s]
    for s in tracer.spans:
        row = table.setdefault(s.unit, {}).setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += s.self_s
    pass_units = [u for u in table if u is not None and u.startswith("pass-")]
    setup_units = [u for u in table if u == "setup"]
    metrics, repeats = {}, True
    for name in TRACED:
        units = pass_units if any(name in table[u] for u in pass_units) else setup_units
        rows = [table[u].get(name, [0, 0.0, 0.0]) for u in units] or [[0, 0.0, 0.0]]
        repeats = repeats and len({r[0] for r in rows}) == 1
        metrics[f"{name}.calls"] = statistics.median_low(r[0] for r in rows)
        metrics[f"{name}.busy_s"] = statistics.median(r[1] for r in rows)
        metrics[f"{name}.self_s"] = statistics.median(r[2] for r in rows)
    for module in sorted({n.split(".")[0] for n in TRACED}):
        metrics[f"{module}.self_s"] = sum(metrics[f"{n}.self_s"] for n in TRACED if n.split(".")[0] == module)

    spans = [s for s in tracer.spans if s.unit in pass_units]
    regs = [s for s in spans if s.name == "registration.register"]
    scored = [s for s in regs if s.outcome]
    if scored:
        metrics["registration.iterations_mean"] = statistics.fmean(s.outcome["iterations"] for s in scored)
        metrics["registration.converged_fraction"] = statistics.fmean(
            s.outcome["iterations"] < s.outcome["max_iters"] for s in scored
        )
        metrics["registration.kept_fraction"] = statistics.fmean(
            s.outcome["kept"] / s.sizes["n_source"] for s in scored
        )
    busy = sum(s.duration for s in regs)
    metrics["registration.register.child_coverage"] = sum(s.child_s for s in regs) / busy if busy else 0.0
    traced = end_to_end(traced_passes, 0.0)
    untraced = end_to_end(untraced_passes, 0.0)
    metrics["evaluation.success_rate"] = traced["success_rate"]
    metrics["evaluation.rot_err_deg_p50"] = traced["rot_err_deg_p50"]
    metrics["harness.failure_rate"] = traced["failure_rate"]
    metrics["trace.untraced_registrations_per_s"] = untraced["registrations_per_s"]
    metrics["trace.traced_registrations_per_s"] = traced["registrations_per_s"]
    metrics["trace.overhead_registrations_per_s"] = (
        untraced["registrations_per_s"] - traced["registrations_per_s"]
    )
    return metrics, findings(tracer, spans, metrics, repeats, wl)


def cost_by_size(spans, name):
    """Median seconds per call of `name`, grouped by input size n."""
    by_n = {}
    for s in spans:
        if s.name == name and s.sizes:
            by_n.setdefault(s.sizes["n"], []).append(s.duration)
    return {str(n): {"calls": len(v), "median_s": statistics.median(v)} for n, v in sorted(by_n.items())}


def findings(tracer, spans, metrics, repeats, wl):
    """Checks of the workload design. A failed prediction is reported, not an error."""
    self_times = {n: metrics[f"{n}.self_s"] for n in TRACED}
    others = {n: t for n, t in self_times.items() if n not in wl.hotspot}
    top_other = max(others, key=others.get)
    hotspot_s = sum(self_times[n] for n in wl.hotspot)

    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def count_below(span, name):
        return sum((c.name == name) + count_below(c, name) for c in children.get(span.id, ()))

    knn_checks = [
        count_below(s, "neighborhood.knn") == 2 * s.outcome["iterations"]
        for s in spans
        if s.name == "registration.register" and s.outcome and s.outcome["descriptor"] != "none"
    ]
    return {
        "hotspot": {
            "predicted": list(wl.hotspot),
            "predicted_self_s": hotspot_s,
            "largest_other": top_other,
            "largest_other_self_s": self_times[top_other],
            "holds": hotspot_s > self_times[top_other],
        },
        "knn_calls_equal_2x_iterations": {
            "descriptor_registrations": len(knn_checks),
            "holds": all(knn_checks) if knn_checks else None,
        },
        "calls_repeat_exactly_across_passes": repeats,
        "missing_functions": tracer.missing,
        "cost_by_n": {n: cost_by_size(spans, n) for n in ("neighborhood.knn", "neighborhood.floyd_warshall")},
    }


def pass_record(p):
    return {
        "wall_s": p["wall_s"],
        "planned": p["planned"],
        "sha256": p["sha256"],
        "abort": p["abort"],
        "registrations": [
            {
                "pipeline": c["pipeline"],
                "seconds": c["seconds"],
                "iterations": c["iterations"],
                "error": type(c["error"]).__name__ if c["error"] is not None else None,
                "rot_err_deg": c["rot_err_deg"],
            }
            for c in p["calls"]
        ],
    }


def selected(metric_specs, computed):
    """The metrics BENCHMARK.json lists, in its order and with its units.

    A value that no registration defined (NaN) is written as null, since JSON has no NaN.
    """
    out = {}
    for spec in metric_specs:
        if spec["name"] not in computed:
            raise KeyError(f"BENCHMARK.json names metric {spec['name']!r}, which this run does not compute")
        value = computed[spec["name"]]
        out[spec["name"]] = {"value": None if value != value else value, "unit": spec["unit"]}
    return out


def run(args, root, blas_threads):
    wl = WORKLOADS[args.workload]
    seed_dir = root / OUT_DIR / args.workload / f"seed-{args.seed}"
    run_dir = seed_dir / f"trace-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # Relative, and shared by both trace modes: the path enters the report's config_hash.
    input_path = (seed_dir / "input.xyz").relative_to(root)
    prov = provenance(root, args.seed, blas_threads)

    tracer = Tracer("corruption.corrupt", SIZES, OUTCOMES) if args.trace else None
    # A traced run repeats its scenario untraced, so it runs the first half of
    # the trials to take about as long as an untraced run.
    trials = max(1, wl.trials // 2) if tracer is not None else wl.trials
    regs = Registrations()
    check_failure = signature = None
    setup_s = None
    untraced, passes = [], []
    try:
        if tracer is None:
            setup_s = setup_seconds(root, wl, args.seed, input_path)
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed(TRACED))
                tracer.begin_unit("setup")
            write_input(wl, args.seed, input_path)
        scenario = harness.Scenario(
            name=args.workload,
            input=str(input_path),
            noise=NoiseSpec.parse(wl.noise),
            trials=trials,
            pipelines=tuple((name, RegistrationConfig(**kw)) for name, kw in wl.pipelines),
            base_seed=args.seed,
        )
        start = time.perf_counter()
        if tracer is not None:  # reference for the byte check and the tracing overhead
            with ExitStack() as stack:
                regs.install(stack)
                untraced.append(run_pass(scenario, regs, run_dir / "pass-0"))
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed(TRACED))
            regs.install(stack)
            while True:
                index = len(untraced) + len(passes)
                if tracer is not None:
                    tracer.begin_unit(f"pass-{index}")
                passes.append(run_pass(scenario, regs, run_dir / f"pass-{index}"))
                if time.perf_counter() - start + passes[-1]["wall_s"] > args.seconds:
                    break
        # Keyed by code and scenario, so a reused checkout never compares different programs.
        key = f"{args.workload}-{scenario.config_hash()}-{prov['source_sha256'][:16]}.txt"
        signature = check_repeatable(untraced + passes, root / OUT_DIR / "digests" / key)
    except OutputMismatch as exc:
        check_failure = str(exc)

    all_passes = untraced + passes
    e2e = layers = found = {}
    if passes and tracer is None:
        e2e = end_to_end(passes, setup_s)
    elif passes and untraced:
        layers, found = per_layer(tracer, passes, untraced, wl)
    attempted = sum(p["planned"] for p in all_passes) or 1
    failed = attempted - sum(c["error"] is None for p in all_passes for c in p["calls"])

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "trials_per_pass": trials,
        "pipelines": [name for name, _ in wl.pipelines],
        "passes": [pass_record(p) for p in all_passes],
        "report_sha256": signature,
        "correct": check_failure is None,
        "check_failure": check_failure,
        "attempted": attempted,
        "failed": failed,
        "failures_by_class": failures_by_class(all_passes),
        "end_to_end": e2e,
        "per_layer": layers,
        "findings": found,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.record()) + "\n")

    for name, value in {**e2e, **layers}.items():
        print(f"{args.workload} {name} = {value}")
    print(f"{args.workload} report.json sha256 = {signature}")
    print(f"{args.workload} failures_by_class = {result['failures_by_class']}")
    for name, value in found.items():
        print(f"{args.workload} finding {name} = {json.dumps(value)}")
    print(f"{args.workload} provenance = {json.dumps(prov)}")
    print(f"{args.workload} result file = {(run_dir / 'result.json').relative_to(root)}")

    metrics = {}
    if check_failure is not None:
        print(f"error: output check failed on workload {args.workload}: {check_failure}", file=sys.stderr)
    else:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        metrics = selected(spec["per_layer"] if args.trace else spec["end_to_end"], layers or e2e)
    print(json.dumps({"correct": check_failure is None, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if check_failure is None else 1
