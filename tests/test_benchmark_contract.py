"""The names and texts that benchmark/ takes from the package, and the bytes
of each workload's report.json and report.csv at seeds 0, 1 and 2.

The benchmark's files are imported read-only, with benchmark/ on the path
and no bytecode written. The tracer skips a traced name that no longer
resolves without a word, so a rename in the package would otherwise go
unnoticed until a metric read zero.
"""

import hashlib
import importlib
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

from mahaknn import harness, neighborhood, registration
from mahaknn.corruption import NoiseSpec
from mahaknn.errors import LinearAlgebraError
from mahaknn.registration import RegistrationConfig
from mahaknn.shapes import SHAPES

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def benchmark_modules():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCHMARK_DIR))
    sys.dont_write_bytecode = True
    try:
        return {name: importlib.import_module(name) for name in ("workloads", "tracer", "bench")}
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_every_workload_builds_a_scenario(benchmark_modules):
    for name, wl in benchmark_modules["workloads"].WORKLOADS.items():
        assert wl.shape in SHAPES, name
        noise = NoiseSpec.parse(wl.noise)
        assert NoiseSpec.parse(noise.serialize()) == noise, name
        scenario = harness.Scenario(
            name=name,
            input="input.xyz",
            noise=noise,
            trials=wl.trials,
            pipelines=tuple((p, RegistrationConfig(**kw)) for p, kw in wl.pipelines),
        )
        assert len(scenario.pipelines) == len(wl.pipelines), name


def test_every_traced_name_resolves(benchmark_modules):
    bench, lookup = benchmark_modules["bench"], benchmark_modules["tracer"].lookup
    for qualname in bench.TRACED:
        assert callable(lookup(qualname)), qualname
    # Sizes and hotspots are read by traced name.
    assert set(bench.SIZES) <= set(bench.TRACED)
    for wl in benchmark_modules["workloads"].WORKLOADS.values():
        assert set(wl.hotspot) <= set(bench.TRACED)


def test_a_linalg_error_is_one_failure_for_report_and_benchmark(benchmark_modules, monkeypatch, tmp_path):
    bench = benchmark_modules["bench"]

    def diverging(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(registration, "kabsch", diverging)
    scenario = harness.Scenario(
        name="eig",
        input="shape:two-planes:128:0",
        trials=2,
        pipelines=(("eig", RegistrationConfig(descriptor="eigen", k=10, max_iters=2)),),
    )
    regs = bench.Registrations()
    with ExitStack() as stack:
        regs.install(stack)
        outcome = bench.run_pass(scenario, regs, tmp_path)  # checks the report against the calls
    assert outcome["abort"] is None
    assert [type(c["error"]) for c in outcome["calls"]] == [LinearAlgebraError] * 2
    assert all(isinstance(c["error"].__cause__, np.linalg.LinAlgError) for c in outcome["calls"])


def test_a_traced_pass_records_every_size_and_outcome(benchmark_modules):
    bench, tracer = benchmark_modules["bench"], benchmark_modules["tracer"]
    scenario = harness.Scenario(
        name="traced",
        input="shape:two-planes:128:0",
        noise=NoiseSpec.parse("zero_intersection"),
        trials=1,
        pipelines=(
            ("geodesic-eigen", RegistrationConfig(
                metric="geodesic", descriptor="eigen", k=10, k_base=6, max_iters=2)),
            ("point-icp", RegistrationConfig(max_iters=2)),
        ),
    )
    cloud = harness.load_input_cloud(scenario.input)
    trace = tracer.Tracer("corruption.corrupt", bench.SIZES, bench.OUTCOMES)
    with trace.installed(bench.TRACED):
        harness.run_scenario(scenario)
        neighborhood.floyd_warshall(neighborhood.geodesic_adjacency(cloud, 6))
    assert trace.missing == []
    sized = [s for s in trace.spans if s.name in bench.SIZES]
    assert {s.name for s in sized} == set(bench.SIZES)
    assert all(s.sizes for s in sized), [s.name for s in sized if not s.sizes]
    registers = [s for s in trace.spans if s.name == "registration.register"]
    assert len(registers) == 2 and all(s.outcome for s in registers)


# sha256 of each workload's report.json and report.csv at seeds 0, 1 and 2,
# as `bench.run` writes them.
REPORT_DIGESTS = {
    "point-icp": (
        ("ec5b125c8344337ce6df61523300ddb7aa72a4575270d3b0c131bbc3308a35cb",
         "cff08756c04513daf43039b0c8f6c783716bc97a248ffb3e3db8a387e966e176"),
        ("cea0ba8925a7a4611bd8bdc9e5b5b40c8b183039286db97ecea3f08c1147b6ff",
         "7d5b37d4cb368116fdf32a365ae52d280024968f44d3c7bb0f34e10607171ddd"),
        ("196ff92671fe2f1087e19f66840a42bbe4f11695441bf072590a92aeb180a3a5",
         "c14d8ef0e25097d746aa680cacf3230f3c8d359914ad74d8af3c25ff84bb1dc3"),
    ),
    "whitened-descriptor": (
        ("5ebc34e211638c24537c67917cb97e0d3a93228903d65d73e3c1dfb8e946a5bb",
         "8c2cd92e9879321cf021fc6381adb8dc6abc0a794450637fc3480ced8b86ad85"),
        ("3c4fb5d89228bfce6f61b297045be09e32e3bb8aa1bd3fcfc2c4e5c5b98db990",
         "a00856715e3c4a620c0589ed162b21cb456c9ef5a02b2b5ae7989d1aa293ef07"),
        ("343c7bfffbc45bfdb6bdcddfc372abbfbebe04f1c2ac1968d5a23cced5d57031",
         "262a383f9dafd9cad70018620f32be46aa805904e801a150926daf234fc6dd40"),
    ),
    "geodesic-manifold": (
        ("2652d987836b6e28c71b496c17dd8c610e27d8dc9fab479474a00bca1de405d3",
         "85048da71ca1c475b07190ddc62ed78c3d1f2817fa2268de2606aa1c680cd1de"),
        ("6c743dd1f23d8a13ca664bbd4ca25553f116b13c6786293af8e4ec5d34e75ed2",
         "138c11607d74ace920c568321af7eb1b989ebe64435dc5218609146d81d75e36"),
        ("ce48c2cb721fcccce1a972e7ce10b449e9a8a5e08c2827f45d2875dbead120a4",
         "0787565b9b9dd580d8faf5c57cf3d183698b204915ad65e7a785994ace701345"),
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("workload", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(benchmark_modules, monkeypatch, tmp_path, workload, seed):
    # As `bench.run` builds its untraced scenario: the input's path, relative
    # to the working directory, enters the report's config_hash.
    bench = benchmark_modules["bench"]
    wl = benchmark_modules["workloads"].WORKLOADS[workload]
    monkeypatch.chdir(tmp_path)
    input_path = Path(bench.OUT_DIR) / workload / f"seed-{seed}" / "input.xyz"
    input_path.parent.mkdir(parents=True)
    bench.write_input(wl, seed, input_path)
    scenario = harness.Scenario(
        name=workload,
        input=str(input_path),
        noise=NoiseSpec.parse(wl.noise),
        trials=wl.trials,
        pipelines=tuple((name, RegistrationConfig(**kw)) for name, kw in wl.pipelines),
        base_seed=seed,
    )
    harness.write_report(harness.run_scenario(scenario), tmp_path / "report")
    digests = tuple(
        hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest()
        for name in ("report.json", "report.csv")
    )
    assert digests == REPORT_DIGESTS[workload][seed]
