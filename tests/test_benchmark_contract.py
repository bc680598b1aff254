"""The names and texts that benchmark/ takes from the package.

The benchmark's files are imported read-only, with benchmark/ on the path
and no bytecode written. The tracer skips a traced name that no longer
resolves without a word, so a rename in the package would otherwise go
unnoticed until a metric read zero.
"""

import importlib
import sys
from pathlib import Path

import pytest

from mahaknn import harness
from mahaknn.corruption import NoiseSpec
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
