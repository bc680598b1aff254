import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mahaknn
from mahaknn import harness, registration
from mahaknn.corruption import NoiseSpec
from mahaknn.errors import InvalidArgumentError
from mahaknn.harness import (
    BenchmarkReport,
    Scenario,
    load_input_cloud,
    load_scenario,
    run_scenario,
    write_report,
)
from mahaknn.registration import RegistrationConfig


def small_scenario(**overrides):
    defaults = dict(
        name="smoke",
        input="shape:sphere-cap:96:3",
        noise=NoiseSpec("none"),
        rot_range_deg=(0.0, 10.0),
        trials=3,
        pipelines=(
            ("icp", RegistrationConfig(descriptor="none", trim_fraction=0.0, k=10)),
        ),
        base_seed=42,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestLoadInputCloud:
    def test_shape_spec(self):
        cloud = load_input_cloud("shape:sphere:50:7")
        assert len(cloud) == 50

    def test_shape_spec_default_seed(self):
        a = load_input_cloud("shape:plane:30")
        b = load_input_cloud("shape:plane:30:0")
        np.testing.assert_array_equal(a.points, b.points)

    def test_missing_file(self):
        with pytest.raises(IOError):
            load_input_cloud("/nonexistent/cloud.xyz")

    def test_bad_shape_spec(self):
        for spec in ("shape:sphere", "shape:sphere:abc", "shape:sphere:50:x", "shape:blob:50"):
            with pytest.raises(InvalidArgumentError):
                load_input_cloud(spec)


class TestRunScenario:
    def test_noise_free_trials_all_succeed(self):
        report = run_scenario(small_scenario())
        cell = report.cells["icp"]
        assert cell["trials"] == 3
        assert cell["failures"] == 0
        assert cell["success_rate"] == 1.0
        assert cell["geodesic_r_deg_mean"] < 1.0
        assert cell["chamfer_mean"] < 1e-6

    def test_deterministic_cells(self):
        a = run_scenario(small_scenario())
        b = run_scenario(small_scenario())
        assert a.cells == b.cells
        assert a.config_hash == b.config_hash

    def test_config_hash_tracks_settings(self):
        a = small_scenario()
        b = small_scenario(base_seed=43)
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize("field", ["k", "trials", "base_seed", "rot_range_deg"])
    def test_numpy_scalar_config_hashes_as_its_python_value(self, tmp_path, field):
        # json cannot encode a numpy scalar, which every config type takes:
        # such a scenario ran every trial and then raised TypeError.
        def scenario(k=10, trials=2, base_seed=42, rot_range_deg=(0.0, 10.0)):
            return small_scenario(
                input="shape:two-planes:64",
                trials=trials,
                base_seed=base_seed,
                rot_range_deg=rot_range_deg,
                pipelines=(("icp", RegistrationConfig(k=k, max_iters=2)),),
            )

        numpy_values = {"k": np.int64(10), "trials": np.int64(2), "base_seed": np.uint16(42),
                        "rot_range_deg": (np.float32(0), np.float64(10))}
        plain, numpy_valued = scenario(), scenario(**{field: numpy_values[field]})
        assert numpy_valued.config_hash() == plain.config_hash()
        write_report(run_scenario(numpy_valued), tmp_path / "numpy")
        write_report(run_scenario(plain), tmp_path / "plain")
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_linalg_error_fails_one_registration(self, monkeypatch):
        real_register, real_kabsch = harness.register, registration.kabsch
        calls = []

        def counting(source, target, cfg):
            calls.append(cfg)
            return real_register(source, target, cfg)

        def flaky(*args):
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_kabsch(*args)

        monkeypatch.setattr(harness, "register", counting)
        monkeypatch.setattr(registration, "kabsch", flaky)
        report = run_scenario(small_scenario())
        cell = report.cells["icp"]
        assert len(calls) == 3  # the scenario ran on past the failure
        assert cell["failures"] == 1
        assert cell["success_rate"] == pytest.approx(2 / 3)

    def test_requires_pipeline(self):
        with pytest.raises(InvalidArgumentError):
            small_scenario(pipelines=())

    # Each is checked when the Scenario is built, before its input is read.
    @pytest.mark.parametrize("field,value", [
        ("rot_range_deg", (45.0, 0.0)), ("rot_range_deg", (np.nan, 1.0)),
        ("trans_range", (0.0, np.inf)), ("trans_range", (-np.inf, 0.0)),
        ("trials", 0), ("base_seed", -1), ("pipelines", ()),
    ])
    def test_scenario_value_outside_its_range_is_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be "):
            small_scenario(input="/nonexistent/cloud.xyz", **{field: value})


class TestWriteReport:
    def test_outputs_and_determinism(self, tmp_path):
        report = run_scenario(small_scenario())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_report(report, d1)
        write_report(run_scenario(small_scenario()), d2)
        for name in ("report.json", "report.csv", "timings.csv"):
            assert (d1 / name).exists()
        # Deterministic artifacts are bitwise identical across runs.
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
        doc = json.loads((d1 / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["provenance"]["base_seed"] == 42
        assert "icp" in doc["cells"]

    def test_cell_without_registrations_is_strict_json(self, tmp_path):
        # k = 20 needs 21 points, so every registration on 10 points fails.
        scenario = small_scenario(
            input="shape:sphere:10:0", trials=2, pipelines=(("big-k", RegistrationConfig(k=20)),)
        )
        write_report(run_scenario(scenario), tmp_path)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        cell = doc["cells"]["big-k"]
        assert cell["failures"] == 2 and cell["success_rate"] == 0.0
        assert cell["geodesic_r_deg_mean"] is None and cell["chamfer_std"] is None


class TestLoadScenario:
    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[scenario]\n"
            "name = demo\n"
            "input = shape:sphere-cap:96:3\n"
            "trials = 2\n"
            "base_seed = 7\n"
            "rot_range = 0 30\n"
            "trans_range = -0.2 0.2\n"
            "\n"
            "[noise]\n"
            "spec = gaussian:sigma=0.01,clip=0.05\n"
            "\n"
            "[pipeline:euc]\n"
            "metric = euclidean\n"
            "descriptor = eigen\n"
            "k = 10\n"
            "trim_fraction = 0.2\n"
            "\n"
            "[pipeline:mah]\n"
            "metric = mahalanobis\n"
            "descriptor = eigen\n"
            "k = 10\n"
        )
        sc = load_scenario(path)
        assert sc.name == "demo"
        assert sc.trials == 2
        assert sc.base_seed == 7
        assert sc.rot_range_deg == (0.0, 30.0)
        assert sc.trans_range == (-0.2, 0.2)
        assert sc.noise == NoiseSpec("gaussian", sigma=0.01, clip=0.05)
        names = [n for n, _ in sc.pipelines]
        assert names == ["euc", "mah"]
        cfg = dict(sc.pipelines)["euc"]
        assert cfg.metric == "euclidean"
        assert cfg.trim_fraction == 0.2
        # Parsed scenarios execute end to end.
        report = run_scenario(sc)
        assert set(report.cells) == {"euc", "mah"}

    def test_minimal_file_takes_the_scenario_defaults(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\ninput = shape:sphere:50\n\n[pipeline:p]\nk = 10\n")
        sc = load_scenario(path)
        assert sc == Scenario(
            name="scenario",
            input="shape:sphere:50",
            noise=NoiseSpec(),
            rot_range_deg=(0.0, 45.0),
            trans_range=(-0.5, 0.5),
            trials=20,
            pipelines=(("p", RegistrationConfig(k=10)),),
            base_seed=0,
        )
        # The hash this file has always had: reports of older runs stay comparable.
        assert sc.config_hash() == "6d57c9ff2db229c4"
        path.write_text("[scenario]\ninput = shape:sphere:50\n[noise]\n[pipeline:p]\nk = 10\n")
        assert load_scenario(path) == sc

    def test_every_config_field_is_settable(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[scenario]\n"
            "input = shape:sphere-cap:96:3\n"
            "trials = 1\n"
            "\n"
            "[pipeline:icp]\n"
            "mutual = yes\n"
            "convergence_tol = 0\n"
            "k = 12\n"
        )
        sc = load_scenario(path)
        ((name, cfg),) = sc.pipelines
        assert cfg == RegistrationConfig(mutual=True, convergence_tol=0.0, k=12)
        # The field feeds the hash, so the two settings stay distinguishable.
        flipped = replace(sc, pipelines=((name, replace(cfg, mutual=False)),))
        assert sc.config_hash() != flipped.config_hash()

    @pytest.mark.parametrize(
        "text,value",
        [("1", True), ("true", True), ("TRUE", True), ("Yes", True),
         ("0", False), ("false", False), ("False", False), ("NO", False)],
    )
    def test_boolean_spellings(self, tmp_path, text, value):
        path = tmp_path / "scenario.ini"
        path.write_text(f"[scenario]\ninput = shape:sphere:50\n\n[pipeline:p]\nmutual = {text}\n")
        ((_, cfg),) = load_scenario(path).pipelines
        assert cfg.mutual is value

    @pytest.mark.parametrize("text", ["on", "off", "ture", "2", "y", ""])
    def test_unknown_boolean_spelling_rejected(self, tmp_path, text):
        path = tmp_path / "scenario.ini"
        path.write_text(f"[scenario]\ninput = shape:sphere:50\n\n[pipeline:p]\nmutual = {text}\n")
        with pytest.raises(InvalidArgumentError):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            load_scenario(tmp_path / "absent.ini")

    @pytest.mark.parametrize(
        "text",
        ["[scenario]\ninput = shape:sphere:50\ntrails = 5\n",
         "[scenario]\ninput = shape:sphere:50\n[noise]\nspec = none\nsigma = 3\n",
         "[scenario]\ninput = shape:sphere:50\n[pipline:q]\nk = 12\n"],
    )
    def test_unknown_section_or_option(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text + "[pipeline:p]\nk = 10\n")
        with pytest.raises(InvalidArgumentError, match="unknown"):
            load_scenario(path)

    def test_duplicate_option(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ninput = shape:sphere:50\n[pipeline:p]\nk = 10\nk = 12\n")
        with pytest.raises(InvalidArgumentError):
            load_scenario(path)

    def test_missing_scenario_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[pipeline:p]\nk = 10\n")
        with pytest.raises(InvalidArgumentError, match=r"needs a \[scenario\] section"):
            load_scenario(path)

    def test_missing_input(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ntrials = 2\n[pipeline:p]\nk = 10\n")
        with pytest.raises(InvalidArgumentError):
            load_scenario(path)

    def test_unknown_pipeline_option(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[scenario]\ninput = shape:sphere:50\n\n[pipeline:p]\nwarp_speed = 9\n"
        )
        with pytest.raises(InvalidArgumentError):
            load_scenario(path)
        # Edge-conv weights and the covariance regularizer are fixed, not pipeline keys.
        path.write_text("[scenario]\ninput = shape:sphere:50\n\n[pipeline:p]\nseed = 3\n")
        with pytest.raises(InvalidArgumentError, match="unknown option 'seed'"):
            load_scenario(path)
        # Point-ICP chooses its start pose itself.
        path.write_text("[scenario]\ninput = shape:sphere:50\n\n[pipeline:p]\ncoarse_init = false\n")
        with pytest.raises(InvalidArgumentError, match="unknown option 'coarse_init'"):
            load_scenario(path)

    def test_percent_in_value_is_kept_verbatim(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\nname = 50% noise\ninput = shape:sphere:50\n[pipeline:p]\nk = 10\n")
        assert load_scenario(path).name == "50% noise"


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Matrix products may split their work by thread; the report must not move.
    scenario = tmp_path / "s.ini"
    scenario.write_text(
        "[scenario]\n"
        "input = shape:sphere-cap:768:0\n"
        "trials = 2\n"
        "[noise]\n"
        "spec = subsample:count=384,applied_to=target\n"
        "[pipeline:whitened-edgeconv]\n"
        "metric = mahalanobis\n"
        "descriptor = edgeconv\n"
        "max_iters = 8\n"
        "[pipeline:point-icp]\n"
        "max_iters = 8\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mahaknn.__file__)))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "mahaknn.cli", "bench", "--scenario", str(scenario),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
