import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from mahaknn import cli
from mahaknn.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from mahaknn.cloudio import load_cloud, save_cloud
from mahaknn.geometry import PointCloud
from mahaknn.neighborhood import METRICS
from mahaknn.registration import RegistrationConfig
from mahaknn.shapes import SHAPES, two_planes


class TestCloudIO:
    def test_xyz_round_trip_bitwise(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        path = tmp_path / "cloud.xyz"
        save_cloud(PointCloud(pts), path)
        np.testing.assert_array_equal(load_cloud(path).points, pts)

    def test_ply_round_trip_bitwise(self, tmp_path):
        pts = np.random.default_rng(1).normal(size=(30, 3))
        path = tmp_path / "cloud.ply"
        save_cloud(PointCloud(pts), path)
        np.testing.assert_array_equal(load_cloud(path).points, pts)

    def test_off_round_trip_bitwise(self, tmp_path):
        pts = np.random.default_rng(2).normal(size=(40, 3))
        path = tmp_path / "cloud.off"
        save_cloud(PointCloud(pts), path)
        np.testing.assert_array_equal(load_cloud(path).points, pts)

    def test_off_counts_on_magic_line(self, tmp_path):
        path = tmp_path / "quirk.off"
        path.write_text("OFF 2 0 0\n0 0 0\n1 2 3\n")
        cloud = load_cloud(path)
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])

    def test_parse_error_carries_line_number(self, tmp_path):
        from mahaknn.errors import CloudParseError

        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 1\n")
        with pytest.raises(CloudParseError) as exc:
            load_cloud(path)
        assert exc.value.line == 2


class TestCli:
    def test_gen_then_register_self(self, tmp_path):
        cloud = tmp_path / "cap.xyz"
        report = tmp_path / "report.json"
        assert main(["gen", "--shape", "sphere", "--n", "100",
                     "--seed", "1", "--out", str(cloud)]) == EXIT_OK
        assert main(["register", "--source", str(cloud), "--target", str(cloud),
                     "--trim", "0.0", "--report", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        np.testing.assert_allclose(doc["rotation"], np.eye(3), atol=1e-6)
        np.testing.assert_allclose(doc["translation"], 0.0, atol=1e-6)
        aligned = load_cloud(doc["aligned_cloud"])
        assert len(aligned) == 100

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_gen_accepts_every_shape(self, tmp_path, shape):
        out = tmp_path / "cloud.xyz"
        assert main(["gen", "--shape", shape, "--n", "40", "--out", str(out)]) == EXIT_OK
        assert len(load_cloud(out)) == 40

    def test_register_sets_every_config_field(self, tmp_path):
        cloud = tmp_path / "cap.xyz"
        report = tmp_path / "report.json"
        main(["gen", "--shape", "sphere", "--n", "80", "--seed", "2", "--out", str(cloud)])
        want = RegistrationConfig(
            metric="mahalanobis", descriptor="edgeconv", k=8, max_iters=3,
            convergence_tol=0.5, trim_fraction=0.1, seed=4, k_base=5,
            edgeconv_layers=2, edgeconv_width=16, regularizer=1e-3,
            mutual=True, coarse_init=False,
        )
        default = RegistrationConfig()
        argv = ["register", "--source", str(cloud), "--target", str(cloud),
                "--report", str(report)]
        for f in fields(RegistrationConfig):
            assert getattr(want, f.name) != getattr(default, f.name), f.name
            argv += ["--" + f.name.replace("_", "-"), str(getattr(want, f.name))]
        assert main(argv) == EXIT_OK
        assert json.loads(report.read_text())["config"] == vars(want)

    def test_register_keeps_earlier_flag_spellings(self):
        args = cli._build_parser().parse_args(
            ["register", "--source", "s", "--target", "t", "--report", "r",
             "--k", "7", "--seed", "3", "--max-iters", "9", "--trim", "0.25"]
        )
        assert (args.k, args.seed, args.max_iters, args.trim_fraction) == (7, 3, 9, 0.25)
        defaults = cli._build_parser().parse_args(
            ["register", "--source", "s", "--target", "t", "--report", "r"]
        )
        for f in fields(RegistrationConfig):
            assert getattr(defaults, f.name) == f.default

    def test_register_rejects_bad_values(self, tmp_path):
        base = ["register", "--source", "s", "--target", "t", "--report", str(tmp_path / "r")]
        assert main(base + ["--mutual", "on"]) == EXIT_USAGE
        assert main(base + ["--k", "ten"]) == EXIT_USAGE
        assert main(base + ["--metric", "manhattan"]) == EXIT_USAGE  # before any file is read

    def test_corrupt_single_output(self, tmp_path):
        cloud = tmp_path / "c.xyz"
        out = tmp_path / "noisy.xyz"
        main(["gen", "--shape", "box", "--n", "64", "--out", str(cloud)])
        assert main(["corrupt", "--in", str(cloud), "--noise", "gaussian",
                     "--out", str(out)]) == EXIT_OK
        noisy = load_cloud(out)
        orig = load_cloud(cloud)
        assert len(noisy) == len(orig)
        assert np.max(np.abs(noisy.points - orig.points)) <= 0.05

    def test_corrupt_pair_output(self, tmp_path):
        cloud = tmp_path / "c.xyz"
        out = tmp_path / "pair.xyz"
        main(["gen", "--shape", "sphere", "--n", "80", "--out", str(cloud)])
        assert main(["corrupt", "--in", str(cloud), "--noise", "sampling:ratio=0.4",
                     "--out", str(out)]) == EXIT_OK
        src = load_cloud(tmp_path / "pair_source.xyz")
        tgt = load_cloud(tmp_path / "pair_target.xyz")
        assert len(src) == len(tgt) == 32
        assert not ({tuple(p) for p in src.points} & {tuple(p) for p in tgt.points})

    def test_knn_compare_csv(self, tmp_path):
        cloud = tmp_path / "planes.xyz"
        out = tmp_path / "overlap.csv"
        save_cloud(two_planes(100, seed=0, gap=0.1), cloud)
        assert main(["knn-compare", "--in", str(cloud), "--k", "10",
                     "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        # Same-plane neighbor fractions are computable from the CSV alone;
        # the covariance-whitened graph must beat the raw one.
        plane = np.array([float(r["z"]) > 0.05 for r in rows])

        def fraction(column):
            hits = total = 0
            for i, r in enumerate(rows):
                nbrs = [int(j) for j in r[column].split()]
                hits += sum(plane[j] == plane[i] for j in nbrs)
                total += len(nbrs)
            return hits / total

        assert fraction("mahalanobis_neighbors") > fraction("euclidean_neighbors")
        assert all(0.0 <= float(r["overlap_fraction"]) <= 1.0 for r in rows)

    def test_cluster_csv(self, tmp_path):
        cloud = tmp_path / "t.xyz"
        out = tmp_path / "labels.csv"
        main(["gen", "--shape", "torus", "--n", "120", "--out", str(cloud)])
        assert main(["cluster", "--in", str(cloud), "--K", "4",
                     "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        labels = {int(r["label"]) for r in rows}
        assert labels <= set(range(4))

    @pytest.mark.parametrize("metric", METRICS)
    def test_cluster_accepts_every_metric(self, tmp_path, metric):
        cloud = tmp_path / "c.xyz"
        main(["gen", "--shape", "sphere-cap", "--n", "60", "--out", str(cloud)])
        assert main(["cluster", "--in", str(cloud), "--metric", metric, "--K", "3",
                     "--out", str(tmp_path / "labels.csv")]) == EXIT_OK

    def test_bad_noise_number_is_usage_error(self, tmp_path, capsys):
        cloud = tmp_path / "c.xyz"
        main(["gen", "--shape", "sphere", "--n", "40", "--out", str(cloud)])
        assert main(["corrupt", "--in", str(cloud), "--noise", "gaussian:sigma=abc",
                     "--out", str(tmp_path / "o.xyz")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sigma='abc'" in err

    @pytest.mark.parametrize(
        "section,key,value",
        [("pipeline:icp", "k", "abc"), ("pipeline:icp", "trim_fraction", "lots"),
         ("scenario", "trials", "abc"), ("scenario", "base_seed", "1.5"),
         ("scenario", "rot_range", "0 abc"), ("scenario", "trans_range", "-0.5"),
         ("noise", "spec", "gaussian:clip=wide")],
    )
    def test_bad_scenario_number_is_usage_error(self, tmp_path, capsys, section, key, value):
        sections = {
            "scenario": {"input": "shape:sphere-cap:96:3", "trials": "1"},
            "noise": {},
            "pipeline:icp": {"k": "10"},
        }
        sections[section][key] = value
        scenario = tmp_path / "s.ini"
        scenario.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()
        ))
        assert main(["bench", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[{section}] {key} = {value!r}" in err
        assert not (tmp_path / "out").exists()

    def test_bench_writes_reports(self, tmp_path):
        scenario = tmp_path / "s.ini"
        scenario.write_text(
            "[scenario]\n"
            "input = shape:sphere-cap:96:3\n"
            "trials = 2\n"
            "[pipeline:icp]\n"
            "descriptor = none\n"
            "trim_fraction = 0.0\n"
            "k = 10\n"
        )
        out = tmp_path / "bench"
        assert main(["bench", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["cells"]["icp"]["success_rate"] == 1.0

    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch):
        def diverging(source, target, cfg):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "register", diverging)
        cloud = tmp_path / "cap.xyz"
        main(["gen", "--shape", "sphere", "--n", "60", "--out", str(cloud)])
        assert main(["register", "--source", str(cloud), "--target", str(cloud),
                     "--report", str(tmp_path / "r.json")]) == EXIT_NUMERICAL

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["corrupt", "--in", str(tmp_path / "absent.xyz"),
                     "--noise", "gaussian", "--out", str(tmp_path / "o.xyz")]) == EXIT_IO

    def test_unparseable_cloud_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("not a number at all\n")
        assert main(["knn-compare", "--in", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_IO

    def test_bad_flags_are_usage_errors(self):
        assert main(["gen", "--shape", "dodecahedron", "--n", "10",
                     "--out", "x.xyz"]) == EXIT_USAGE
        assert main(["gen", "--shape", "sphere", "--n", "-5",
                     "--out", "x.xyz"]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
