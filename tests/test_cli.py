import argparse
import csv
import json
import struct
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahaknn import cli
from mahaknn.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from mahaknn.cloudio import FORMATS, load_cloud, save_cloud
from mahaknn.errors import CloudParseError, InvalidArgumentError
from mahaknn.geometry import PointCloud
from mahaknn.neighborhood import METRICS
from mahaknn.registration import RegistrationConfig
from mahaknn.shapes import SHAPES, two_planes


_PLY_HEADER = b"ply\nformat ascii 1.0\nelement vertex %d\nproperty double x\nproperty double y\nproperty double z\nend_header\n"

# (file name, contents, line of the fault) of clouds whose contents do not parse.
MALFORMED_CLOUDS = [
    ("bad.xyz", b"0 0 0\n1 1\n", 2),
    ("empty.ply", _PLY_HEADER % 0, 3),
    ("nan.xyz", b"0 0 0\nnan 1 1\n", 2),
    ("inf.ply", _PLY_HEADER % 2 + b"0 0 0\n1 inf 1\n", 9),
    ("nan.off", b"OFF\n2 0 0\n0 0 0\n1 1 -nan\n", 4),
    ("negative.off", b"OFF\n-1 0 0\n0 0 0\n1 1 1\n", 2),
    ("binary.ply", _PLY_HEADER.replace(b"ascii", b"binary_little_endian") % 1
     + struct.pack("<3d", 0.5, -1.5, 2.0), 2),
    ("latin1.xyz", b"0 0 0\n# caf\xe9\n1 1 1\n", 2),
    ("nameless-element.ply", _PLY_HEADER.replace(b"ascii 1.0\n", b"ascii 1.0\nelement\n") % 1 + b"0 0 0\n", 3),
    ("no-z.ply", _PLY_HEADER.replace(b"property double z", b"property double w") % 1 + b"0 0 0\n", 7),
    ("short-faces.ply", _PLY_HEADER.replace(b"ascii 1.0\n", b"ascii 1.0\nelement face 2\nproperty list uchar int vertex_indices\n")
     % 1 + b"3 0 0 0\n", 10),
    ("no-vertex.ply", b"ply\nformat ascii 1.0\nelement face 0\nend_header\n", 4),
]
# Every token a cloud header or row is built from, and a few that break them.
_CLOUD_FRAGMENTS = [
    b"ply", b"format ascii 1.0", b"format binary_little_endian 1.0", b"format",
    b"comment made by hand", b"element vertex 2", b"element vertex 0", b"element vertex -1",
    b"element vertex", b"element", b"element face 0", b"element face 1", b"element camera 1",
    b"element vertex x", b"property double x", b"property double y", b"property double z",
    b"property float w", b"property list uchar int vertex_indices", b"property", b"end_header",
    b"OFF", b"OFF 2 0 0", b"OFF2 0 0", b"OFF0", b"COFF", b"2 0 0", b"-1 0 0",
    b"0 0 0", b"1 2 3", b"1 2 3 4", b"1 2", b"3 0 1 2", b"nan 1 1", b"1 inf 1", b"1e999 0 0",
    b"", b"   ", b"#", b"# comment", b"caf\xe9", b"\xff\xfe", b"0 0 \x80",
]


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

    def test_saved_text_is_pinned(self, tmp_path):
        # 17 significant digits, signed zero and subnormals kept, after each format's header.
        cloud = PointCloud([[-0.0, 5e-324, 1e150], [-1e150, 0.1, 1 / 3]])
        rows = ("-0 4.9406564584124654e-324 9.9999999999999998e+149\n"
                "-9.9999999999999998e+149 0.10000000000000001 0.33333333333333331\n")
        headers = {".xyz": "", ".ply": (_PLY_HEADER % 2).decode(), ".off": "OFF\n2 0 0\n"}
        assert list(headers) == list(FORMATS)
        for ext, header in headers.items():
            save_cloud(cloud, tmp_path / f"c{ext.upper()}")
            assert (tmp_path / f"c{ext.upper()}").read_bytes() == (header + rows).encode()
            np.testing.assert_array_equal(load_cloud(tmp_path / f"c{ext.upper()}").points, cloud.points)

    def test_saving_a_large_cloud_uses_bounded_memory(self, tmp_path):
        # Rows are formatted one block at a time, never the whole cloud at once.
        cloud = PointCloud(np.random.default_rng(3).normal(size=(100_000, 3)))
        tracemalloc.start()
        try:
            save_cloud(cloud, tmp_path / "big.xyz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (tmp_path / "big.xyz").read_text().count("\n") == 100_000

    @pytest.mark.parametrize("name", ["cloud.pcd", "cloud", "cloud.xyz.gz"])
    def test_unknown_extension_is_rejected(self, tmp_path, name):
        with pytest.raises(InvalidArgumentError, match="unrecognized point-cloud extension"):
            save_cloud(PointCloud(np.zeros((1, 3))), tmp_path / name)
        (tmp_path / name).write_text("0 0 0\n")
        with pytest.raises(InvalidArgumentError, match="unrecognized point-cloud extension"):
            load_cloud(tmp_path / name)

    def test_off_counts_on_magic_line(self, tmp_path):
        path = tmp_path / "quirk.off"
        for magic in ("OFF 2 0 0", "OFF2 0 0"):
            path.write_text(magic + "\n0 0 0\n1 2 3\n")
            cloud = load_cloud(path)
            np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])

    def test_ply_reads_the_vertex_element_in_file_order(self, tmp_path):
        path = tmp_path / "scene.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment a camera row comes first\n"
            "element camera 1\nproperty float focal\nproperty float skew\n"
            "element vertex 2\nproperty double y\nproperty double x\nproperty uchar red\n"
            "property double z\nelement face 1\nproperty list uchar int vertex_indices\n"
            "element edge 0\nproperty int vertex1\nend_header\n"
            "35 0\n1 2 255 3\n\n4 5 0 6\n3 0 1 1\n"
        )
        np.testing.assert_array_equal(load_cloud(path).points, [[2, 1, 3], [5, 4, 6]])

    def test_ply_face_element_may_be_empty(self, tmp_path):
        path = tmp_path / "faceless.ply"
        path.write_bytes(
            _PLY_HEADER.replace(b"end_header", b"element face 0\nproperty list uchar int vertex_indices\nend_header")
            % 2 + b"0 0 0\n1 2 3\n"
        )
        np.testing.assert_array_equal(load_cloud(path).points, [[0, 0, 0], [1, 2, 3]])

    def test_parse_error_carries_line_number(self, tmp_path):
        for name, data, line in MALFORMED_CLOUDS:
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(CloudParseError) as exc:
                load_cloud(path)
            assert exc.value.line == line, name

    def test_loaders_close_their_file(self, tmp_path):
        # Reading stops at the last vertex, before the faces that end these files.
        early = [
            ("faces.ply", _PLY_HEADER.replace(b"end_header", b"element face 1\nend_header") % 1 + b"0 0 0\n3 0 0 0\n"),
            ("faces.off", b"OFF\n1 1 0\n0 0 0\n3 0 0 0\n"),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, data in early + [(name, data) for name, data, _ in MALFORMED_CLOUDS]:
                (tmp_path / name).write_bytes(data)
                try:
                    load_cloud(tmp_path / name)
                except CloudParseError:
                    pass
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @settings(max_examples=300, deadline=None)
    @given(
        magic=st.sampled_from([b"ply", b"OFF", b"OFF2 0 0", b"0 0 0", b""]),
        lines=st.lists(
            st.one_of(
                st.sampled_from(_CLOUD_FRAGMENTS),
                st.lists(st.one_of(st.sampled_from(_CLOUD_FRAGMENTS), st.integers(-2, 3).map(str).map(str.encode),
                                   st.floats().map(repr).map(str.encode), st.binary(max_size=3)),
                         min_size=1, max_size=4).map(b" ".join),
            ),
            max_size=14,
        ),
        newline=st.sampled_from([b"\n", b"\r\n"]),
    )
    def test_only_classified_errors_escape(self, tmp_path_factory, magic, lines, newline):
        directory = tmp_path_factory.mktemp("fuzz")
        for ext in (".xyz", ".ply", ".off"):
            path = directory / f"cloud{ext}"
            path.write_bytes(newline.join([magic] + lines))
            try:
                assert isinstance(load_cloud(path), PointCloud)
            except (CloudParseError, InvalidArgumentError):
                pass


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
            convergence_tol=0.5, trim_fraction=0.1, k_base=5,
            mutual=True,
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
             "--k", "7", "--max-iters", "9", "--trim", "0.25"]
        )
        assert (args.k, args.max_iters, args.trim_fraction) == (7, 9, 0.25)
        defaults = cli._build_parser().parse_args(
            ["register", "--source", "s", "--target", "t", "--report", "r"]
        )
        for f in fields(RegistrationConfig):
            assert getattr(defaults, f.name) == f.default

    def test_register_flags_have_one_spelling(self):
        subcommands = next(
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        spellings = [
            action.option_strings for action in subcommands.choices["register"]._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        assert all(len(flags) == 1 for flags in spellings)
        want = ["--source", "--target", "--report", "--aligned"]
        want += ["--" + f.name.replace("_", "-") for f in fields(RegistrationConfig)]
        assert sorted(flags[0] for flags in spellings) == sorted(want)

    def test_register_rejects_bad_values(self, tmp_path):
        base = ["register", "--source", "s", "--target", "t", "--report", str(tmp_path / "r")]
        assert main(base + ["--mutual", "on"]) == EXIT_USAGE
        assert main(base + ["--k", "ten"]) == EXIT_USAGE
        # Before any file is read:
        assert main(base + ["--metric", "manhattan"]) == EXIT_USAGE
        assert main(base + ["--k", "0"]) == EXIT_USAGE
        assert main(base + ["--k-base", "0"]) == EXIT_USAGE
        assert main(base + ["--convergence-tol", "nan"]) == EXIT_USAGE
        assert main(base + ["--convergence-tol", "-1"]) == EXIT_USAGE

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
         ("scenario", "base_seed", "-1"),
         ("scenario", "rot_range", "0 abc"), ("scenario", "trans_range", "-0.5"),
         ("scenario", "rot_range", "45 0"), ("scenario", "trans_range", "nan 1"),
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

    # Every subcommand that ranks a cloud's coordinates, with {cloud} and {out} to fill in.
    RANKING_COMMANDS = {
        "register": ["register", "--source", "{cloud}", "--target", "{cloud}", "--report", "{out}"],
        "knn-compare": ["knn-compare", "--in", "{cloud}", "--out", "{out}"],
    }
    RANKING_COMMANDS.update({
        f"cluster-{metric}": ["cluster", "--in", "{cloud}", "--metric", metric, "--K", "3",
                              "--out", "{out}"]
        for metric in METRICS
    })

    @pytest.mark.parametrize("command", sorted(RANKING_COMMANDS))
    @pytest.mark.parametrize(
        "scale,limit", [(1e160, "above the limit 1e+150"), (1e-160, "below the limit 1e-150")]
    )
    def test_coordinate_range_is_usage_error(self, tmp_path, capsys, command, scale, limit):
        cloud = tmp_path / "scaled.xyz"
        out = tmp_path / "out"
        save_cloud(PointCloud(SHAPES["sphere-cap"](80, 0).points * scale), cloud)
        argv = [arg.format(cloud=cloud, out=out) for arg in self.RANKING_COMMANDS[command]]
        assert main(argv) == EXIT_USAGE
        assert limit in capsys.readouterr().err
        assert not out.exists()

    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch):
        def diverging(source, target, cfg):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "register", diverging)
        cloud = tmp_path / "cap.xyz"
        main(["gen", "--shape", "sphere", "--n", "60", "--out", str(cloud)])
        assert main(["register", "--source", str(cloud), "--target", str(cloud),
                     "--report", str(tmp_path / "r.json")]) == EXIT_NUMERICAL

    # Four source points near the origin all match the target's origin point;
    # mutual filtering keeps 1 pair and trimming half of them keeps 2.
    @pytest.mark.parametrize("flags", [["--mutual", "true"], ["--trim-fraction", "0.5"]])
    def test_too_few_pairs_is_numerical_failure(self, tmp_path, capsys, flags):
        source, target = tmp_path / "s.xyz", tmp_path / "t.xyz"
        save_cloud(PointCloud([(0, 0, 0), (0.01, 0, 0), (0, 0.01, 0), (0, 0, 0.01)]), source)
        save_cloud(PointCloud([(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5.0)]), target)
        assert main(["register", "--source", str(source), "--target", str(target),
                     "--k", "1", "--report", str(tmp_path / "r.json")] + flags) == EXIT_NUMERICAL
        assert "at least 3 correspondences" in capsys.readouterr().err

    # Point-ICP's start-pose graphs use the pipeline's metric and k_base too.
    @pytest.mark.parametrize("descriptor", ["eigen", "none"])
    def test_geodesic_k_base_out_of_range_is_usage_error(self, tmp_path, capsys, descriptor):
        cloud = tmp_path / "sphere.xyz"
        save_cloud(SHAPES["sphere"](30, 0), cloud)
        assert main(["register", "--source", str(cloud), "--target", str(cloud),
                     "--metric", "geodesic", "--descriptor", descriptor, "--k", "5",
                     "--k-base", "30", "--report", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: k_base must satisfy 1 <= k_base < 30, got 30\n"

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["corrupt", "--in", str(tmp_path / "absent.xyz"),
                     "--noise", "gaussian", "--out", str(tmp_path / "o.xyz")]) == EXIT_IO

    def test_unparseable_cloud_is_io_error(self, tmp_path, capsys):
        for name, data, line in [("words.xyz", b"not a number at all\n", 1)] + MALFORMED_CLOUDS:
            bad = tmp_path / name
            bad.write_bytes(data)
            assert main(["knn-compare", "--in", str(bad),
                         "--out", str(tmp_path / "o.csv")]) == EXIT_IO, name
            assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: "), name

    def test_bad_flags_are_usage_errors(self, capsys):
        assert main(["gen", "--shape", "dodecahedron", "--n", "10",
                     "--out", "x.xyz"]) == EXIT_USAGE
        assert main(["gen", "--shape", "sphere", "--n", "-5",
                     "--out", "x.xyz"]) == EXIT_USAGE
        # two-planes splits n evenly between its planes.
        assert main(["gen", "--shape", "two-planes", "--n", "7",
                     "--out", "x.xyz"]) == EXIT_USAGE
        assert main(["gen", "--shape", "two-planes", "--n", "1",
                     "--out", "x.xyz"]) == EXIT_USAGE
        assert capsys.readouterr().err.count("two-planes needs an even n >= 2") == 2
        assert main(["nonsense"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        # Seeds are non-negative, as np.random.default_rng requires.
        assert main(["gen", "--shape", "sphere", "--n", "10", "--seed", "-1",
                     "--out", "x.xyz"]) == EXIT_USAGE
        assert main(["corrupt", "--in", "x.xyz", "--noise", "gaussian", "--seed", "-1",
                     "--out", "y.xyz"]) == EXIT_USAGE
        assert main(["cluster", "--in", "x.xyz", "--K", "2", "--seed", "-1",
                     "--out", "l.csv"]) == EXIT_USAGE
        # The covariance regularizer is fixed, not a flag.
        assert main(["register", "--source", "s", "--target", "t", "--report", "r",
                     "--regularizer", "1e-3"]) == EXIT_USAGE
        # Point-ICP measures whether its coarse start pose helps; it is not a flag.
        assert main(["register", "--source", "s", "--target", "t", "--report", "r",
                     "--coarse-init", "false"]) == EXIT_USAGE
