import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lapgeo as lg
from conftest import csv_layout
from lapgeo.cli import main
from lapgeo.io import load_distance_matrix


def _read_input(path):
    pytest.fail("the input was read although the flags were unusable")


def _write_circle(path, n=12, seed=6):
    cloud = lg.sample_uniform_circle(n, seed=seed)
    rows = [",".join(format(x, ".17g") for x in p) for p in cloud.points]
    path.write_text("\n".join(rows) + "\n")
    return cloud


class TestEstimateVerb:
    def test_matches_library_bitwise(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        cloud = _write_circle(pts)
        code = main(
            [
                "estimate",
                "--input", str(pts),
                "--dim", "1",
                "--volume", format(2 * np.pi, ".17g"),
                "--bandwidth", "0.28",
                "--q", "2",
                "--r", "6",
                "--seed", "0",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert "q=2 r=6" in capsys.readouterr().err

        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.28)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(2, 6))
        opt = lg.OptimizerConfig(seed=0)
        expect = lg.estimate_distance_rows(cfg, cloud, opt).rows(0, cloud.n)
        assert np.array_equal(load_distance_matrix(out).matrix, expect)

    def test_partial_spectrum_matches_full_spectrum_library(self, tmp_path):
        # at n = 600, r = 12 the verb decomposes with the partial solver
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        cloud = _write_circle(pts, n=600, seed=3)
        h = 0.5 * 600 ** -0.25
        code = main(["estimate", "--input", str(pts), "--dim", "1",
                     "--volume", format(2 * np.pi, ".17g"), "--bandwidth", repr(h),
                     "--q", "4", "--r", "12", "--seed", "1", "--output", str(out)])
        assert code == 0
        lap = lg.build_laplacian(cloud, lg.ManifoldConfig(1, 2 * np.pi, h))
        assert lg.eigendecompose(lap, 12).partial
        full = lg.eigendecompose(lap)
        cfg = lg.DiracConfig(full, lg.TruncationParams(4, 12))
        expect = lg.estimate_distance_rows(cfg, cloud, lg.OptimizerConfig(seed=1)).rows(0, cloud.n)
        assert np.max(np.abs(load_distance_matrix(out).matrix - expect)) <= 1e-10

    def test_output_bytes_match_csv_layout(self, tmp_path):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        cloud = lg.sample_uniform_circle(300, seed=4)
        theta = np.arctan2(cloud.points[0, 1], cloud.points[0, 0]) + 3e-5
        points = np.vstack([cloud.points, [np.cos(theta), np.sin(theta)]])
        # the pair 3e-5 apart makes entries below 1e-4, in exponent notation
        pts.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in points))
        argv = ["estimate", "--input", str(pts), "--dim", "1",
                "--volume", format(2 * np.pi, ".17g"), "--bandwidth", "0.12",
                "--q", "4", "--r", "12", "--seed", "0", "--output", str(out)]
        assert main(argv) == 0
        text = out.read_bytes()
        assert b"e-0" in text
        assert text == csv_layout(load_distance_matrix(out).matrix)

    def _streams_the_library_matrix(self, tmp_path, points, h, q, r):
        """lapgeo estimate on points writes exactly the CSV of the whole
        estimate_distance_rows matrix on the decomposition the verb computes;
        returns the file's bytes."""
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        pts.write_text("".join(",".join(format(x, ".17g") for x in p) + "\n" for p in points))
        argv = ["estimate", "--input", str(pts), "--dim", "1",
                "--volume", format(2 * np.pi, ".17g"), "--bandwidth", repr(h),
                "--q", str(q), "--r", str(r), "--output", str(out)]
        assert main(argv) == 0
        cloud = lg.PointCloud(points)
        lap = lg.build_laplacian(cloud, lg.ManifoldConfig(1, 2 * np.pi, h))
        cfg = lg.DiracConfig(lg.eigendecompose(lap, r), lg.TruncationParams(q, r))
        expect = lg.estimate_distance_rows(cfg, cloud, lg.OptimizerConfig()).rows(0, cloud.n)
        text = out.read_bytes()
        assert text == csv_layout(expect)
        return text

    def test_streams_copies_as_zeros(self, tmp_path):
        # five points repeated: the copies share their originals' rows of F
        points = lg.sample_uniform_circle(60, seed=0).points
        points = np.vstack([points, points[:5]])
        text = self._streams_the_library_matrix(tmp_path, points, 0.2, 4, 12)
        rows = text.split(b"\r\n")
        for i in range(5):
            assert rows[60 + i].split(b",")[i] == rows[i].split(b",")[60 + i] == b"0"

    def test_streams_two_points(self, tmp_path):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        self._streams_the_library_matrix(tmp_path, points, 0.5, 1, 1)

    def test_one_point_writes_nothing(self, tmp_path, capsys):
        # one point has no non-kernel mode, so no r >= 1 is admissible; the
        # writer itself streams a one-point source as a single 0
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        pts.write_text("0.5,0.25\n")
        argv = ["estimate", "--input", str(pts), "--dim", "1", "--volume", "6.28",
                "--bandwidth", "0.3", "--q", "1", "--r", "1", "--output", str(out)]
        assert main(argv) == 1
        assert "r <= rank = 0" in capsys.readouterr().err
        assert not out.exists()
        lg.save_distance_matrix(out, lg.DistanceRows(np.array([[0.5, 0.25]]), np.ones((3, 1))))
        assert out.read_bytes() == csv_layout(np.zeros((1, 1))) == b"0\r\n"

    def test_streamed_bytes_independent_of_worker_count(self, tmp_path, monkeypatch):
        # 300 rows in chunks of _BLOCK // 300: more chunks than a pool of
        # one or three workers holds at once
        points = lg.sample_uniform_circle(300, seed=5).points
        texts = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
            texts.append(self._streams_the_library_matrix(
                tmp_path, points, 0.5 * 300 ** -0.25, 4, 12))
        assert texts[0] == texts[1]

    def test_seed_is_optional_and_unused(self, tmp_path):
        # the solver draws nothing: no --seed, --seed 0 and --seed 7 write
        # the same bytes
        pts = tmp_path / "pts.csv"
        _write_circle(pts, n=40, seed=3)
        outputs = []
        for seed_flags in ([], ["--seed", "0"], ["--seed", "7"]):
            out = tmp_path / f"dist{len(outputs)}.csv"
            argv = ["estimate", "--input", str(pts), "--dim", "1",
                    "--volume", format(2 * np.pi, ".17g"), "--bandwidth", "0.25",
                    "--q", "4", "--r", "8", *seed_flags, "--output", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_adaptive_reports_chosen_q(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        _write_circle(pts, n=20)
        code = main(
            [
                "estimate",
                "--input", str(pts),
                "--dim", "1",
                "--volume", format(2 * np.pi, ".17g"),
                "--bandwidth", "0.25",
                "--adaptive",
                "--r", "10",
                "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "q=" in err and "r=10" in err and "rank=" in err

    def test_missing_input_file_is_exit_1(self, tmp_path):
        code = main(
            [
                "estimate",
                "--input", str(tmp_path / "nope.csv"),
                "--dim", "1",
                "--volume", "6.28",
                "--bandwidth", "0.3",
                "--q", "2",
                "--r", "6",
                "--seed", "0",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1

    def test_malformed_row_is_exit_1_and_named(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,1.0\n1.0,0.0\nbad,row\n0.5,0.5\n")
        code = main(
            [
                "estimate",
                "--input", str(pts),
                "--dim", "1",
                "--volume", "6.28",
                "--bandwidth", "0.3",
                "--q", "2",
                "--r", "2",
                "--seed", "0",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1
        assert "row 3" in capsys.readouterr().err

    def test_no_admissible_q_is_exit_2(self, tmp_path):
        pts = tmp_path / "pts.csv"
        # equally spaced points make the Laplacian circulant, so the leading
        # eigenvalue pair is exactly degenerate and r = 2 admits no q
        cloud = lg.embed(lg.equally_spaced_angles(10))
        rows = [",".join(format(x, ".17g") for x in p) for p in cloud.points]
        pts.write_text("\n".join(rows) + "\n")
        code = main(
            [
                "estimate",
                "--input", str(pts),
                "--dim", "1",
                "--volume", format(2 * np.pi, ".17g"),
                "--bandwidth", "0.3",
                "--adaptive",
                "--r", "2",
                "--seed", "0",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2

    def test_bad_flag_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--nonsense"])
        assert exc.value.code == 1

    def test_q_and_adaptive_conflict_exits_1(self, tmp_path):
        pts = tmp_path / "pts.csv"
        _write_circle(pts)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "estimate",
                    "--input", str(pts),
                    "--dim", "1",
                    "--volume", "6.28",
                    "--bandwidth", "0.3",
                    "--q", "2",
                    "--adaptive",
                    "--r", "6",
                    "--seed", "0",
                    "--output", str(pts),
                ]
            )
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--volume", "inf", "--bandwidth", "0.3", "--q", "2"],
            # finite flags whose kernel scale overflows
            ["--volume", "1e308", "--bandwidth", "1e-100", "--q", "2"],
            ["--volume", "6.28", "--bandwidth", "0.3", "--adaptive", "--epsilon", "nan"],
            # h^3 underflows to 0, or overflows
            ["--volume", "6.28", "--bandwidth", "1e-170", "--q", "2"],
            ["--volume", "6.28", "--bandwidth", "1e300", "--q", "2"],
        ],
    )
    def test_non_finite_data_is_input_error(self, tmp_path, capsys, flags):
        pts = tmp_path / "pts.csv"
        _write_circle(pts)
        argv = ["estimate", "--input", str(pts), "--dim", "1", *flags,
                "--r", "6", "--seed", "0", "--output", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert "lapgeo: input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--q", "2", "--samples", "0"],
            ["--q", "4", "--epsilon", "0.5"],
            ["--adaptive", "--epsilon", "-1"],
            ["--adaptive", "--epsilon", "nan"],
            # the last --r or --seed wins over the defaults below
            ["--q", "7"],
            ["--q", "0"],
            ["--adaptive", "--r", "0"],
            ["--q", "2", "--seed", "-1"],
        ],
    )
    def test_useless_flags_rejected_before_reading_input(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        monkeypatch.setattr("lapgeo.cli.load_point_cloud", _read_input)
        argv = ["estimate", "--input", str(tmp_path / "pts.csv"), "--dim", "1",
                "--volume", "6.28", "--bandwidth", "0.3", "--r", "6", "--seed", "0",
                *flags, "--output", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert "lapgeo: input error:" in capsys.readouterr().err


class TestBaselineVerb:
    @pytest.mark.parametrize("radius", ["-1", "nan"])
    def test_bad_radius_rejected_before_reading_input(
        self, tmp_path, capsys, monkeypatch, radius
    ):
        monkeypatch.setattr("lapgeo.cli.load_point_cloud", _read_input)
        argv = ["baseline", "--input", str(tmp_path / "pts.csv"), "--radius", radius,
                "--output", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert "lapgeo: input error: h_graph must be non-negative" in capsys.readouterr().err

    def test_writes_distances(self, tmp_path):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        cloud = _write_circle(pts, n=15, seed=2)
        code = main(
            ["baseline", "--input", str(pts), "--radius", "0.9", "--output", str(out)]
        )
        assert code == 0
        expect = lg.run_baseline(cloud, 0.9)
        assert np.array_equal(load_distance_matrix(out).matrix, expect.matrix)

    def test_inf_survives_roundtrip(self, tmp_path):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        pts.write_text("0.0,0.0\n5.0,5.0\n")
        code = main(
            ["baseline", "--input", str(pts), "--radius", "1.0", "--output", str(out)]
        )
        assert code == 0
        d = load_distance_matrix(out).matrix
        assert np.isinf(d[0, 1])

    def test_disconnected_output_bytes_match_csv_layout(self, tmp_path):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        _write_circle(pts, n=40, seed=3)
        code = main(
            ["baseline", "--input", str(pts), "--radius", "0.05", "--output", str(out)]
        )
        assert code == 0
        d = load_distance_matrix(out).matrix
        assert np.isinf(d).any()
        assert out.read_bytes() == csv_layout(d)


class TestCoincidentPoints:
    """65 circle points: 60 samples plus exact copies of the first 5.
    Chordal distances come from coordinate differences, and copies share
    their original's embedding row, so each copy is exactly 0 from its
    original."""

    @staticmethod
    def _write(path):
        x = lg.sample_uniform_circle(60, seed=0).points
        x = np.vstack([x, x[:5]])
        path.write_text("".join(f"{a:.17g},{b:.17g}\n" for a, b in x))
        return lg.PointCloud(x)

    @staticmethod
    def _pairs(m):
        return m[np.arange(5), np.arange(60, 65)]

    def test_gram_distances_and_baseline_are_exactly_zero(self, tmp_path):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        cloud = self._write(pts)
        assert np.all(self._pairs(lg.gram_distances(cloud).matrix) == 0.0)
        argv = ["baseline", "--input", str(pts), "--radius", "0.5", "--output", str(out)]
        assert main(argv) == 0
        assert np.all(self._pairs(load_distance_matrix(out).matrix) == 0.0)

    def test_estimate_is_exactly_zero(self, tmp_path):
        # the chordal floor is exactly 0, and the copies' embedding rows are
        # their originals', not rows that the eigenvectors' rounding separates
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dist.csv"
        self._write(pts)
        argv = ["estimate", "--input", str(pts), "--dim", "1",
                "--volume", "6.283185307179586", "--bandwidth", "0.2",
                "--q", "4", "--r", "12", "--output", str(out)]
        assert main(argv) == 0
        assert np.all(self._pairs(load_distance_matrix(out).matrix) == 0.0)


class TestLossExperimentVerb:
    def test_runs_config(self, tmp_path):
        out = tmp_path / "loss.csv"
        cfg = {
            "n_values": [10],
            "q_values": [5, "adaptive"],
            "n_seeds": 2,
            "output_path": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,q_spec")
        assert len(lines) == 1 + 2 * 3

    def test_bad_json_exits_1(self, tmp_path, capsys):
        # malformed JSON, bytes that are not UTF-8, and no file at all
        for i, content in enumerate([b"{not json", b"\xff{}", None]):
            cfg_path = tmp_path / f"cfg{i}.json"
            if content is not None:
                cfg_path.write_bytes(content)
            assert main(["loss-experiment", "--config", str(cfg_path)]) == 1
            assert "lapgeo: input error: cannot read config" in capsys.readouterr().err

    def test_unknown_field_exits_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": [10]}))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1

    def test_config_without_output_path_exits_1(self, tmp_path, capsys, monkeypatch):
        def sweep(cfg):
            pytest.fail("the sweep ran although nothing could be written")

        monkeypatch.setattr("lapgeo.cli.run_loss_experiment", sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_values": [10], "n_seeds": 1}))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1
        assert "lapgeo: input error: config has no output_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            [1, 2],
            {"n_values": 5},
            {"n_seeds": "3"},
            {"bandwidth_rule": 0.3},
            {"r_rule": "x"},
            # h = 0.5 * n^400 leaves the double range
            {"bandwidth_rule": {"c": 0.5, "alpha": -400}},
        ],
    )
    def test_malformed_config_is_input_error(self, tmp_path, capsys, config):
        out = tmp_path / "loss.csv"
        if isinstance(config, dict):
            # so that a config passing from_dict goes on to the sweep
            config = {**config, "n_seeds": config.get("n_seeds", 1), "output_path": str(out)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1
        assert "lapgeo: input error:" in capsys.readouterr().err
        assert not out.exists()


def _fail(*args, **kwargs):
    pytest.fail("work ran although the output could not be written")


class TestUnwritableOutput:
    def test_estimate_checks_before_reading(self, tmp_path, capsys, monkeypatch):
        pts = tmp_path / "pts.csv"
        _write_circle(pts)
        monkeypatch.setattr("lapgeo.cli.load_point_cloud", _fail)
        monkeypatch.setattr("lapgeo.cli.estimate_distance_rows", _fail)
        out = tmp_path / "missing" / "dist.csv"
        argv = ["estimate", "--input", str(pts), "--dim", "1", "--volume", "6.28",
                "--bandwidth", "0.3", "--q", "2", "--r", "6", "--seed", "0",
                "--output", str(out)]
        assert main(argv) == 1
        assert f"lapgeo: input error: cannot write {out}" in capsys.readouterr().err

    def test_baseline_checks_before_reading(self, tmp_path, capsys, monkeypatch):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0\n1.0,0.0\n")
        monkeypatch.setattr("lapgeo.cli.load_point_cloud", _fail)
        monkeypatch.setattr("lapgeo.cli.shortest_path_distances", _fail)
        out = tmp_path / "missing" / "dist.csv"
        argv = ["baseline", "--input", str(pts), "--radius", "2", "--output", str(out)]
        assert main(argv) == 1
        assert f"lapgeo: input error: cannot write {out}" in capsys.readouterr().err

    def test_loss_checks_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("lapgeo.cli.run_loss_experiment", _fail)
        out = tmp_path / "missing" / "loss.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_values": [10], "n_seeds": 1,
                                        "output_path": str(out)}))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1
        assert f"lapgeo: input error: cannot write {out}" in capsys.readouterr().err

    def test_output_that_is_a_directory(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0\n1.0,0.0\n")
        argv = ["baseline", "--input", str(pts), "--radius", "2", "--output", str(tmp_path)]
        assert main(argv) == 1
        assert f"lapgeo: input error: cannot write {tmp_path}" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_values": [10], "q_values": [5], "n_seeds": 1,
                                        "output_path": str(tmp_path)}))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1
        assert f"lapgeo: input error: cannot write {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb",
    [
        ["estimate", "--dim", "1", "--volume", "6.28", "--bandwidth", "0.3",
         "--q", "1", "--r", "1", "--seed", "0"],
        ["baseline", "--radius", "1"],
    ],
)
def test_overflowing_coordinates_are_input_error(tmp_path, capsys, verb):
    # the points coincide, but their squared norms overflow
    pts = tmp_path / "pts.csv"
    pts.write_text("1e160,0\n1e160,0\n")
    argv = [verb[0], "--input", str(pts), *verb[1:], "--output", str(tmp_path / "out.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert "lapgeo: input error: point cloud coordinates too large" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_underflowing_weights_are_input_error(tmp_path, capsys):
    # every weight is exp(-inf) = 0, so the operator has rank 0 < r
    pts = tmp_path / "pts.csv"
    pts.write_text("1e150,0\n0,1e150\n0,0\n")
    argv = ["estimate", "--input", str(pts), "--dim", "1", "--volume", "6.28",
            "--bandwidth", "1e-10", "--q", "1", "--r", "1", "--seed", "0",
            "--output", str(tmp_path / "out.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert "lapgeo: input error:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_console_script_installed():
    proc = subprocess.run(["lapgeo", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "estimate" in proc.stdout and "baseline" in proc.stdout


def _child_env(**overrides):
    """This environment with lapgeo's source first on PYTHONPATH, and each
    override set (or removed where its value is None)."""
    src = str(Path(lg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for key, value in overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return env


def _estimate_argv(tmp_path):
    """lapgeo estimate's argv on 600 circle points, where it runs the
    partial eigensolver."""
    pts = tmp_path / "pts.csv"
    _write_circle(pts, n=600, seed=2)
    return ["estimate", "--input", str(pts), "--dim", "1", "--volume", "6.283185307179586",
            "--bandwidth", "0.1", "--q", "4", "--r", "12", "--seed", "0",
            "--output", str(tmp_path / "dist.csv")]


def test_import_does_not_load_scipy(tmp_path):
    # only the baseline verb needs scipy; it imports it on first use.  A
    # whole estimate run, partial eigensolver included, stays on numpy.
    env = _child_env()
    argv = _estimate_argv(tmp_path)
    show = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for code in ("import sys, lapgeo, lapgeo.cli; " + show,
                 f"import sys, lapgeo.cli; assert lapgeo.cli.main({argv!r}) == 0; " + show):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _loss_argv(tmp_path):
    """lapgeo loss-experiment's argv on a small sweep."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_values": [20, 40], "n_seeds": 2,
                               "output_path": str(tmp_path / "loss.csv")}))
    return ["loss-experiment", "--config", str(cfg)]


def _random_modules_after(argv):
    """Which of numpy.random and the secrets and OpenSSL modules behind it
    a fresh interpreter holds after main(argv) returns 0."""
    code = (f"import sys, lapgeo.cli; assert lapgeo.cli.main({argv!r}) == 0; "
            "print([m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_estimate_does_not_load_numpy_random(tmp_path):
    # the partial eigensolver's start block is counter-based
    assert _random_modules_after(_estimate_argv(tmp_path)) == "[]"


def test_loss_experiment_does_not_load_numpy_random(tmp_path):
    # the circle sampler computes numpy's stream itself
    assert _random_modules_after(_loss_argv(tmp_path)) == "[]"


# Records OPENBLAS_THREAD_TIMEOUT when `import lapgeo` first asks for numpy,
# which is when numpy loads OpenBLAS and OpenBLAS reads its environment.
_SPY_ON_NUMPY = """
import json, os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
import lapgeo
print(json.dumps([seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""


def _spy_numpy_import(timeout):
    """([the value when numpy was first asked for], the value after import),
    in a fresh interpreter started with the given value (None: unset)."""
    proc = subprocess.run([sys.executable, "-c", _SPY_ON_NUMPY], capture_output=True,
                          text=True, env=_child_env(OPENBLAS_THREAD_TIMEOUT=timeout))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_blas_idle_timeout_set_before_numpy_loads():
    seen, final = _spy_numpy_import(None)
    assert final is not None and final.isdigit()
    assert seen == [final]


def test_preset_blas_idle_timeout_wins():
    assert _spy_numpy_import("28") == [["28"], "28"]


def test_blas_idle_timeout_moves_no_output(tmp_path):
    pts = tmp_path / "pts.csv"
    _write_circle(pts, n=600, seed=2)
    verbs = {
        "estimate": ["--dim", "1", "--volume", "6.283185307179586", "--bandwidth", "0.1",
                     "--q", "4", "--r", "12"],
        "baseline": ["--radius", "0.3"],
    }
    for verb, flags in verbs.items():
        outputs = []
        for timeout in ("28", None):
            out = tmp_path / f"{verb}_{timeout}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "lapgeo.cli", verb, "--input", str(pts), *flags,
                 "--output", str(out)],
                capture_output=True, text=True, env=_child_env(OPENBLAS_THREAD_TIMEOUT=timeout))
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
