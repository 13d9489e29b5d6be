import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lapgeo as lg
from lapgeo.cli import main
from lapgeo.io import load_distance_matrix


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
        opt = lg.OptimizerConfig(n_samples=200, n_refine=12, seed=0)
        expect = lg.estimate_all_distances(cfg, cloud, opt)
        assert np.array_equal(load_distance_matrix(out).matrix, expect.matrix)

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
        "flags", [["--q", "2", "--samples", "0"], ["--q", "4", "--epsilon", "0.5"]]
    )
    def test_useless_flags_rejected_before_reading_input(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        def load(path):
            pytest.fail("the input was read although the flags were unusable")

        monkeypatch.setattr("lapgeo.cli.load_point_cloud", load)
        argv = ["estimate", "--input", str(tmp_path / "pts.csv"), "--dim", "1",
                "--volume", "6.28", "--bandwidth", "0.3", *flags,
                "--r", "6", "--seed", "0", "--output", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert "lapgeo: input error:" in capsys.readouterr().err


class TestBaselineVerb:
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

    def test_bad_json_exits_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1

    def test_unknown_field_exits_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": [10]}))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1

    def test_config_without_output_path_exits_1(self, tmp_path, monkeypatch):
        def sweep(cfg):
            pytest.fail("the sweep ran although nothing could be written")

        monkeypatch.setattr("lapgeo.cli.run_loss_experiment", sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_values": [10], "n_seeds": 1}))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize(
        "config",
        [
            [1, 2],
            {"n_values": 5},
            {"n_seeds": "3"},
            {"bandwidth_rule": 0.3},
            {"r_rule": "x"},
        ],
    )
    def test_malformed_config_is_input_error(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["loss-experiment", "--config", str(cfg_path)]) == 1
        assert "lapgeo: input error:" in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run(["lapgeo", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "estimate" in proc.stdout and "baseline" in proc.stdout


def test_import_does_not_load_scipy():
    # only the baseline verb needs scipy; it imports it on first use
    src = str(Path(lg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, lapgeo, lapgeo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
