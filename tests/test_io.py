import numpy as np
import pytest

import lapgeo as lg
from lapgeo.errors import InputError
from lapgeo.io import load_distance_matrix, save_distance_matrix, write_loss_csv


def test_load_point_cloud_plain(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.0,1.0\n1.0,0.0\n")
    cloud = lg.load_point_cloud(p)
    assert cloud.n == 2
    assert np.array_equal(cloud.points, [[0.0, 1.0], [1.0, 0.0]])


def test_load_point_cloud_skips_header(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y\n0.0,1.0\n1.0,0.0\n")
    cloud = lg.load_point_cloud(p)
    assert cloud.n == 2


def test_load_point_cloud_names_bad_row(tmp_path):
    p = tmp_path / "pts.csv"
    rows = ["%d.0,%d.0" % (i, i) for i in range(6)]
    rows[4] = "3.0,oops"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(InputError, match="row 5"):
        lg.load_point_cloud(p)


def test_load_point_cloud_rejects_ragged(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.0,1.0\n1.0\n")
    with pytest.raises(InputError):
        lg.load_point_cloud(p)


def test_load_point_cloud_rejects_empty(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("")
    with pytest.raises(InputError):
        lg.load_point_cloud(p)


def test_distance_matrix_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(5, 5))
    m = a + a.T
    np.fill_diagonal(m, 0.0)
    d = lg.DistanceMatrix(m)
    p = tmp_path / "d.csv"
    save_distance_matrix(p, d)
    # the csv-module layout: 17 significant digits, "\r\n" row ends
    assert p.read_bytes() == "".join(
        ",".join(format(x, ".17g") for x in row) + "\r\n" for row in m
    ).encode()
    back = load_distance_matrix(p)
    assert np.array_equal(back.matrix, d.matrix)


def test_distance_matrix_roundtrip_keeps_inf(tmp_path):
    m = np.array([[0.0, np.inf], [np.inf, 0.0]])
    p = tmp_path / "d.csv"
    save_distance_matrix(p, lg.DistanceMatrix(m))
    assert "inf" in p.read_text()
    back = load_distance_matrix(p)
    assert np.isinf(back.matrix[0, 1])


def test_load_distance_matrix_rejects_malformed_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1\r\n1,oops\r\n")
    with pytest.raises(InputError, match="could not parse"):
        load_distance_matrix(p)


def test_load_distance_matrix_rejects_empty(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(InputError, match="empty"):
        load_distance_matrix(p)


def test_load_distance_matrix_rejects_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_distance_matrix(tmp_path / "missing.csv")


def test_write_loss_csv_schema(tmp_path):
    p = tmp_path / "loss.csv"
    rows = [
        {
            "n": 10,
            "q_spec": "5",
            "q_used": 5,
            "r_used": 8,
            "seed": 0,
            "estimate": 0.5,
            "oracle": 0.25,
            "loss": 0.25,
            "status": "ok",
        }
    ]
    write_loss_csv(p, rows)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "n,q_spec,q_used,r_used,seed,estimate,oracle,loss,status"
    assert lines[1].split(",")[8] == "ok"
    # floats carry full precision
    assert "0.25" in lines[1]
