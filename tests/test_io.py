import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lapgeo as lg
import lapgeo.io as lapgeo_io
from conftest import csv_layout
from lapgeo.errors import InputError
from lapgeo.laplacian import squared_distances
from lapgeo.io import (
    _BLOCK,
    _digit_tables,
    _digits,
    _format_block,
    check_output_dir,
    load_distance_matrix,
    save_distance_matrix,
    write_loss_csv,
)


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


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_load_point_cloud_skips_byte_order_mark(tmp_path, header):
    p = tmp_path / "pts.csv"
    p.write_bytes(("\ufeff" + header + "0.0,1.0\n1.0,0.0\n2.0,2.0\n").encode("utf-8"))
    cloud = lg.load_point_cloud(p)
    assert np.array_equal(cloud.points, [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])


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


@pytest.mark.parametrize("text, message", [
    ("0,0\n\n1,0\nx,1\n", "row 4: could not parse"),
    ("0,0\n\n\n1,0,5\n", "row 4: expected 2 columns, got 3"),
])
def test_load_point_cloud_names_file_line_after_blank_lines(tmp_path, text, message):
    p = tmp_path / "pts.csv"
    p.write_text(text)
    with pytest.raises(InputError, match=message):
        lg.load_point_cloud(p)


def test_load_point_cloud_rejects_empty(tmp_path):
    p = tmp_path / "pts.csv"
    for text in ["", "x,y\n"]:  # no rows, a header alone
        p.write_text(text)
        with pytest.raises(InputError, match=re.escape(f"{p}: no data rows")):
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


def _with_neighbours(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# powers of ten and their neighbours, which move log10's exponent guess,
# including the 1e-6 / 1e17 ends of the numpy path and %g's 1e-4 / 1e16
# switches between fixed and exponent notation
POWERS = [y for k in range(-8, 19) for y in _with_neighbours(10.0**k)]
# x * 10 ends in exactly .5: the 17th digit rounds half to even
TIES = [1000000000000000.25, 1000000000000000.75, 100000000000000.125]
# the 17-digit rounding carries through trailing nines
CARRIES = [0.124, 59610276432.13382, 0.005506388673152454, 0.30000000000000004]
# values the numpy path hands to format
OUTSIDE = [5e-324, 1e-7, 9.9999999999999998e-249, 1.7976931348623157e308, 0.0, -0.0, math.inf]
TABLE = POWERS + TIES + CARRIES + OUTSIDE


def _symmetric(values):
    """A distance matrix holding each value at (i, j) and (j, i), i < j; the
    remaining off-diagonal entries are 1."""
    k = 2
    while k * (k - 1) // 2 < len(values):
        k += 1
    m = np.ones((k, k))
    np.fill_diagonal(m, 0.0)
    i, j = np.triu_indices(k, 1)
    i, j = i[: len(values)], j[: len(values)]
    m[i, j] = values
    m[j, i] = values
    return lg.DistanceMatrix(m)


def _saved_bytes(path, dist):
    save_distance_matrix(path, dist)
    return path.read_bytes()


def test_distance_matrix_layout_table(tmp_path):
    d = _symmetric(TABLE)
    assert _saved_bytes(tmp_path / "d.csv", d) == csv_layout(d.matrix)


distances = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),  # subnormals and inf included
    st.just(-0.0),
    st.integers(4 * 10**15, 8 * 10**15).map(lambda t: t / 4),  # half are ties
    st.sampled_from(TABLE),
)


@given(st.lists(distances, min_size=1, max_size=40))
def test_distance_matrix_layout_property(tmp_path_factory, values):
    d = _symmetric(values)
    path = tmp_path_factory.mktemp("layout") / "d.csv"
    assert _saved_bytes(path, d) == csv_layout(d.matrix)


def _random_matrix(n):
    """A symmetric n x n matrix of TABLE's positive values and uniform ones."""
    rng = np.random.default_rng(n)
    pool = [x for x in TABLE if x > 0.0] + list(rng.uniform(0.0, 4.0, 50))
    m = np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    m[i, j] = m[j, i] = rng.choice(pool, size=i.size)
    return m


@pytest.mark.parametrize("n", [0, 1, 131])
def test_distance_matrix_layout_any_size(tmp_path, n):
    # 131 rows: a full chunk of _BLOCK // 131 rows, then a partial one
    assert n < 2 or (n > _BLOCK // n and n % (_BLOCK // n))
    m = _random_matrix(n)
    d = lg.DistanceMatrix(m)
    expected = csv_layout(m)
    assert (n > 0) == bool(expected)
    assert _saved_bytes(tmp_path / "d.csv", d) == expected


def test_distance_matrix_layout_one_row_per_chunk(tmp_path, monkeypatch):
    # fewer entries per chunk than a row holds: each chunk is a single row
    n = 131
    monkeypatch.setattr(lapgeo_io, "_BLOCK", 100)
    chunks = []
    format_block = lapgeo_io._format_block

    def spy(source, a, b):
        chunks.append((a, b))
        return format_block(source, a, b)

    monkeypatch.setattr(lapgeo_io, "_format_block", spy)
    m = _random_matrix(n)
    assert _saved_bytes(tmp_path / "d.csv", lg.DistanceMatrix(m)) == csv_layout(m)
    assert chunks == [(i, i + 1) for i in range(n)]


def _divmod_digits(N, chars, kept):
    """The earlier np.divmod arithmetic of _digits, kept as a reference."""
    hi, lo = np.divmod(N, 10**8)
    d0, r = np.divmod(hi.astype(np.uint32), np.uint32(10**8))
    g1, g2 = np.divmod(r, np.uint32(10**4))
    g3, g4 = np.divmod(lo.astype(np.uint32), np.uint32(10**4))
    words = np.empty((N.size, 5), dtype="<u4")
    words[:, 0] = (d0 + ord("0")) << 24
    for col, g in enumerate((g1, g2, g3, g4), start=1):
        words[:, col] = chars[g]
    sig = np.maximum(np.maximum(1 + kept[g1], 5 + kept[g2]),
                     np.maximum(9 + kept[g3], 13 + kept[g4]))
    return words.view(np.uint8)[:, 3:], np.maximum(sig, 1)


def test_digits_match_the_divmod_arithmetic():
    chars, kept = _digit_tables()
    rng = np.random.default_rng(0)
    N = np.concatenate([rng.integers(10**16, 10**17, size=200_000),
                        [10**16, 10**17 - 1]]).astype(np.int64)
    rows, sig = _digits(N)
    ref_rows, ref_sig = _divmod_digits(N, chars, kept)
    assert np.array_equal(rows, ref_rows) and np.array_equal(sig, ref_sig)
    assert rows[-2].tobytes() == b"10000000000000000" and sig[-2] == 1
    assert rows[-1].tobytes() == b"9" * 17 and sig[-1] == 17


def test_distance_matrix_bytes_independent_of_worker_count(tmp_path, monkeypatch):
    # 300 * 300 entries: six blocks, more than any pool here holds at once
    rng = np.random.default_rng(3)
    m = np.sqrt(squared_distances(rng.normal(size=(300, 2))))
    m[0, 1] = m[1, 0] = np.inf
    d = lg.DistanceMatrix(m)
    expected = csv_layout(m)
    assert m.size > 5 * _BLOCK
    for cpus in ({0}, {0, 1, 2}, os.sched_getaffinity(0)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        assert _saved_bytes(tmp_path / "d.csv", d) == expected
    # platforms without sched_getaffinity (macOS, Windows) use cpu_count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _saved_bytes(tmp_path / "d.csv", d) == expected


def test_format_block_scratch_per_entry():
    # one 16384-entry chunk: the digits, N and the sort order are freed once
    # used, and the mask of kept bytes reuses the sorted text's buffer, so
    # the text, the mask and the output are the largest arrays live at once
    n = 128
    rng = np.random.default_rng(5)
    d = lg.DistanceMatrix(np.sqrt(squared_distances(rng.normal(size=(n, 2)))))
    expected = _format_block(d, 0, n)
    tracemalloc.start()
    try:
        out = _format_block(d, 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == expected.tobytes() == csv_layout(d.matrix)
    assert peak < 100 * n * n


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_block_write_is_input_error():
    # the write fails once blocks are in flight on the pool
    m = np.ones((200, 200))
    np.fill_diagonal(m, 0.0)
    with pytest.raises(InputError, match="cannot write /dev/full"):
        save_distance_matrix("/dev/full", lg.DistanceMatrix(m))


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


def test_unwritable_outputs_are_input_errors(tmp_path):
    d = lg.DistanceMatrix(np.zeros((1, 1)))
    for path in (tmp_path / "missing" / "out.csv", tmp_path):
        with pytest.raises(InputError, match=re.escape(f"cannot write {path}")):
            save_distance_matrix(path, d)
        with pytest.raises(InputError, match=re.escape(f"cannot write {path}")):
            write_loss_csv(path, [])


def test_check_output_dir(tmp_path, monkeypatch):
    check_output_dir(tmp_path / "out.csv")
    monkeypatch.chdir(tmp_path)
    check_output_dir("out.csv")  # the working directory
    with pytest.raises(InputError, match="missing"):
        check_output_dir(tmp_path / "missing" / "out.csv")
