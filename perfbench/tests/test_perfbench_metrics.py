"""Benchmark metric code on tiny hand-computed inputs.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from metrics import (  # noqa: E402
    chordal_band,
    chordal_floor_frac,
    circle_geodesic_matrix,
    layer_self_times,
    load_matrix_csv,
    matrix_problems,
    ref_errors,
    self_times,
    triangle_slack_max,
    value_errors,
)


def test_ref_errors_over_upper_pairs():
    est = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
    ref = np.array([[9.0, 1.5, 2.0], [1.5, 9.0, 3.0], [2.0, 3.0, 9.0]])
    # pair errors 0.5, 0, 1; the diagonal is not a pair
    assert ref_errors(est, ref) == (0.5, 1.0)


def test_value_errors():
    assert value_errors([1.0, 2.0], [1.5, 1.0]) == (0.75, 1.0)


def test_circle_geodesic_goes_the_short_way():
    g = circle_geodesic_matrix([0.0, 0.5 * math.pi, 1.75 * math.pi])
    assert g[0, 1] == pytest.approx(0.5 * math.pi)
    assert g[0, 2] == pytest.approx(0.25 * math.pi)
    assert g[1, 2] == pytest.approx(0.75 * math.pi)


def test_chordal_band_brackets_the_distance():
    low, high = chordal_band([[0.0, 0.0], [3.0, 4.0]])
    assert low[0, 1] < 5.0 < high[0, 1]
    assert high[0, 1] - low[0, 1] < 1e-12
    assert low[0, 0] == 0.0


def test_chordal_floor_frac_counts_pairs_left_at_the_floor():
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
    low, high = chordal_band(points)
    dist = low.copy()
    dist[1, 2] = dist[2, 1] = 5.0  # raised above its chordal sqrt(5)
    assert chordal_floor_frac(dist, high) == pytest.approx(2.0 / 3.0)


def test_triangle_slack():
    ok = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    assert triangle_slack_max(ok) == 0.0
    bad = ok.copy()
    bad[0, 2] = bad[2, 0] = 2.5  # 2.5 > 1 + 1
    assert triangle_slack_max(bad) == 0.5


def test_triangle_slack_with_disconnection():
    inf = math.inf
    apart = np.array([[0.0, inf], [inf, 0.0]])
    assert triangle_slack_max(apart) == 0.0
    # 0 and 2 are joined through 1 but reported disconnected
    wrong = np.array([[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]])
    assert triangle_slack_max(wrong) == inf


def test_matrix_problems():
    good = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert matrix_problems(good, chordal_low=np.full((2, 2), 1.0) - np.eye(2)) == []
    assert matrix_problems(np.array([[0.0, 2.0], [1.0, 0.0]])) == ["not symmetric"]
    assert matrix_problems(np.array([[1.0, 2.0], [2.0, 0.0]])) == ["non-zero diagonal"]
    assert matrix_problems(good, chordal_low=np.full((2, 2), 3.0)) == [
        "entries below the chordal distance"]
    inf_matrix = np.array([[0.0, math.inf], [math.inf, 0.0]])
    assert matrix_problems(inf_matrix) == []
    assert matrix_problems(inf_matrix, finite=True) == ["non-finite entries"]


def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "spectral.eigendecompose", 1.0, 4.0),
        _span(2, 1, "types.graph_laplacian", 2.0, 3.0),
        _span(3, 0, "io.save_distance_matrix", 5.0, 6.0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "harness.run", 0.0, 10.0),
        _span(1, 0, "spectral.a", 1.0, 4.0),
        _span(2, 0, "spectral.b", 3.0, 5.0),
        _span(3, 0, "spectral.c", 9.0, 12.0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_self_times_sum_by_prefix():
    spans = [
        _span(0, None, "bench.pass", 0.0, 10.0),
        _span(1, 0, "spectral.eigendecompose", 1.0, 4.0),
        _span(2, 0, "spectral.select_q", 4.0, 5.0),
        _span(3, 0, "io.load_point_cloud", 5.0, 7.0),
    ]
    assert layer_self_times(spans) == {"bench": 4.0, "spectral": 4.0, "io": 2.0}


def test_load_matrix_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.5,inf\n1.5,0,2\ninf,2,0\n", encoding="utf-8")
    m = load_matrix_csv(path)
    assert m.shape == (3, 3)
    assert m[0, 1] == 1.5 and math.isinf(m[0, 2])
    path.write_text("0,1\n1,0,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_matrix_csv(path)


def test_benchmark_json_names_what_run_py_reports():
    import json

    from run import END_TO_END, per_layer_units

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
