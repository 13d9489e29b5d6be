"""CSV input and output.

Point clouds: one row per point, comma-separated decimal coordinates,
optional single header row auto-detected (a first row that fails numeric
parsing is a header; any later unparsable row is an error naming the row).
Floats are written with 17 significant digits so values round-trip
losslessly; infinities are written as "inf".
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import InputError
from .types import DistanceMatrix, PointCloud, validate_point_cloud


def _parse_row(row, row_number: int):
    try:
        return [float(cell) for cell in row]
    except ValueError as exc:
        raise InputError(f"row {row_number}: could not parse as numbers: {exc}")


def load_point_cloud(path) -> PointCloud:
    """Read a point cloud CSV, auto-detecting an optional header row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not raw:
        raise InputError(f"{path} is empty")
    rows = []
    start = 1
    try:
        rows.append(_parse_row(raw[0], 1))
    except InputError:
        start = 2  # header row
    for i, row in enumerate(raw[1:], start=2):
        rows.append(_parse_row(row, i))
    if not rows:
        raise InputError(f"{path} contains a header but no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        bad = next(i for i, r in enumerate(rows, start=start) if len(r) != len(rows[0]))
        raise InputError(f"row {bad}: expected {len(rows[0])} columns, got a different count")
    return validate_point_cloud(rows)


def save_distance_matrix(path, dist: DistanceMatrix) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, dist.matrix, fmt="%.17g", delimiter=",", newline="\r\n")


def load_distance_matrix(path) -> DistanceMatrix:
    """Read a distance matrix CSV written by save_distance_matrix."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as an InputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            m = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise InputError(f"{path}: could not parse as numbers: {exc}")
    if m.size == 0:
        raise InputError(f"{path} is empty")
    return DistanceMatrix(m)


LOSS_HEADER = ["n", "q_spec", "q_used", "r_used", "seed", "estimate", "oracle", "loss", "status"]


def write_loss_csv(path, rows) -> None:
    """Write loss-experiment rows (dicts keyed by LOSS_HEADER fields)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOSS_HEADER)
        for row in rows:
            writer.writerow(
                format(row[key], ".17g") if isinstance(row[key], float) else str(row[key])
                for key in LOSS_HEADER
            )
