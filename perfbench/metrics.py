"""Metric code of the benchmark: reference errors, output checks and span
self times.

Standard library plus numpy only, and independent of lapgeo, so the
numbers the benchmark reports do not rest on the code they measure.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

TWO_PI = 2.0 * np.pi

# lapgeo computes squared chordal distances through the Gram identity
# |x|^2 + |y|^2 - 2 x.y, whose cancellation error is a few ulps of |x|^2;
# for close points that is a large share of the distance itself.
GRAM_ULPS = 8


def circle_geodesic_matrix(thetas) -> np.ndarray:
    """Arc length between every pair of angles on the unit circle."""
    t = np.asarray(thetas, dtype=float)
    d = np.abs(t[:, None] - t[None, :]) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def chordal_band(points) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest value lapgeo's chordal distance can take for
    every pair of rows, given the rounding of the Gram identity."""
    x = np.asarray(points, dtype=float)
    acc = np.zeros((x.shape[0], x.shape[0]))
    for c in range(x.shape[1]):
        acc += (x[:, c, None] - x[None, :, c]) ** 2
    delta = GRAM_ULPS * np.finfo(float).eps * float(np.max(np.sum(x * x, axis=1)))
    return np.sqrt(np.maximum(acc - delta, 0.0)), np.sqrt(acc + delta)


def _upper(m: np.ndarray) -> np.ndarray:
    return m[np.triu_indices(m.shape[0], 1)]


def ref_errors(estimate: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """Mean and largest absolute error over the pairs i < j."""
    err = np.abs(_upper(estimate) - _upper(reference))
    return float(err.mean()), float(err.max())


def value_errors(values, reference) -> tuple[float, float]:
    """Mean and largest absolute error of paired values."""
    err = np.abs(np.asarray(values, dtype=float) - np.asarray(reference, dtype=float))
    return float(err.mean()), float(err.max())


def chordal_floor_frac(dist: np.ndarray, chordal_high: np.ndarray) -> float:
    """Share of the pairs i < j whose estimate was never raised above the
    chordal distance it starts from (the top of its rounding band)."""
    return float(np.mean(_upper(dist) <= _upper(chordal_high)))


def triangle_slack_max(dist: np.ndarray) -> float:
    """Largest d_ij - (d_ik + d_kj) over all i, j, k, or 0 when the
    triangle inequality holds exactly.  Pairs disconnected on both sides
    (inf - inf) are ignored; a path through k between a disconnected pair
    is an infinite violation."""
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for k in range(dist.shape[0]):
            excess = dist - (dist[:, k, None] + dist[None, k, :])
            worst = max(worst, float(np.fmax.reduce(excess, axis=None, initial=0.0)))
    return worst


def matrix_problems(dist: np.ndarray, chordal_low: np.ndarray | None = None,
                    finite: bool = False) -> list[str]:
    """Output-contract violations of a distance matrix, as messages."""
    problems = []
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        return [f"not square: shape {dist.shape}"]
    if np.any(np.isnan(dist)):
        problems.append("NaN entries")
    if finite and not np.all(np.isfinite(dist)):
        problems.append("non-finite entries")
    if not np.array_equal(dist, dist.T):
        problems.append("not symmetric")
    if np.any(np.diag(dist) != 0.0):
        problems.append("non-zero diagonal")
    if chordal_low is not None and np.any(dist < chordal_low):
        problems.append("entries below the chordal distance")
    return problems


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children.  A span is a dict with id, parent, start and
    end; overlapping children are counted once."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed by layer, the span-name prefix before the first dot."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def span_total(spans, name: str) -> float:
    """Summed duration of every span with the given name."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def median(values) -> float:
    return float(statistics.median(values))


def file_digest(path) -> str:
    """Short SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def load_matrix_csv(path) -> np.ndarray:
    """Read a square CSV of decimal numbers (inf allowed) quickly."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    values = np.array(",".join(lines).split(","), dtype=float)
    n = len(lines)
    if values.size != n * n:
        raise ValueError(f"{path}: {values.size} values in {n} rows is not square")
    return values.reshape(n, n)
