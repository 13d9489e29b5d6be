"""Gaussian-kernel graph Laplacian construction.

The operator acts on sample functions f by differences,
(Lf)_i = s * sum_j w_ij (f_j - f_i) with w_ij = exp(-|x_i - x_j|^2 / 4h^2)
and s = vol / ((4 pi)^(d/2) n h^(2+d)), so it is symmetric, has zero row
sums, and is negative semidefinite by construction.  (4 pi)^(d/2) is the
heat-kernel normalisation in intrinsic dimension d; for d = 1 it equals
2 sqrt(pi) to the last bit.  |x_i - x_j|^2 sums coordinate differences:
no Gram identity cancels, nothing is clipped, coincident points weigh 1.

The kernel matrix K = [w_ij] with w_ii = 1 is positive semidefinite, the
Gaussian being a positive-definite function, so L = s (K - I - D), D the
diagonal of off-diagonal row sums, is at least -s (I + D): by Weyl its
spectrum lies in [-(max|L_ii| + s), 0].  Where some point has a weighted
degree above 1, s < max|L_ii|, this beats Gershgorin's [-2 max|L_ii|, 0]; on
1000 circle samples at h = 0.5 n^-1/4 it is about half of it and at most
2e-4 (relative) above the true radius.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .types import (
    DistanceMatrix,
    GraphLaplacian,
    ManifoldConfig,
    PointCloud,
    _adopt,
    row_blocks,
)


def squared_distance_rows(
    points: np.ndarray, rows: slice, start: int, out: np.ndarray
) -> np.ndarray:
    """Add sum_k (x_ik - x_jk)^2 over the coordinates in order, for i in
    rows and j from start on, to out, (len(rows), n - start), and return it.

    lapgeo's one chordal arithmetic: every squared chordal distance it
    computes comes from here, so equal pairs get equal bits wherever they
    are summed.  The temporary is one difference the size of out."""
    diff = np.empty_like(out)
    for col in points.T:
        np.subtract(col[rows, None], col[None, start:], out=diff)
        diff *= diff
        out += diff
    return out


def squared_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, exactly symmetric.

    squared_distance_rows in one n x n buffer, one row block at a time:
    each block sums its upper part and mirrors the rest below.  As
    fl(a - b) = -fl(b - a) and x - x = 0, it is symmetric, zero on the
    diagonal and for coincident points, and non-negative with no repair.
    The temporary is one block's difference, about BLOCK_ENTRIES entries."""
    n = len(points)
    m = np.zeros((n, n))
    for rows in row_blocks(n, n):
        a, b = rows.start, rows.stop
        block = squared_distance_rows(points, rows, a, m[rows, a:])
        m[b:, rows] = block[:, b - a :].T
    return m


def gram_distances(cloud: PointCloud) -> DistanceMatrix:
    """Pairwise Euclidean (chordal) distance matrix of the samples."""
    d2 = squared_distances(cloud.points)
    return _adopt(DistanceMatrix, np.sqrt(d2, out=d2))


def build_laplacian(cloud: PointCloud, cfg: ManifoldConfig) -> GraphLaplacian:
    """Assemble the scaled Gaussian-kernel graph Laplacian.

    Off-diagonal entries are s * w_ij; the diagonal is -s * sum of the
    off-diagonal row, so rows sum to zero exactly up to rounding.  Its
    radius is the smaller of the kernel's bound max|L_ii| + s (module
    docstring) and the Gershgorin bound 2 max|L_ii|.
    """
    h = cfg.bandwidth
    d = cfg.intrinsic_dim
    # checked before the kernel: where h^(2+d) leaves the double range, 4h^2
    # may too, and -d2 / (4h^2) would divide by zero
    try:
        s = cfg.volume / ((4.0 * np.pi) ** (d / 2) * cloud.n * h ** (2 + d))
    except (OverflowError, ZeroDivisionError):
        s = np.nan
    if not 0.0 < s < np.inf:
        raise InputError(
            f"kernel scale vol / ((4 pi)^(d/2) n h^(d+2)) is not finite and "
            f"positive for volume {cfg.volume}, bandwidth {h}, d = {d}, n = {cloud.n}"
        )
    # exp(-d2 / 4h^2), then times s, in the one n x n buffer
    m = squared_distances(cloud.points)
    np.negative(m, out=m)
    # a quotient that overflows to -inf gives exp 0, the weight it should be
    with np.errstate(over="ignore"):
        m /= 4.0 * h * h
    np.exp(m, out=m)
    np.fill_diagonal(m, 0.0)
    # a finite scale can still overflow the row sums; GraphLaplacian rejects
    # the inf entries with an InputError, and numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        m *= s
        np.fill_diagonal(m, -m.sum(axis=1))
    peak = float(np.max(np.abs(np.diagonal(m))))
    lap = _adopt(GraphLaplacian, m)
    lap.radius = peak + min(peak, s)
    return lap
