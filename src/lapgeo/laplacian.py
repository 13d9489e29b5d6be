"""Gaussian-kernel graph Laplacian construction.

The operator acts on sample functions f by differences,
(Lf)_i = s * sum_j w_ij (f_j - f_i) with w_ij = exp(-|x_i - x_j|^2 / 4h^2)
and s = vol / ((4 pi)^(d/2) n h^(2+d)), so it is symmetric, has zero row
sums, and is negative semidefinite by construction.  (4 pi)^(d/2) is the
heat-kernel normalisation in intrinsic dimension d; for d = 1 it equals
2 sqrt(pi) to the last bit.
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


def squared_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, exactly symmetric.

    |x_i|^2 + |x_j|^2 - 2 x_i.x_j, clipped at zero and averaged with its
    transpose, in one n x n buffer: the Gram matrix is built in it, then
    turned into distances and symmetrised in place over row blocks, whose
    temporaries are each of about BLOCK_ENTRIES entries."""
    sq = np.sum(points * points, axis=1)
    d2 = points @ points.T
    blocks = row_blocks(*d2.shape)
    for rows in blocks:
        g = d2[rows]
        g *= 2.0
        np.subtract(np.add(sq[rows, None], sq[None, :]), g, out=g)
        np.maximum(g, 0.0, out=g)
    for rows in blocks:
        _symmetrise_rows(d2, rows)
    np.fill_diagonal(d2, 0.0)
    return d2


def _symmetrise_rows(d2: np.ndarray, rows: slice) -> None:
    """(d2_ij + d2_ji) / 2 for i in rows, written to (i, j) and (j, i).  The
    sum is the same both ways, so the columns from the block's first row on
    cover every pair; later blocks read none of what this one writes."""
    a = rows.start
    half = np.add(d2[rows, a:], d2[a:, rows].T)
    half *= 0.5
    d2[rows, a:] = half
    d2[a:, rows] = half.T


def gram_distances(cloud: PointCloud) -> DistanceMatrix:
    """Pairwise Euclidean (chordal) distance matrix of the samples."""
    d2 = squared_distances(cloud.points)
    return _adopt(DistanceMatrix, np.sqrt(d2, out=d2))


def build_laplacian(cloud: PointCloud, cfg: ManifoldConfig) -> GraphLaplacian:
    """Assemble the scaled Gaussian-kernel graph Laplacian.

    Off-diagonal entries are s * w_ij; the diagonal is -s * sum of the
    off-diagonal row, so rows sum to zero exactly up to rounding.
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
    return _adopt(GraphLaplacian, m)
