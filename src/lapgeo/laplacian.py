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
from .types import DistanceMatrix, GraphLaplacian, ManifoldConfig, PointCloud


def squared_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, exactly symmetric.

    |x_i|^2 + |x_j|^2 - 2 x_i.x_j, clipped at zero and averaged with its
    transpose, computed in two n x n buffers."""
    sq = np.sum(points * points, axis=1)
    d2 = np.add(sq[:, None], sq[None, :])
    g = points @ points.T
    g *= 2.0
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    out = np.add(d2, d2.T, out=g)
    out *= 0.5
    np.fill_diagonal(out, 0.0)
    return out


def gram_distances(cloud: PointCloud) -> DistanceMatrix:
    """Pairwise Euclidean (chordal) distance matrix of the samples."""
    return DistanceMatrix(np.sqrt(squared_distances(cloud.points)))


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
    m /= 4.0 * h * h
    np.exp(m, out=m)
    np.fill_diagonal(m, 0.0)
    # a finite scale can still overflow the row sums; GraphLaplacian rejects
    # the inf entries with an InputError, and numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        m *= s
        np.fill_diagonal(m, -m.sum(axis=1))
    return GraphLaplacian(m)
