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
    """Pairwise squared Euclidean distances, exactly symmetric."""
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return d2


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
    d2 = squared_distances(cloud.points)
    w = np.exp(-d2 / (4.0 * h * h))
    np.fill_diagonal(w, 0.0)
    # a finite scale can still overflow the row sums; GraphLaplacian rejects
    # the inf entries with an InputError, and numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        m = s * w
        np.fill_diagonal(m, -m.sum(axis=1))
    return GraphLaplacian(m)
