"""Shared domain types with validating constructors.

Every type checks its own invariants on construction, so an instance that
exists is an instance that is valid.  Arrays are stored read-only; the
types are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointCloud:
    """n sample points in ambient R^N, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError(
                f"point cloud must be a non-empty 2-d array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InputError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


def validate_point_cloud(raw) -> PointCloud:
    """Build a PointCloud from a raw sequence of coordinate vectors.

    Names rows that are not coordinate vectors (a bare number, say) and
    ragged rows, which only the raw rows show; PointCloud rejects empty
    input, zero width and non-finite values.
    """
    rows = list(raw)
    if any(np.ndim(row) != 1 for row in rows):
        raise InputError(
            "each point must be a vector of coordinates; for a single "
            "coordinate per point, pass rows of length 1"
        )
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise InputError(
            f"dimension mismatch: rows have differing lengths {sorted(lengths)}"
        )
    return PointCloud(rows)


@dataclass(frozen=True)
class ManifoldConfig:
    """Known manifold data entering the Laplacian scale factor: intrinsic
    dimension d, volume, and kernel bandwidth h, both positive and finite."""

    intrinsic_dim: int
    volume: float
    bandwidth: float

    def __post_init__(self):
        if int(self.intrinsic_dim) != self.intrinsic_dim or self.intrinsic_dim < 1:
            raise InputError(f"intrinsic_dim must be a positive integer, got {self.intrinsic_dim}")
        if not (0 < self.volume < np.inf):
            raise InputError(f"volume must be positive and finite, got {self.volume}")
        if not (0 < self.bandwidth < np.inf):
            raise InputError(f"bandwidth must be positive and finite, got {self.bandwidth}")


class GraphLaplacian:
    """Dense symmetric operator with non-negative weights and zero row sums.

    Checks finite entries, symmetry, zero row sums (1e-9 relative) and
    diagonal dominance: every Gershgorin disc lies below 1e-9 max|m|, which
    with zero row sums means non-negative weights up to rounding and proves
    the matrix negative semidefinite.  An NSD operator with negative weights
    is no GraphLaplacian; eigendecompose takes it as a raw array.
    """

    def __init__(self, matrix):
        m = _frozen_array(matrix)
        scale = _check_symmetric(m, "Laplacian")
        a = np.abs(m)
        if np.any(np.abs(m.sum(axis=1)) > 1e-9 * a.max(axis=1, initial=1e-300)):
            raise InputError("Laplacian rows must sum to zero (1e-9 relative)")
        diag = np.diagonal(m)
        # Gershgorin: d_i + R_i = d_i + sum_j |m_ij| - |d_i|
        if np.any(diag + (a.sum(axis=1) - np.abs(diag)) > 1e-9 * scale):
            raise InputError("Laplacian weights must be non-negative (Gershgorin, 1e-9 relative)")
        self.matrix = m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _check_symmetric(m: np.ndarray, name: str) -> float:
    """Check that m is square, finite and symmetric; return max|m| (0 if empty)."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    # max propagates NaN, so one test covers NaN and inf entries
    if not np.isfinite(scale):
        raise InputError(f"{name} entries must be finite")
    if scale > 0 and np.max(np.abs(m - m.T)) > 1e-12 * scale:
        raise InputError(f"{name} must be symmetric (1e-12 relative)")
    return scale


@dataclass(frozen=True)
class TruncationParams:
    """Spectral truncation depths: q leading modes for the linear part and
    r >= q for the quadratic part; select_q chooses q adaptively."""

    q: int
    r: int

    def __post_init__(self):
        if not (1 <= self.q <= self.r):
            raise InputError(f"need 1 <= q <= r, got q={self.q}, r={self.r}")


class DistanceMatrix:
    """Symmetric matrix of pairwise distance estimates.

    Entries are non-negative with a zero diagonal; +inf marks pairs that a
    graph-based estimator could not connect.
    """

    def __init__(self, matrix):
        m = _frozen_array(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {m.shape}")
        if np.any(np.isnan(m)):
            raise InputError("distance matrix contains NaN")
        if np.any(m < 0):  # -inf too; -0.0 compares equal to 0
            raise InputError("distances must be non-negative")
        if np.any(np.diagonal(m) != 0.0):
            raise InputError("distance matrix must have a zero diagonal")
        scale = np.max(m, where=np.isfinite(m), initial=0.0)
        # inf - inf is NaN, which no comparison exceeds: an unconnected pair
        # passes, while +inf against a finite entry leaves an inf gap
        with np.errstate(invalid="ignore"):
            gap = m - m.T
        np.abs(gap, out=gap)
        if np.any(gap > 1e-9 * max(scale, 1e-300)):
            raise InputError("distance matrix must be symmetric")
        self.matrix = m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def validate_candidate(vhat, q: int) -> np.ndarray:
    """Check a coefficient vector against the box [-1, 1]^q and return it
    as a float array."""
    v = np.asarray(vhat, dtype=float)
    if v.shape != (q,):
        raise InputError(f"candidate coefficients must have shape ({q},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("candidate coefficients must be finite")
    if np.max(np.abs(v), initial=0.0) > 1.0 + 1e-12:
        raise InputError("candidate coefficients must lie in [-1, 1]")
    return v
