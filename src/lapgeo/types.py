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

    Rejects empty input, ragged rows and non-finite values with specific
    messages.
    """
    rows = list(raw)
    if len(rows) == 0:
        raise InputError("empty point cloud: need at least one point")
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise InputError(
            f"dimension mismatch: rows have differing lengths {sorted(lengths)}"
        )
    if lengths == {0}:
        raise InputError("points must have ambient dimension >= 1")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError("non-finite input: point coordinates must be real numbers")
    return PointCloud(arr)


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
    """Dense symmetric negative-semidefinite operator on sample functions.

    Validates finite entries, symmetry, zero row sums, and semidefiniteness.
    Row sums of zero plus a non-positive diagonal make the matrix
    diagonally dominant, which proves NSD by Gershgorin's theorem without
    an eigendecomposition; matrices that are not dominant fall back to an
    explicit top-eigenvalue check.
    """

    def __init__(self, matrix):
        m = _frozen_array(matrix)
        scale = _check_symmetric(m, "Laplacian")
        row_sums = m.sum(axis=1)
        row_scale = np.maximum(np.max(np.abs(m), axis=1), 1e-300)
        if np.any(np.abs(row_sums) > 1e-9 * row_scale) and scale > 0:
            raise InputError("Laplacian rows must sum to zero (1e-9 relative)")
        if not _is_nsd(m, scale):
            raise InputError("Laplacian must be negative semidefinite")
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


def _is_nsd(m: np.ndarray, scale: float) -> bool:
    tol = 1e-9 * scale
    diag = np.diag(m)
    # Gershgorin: every disc [d_i - R_i, d_i + R_i] below tol proves NSD.
    radii = np.sum(np.abs(m), axis=1) - np.abs(diag)
    if np.all(diag + radii <= tol):
        return True
    return np.linalg.eigvalsh(m)[-1] <= tol


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
        finite_mask = np.isfinite(m)
        if not np.array_equal(finite_mask, finite_mask.T):
            raise InputError("distance matrix must be symmetric")
        finite = m[finite_mask]
        fin_scale = np.max(np.abs(finite), initial=0.0)
        fin = np.where(finite_mask, m, 0.0)
        if np.max(np.abs(fin - fin.T), initial=0.0) > 1e-9 * max(fin_scale, 1e-300):
            raise InputError("distance matrix must be symmetric")
        if np.any(np.diag(m) != 0.0):
            raise InputError("distance matrix must have a zero diagonal")
        if np.any(m < 0):  # -inf too; -0.0 compares equal to 0
            raise InputError("distances must be non-negative")
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
