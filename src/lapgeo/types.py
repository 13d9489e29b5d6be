"""Shared domain types with validating constructors.

Every type checks its own invariants on construction, so an instance that
exists is an instance that is valid.  Arrays are stored read-only; the
types are safe to share between threads.  The public constructors copy
what they are given; lapgeo's own builders hand over a fresh array through
_adopt, which freezes it in place.  The n x n checks run over row blocks
of about BLOCK_ENTRIES entries, so a check holds no n x n temporary;
worker_count() sizes the thread pools of the n x n loops.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError


# Entries per row block of an n x n pass, 1.5 MB of doubles: a 400-point
# matrix, the largest the loss sweep builds, is one block.
BLOCK_ENTRIES = 3 << 16


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def row_blocks(n: int, width: int):
    """Slices of 0..n covering it in order, each of about BLOCK_ENTRIES
    entries of a matrix with `width` columns (at least one row)."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def worker_count() -> int:
    """Threads for the n^2 loops (numpy releases the GIL in their ufuncs):
    one per usable CPU, or per CPU where affinity is unknown (macOS,
    Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _adopt(cls, matrix: np.ndarray):
    """A cls around a fresh float array that nothing else will write,
    frozen in place instead of copied, after the same checks as cls()."""
    obj = cls.__new__(cls)
    matrix.setflags(write=False)
    obj._check(matrix)
    obj.matrix = matrix
    return obj


@dataclass(frozen=True)
class PointCloud:
    """n sample points in ambient R^N, one per row, finite and small enough
    that 8 N max|x|^2, twice the largest possible squared distance, is
    finite."""

    points: np.ndarray

    def __post_init__(self):
        try:
            pts = _frozen_array(self.points)
        except (ValueError, TypeError, OverflowError) as err:
            raise InputError(_row_fault(self.points, err)) from None
        if pts.ndim != 2 or pts.size == 0:
            hint = f": {_VECTOR_ROWS}" if pts.size else ""  # a 1-d array, say
            raise InputError(f"point cloud must be a non-empty 2-d array, got shape {pts.shape}{hint}")
        # np.max propagates NaN, so one test covers NaN and inf coordinates
        peak = float(np.max(np.abs(pts)))
        if not np.isfinite(peak):
            raise InputError("point cloud contains non-finite coordinates")
        # squared_distances' largest partial sum is at most 4 N max|x|^2;
        # 8 N keeps the clouds accepted when the Gram identity summed two.
        # In Python floats, an overflow is inf, not a numpy warning
        if 8.0 * pts.shape[1] * peak * peak == float("inf"):
            raise InputError(
                f"point cloud coordinates too large: |x| up to {peak:g} "
                f"overflows squared distances in {pts.shape[1]} dimensions"
            )
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


_VECTOR_ROWS = "each point must be a vector of coordinates (rows of length 1 for one coordinate)"


def _row_fault(raw, err: Exception) -> str:
    """Why numpy could not make raw a float array: a row that is no vector
    (a bare number, say), ragged rows, or cells that err names."""
    try:
        shapes = {np.shape(row) for row in raw}
    except (ValueError, TypeError):  # not iterable, or a ragged row itself
        shapes = {()}
    if any(len(shape) != 1 for shape in shapes):
        return _VECTOR_ROWS
    if len(shapes) > 1:
        return f"dimension mismatch: rows have differing lengths {sorted(k for k, in shapes)}"
    return f"point cloud coordinates must be real numbers: {err}"


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
        self._check(m)
        self.matrix = m

    @staticmethod
    def _check(m: np.ndarray) -> None:
        scale = _check_symmetric(m, "Laplacian")
        faults = [_row_faults(m, rows, scale) for rows in row_blocks(*m.shape)]
        if any(sums for sums, _ in faults):
            raise InputError("Laplacian rows must sum to zero (1e-9 relative)")
        if any(discs for _, discs in faults):
            raise InputError("Laplacian weights must be non-negative (Gershgorin, 1e-9 relative)")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _row_faults(m: np.ndarray, rows: slice, scale: float) -> tuple[bool, bool]:
    """Whether some Laplacian row in rows has a non-zero sum (1e-9 of its
    largest |entry|), and whether some has a Gershgorin disc reaching above
    1e-9 scale."""
    block = m[rows]
    a = np.abs(block)
    sums = np.any(np.abs(block.sum(axis=1)) > 1e-9 * a.max(axis=1, initial=1e-300))
    diag = np.diagonal(block, offset=rows.start)
    # Gershgorin: d_i + R_i = d_i + sum_j |m_ij| - |d_i|
    discs = np.any(diag + (a.sum(axis=1) - np.abs(diag)) > 1e-9 * scale)
    return bool(sums), bool(discs)


def _check_symmetric(m: np.ndarray, name: str) -> float:
    """Check that m is square, finite and symmetric; return max|m| (0 if
    empty).  Finiteness is settled over every row block before any
    symmetry gap is taken, so NaN and inf raise before numpy can warn."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    blocks = row_blocks(*m.shape)
    # np.max propagates NaN, so one test covers NaN and inf entries
    scale = np.max([np.max(np.abs(m[rows])) for rows in blocks], initial=0.0)
    if not np.isfinite(scale):
        raise InputError(f"{name} entries must be finite")
    if scale > 0 and any(_asymmetric(m, rows, 1e-12 * scale) for rows in blocks):
        raise InputError(f"{name} must be symmetric (1e-12 relative)")
    return scale


def _asymmetric(m: np.ndarray, rows: slice, tol: float) -> bool:
    """Whether some |m_ij - m_ji| > tol for i in rows.  The gap is the same
    both ways, so the columns from the block's first row on cover every
    pair."""
    gap = np.subtract(m[rows, rows.start:], m[rows.start:, rows].T)
    np.abs(gap, out=gap)
    return bool(np.any(gap > tol))


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
        self._check(m)
        self.matrix = m

    @staticmethod
    def _check(m: np.ndarray) -> None:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {m.shape}")
        blocks = row_blocks(*m.shape)
        nan = negative = False
        scale = 0.0
        for rows in blocks:
            block = m[rows]
            nan |= bool(np.any(np.isnan(block)))
            negative |= bool(np.any(block < 0))  # -inf too; -0.0 compares equal to 0
            scale = max(scale, np.max(block, where=np.isfinite(block), initial=0.0))
        if nan:
            raise InputError("distance matrix contains NaN")
        if negative:
            raise InputError("distances must be non-negative")
        if np.any(np.diagonal(m) != 0.0):
            raise InputError("distance matrix must have a zero diagonal")
        # inf - inf is NaN, which no comparison exceeds: an unconnected pair
        # passes, while +inf against a finite entry leaves an inf gap
        with np.errstate(invalid="ignore"):
            if any(_asymmetric(m, rows, 1e-9 * max(scale, 1e-300)) for rows in blocks):
                raise InputError("distance matrix must be symmetric")

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
