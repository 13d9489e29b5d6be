"""Spectral intrinsic-distance estimator.

A candidate function is expanded in the leading q eigenvectors with
coefficients in [-1, 1]^q.  Its squared gradient field is approximated by
the truncated Dirac square

    dirac2(v) = 1/2 L P(v * v) - P(v * L v),

where P projects onto Phi, the kernel plus the leading r eigenvectors, and
L P = Phi diag(lambda) Phi^T, the kernel's eigenvalues being exact zeros.  The
kernel component must be kept: it carries the mean of |grad f|^2, without
which the field loses its constant part (for sin theta on the circle the
result would be cos(2 theta)/2 instead of cos^2 theta).  The distance
estimate for a pair (a, b) is the supremum over candidates of
|f(a) - f(b)| / sup_grad(f), searched by seeded Monte Carlo plus
coordinate-wise pattern refinement.  The all-pairs estimate is the
Chebyshev distance between rows of the embedding F whose columns are the
probed candidates scaled to unit gradient sup, floored at the chordal
distance: D_ab = max(|x_a - x_b|, max_j |F_aj - F_bj|).
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailedError, InputError
from .laplacian import squared_distances
from .spectral import SpectralDecomposition
from .types import (
    DistanceMatrix,
    PointCloud,
    TruncationParams,
    _adopt,
    validate_candidate,
    worker_count,
)

log = logging.getLogger(__name__)

# Objective value marking a degenerate candidate (zero gradient sup with a
# non-zero separation); compares below every admissible value.
DEGENERATE = float("-inf")

NEGATIVITY_TOL = -1e-8
GRAD_EPS = 1e-12

# Most points in a tile of the all-pairs estimate's Chebyshev floor.
# Bisection leaves tiles of TILE / 2 to TILE points; a tile pair's
# difference buffer, at most TILE x TILE x m, stays near 1 MB at the m of
# about 600 embedding columns a default search probes.  Smaller tiles have
# tighter range bounds, so the floor skips more columns, but cost more
# Python per tile pair: 32 and 64 measured slower, as did 16 x 64
# rectangles.
TILE = 16

# First coordinate step of the pattern search, a quarter of the box edge,
# and how many Monte-Carlo leaders it refines.
STEP0 = 0.5
KEEP_TOP = 5


@dataclass(frozen=True)
class DiracConfig:
    """A spectral decomposition together with validated truncation depths."""

    decomposition: SpectralDecomposition
    trunc: TruncationParams

    def __post_init__(self):
        self.decomposition.check_r(self.trunc.r)

    @property
    def q(self) -> int:
        return self.trunc.q

    @property
    def r(self) -> int:
        return self.trunc.r


@dataclass(frozen=True)
class OptimizerConfig:
    """Monte-Carlo plus pattern-search settings.

    n_samples >= 1 draws from seed >= 0 start the search; the KEEP_TOP best
    of them get refined, by n_refine sweeps whose first step is STEP0.
    """

    n_samples: int = 200
    n_refine: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise InputError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_refine < 0:
            raise InputError(f"n_refine must be >= 0, got {self.n_refine}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _dirac_squared_cols(
    cfg: DiracConfig, v_cols: np.ndarray, lv_cols: np.ndarray
) -> np.ndarray:
    """dirac2 applied to each column of v_cols, given lv_cols = L v_cols,
    (n, m) -> (n, m), through the one projection basis Phi."""
    dec = cfg.decomposition
    phi = dec.eigenvectors[:, : dec.kernel_dim + cfg.r]
    lam = dec.eigenvalues[: dec.kernel_dim + cfg.r]
    return phi @ (
        0.5 * lam[:, None] * (phi.T @ (v_cols * v_cols)) - phi.T @ (v_cols * lv_cols)
    )


def dirac_squared(cfg: DiracConfig, v) -> np.ndarray:
    """Squared Dirac field of a sample function, the discrete surrogate for
    |grad f|^2 evaluated at every sample point.  v may be any sample
    function, so L v needs every mode: a partial decomposition is
    rejected."""
    dec = cfg.decomposition
    if dec.partial:
        raise InputError(
            f"dirac_squared needs every mode; the decomposition holds "
            f"{dec.held} of rank {dec.rank}"
        )
    v = np.asarray(v, dtype=float)
    if v.shape != (dec.n,):
        raise InputError(f"v must have shape ({dec.n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("v must be finite")
    vectors = dec.eigenvectors
    lv = vectors @ (dec.eigenvalues * (vectors.T @ v))
    return _dirac_squared_cols(cfg, v[:, None], lv[:, None])[:, 0]


class _Clamps:
    """Dirac-squared coordinates below NEGATIVITY_TOL seen over one public
    call: their count and the worst value, logged once by report()."""

    def __init__(self):
        self.count = 0
        self.worst = 0.0

    def sup(self, d2_cols: np.ndarray) -> np.ndarray:
        """Column-wise sqrt of the max coordinate, negatives clamped to
        zero; the coordinates below NEGATIVITY_TOL are tallied."""
        worst = d2_cols.min(initial=0.0)
        if worst < NEGATIVITY_TOL:
            self.count += int(np.count_nonzero(d2_cols < NEGATIVITY_TOL))
            self.worst = min(self.worst, float(worst))
        return np.sqrt(np.maximum(d2_cols.max(axis=0), 0.0))

    def report(self):
        if self.count:
            log.warning(
                "clamping %d dirac-squared coordinates below %g (worst %g)",
                self.count,
                NEGATIVITY_TOL,
                self.worst,
            )


def _candidate_cols(
    cfg: DiracConfig, vhat_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample values f = E_q vhat of coefficient columns and their dirac2,
    (q, m) -> (n, m), (n, m).  L f = E_q (lambda_q * vhat) costs O(nq) per
    column."""
    basis_q = cfg.decomposition.leading(cfg.q)
    lam_q = cfg.decomposition.nonzero_eigenvalues[: cfg.q]
    f_cols = basis_q @ vhat_cols
    lf_cols = basis_q @ (lam_q[:, None] * vhat_cols)
    return f_cols, _dirac_squared_cols(cfg, f_cols, lf_cols)


def grad_sup(cfg: DiracConfig, vhat) -> float:
    """sup-norm of the Dirac gradient field of the candidate function
    sum_k vhat_k e_k."""
    vhat = validate_candidate(vhat, cfg.q)
    clamps = _Clamps()
    sup = float(clamps.sup(_candidate_cols(cfg, vhat[:, None])[1])[0])
    clamps.report()
    return sup


def _objective_cols(
    cfg: DiracConfig, vhat_cols: np.ndarray, a: int, b: int, clamps: _Clamps
) -> np.ndarray:
    """Objective for each coefficient column; DEGENERATE where the gradient
    sup vanishes under a non-zero separation."""
    f_cols, d2_cols = _candidate_cols(cfg, vhat_cols)
    numer = np.abs(f_cols[a] - f_cols[b])
    sups = clamps.sup(d2_cols)
    out = np.full(vhat_cols.shape[1], DEGENERATE)
    ok = sups >= GRAD_EPS
    out[ok] = numer[ok] / sups[ok]
    out[(~ok) & (numer < GRAD_EPS)] = 0.0
    return out


def _check_pair(cfg: DiracConfig, a: int, b: int):
    n = cfg.decomposition.n
    for idx in (a, b):
        if not (0 <= idx < n):
            raise InputError(f"point index {idx} out of range 0..{n - 1}")


def objective(cfg: DiracConfig, vhat, a: int, b: int) -> float:
    """|f(a) - f(b)| / grad_sup(f) for the candidate f = sum_k vhat_k e_k.

    Scale-invariant in vhat.  Returns 0 when both numerator and gradient
    vanish, DEGENERATE when only the gradient does.
    """
    _check_pair(cfg, a, b)
    vhat = validate_candidate(vhat, cfg.q)
    clamps = _Clamps()
    val = float(_objective_cols(cfg, vhat[:, None], a, b, clamps)[0])
    clamps.report()
    return val


def _mc_candidates(q: int, opt: OptimizerConfig) -> np.ndarray:
    """(q, n_samples) uniform draws in the box; row-major generation keeps
    the stream a prefix of any longer stream with the same seed."""
    rng = np.random.default_rng(opt.seed)
    return rng.uniform(-1.0, 1.0, (opt.n_samples, q)).T


def _pattern_search(
    score_cols, start: np.ndarray, start_val: float, opt: OptimizerConfig
) -> float:
    """Greedy coordinate ascent with step halving inside the box from start,
    whose score is start_val; returns the best score, which is the largest
    one probed.  A point already probed in this ascent is not scored again:
    its score is at most the current one, so it could not be accepted.
    Deterministic.
    """
    cur, cur_val = start.copy(), start_val
    seen = {tuple(cur.tolist())}
    step = STEP0
    for _ in range(opt.n_refine):
        improved = False
        for k in range(cur.shape[0]):
            for sign in (1.0, -1.0):
                cand = cur.copy()
                cand[k] = np.clip(cand[k] + sign * step, -1.0, 1.0)
                key = tuple(cand.tolist())
                if key in seen:
                    continue
                seen.add(key)
                val = float(score_cols(cand[:, None])[0])
                if val > cur_val:
                    cur, cur_val = cand, val
                    improved = True
        if not improved:
            step *= 0.5
    return cur_val


def _search(score_cols, q: int, opt: OptimizerConfig) -> float:
    """Best score over the seeded Monte-Carlo stream plus pattern search
    from its KEEP_TOP non-degenerate leaders.  score_cols maps (q, m)
    coefficient columns to m scores, DEGENERATE marking unusable ones."""
    cand = _mc_candidates(q, opt)
    vals = score_cols(cand)
    best = float(vals.max())
    order = np.argsort(vals, kind="stable")[::-1][:KEEP_TOP]
    for idx in order[vals[order] != DEGENERATE]:
        best = max(
            best, _pattern_search(score_cols, cand[:, idx], float(vals[idx]), opt)
        )
    if best == DEGENERATE:
        raise EstimationFailedError(
            "every candidate was degenerate (zero gradient sup)"
        )
    return best


def estimate_distance(
    cfg: DiracConfig, a: int, b: int, opt: OptimizerConfig
) -> float:
    """Estimated intrinsic distance between samples a and b: the best
    objective value over the seeded candidate stream plus refinement of the
    KEEP_TOP Monte-Carlo leaders.  No chordal floor is applied, so unlike
    estimate_all_distances the result can fall below the Euclidean
    distance between the two samples."""
    _check_pair(cfg, a, b)
    if a == b:
        return 0.0
    clamps = _Clamps()
    try:
        return _search(
            lambda c: _objective_cols(cfg, c, a, b, clamps), cfg.q, opt
        )
    finally:
        clamps.report()


def _bisection_order(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recursive coordinate bisection: a permutation of the point indices
    and the start of each of its tiles.  Each step splits an index set at
    the median of its widest coordinate (stable argsort), until a set holds
    at most TILE points; that set is a tile, so nearby points share tiles."""
    perm, starts = [], []
    stack = [np.arange(points.shape[0])]
    size = 0
    while stack:
        idx = stack.pop()
        if idx.size <= TILE:
            perm.append(idx)
            starts.append(size)
            size += idx.size
            continue
        pts = points[idx]
        axis = np.argmax(pts.max(axis=0) - pts.min(axis=0))
        idx = idx[np.argsort(pts[:, axis], kind="stable")]
        half = idx.size // 2
        stack += [idx[half:], idx[:half]]  # the lower half is tiled first
    return np.concatenate(perm), np.array(starts)


def _chebyshev_floor(
    dist: np.ndarray, emb: np.ndarray, perm: np.ndarray, starts: np.ndarray
) -> int:
    """dist = max(dist, Chebyshev distance between the points' embedding
    rows), in place, for a symmetric dist that holds the points' chordal
    distances; returns how many (tile pair, column) differences it
    evaluated.

    perm and starts are the points' bisection order and tile starts, and
    row i of emb embeds point perm[i]; emb is only read.  Each row of
    tiles gathers its strip of dist, its tile's rows against the columns
    of the tiles from it on, in bisection order, floors it, and writes it
    back to both (A, B) and (B, A), so every entry is written once.  For
    tiles A and B, column j changes no entry unless its range bound
    ub_j = max(max_A F_j - min_B F_j, max_B F_j - min_A F_j) exceeds the
    smallest chordal entry of the tile pair: rounding is monotone, so
    |fl(F_aj - F_bj)| <= ub_j, and max is exact, so skipping the other
    columns leaves every bit as it was.  The rows of tiles are spread over
    worker_count() threads; their strips share no entry, and
    fl(x - y) = -fl(y - x), so the result does not depend on the worker
    count."""
    n, m = emb.shape
    ends = np.append(starts[1:], n)
    tmax = np.maximum.reduceat(emb, starts, axis=0)
    tmin = np.minimum.reduceat(emb, starts, axis=0)

    def floor_rows(ti: int) -> int:
        s = starts[ti]
        rows = slice(s, ends[ti])
        ix = np.ix_(perm[rows], perm[s:])
        strip = dist[ix]
        cmin = np.minimum.reduceat(strip.min(axis=0), starts[ti:] - s)
        buf = np.empty(m * TILE * TILE)
        ub = np.maximum(tmax[ti] - tmin[ti:], tmax[ti:] - tmin[ti])
        keep = ub > cmin[:, None]
        evaluated = 0
        for tj, kept in enumerate(keep, start=ti):
            cols = np.flatnonzero(kept)
            if not cols.size:
                continue
            sub = slice(starts[tj], ends[tj])
            fa, fb = np.take(emb[rows], cols, axis=1), np.take(emb[sub], cols, axis=1)
            diff = buf[: fa.shape[0] * fb.size].reshape(fa.shape[0], *fb.shape)
            np.subtract(fa[:, None, :], fb[None, :, :], out=diff)
            np.abs(diff, out=diff)
            block = strip[:, sub.start - s:sub.stop - s]
            np.maximum(block, diff.max(axis=2), out=block)
            evaluated += cols.size
        dist[ix] = strip
        dist[ix[::-1]] = strip  # (B, A): the transpose, through swapped indices
        return evaluated

    with ThreadPoolExecutor(worker_count()) as pool:
        # sum() re-raises a worker's exception here
        return sum(pool.map(floor_rows, range(starts.size)))


def estimate_all_distances(
    cfg: DiracConfig, cloud: PointCloud, opt: OptimizerConfig
) -> DistanceMatrix:
    """Simultaneous estimate for every pair: the Chebyshev distance between
    rows of the embedding whose columns are the candidates f the search
    probes, each scaled to unit gradient sup, floored at the chordal distance,
    D_ab = max(|x_a - x_b|, max_f |f(a) - f(b)| / sup_grad(f)).  Refinement
    climbs the global score (range of f) / sup_grad(f), the largest value a
    candidate can deliver to any pair.  The embedding's rows are made in
    the points' bisection order, the floor's tile order.  The one n x n
    array, the chordal matrix floored in place, is built after the search.
    """
    dec = cfg.decomposition
    if cloud.n != dec.n:
        raise InputError(
            f"cloud has {cloud.n} points but decomposition is {dec.n}-dimensional"
        )
    perm, starts = _bisection_order(cloud.points)
    cols = []
    clamps = _Clamps()

    def embed_cols(vhat_cols: np.ndarray) -> np.ndarray:
        """Embed the non-degenerate columns; returns their global scores."""
        f_cols, d2_cols = _candidate_cols(cfg, vhat_cols)
        sups = clamps.sup(d2_cols)
        ok = sups >= GRAD_EPS
        f = f_cols[np.ix_(perm, ok)]
        f /= sups[ok]
        cols.append(f)
        scores = np.full(vhat_cols.shape[1], DEGENERATE)
        scores[ok] = f.max(axis=0) - f.min(axis=0)
        return scores

    try:
        _search(embed_cols, cfg.q, opt)
    finally:
        clamps.report()
    # C order, so that the floor gathers each point's row contiguously
    emb = np.empty((dec.n, sum(f.shape[1] for f in cols)))
    np.concatenate(cols, axis=1, out=emb)
    del cols
    dist = squared_distances(cloud.points)
    np.sqrt(dist, out=dist)
    _chebyshev_floor(dist, emb, perm, starts)
    return _adopt(DistanceMatrix, dist)


def oracle_plugin_estimate(cfg: DiracConfig, coeffs, a: int, b: int) -> float:
    """Objective value of an externally supplied coefficient vector,
    rescaled into the box by 1 / max|coeff| (the objective is
    scale-invariant, so nothing is lost).

    The coefficients must be expressed in the decomposition's leading
    basis, e.g. the projection of a sampled target function onto it.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (cfg.q,):
        raise InputError(f"coefficients must have shape ({cfg.q},), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InputError("coefficients must be finite")
    peak = np.max(np.abs(c), initial=0.0)
    if peak == 0.0:
        return 0.0
    return objective(cfg, c / peak, a, b)
