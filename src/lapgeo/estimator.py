"""Spectral intrinsic-distance estimator.

A candidate function is expanded in the leading q eigenvectors with
coefficients in [-1, 1]^q.  Its squared gradient field is approximated by
the truncated Dirac square

    dirac2(v) = 1/2 L P(v * v) - P(v * L v),

where P projects onto the kernel plus the leading r eigenvectors.  The
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
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailedError, InputError
from .laplacian import gram_distances
from .spectral import SpectralDecomposition
from .types import (
    DistanceMatrix,
    PointCloud,
    TruncationParams,
    validate_candidate,
)

log = logging.getLogger(__name__)

# Objective value marking a degenerate candidate (zero gradient sup with a
# non-zero separation); compares below every admissible value.
DEGENERATE = float("-inf")

NEGATIVITY_TOL = -1e-8
GRAD_EPS = 1e-12


@dataclass(frozen=True)
class DiracConfig:
    """A spectral decomposition together with validated truncation depths."""

    decomposition: SpectralDecomposition
    trunc: TruncationParams

    def __post_init__(self):
        if self.trunc.r > self.decomposition.rank:
            raise InputError(
                f"r={self.trunc.r} exceeds rank {self.decomposition.rank}"
            )

    @property
    def q(self) -> int:
        return self.trunc.q

    @property
    def r(self) -> int:
        return self.trunc.r


@dataclass(frozen=True)
class OptimizerConfig:
    """Monte-Carlo plus pattern-search settings.

    n_samples = 0 disables sampling (refinement-only or no-op callers);
    keep_top bounds how many candidates get refined.
    """

    n_samples: int = 200
    n_refine: int = 12
    step0: float = 0.5
    seed: int = 0
    keep_top: int = 5

    def __post_init__(self):
        if self.n_samples < 0:
            raise InputError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.n_refine < 0:
            raise InputError(f"n_refine must be >= 0, got {self.n_refine}")
        if not (0.0 < self.step0 <= 2.0):
            raise InputError(f"step0 must be in (0, 2], got {self.step0}")
        if self.keep_top < 1:
            raise InputError(f"keep_top must be >= 1, got {self.keep_top}")


def _dirac_squared_cols(cfg: DiracConfig, v_cols: np.ndarray) -> np.ndarray:
    """dirac2 applied to each column of v_cols, (n, m) -> (n, m)."""
    dec = cfg.decomposition
    vectors = dec.eigenvectors
    lam = dec.eigenvalues
    lead = dec.leading(cfg.r)
    lam_lead = dec.nonzero_eigenvalues[: cfg.r]
    kernel = dec.kernel()

    lv = vectors @ (lam[:, None] * (vectors.T @ v_cols))
    vsq = v_cols * v_cols
    x = v_cols * lv
    # L P(v^2): the kernel part of the projection is annihilated by L,
    # so only the leading block contributes.
    term1 = 0.5 * (lead @ (lam_lead[:, None] * (lead.T @ vsq)))
    term2 = lead @ (lead.T @ x) + kernel @ (kernel.T @ x)
    return term1 - term2


def dirac_squared(cfg: DiracConfig, v) -> np.ndarray:
    """Squared Dirac field of a sample function, the discrete surrogate for
    |grad f|^2 evaluated at every sample point."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cfg.decomposition.n,):
        raise InputError(
            f"v must have shape ({cfg.decomposition.n},), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InputError("v must be finite")
    return _dirac_squared_cols(cfg, v[:, None])[:, 0]


def _sup_from_dirac_cols(d2_cols: np.ndarray) -> np.ndarray:
    """Column-wise sqrt of the max clamped coordinate, with the negativity
    policy: coordinates below NEGATIVITY_TOL are logged, all negatives
    clamp to zero."""
    worst = d2_cols.min(initial=0.0)
    if worst < NEGATIVITY_TOL:
        log.warning(
            "clamping %d dirac-squared coordinates below %g (worst %g)",
            int(np.count_nonzero(d2_cols < NEGATIVITY_TOL)),
            NEGATIVITY_TOL,
            worst,
        )
    return np.sqrt(np.maximum(d2_cols, 0.0).max(axis=0))


def _grad_sup_cols(cfg: DiracConfig, vhat_cols: np.ndarray) -> np.ndarray:
    """Gradient sup-norms for coefficient columns, (q, m) -> (m,)."""
    v_cols = cfg.decomposition.leading(cfg.q) @ vhat_cols
    return _sup_from_dirac_cols(_dirac_squared_cols(cfg, v_cols))


def grad_sup(cfg: DiracConfig, vhat) -> float:
    """sup-norm of the Dirac gradient field of the candidate function
    sum_k vhat_k e_k."""
    vhat = validate_candidate(vhat, cfg.q)
    return float(_grad_sup_cols(cfg, vhat[:, None])[0])


def _objective_cols(
    cfg: DiracConfig, vhat_cols: np.ndarray, a: int, b: int
) -> np.ndarray:
    """Objective for each coefficient column; DEGENERATE where the gradient
    sup vanishes under a non-zero separation."""
    basis_q = cfg.decomposition.leading(cfg.q)
    numer = np.abs((basis_q[a] - basis_q[b]) @ vhat_cols)
    sups = _grad_sup_cols(cfg, vhat_cols)
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
    return float(_objective_cols(cfg, vhat[:, None], a, b)[0])


def _mc_candidates(q: int, opt: OptimizerConfig) -> np.ndarray:
    """(q, n_samples) uniform draws in the box; row-major generation keeps
    the stream a prefix of any longer stream with the same seed."""
    rng = np.random.default_rng(opt.seed)
    return rng.uniform(-1.0, 1.0, (opt.n_samples, q)).T


def _pattern_search(score_cols, start: np.ndarray, opt: OptimizerConfig) -> float:
    """Greedy coordinate ascent with step halving inside the box from start;
    returns the best score, which is the largest one probed.  Deterministic.
    """
    cur = start.copy()
    cur_val = float(score_cols(cur[:, None])[0])
    step = opt.step0
    for _ in range(opt.n_refine):
        improved = False
        for k in range(cur.shape[0]):
            for sign in (1.0, -1.0):
                cand = cur.copy()
                cand[k] = np.clip(cand[k] + sign * step, -1.0, 1.0)
                if cand[k] == cur[k]:
                    continue
                val = float(score_cols(cand[:, None])[0])
                if val > cur_val:
                    cur, cur_val = cand, val
                    improved = True
        if not improved:
            step *= 0.5
    return cur_val


def _search(score_cols, q: int, opt: OptimizerConfig) -> float:
    """Best score over the seeded Monte-Carlo stream plus pattern search
    from its keep_top non-degenerate leaders.  score_cols maps (q, m)
    coefficient columns to m scores, DEGENERATE marking unusable ones."""
    cand = _mc_candidates(q, opt)
    vals = score_cols(cand)
    best = float(vals.max())
    order = np.argsort(vals, kind="stable")[::-1][: opt.keep_top]
    for idx in order[vals[order] != DEGENERATE]:
        best = max(best, _pattern_search(score_cols, cand[:, idx], opt))
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
    keep_top Monte-Carlo leaders.  No chordal floor is applied, so unlike
    estimate_all_distances the result can fall below the Euclidean
    distance between the two samples."""
    _check_pair(cfg, a, b)
    if a == b:
        return 0.0
    if opt.n_samples == 0:
        raise EstimationFailedError("no candidates: n_samples is 0")
    return _search(lambda c: _objective_cols(cfg, c, a, b), cfg.q, opt)


def estimate_all_distances(
    cfg: DiracConfig, cloud: PointCloud, opt: OptimizerConfig
) -> DistanceMatrix:
    """Simultaneous estimate for every pair: the Chebyshev distance between
    rows of the embedding whose columns are the candidates f the search
    probes, each scaled to unit gradient sup, floored at the chordal distance,
    D_ab = max(|x_a - x_b|, max_f |f(a) - f(b)| / sup_grad(f)).  Refinement
    climbs the global score (range of f) / sup_grad(f), the largest value a
    candidate can deliver to any pair.
    """
    dec = cfg.decomposition
    if cloud.n != dec.n:
        raise InputError(
            f"cloud has {cloud.n} points but decomposition is {dec.n}-dimensional"
        )
    dist = np.array(gram_distances(cloud).matrix)
    if opt.n_samples == 0:
        return DistanceMatrix(dist)

    basis_q = dec.leading(cfg.q)
    cols = []

    def embed_cols(vhat_cols: np.ndarray) -> np.ndarray:
        """Embed the non-degenerate columns; returns their global scores."""
        f_cols = basis_q @ vhat_cols
        sups = _sup_from_dirac_cols(_dirac_squared_cols(cfg, f_cols))
        ok = sups >= GRAD_EPS
        f = f_cols[:, ok] / sups[ok]
        cols.append(f)
        scores = np.full(vhat_cols.shape[1], DEGENERATE)
        scores[ok] = f.max(axis=0) - f.min(axis=0)
        return scores

    _search(embed_cols, cfg.q, opt)
    emb = np.concatenate(cols, axis=1).T.copy()
    diff = np.empty_like(emb)
    for a in range(dec.n):
        np.abs(np.subtract(emb, emb[:, a : a + 1], out=diff), out=diff)
        np.maximum(dist[a], diff.max(axis=0), out=dist[a])
    # freed before DistanceMatrix validates, whose n x n temporaries are
    # this function's memory peak
    del cols, emb, diff
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(dist)


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
    peak = np.max(np.abs(c), initial=0.0)
    if peak == 0.0:
        return 0.0
    return objective(cfg, c / peak, a, b)
