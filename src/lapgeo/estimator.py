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
coordinate-wise pattern refinement.
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


def grad_sup_spectral(cfg: DiracConfig, vhat) -> float:
    """grad_sup through the spectral-coefficient route: triple products
    c_ijk = sum_m e_i[m] e_j[m] e_k[m] weighted by (lambda_k/2 - lambda_j).

    Algebraically identical to the dirac_squared route (two factorizations
    of the same quadratic form); kept as an independent implementation for
    cross-checking.
    """
    vhat = validate_candidate(vhat, cfg.q)
    dec = cfg.decomposition
    basis_q = dec.leading(cfg.q)
    lam_q = dec.nonzero_eigenvalues[: cfg.q]
    # projection basis: kernel plus leading r, with their eigenvalues
    proj = np.hstack([dec.kernel(), dec.leading(cfg.r)])
    lam_proj = np.concatenate(
        [np.zeros(dec.kernel_dim), dec.nonzero_eigenvalues[: cfg.r]]
    )
    triple = np.einsum("mi,mj,mk->ijk", basis_q, basis_q, proj)
    weights = 0.5 * lam_proj[None, :] - lam_q[:, None]  # (j, k)
    coeffs = np.einsum("i,j,jk,ijk->k", vhat, vhat, weights, triple)
    d2 = proj @ coeffs
    return float(_sup_from_dirac_cols(d2[:, None])[0])


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


def _pattern_search(score, start: np.ndarray, opt: OptimizerConfig):
    """Greedy coordinate descent with step halving inside the box.

    score maps a coefficient vector to a float; returns (best vector,
    best value, all probed values).  Deterministic.
    """
    cur = start.copy()
    cur_val = score(cur)
    probed = [cur_val]
    step = opt.step0
    for _ in range(opt.n_refine):
        improved = False
        for k in range(cur.shape[0]):
            for sign in (1.0, -1.0):
                cand = cur.copy()
                cand[k] = np.clip(cand[k] + sign * step, -1.0, 1.0)
                if cand[k] == cur[k]:
                    continue
                val = score(cand)
                probed.append(val)
                if val > cur_val:
                    cur, cur_val = cand, val
                    improved = True
        if not improved:
            step *= 0.5
    return cur, cur_val, probed


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
    cand = _mc_candidates(cfg.q, opt)
    if cand.shape[1] == 0:
        raise EstimationFailedError("no candidates: n_samples is 0")
    vals = _objective_cols(cfg, cand, a, b)
    best = float(vals.max())
    order = np.argsort(vals, kind="stable")[::-1][: opt.keep_top]
    for idx in order:
        if vals[idx] == DEGENERATE:
            continue
        _, _, probed = _pattern_search(
            lambda v: float(_objective_cols(cfg, v[:, None], a, b)[0]),
            cand[:, idx],
            opt,
        )
        best = max(best, max(probed))
    if best == DEGENERATE:
        raise EstimationFailedError(
            "every candidate was degenerate (zero gradient sup)"
        )
    return best


def estimate_all_distances(
    cfg: DiracConfig, cloud: PointCloud, opt: OptimizerConfig
) -> DistanceMatrix:
    """Simultaneous estimate for every pair.

    Starts from the Euclidean matrix and applies the max-update
    D_ab = max(D_ab, |f(a) - f(b)| / sup_grad(f)) for every candidate in
    the shared stream, so each entry is at least Euclidean and at least the
    best value any probed candidate achieved for that pair.  Refinement
    climbs the global score (range of f) / sup_grad(f), the largest update
    a candidate can deliver.
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

    def apply_updates(vhat_cols: np.ndarray) -> np.ndarray:
        """Max-update dist with every valid column; returns global scores."""
        f_cols = basis_q @ vhat_cols
        sups = _sup_from_dirac_cols(_dirac_squared_cols(cfg, f_cols))
        scores = np.full(vhat_cols.shape[1], DEGENERATE)
        for j in range(vhat_cols.shape[1]):
            if sups[j] < GRAD_EPS:
                continue
            f = f_cols[:, j] / sups[j]
            np.maximum(dist, np.abs(f[:, None] - f[None, :]), out=dist)
            scores[j] = f.max() - f.min()
        return scores

    cand = _mc_candidates(cfg.q, opt)
    scores = apply_updates(cand)
    if np.all(scores == DEGENERATE):
        raise EstimationFailedError(
            "every candidate was degenerate (zero gradient sup)"
        )
    order = np.argsort(scores, kind="stable")[::-1][: opt.keep_top]
    for idx in order:
        if scores[idx] == DEGENERATE:
            continue
        _pattern_search(
            lambda v: float(apply_updates(v[:, None])[0]), cand[:, idx], opt
        )
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
