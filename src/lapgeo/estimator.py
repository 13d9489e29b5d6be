"""Spectral intrinsic-distance estimator.

A candidate function f = E_q vhat is expanded in the leading q
eigenvectors.  Its squared gradient field is approximated by the truncated
Dirac square

    dirac2(f) = 1/2 L P(f * f) - P(f * L f),

where P projects onto Phi, the kernel plus the leading r eigenvectors, and
L P = Phi diag(lambda) Phi^T, the kernel's eigenvalues being exact zeros.  The
kernel component must be kept: it carries the mean of |grad f|^2, without
which the field loses its constant part (for sin theta on the circle the
result would be cos(2 theta)/2 instead of cos^2 theta).  At every point the
square is a quadratic form in the coefficients, dirac2(f)_i = vhat^T G_i vhat,
so the distance estimate for a pair (a, b), Connes' formula truncated to q
modes, is the quadratically constrained program

    max c . vhat  subject to  vhat^T G_i vhat <= 1 at every i,
    c = E_q[a] - E_q[b].

A seedless primal-dual iteration solves it for many pairs in one batch, on
the positive semidefinite parts of the G_i, which each DiracConfig builds
once (DiracConfig.gram_psd): a convex program whose feasible
set lies inside the original one (Lagrangian duality for QCQPs, Boyd &
Vandenberghe 2004, sec. 5; exponentiated gradient, Kivinen & Warmuth
1997).  The all-pairs estimate solves landmark pairs, the landmarks by
farthest-point sampling in the rows of E_q, each paired with the point
chordally farthest from it.  Every solved pair gives
one column of an embedding F, its candidate scaled to unit gradient sup,
and the estimate is the Chebyshev distance between rows of F floored at the
chordal distance: D_ab = max(|x_a - x_b|, max_j |F_aj - F_bj|).  The points
and F encode the whole matrix: DistanceRows gives any rows of it, which the
CSV writer streams without the n x n array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EstimationFailedError, InputError
from .laplacian import squared_distance_rows
from .spectral import SpectralDecomposition
from .types import PointCloud, TruncationParams, validate_candidate

log = logging.getLogger(__name__)

# Objective value marking a degenerate candidate (zero gradient sup with a
# non-zero separation); compares below every admissible value.
DEGENERATE = float("-inf")

NEGATIVITY_TOL = -1e-8
GRAD_EPS = 1e-12

# First exponentiated-gradient rate of the primal-dual solve's point
# weights; step t uses ETA / sqrt(t + 1).
ETA = 2.0

# Relative tolerance of the solver's argmaxes: values this close to the
# maximum tie, and the lowest index (landmarks) or earliest step (a pair's
# best value) wins.
TIE_REL = 1e-9


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

    @cached_property
    def gram_psd(self) -> np.ndarray:
        """_psd_parts(_dirac_gram(self)), read-only: the G+ of every solve
        on this configuration, built and clipped on first use."""
        gram = _psd_parts(_dirac_gram(self))
        gram.setflags(write=False)
        return gram


@dataclass(frozen=True)
class OptimizerConfig:
    """Landmark primal-dual solver settings.

    n_samples >= 1 landmark pairs (at most one per point), each solved by a
    uniform-weight step plus n_refine >= 0 exponentiated-gradient updates.
    seed >= 0 is checked and kept so that callers may pass one, but the
    solver draws nothing: no estimate depends on it.
    """

    n_samples: int = 32
    n_refine: int = 100
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


def _grad_sups(d2_cols: np.ndarray) -> np.ndarray:
    """Column-wise sqrt of the max Dirac-squared coordinate, negatives
    clamped to zero.  Coordinates below NEGATIVITY_TOL are logged in one
    warning, their count and the worst value; each public call scores its
    candidates once, so it logs at most once."""
    worst = d2_cols.min(initial=0.0)
    if worst < NEGATIVITY_TOL:
        log.warning(
            "clamping %d dirac-squared coordinates below %g (worst %g)",
            int(np.count_nonzero(d2_cols < NEGATIVITY_TOL)),
            NEGATIVITY_TOL,
            float(worst),
        )
    return np.sqrt(np.maximum(d2_cols.max(axis=0), 0.0))


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
    return float(_grad_sups(_candidate_cols(cfg, vhat[:, None])[1])[0])


def _objective_cols(
    cfg: DiracConfig, vhat_cols: np.ndarray, a: int, b: int
) -> np.ndarray:
    """Objective for each coefficient column; DEGENERATE where the gradient
    sup vanishes under a non-zero separation."""
    f_cols, d2_cols = _candidate_cols(cfg, vhat_cols)
    numer = np.abs(f_cols[a] - f_cols[b])
    sups = _grad_sups(d2_cols)
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

    vhat is any finite coefficient vector in the decomposition's leading
    basis, e.g. the projection of a sampled target function onto it; the
    candidate scored is vhat / max|vhat|, so the value does not depend on
    the scale of vhat.  Returns 0 when both numerator and gradient vanish,
    DEGENERATE when only the gradient does.
    """
    _check_pair(cfg, a, b)
    vhat = np.asarray(vhat, dtype=float)
    peak = np.max(np.abs(vhat), initial=0.0)
    if 0.0 < peak < np.inf:
        vhat = vhat / peak
    vhat = validate_candidate(vhat, cfg.q)
    return float(_objective_cols(cfg, vhat[:, None], a, b)[0])


def _dirac_gram(cfg: DiracConfig) -> np.ndarray:
    """G, (n, q * q): row i is the q x q matrix G_i with
    dirac2(E_q vhat)_i = vhat^T G_i vhat, built through the projection basis
    Phi of _dirac_squared_cols,
    G_i[k, l] = sum_j Phi_ij (lambda_j / 2 - (lambda_k + lambda_l) / 2)
                (Phi^T (e_k * e_l))_j."""
    dec = cfg.decomposition
    phi = dec.eigenvectors[:, : dec.kernel_dim + cfg.r]
    lam = dec.eigenvalues[: dec.kernel_dim + cfg.r]
    basis_q = dec.leading(cfg.q)
    lam_q = dec.nonzero_eigenvalues[: cfg.q]
    n, q = basis_q.shape
    prods = (basis_q[:, :, None] * basis_q[:, None, :]).reshape(n, q * q)
    half = 0.5 * (lam_q[:, None] + lam_q[None, :]).ravel()
    return phi @ ((0.5 * lam[:, None] - half) * (phi.T @ prods))


def _psd_parts(gram: np.ndarray) -> np.ndarray:
    """The positive semidefinite parts G_i+ of the rows of gram, (n, q * q),
    each G_i's eigenvalues clipped at zero.

    Since v^T G_i v <= v^T G_i+ v, the feasible set of _solve_pairs shrinks
    to a convex one inside the original, so every solution stays feasible,
    and its dual is a convex program whose iteration converges.  On the
    indefinite G_i themselves it did not: the weights oscillated, and a
    1e-14 change of the eigenvectors (another BLAS thread count) moved
    estimates by up to 1e-2."""
    n, qq = gram.shape
    q = int(np.sqrt(qq))
    lam, vec = np.linalg.eigh(gram.reshape(n, q, q))
    return ((vec * np.maximum(lam, 0.0)[:, None, :]) @ vec.transpose(0, 2, 1)).reshape(n, qq)


def _solve_pairs(
    gram: np.ndarray, c: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primal-dual solve of max c_l . v subject to v^T G_i v <= 1 at every
    point i, for each row c_l of c, (L, q), given the positive semidefinite
    parts gram = G+, (n, q * q), of _psd_parts (DiracConfig.gram_psd).

    Weights mu_l on the simplex start uniform.  Step t sets
    M_l = sum_i mu_li G_i+ and w_l = M_l^-1 c_l, scaled to max |w_l| = 1,
    with g_li = w_l^T G_i+ w_l; w_l / sqrt(max g_l) is feasible with value
    |c_l . w_l| / sqrt(max g_l), and weak duality bounds the sup by
    sqrt(c_l^T M_l^-1 c_l).  Then mu_li is multiplied by
    exp(eta_t (g_li / max g_l - 1)), eta_t = ETA / sqrt(t + 1), and
    renormalised: mirror descent on the dual c^T M^-1 c, whose gradient is
    -g, moving weight to the points where w_l's gradient peaks.  A value
    replaces the best so far only when it is larger by more than TIE_REL
    (relative).  A pair leaves the iteration for good when c_l = 0, when
    M_l is not positive definite, or when max g_l is at most GRAD_EPS^2 (a
    degenerate candidate); its weights could not move again.  Returns, per
    pair, the best value (DEGENERATE where no step gave one), its
    coefficient column w_l (q, L; zero where none) and the smallest bound
    (inf where M_l was never positive definite), after one uniform-weight
    step and `steps` updates.  Seedless and deterministic.
    """
    n = gram.shape[0]
    n_pairs, q = c.shape
    value = np.full(n_pairs, DEGENERATE)
    cols = np.zeros((n_pairs, q))
    bound = np.full(n_pairs, np.inf)
    live = np.flatnonzero(np.any(c != 0.0, axis=1))
    mu = np.full((live.size, n), 1.0 / n)
    for step in range(steps + 1):
        m = (mu @ gram).reshape(-1, q, q)
        eig = np.linalg.eigvalsh(m)
        keep = eig[:, 0] > q * np.finfo(float).eps * eig[:, -1]
        if not keep.all():
            live, mu, m = live[keep], mu[keep], m[keep]
        if not live.size:
            break
        w = np.linalg.solve(m, c[live, :, None])[:, :, 0]
        bound[live] = np.minimum(bound[live], np.sqrt(np.einsum("lk,lk->l", c[live], w)))
        w /= np.abs(w).max(axis=1, keepdims=True)
        g = (w[:, :, None] * w[:, None, :]).reshape(live.size, q * q) @ gram.T
        gmax = g.max(axis=1)
        keep = gmax > GRAD_EPS * GRAD_EPS
        if not keep.all():
            live, mu, w, g, gmax = live[keep], mu[keep], w[keep], g[keep], gmax[keep]
        val = np.abs(np.einsum("lk,lk->l", c[live], w)) / np.sqrt(gmax)
        better = val > value[live] * (1.0 + TIE_REL)
        value[live[better]] = val[better]
        cols[live[better]] = w[better]
        if step == steps or not live.size:
            break
        # in place, and without the constant factor exp(-eta_t), which the
        # normalisation cancels
        g *= (ETA / np.sqrt(step + 1.0) / gmax)[:, None]
        mu *= np.exp(g, out=g)
        mu /= mu.sum(axis=1, keepdims=True)
    return value, cols.T, bound


def _first_near_max(d: np.ndarray) -> int:
    """The lowest index whose value is within TIE_REL (relative) of the
    maximum: rounding that moves near-ties cannot move the choice."""
    top = d.max()
    return int(np.argmax(d >= top - TIE_REL * top))


def _row_distances(x: np.ndarray, i: int) -> np.ndarray:
    """Euclidean distances from row i of x to each row, by squared_distance_rows."""
    d2 = squared_distance_rows(x, slice(i, i + 1), 0, np.zeros((1, x.shape[0])))[0]
    return np.sqrt(d2, out=d2)


def _landmark_pairs(
    basis_q: np.ndarray, points: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """count landmark pairs (a, b): the a by farthest-point sampling in the
    rows of E_q from point 0, each b the point farthest from its a in
    chordal distance; both argmaxes take _first_near_max."""
    near = np.full(basis_q.shape[0], np.inf)
    a = np.zeros(count, dtype=np.intp)
    for k in range(count):
        np.minimum(near, _row_distances(basis_q, a[k]), out=near)
        if k + 1 < count:
            a[k + 1] = _first_near_max(near)
    b = np.array([_first_near_max(_row_distances(points, i)) for i in a], dtype=np.intp)
    return a, b


def _solved_candidates(
    cfg: DiracConfig, c: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The admissible candidates of the pairs with rows c, (L, q): each
    pair's best column from _solve_pairs with `steps` updates, scored once.
    Returns their sample values f, (n, m), and gradient sups, (m,), keeping
    the m columns whose solve found a value and whose sup is at least
    GRAD_EPS; EstimationFailedError if none is left."""
    value, cols, _ = _solve_pairs(cfg.gram_psd, c, steps)
    f_cols, d2_cols = _candidate_cols(cfg, cols[:, value != DEGENERATE])
    sups = _grad_sups(d2_cols)
    ok = sups >= GRAD_EPS
    if not ok.any():
        raise EstimationFailedError("no solved pair gave an admissible candidate")
    return f_cols[:, ok], sups[ok]


def estimate_distance(
    cfg: DiracConfig, a: int, b: int, opt: OptimizerConfig
) -> float:
    """Estimated intrinsic distance between samples a and b: |f(a) - f(b)|
    over the gradient sup of the pair's solved candidate f
    (_solved_candidates with opt.n_refine updates); 0 when E_q does not
    separate the two samples, EstimationFailedError when the solve gives no
    admissible candidate.  No chordal floor is applied, so unlike
    estimate_distance_rows the result can fall below the Euclidean
    distance between the two samples."""
    _check_pair(cfg, a, b)
    basis_q = cfg.decomposition.leading(cfg.q)
    c = basis_q[a] - basis_q[b]
    if not np.any(c):
        return 0.0
    f_cols, sups = _solved_candidates(cfg, c[None, :], opt.n_refine)
    return float(np.abs(f_cols[a, 0] - f_cols[b, 0]) / sups[0])


@dataclass(frozen=True)
class DistanceRows:
    """The all-pairs estimate as its encoding: the cloud's points, (n, N),
    and the embedding F, one column per row, (m, n).  rows() gives any rows
    of D_ab = max(|x_a - x_b|, max_j |F_aj - F_bj|), so no n x n array is
    needed to write D; save_distance_matrix takes it as it takes a
    DistanceMatrix."""

    points: np.ndarray
    embedding: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def rows(self, a: int, b: int) -> np.ndarray:
        """Rows a..b of D, (b - a, n), a fresh array.  The chordal part is
        squared_distance_rows; the floor takes one np.maximum per embedding
        column.  The maximum is exact and fl(x - y) = -fl(y - x), so every
        entry has the same bits in whichever rows it is computed, and D is
        exactly symmetric: rows(0, n) is the whole matrix."""
        out = np.zeros((b - a, self.n))
        np.sqrt(squared_distance_rows(self.points, slice(a, b), 0, out), out=out)
        diff = np.empty_like(out)
        for col in self.embedding:
            np.subtract(col[a:b, None], col[None, :], out=diff)
            np.abs(diff, out=diff)
            np.maximum(out, diff, out=out)
        return out


def estimate_distance_rows(
    cfg: DiracConfig, cloud: PointCloud, opt: OptimizerConfig
) -> DistanceRows:
    """Simultaneous estimate for every pair, as DistanceRows: the Chebyshev
    distance between rows of the embedding whose columns are the solved
    landmark pairs' candidates f, each scaled to unit gradient sup, floored
    at the chordal distance, D_ab = max(|x_a - x_b|, max_f |f(a) - f(b)| /
    sup_grad(f)).  Identical points take the first one's row of f, so they
    are exactly 0 apart.  min(opt.n_samples, n) landmark pairs
    (_landmark_pairs) are solved in one batch with opt.n_refine updates.
    Nothing n x n is built."""
    dec = cfg.decomposition
    if cloud.n != dec.n:
        raise InputError(
            f"cloud has {cloud.n} points but decomposition is {dec.n}-dimensional"
        )
    basis_q = dec.leading(cfg.q)
    a, b = _landmark_pairs(basis_q, cloud.points, min(opt.n_samples, dec.n))
    f_cols, sups = _solved_candidates(cfg, basis_q[a] - basis_q[b], opt.n_refine)
    _, first, same = np.unique(cloud.points, axis=0, return_index=True, return_inverse=True)
    emb = (f_cols[first[same]] / sups).T.copy()
    emb.setflags(write=False)
    return DistanceRows(cloud.points, emb)


# objective under the name that scores a plug-in coefficient vector
oracle_plugin_estimate = objective
