"""Eigendecomposition, leading-eigenspace projection, truncation-depth
selection, and spectral error against a reference spectrum.

Conventions: eigenvalues are non-positive; the kernel (zero eigenvalue,
always at least the constants for a graph Laplacian) is stored first,
followed by the non-zero eigenvalues in increasing magnitude, i.e.
lambda_1 >= lambda_2 >= ... in signed order.  Eigenvectors are orthonormal
columns in the same order, each flipped so its first coordinate of
magnitude > 1e-12 is positive; inside a kernel of dimension > 1 their order
is unspecified.

eigendecompose(operator) holds every mode; eigendecompose(operator, r)
holds the kernel and the first min(r, rank) non-kernel modes, whichever
solver runs, counting as kernel the eigenvalues within ZERO_REL * rho of
zero.  With r, they come from Chebyshev-filtered subspace iteration
(Zhou & Saad 2007): a counter-based Gaussian block (_start_block) of
r + kernel + GUARD columns is filtered by a Chebyshev polynomial that
damps [-rho, c], where rho bounds the spectral radius and c is the
block's lowest Ritz value, then orthonormalised (QR) and rotated onto
its Ritz vectors (Rayleigh-Ritz), until every wanted column's residual
|A x - theta x| is at most
RESIDUAL_REL * rho.  For a GraphLaplacian rho is its radius: the Gaussian
kernel's bound for a build_laplacian output (on circle samples about half
the Gershgorin bound, and at most 2e-4 above the true radius), the
Gershgorin bound otherwise; for a raw array it is the largest absolute row
sum.  The first sweep's filter has degree DEGREE; each later one only the
degree its growth above c needs to bring the slowest wanted column's
residual to the tolerance, and at most DEGREE.  Where the block is not much
smaller than n the dense solver is faster and runs instead, and keeps the
same leading columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoAdmissibleQError, NumericalError
from .types import GraphLaplacian, _check_symmetric

# |eigenvalue| <= ZERO_REL * spectral radius is classified as an exact zero.
ZERO_REL = 1e-9
SIGN_EPS = 1e-12

# The partial solver's block carries GUARD columns beyond the wanted ones;
# it runs only where n >= CROSSOVER * block columns.  Against eigh on
# circle Laplacians (2-core host), the filter took 0.8 to 1.4 times eigh's
# time at n / block columns from 14 to 21, 0.6 to 1.0 times from 23 to 29,
# and 0.4 to 0.8 times above 30, unless the wanted modes reach into a
# dense part of the spectrum (r = 40 at n = 1500: 3.5 times).
GUARD = 8
CROSSOVER = 25
# Filter degree of the first sweep, and the most any later sweep takes: 16
# took the fewest matrix products at n = 1000 and 2000 against 12, 24 and
# 32.
DEGREE = 16
# A block of k columns that has not converged after n // (SWEEP_COST * k)
# sweeps goes to eigh.  On the 2-core host eigh took as long as 4.2 to 6.8
# sweeps at n / k from 25 to 31 and 7 to 13 up to n / k = 154, so near the
# crossover, where blocks fail to converge, the cap spends one to two
# eighs.  A tighter cap stops blocks that do converge: a restarted
# 48-column block holding a 25-dimensional kernel needs 8 sweeps at
# n / k = 26.  (The fixed cap of 30 spent 6 eighs on r = 30 at n = 1000.)
SWEEP_COST = 3
# Residual tolerance relative to rho.  With the last sweep sized to it,
# 1e-13 cost 0 to 4 more products than 1e-12 on ten 1000-point circles at
# r = 12, and kept lapgeo estimate within 4e-13 of its output under
# full-degree sweeps over the Gershgorin interval; at 1e-12 one of 12 such
# inputs moved by 3.0e-12.
RESIDUAL_REL = 1e-13
# A block whose Ritz values all lie within STALL_REL * rho of zero sits in
# the kernel (or a cluster at zero) and cannot converge: a sweep's filter
# of degree d <= DEGREE then gains at most T_d(1 + 2e-3) at zero over
# [-rho, c], 1.56 at d = 16.
STALL_REL = 1e-3


@dataclass(frozen=True)
class SpectralDecomposition:
    """The kernel and the leading non-kernel modes of a symmetric NSD
    operator: every mode (a full spectrum), or the first min(r, rank) of
    them for eigendecompose(operator, r).

    eigenvalues: (m,) non-positive, kernel zeros first, then non-increasing.
    eigenvectors: (n, m) orthonormal columns in matching order.
    kernel_dim: number of zero eigenvalues of the operator; n and
    rank = n - kernel_dim are exact whatever m is.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def rank(self) -> int:
        return self.n - self.kernel_dim

    @property
    def held(self) -> int:
        """Non-kernel modes held: rank for a full spectrum, fewer for a
        partial one."""
        return self.eigenvalues.shape[0] - self.kernel_dim

    @property
    def partial(self) -> bool:
        """True when some non-kernel mode is not held."""
        return self.held < self.rank

    def check_r(self, r: int) -> None:
        """Reject a truncation depth r outside 1..held."""
        if not (1 <= r <= self.held):
            held = "rank" if not self.partial else "non-kernel modes held"
            raise InputError(f"need 1 <= r <= {held} = {self.held}, got r={r}")

    @property
    def nonzero_eigenvalues(self) -> np.ndarray:
        """lambda_1 >= lambda_2 >= ... (all < 0); truncation indices q, r count from 1 here."""
        return self.eigenvalues[self.kernel_dim:]

    def leading(self, r: int) -> np.ndarray:
        """First r non-kernel eigenvectors e_1..e_r as columns, (n, r)."""
        self.check_r(r)
        return self.eigenvectors[:, self.kernel_dim : self.kernel_dim + r]


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first coordinate with |.| > SIGN_EPS is positive;
    a column with no such coordinate is left as it is."""
    if vectors.size == 0:
        return vectors.copy()
    big = np.abs(vectors) > SIGN_EPS
    first = vectors[np.argmax(big, axis=0), np.arange(vectors.shape[1])]
    flip = np.where(big.any(axis=0) & (first < 0), -1.0, 1.0)
    # C order whatever the input's: later products round by memory layout
    return np.multiply(vectors, flip, order="C")


def eigendecompose(operator, r: int | None = None) -> SpectralDecomposition:
    """Decompose a GraphLaplacian (or a raw symmetric NSD array).

    Raw arrays let analytic model operators that are not finite-sample
    Laplacians (no zero-row-sum structure) share the same code path.

    With r given, the result holds the kernel and the first min(r, rank)
    non-kernel modes, from the partial solver; where that solver does not
    apply (block not much smaller than n, no convergence within the sweep
    cap) the dense solver runs and the result is the leading columns of
    eigendecompose(operator), bit for bit.
    """
    if isinstance(operator, GraphLaplacian):
        a, rho = operator.matrix, operator.radius
    else:
        a = np.asarray(operator, dtype=float)
        _check_symmetric(a, "operator")
        rho = float(np.max(np.abs(a).sum(axis=1), initial=0.0))
    if r is not None:
        if r < 1:
            raise InputError(f"need r >= 1, got r={r}")
        dec = _partial(a, r, rho)
        if dec is not None:
            return dec
    try:
        w, v = np.linalg.eigh(a)  # ascending: most negative first
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    _check_nsd(w[-1] if w.size else 0.0, rho)
    kernel_dim = int(np.count_nonzero(np.abs(w) <= ZERO_REL * rho))
    m = None if r is None else kernel_dim + r
    # NSD: the kernel tops the ascending w, so it leads
    return _freeze(w[::-1][:m], v[:, ::-1][:, :m], kernel_dim)


def _check_nsd(top: float, radius: float) -> None:
    if radius > 0 and top > ZERO_REL * radius:
        raise NumericalError(
            f"operator is not negative semidefinite: top eigenvalue {top:.3e}"
        )


def _freeze(values: np.ndarray, vectors: np.ndarray, kernel_dim: int) -> SpectralDecomposition:
    """Decomposition from kernel-first values and vectors: kernel values
    snapped to 0, vectors sign-normalised, both owned and read-only."""
    values = values.copy()
    values[:kernel_dim] = 0.0
    vectors = _sign_normalize(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(values, vectors, kernel_dim)


def _partial(a: np.ndarray, r: int, rho: float) -> SpectralDecomposition | None:
    """The kernel plus the first r non-kernel modes of a, whose spectrum
    lies in [-rho, 0], or None where the dense solver must run instead.

    The block starts with one kernel column in mind.  When the kernel takes
    more of it, so that fewer than r non-kernel modes are among the wanted
    columns, it restarts from its Ritz vectors with as many fresh columns
    as it found kernel ones: every column when the kernel fills it.
    """
    n = a.shape[0]
    kernel = 1
    x = np.empty((n, 0))
    while rho > 0.0 and CROSSOVER * (r + kernel + GUARD) <= n:
        k = r + kernel + GUARD
        x = np.hstack([x, _start_block(n, x.shape[1], k)])
        solved = _filtered_block(a, x, k - GUARD, rho)
        if solved is None:
            return None
        theta, x, converged = solved  # theta ascending
        _check_nsd(theta[-1], rho)  # a Ritz value never exceeds the top eigenvalue
        if not converged:
            kernel += k
            continue
        kernel_dim = int(np.count_nonzero(np.abs(theta[GUARD:]) <= ZERO_REL * rho))
        if kernel_dim + r <= k - GUARD:
            top = slice(k - kernel_dim - r, k)
            return _freeze(theta[top][::-1], x[:, top][:, ::-1], kernel_dim)
        kernel += kernel_dim
    return None


# SplitMix64 (Steele, Lea & Flood 2014): the k-th output of the generator
# seeded with 0 mixes (k + 1) * GAMMA
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _splitmix64(k: np.ndarray) -> np.ndarray:
    """Output k of SplitMix64 from seed 0, for each uint64 counter k."""
    z = (k + np.uint64(1)) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX[0]
    z ^= z >> np.uint64(27)
    z *= _MIX[1]
    z ^= z >> np.uint64(31)
    return z


def _start_block(n: int, lo: int, hi: int) -> np.ndarray:
    """Columns lo..hi of the partial solver's n-row start block: standard
    normal entries, entry (i, j) from counter c = j n + i by Box-Muller,
    sqrt(-2 ln u) cos(2 pi v) with u, v in (0, 1] the top 53 bits of
    SplitMix64 outputs 2c and 2c + 1.  A column depends only on n and its
    index, so the columns a restart adds are those of a wider block, and no
    stream of numpy.random, whose bits may change between releases, is
    involved."""
    c = np.arange(lo * n, hi * n, dtype=np.uint64)
    bits = _splitmix64(np.stack([2 * c, 2 * c + np.uint64(1)]))
    u, v = ((bits >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    return (np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)).reshape(hi - lo, n).T


def _filtered_block(a: np.ndarray, x: np.ndarray, want: int, rho: float):
    """Chebyshev-filtered subspace iteration from the block x.

    Returns the ascending Ritz values, the Ritz vectors and True once the
    top `want` columns have residual <= RESIDUAL_REL * rho; the same with
    False once the block stalls at zero (every Ritz value within
    STALL_REL * rho of it); None after n // (SWEEP_COST * k) sweeps of
    the k columns, which cost about one eigh."""
    tol = RESIDUAL_REL * rho
    theta, x, _ = _rayleigh_ritz(a, x)
    degree = DEGREE
    for _ in range(a.shape[0] // (SWEEP_COST * x.shape[1])):
        theta, x, ax = _rayleigh_ritz(a, _chebyshev_filter(a, x, rho, theta[0], degree))
        if theta[0] >= -STALL_REL * rho:
            return theta, x, False
        ax -= x * theta
        res = np.linalg.norm(ax[:, -want:], axis=0)
        if np.all(res <= tol):
            return theta, x, True
        degree = _next_degree(theta, res / tol, rho)
    return None


def _next_degree(theta: np.ndarray, excess: np.ndarray, rho: float) -> int:
    """Degree of the next filter of [-rho, theta[0]]: enough for the
    slowest of the top columns, whose residuals are excess times the
    tolerance, and at most DEGREE.

    The filter of degree d multiplies a column at Ritz value theta against
    the spectrum it damps by about T_d(x) = cosh(d acosh x), with
    x = (theta - center) / half > 1, so a residual excess times too large
    needs d >= acosh(excess) / acosh(x); one more degree covers the error of
    that estimate."""
    c = theta[0]
    x = (theta[-excess.size:] - 0.5 * (c - rho)) / (0.5 * (c + rho))
    if np.min(x) <= 1.0:  # a wanted value at c: the filter cannot lift it
        return DEGREE
    need = np.arccosh(np.maximum(excess, 1.0)) / np.arccosh(x)
    return int(min(DEGREE, np.ceil(np.max(need)) + 1))


def _rayleigh_ritz(a: np.ndarray, x: np.ndarray):
    """Ritz values (ascending), Ritz vectors and a times them, for the span
    of the columns of x."""
    q, _ = np.linalg.qr(x)
    aq = a @ q
    theta, s = np.linalg.eigh(q.T @ aq)
    return theta, q @ s, aq @ s


def _chebyshev_filter(
    a: np.ndarray, x: np.ndarray, rho: float, c: float, degree: int
) -> np.ndarray:
    """p(a) x for the Chebyshev polynomial of the given degree on [-rho, c],
    scaled to p(0) = 1: bounded by 1 in magnitude on [-rho, c] and
    growing fast above c, where the kernel and the leading modes lie
    (the scaled three-term recurrence of Zhou & Saad 2007)."""
    half = 0.5 * (c + rho)
    center = 0.5 * (c - rho)
    sigma = half / -center
    tau = 2.0 / sigma
    y = (a @ x - center * x) * (sigma / half)
    for _ in range(degree - 1):
        sigma_next = 1.0 / (tau - sigma)
        y_next = (a @ y - center * y) * (2.0 * sigma_next / half) - (sigma * sigma_next) * x
        x, y, sigma = y, y_next, sigma_next
    return y


def project_leading(dec: SpectralDecomposition, v: np.ndarray, r: int) -> np.ndarray:
    """Orthogonal projection of v onto span(e_1..e_r), kernel excluded."""
    basis = dec.leading(r)
    v = np.asarray(v, dtype=float)
    return basis @ (basis.T @ v)


def check_epsilon(epsilon: float) -> None:
    """Reject a select_q slack that is negative, infinite or NaN."""
    if not (0 <= epsilon < np.inf):
        raise InputError(f"epsilon must be finite and >= 0, got {epsilon}")


def select_q(dec: SpectralDecomposition, r: int, epsilon: float = 0.0) -> int:
    """Largest q >= 1 with 2|lambda_q| + epsilon < |lambda_r| (strict).

    Raises NoAdmissibleQError when the feasible set is empty; the caller
    decides whether to lower epsilon or raise r.
    """
    dec.check_r(r)
    check_epsilon(epsilon)
    mags = np.abs(dec.nonzero_eigenvalues)
    # |lambda_q| is non-decreasing in q, so scan from r downward.
    for q in range(r, 0, -1):
        if 2.0 * mags[q - 1] + epsilon < mags[r - 1]:
            return q
    raise NoAdmissibleQError(
        f"2|lambda_q| + {epsilon} < |lambda_r| = {mags[r - 1]:.6g} fails for every "
        f"q in 1..{r} (smallest magnitude {mags[0]:.6g})"
    )


@dataclass(frozen=True)
class SpectralError:
    """Worst eigenpair deviation from a reference over the first r pairs."""

    value: float
    r: int


# Relative gap up to which consecutive reference eigenvalues are one eigenspace.
GAP_REL = 1e-6


def _group_by_gaps(values: np.ndarray):
    """Split indices 0..len-1 into runs whose consecutive eigenvalues differ
    by at most GAP_REL (relative): eigenspaces of multiplicity > 1."""
    groups = [[0]]
    for i in range(1, len(values)):
        prev = values[i - 1]
        if abs(values[i] - prev) <= GAP_REL * max(abs(values[i]), abs(prev), 1.0):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def spectral_error(
    dec: SpectralDecomposition,
    reference_eigenvalues,
    reference_eigenvectors_at_samples,
    r: int,
) -> SpectralError:
    """max over i <= r of max(|lambda_hat_i - lambda_i|, sup-norm eigenvector
    deviation), after aligning within reference eigenspaces.

    Within each reference eigenspace (grouped by relative gaps <= GAP_REL) the
    computed eigenvectors are rescaled to the reference column norm and
    rotated onto the reference by orthogonal Procrustes: multiplicity > 1
    leaves individual eigenvectors defined only up to rotation, and the
    scale absorbs the discrete-vs-function normalization of references
    evaluated at sample points.
    """
    ref_vals = np.asarray(reference_eigenvalues, dtype=float)[:r]
    ref_vecs = np.asarray(reference_eigenvectors_at_samples, dtype=float)[:, :r]
    if ref_vals.shape[0] < r or ref_vecs.shape[1] < r:
        raise InputError(f"reference must provide at least r={r} eigenpairs")
    computed = dec.leading(r)
    lam = dec.nonzero_eigenvalues[:r]

    err = float(np.max(np.abs(lam - ref_vals)))
    for group in _group_by_gaps(ref_vals):
        idx = np.array(group)
        ref_block = ref_vecs[:, idx]
        comp_block = computed[:, idx]
        sigma = float(np.mean(np.linalg.norm(ref_block, axis=0)))
        u, _, vt = np.linalg.svd(comp_block.T @ ref_block)
        aligned = sigma * (comp_block @ (u @ vt))
        err = max(err, float(np.max(np.abs(aligned - ref_block))))
    return SpectralError(value=err, r=r)


def operator_from_modes(eigenvalues, modes) -> np.ndarray:
    """Dense symmetric NSD operator with the given eigenvalues on the span
    of the given mode columns and zero elsewhere.

    Modes are symmetrically orthonormalized first (exactly orthogonal
    columns only get rescaled, so analytic bases on equally spaced samples
    stay axis-aligned).  Feed the result to eigendecompose to get a
    decomposition of an analytic model spectrum.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    m = np.asarray(modes, dtype=float)
    if m.ndim != 2 or lam.shape != (m.shape[1],):
        raise InputError("modes must be (n, k) with k matching eigenvalues")
    if np.any(lam > 0):
        raise InputError("eigenvalues must be non-positive")
    gram = m.T @ m
    s, u = np.linalg.eigh(gram)
    if s[0] <= 1e-12 * s[-1]:
        raise NumericalError("modes are numerically dependent; cannot orthonormalize")
    ortho = m @ (u @ np.diag(1.0 / np.sqrt(s)) @ u.T)
    return (ortho * lam) @ ortho.T
