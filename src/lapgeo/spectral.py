"""Eigendecomposition, leading-eigenspace projection, truncation-depth
selection, and spectral error against a reference spectrum.

Conventions: eigenvalues are non-positive; the kernel (zero eigenvalue,
always at least the constants for a graph Laplacian) is stored first,
followed by the non-zero eigenvalues in increasing magnitude, i.e.
lambda_1 >= lambda_2 >= ... in signed order.  Eigenvectors are orthonormal
columns in the same order, each flipped so its first coordinate of
magnitude > 1e-12 is positive; inside a kernel of dimension > 1 their order
is unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoAdmissibleQError, NumericalError
from .types import GraphLaplacian, _check_symmetric

# |eigenvalue| <= ZERO_REL * spectral radius is classified as an exact zero.
ZERO_REL = 1e-9
SIGN_EPS = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full spectrum of a symmetric NSD operator.

    eigenvalues: (n,) non-positive, kernel zeros first, then non-increasing.
    eigenvectors: (n, n) orthonormal columns in matching order.
    kernel_dim: number of zero eigenvalues; rank = n - kernel_dim.
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
    def nonzero_eigenvalues(self) -> np.ndarray:
        """lambda_1 >= lambda_2 >= ... (all < 0); truncation indices q, r count from 1 here."""
        return self.eigenvalues[self.kernel_dim:]

    def kernel(self) -> np.ndarray:
        """Orthonormal basis of the zero eigenspace, (n, kernel_dim)."""
        return self.eigenvectors[:, : self.kernel_dim]

    def leading(self, r: int) -> np.ndarray:
        """First r non-kernel eigenvectors e_1..e_r as columns, (n, r)."""
        if not (1 <= r <= self.rank):
            raise InputError(f"need 1 <= r <= rank={self.rank}, got r={r}")
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


def eigendecompose(operator) -> SpectralDecomposition:
    """Decompose a GraphLaplacian (or a raw symmetric NSD array).

    Raw arrays let analytic model operators that are not finite-sample
    Laplacians (no zero-row-sum structure) share the same code path.
    """
    if isinstance(operator, GraphLaplacian):
        a = operator.matrix
    else:
        a = np.asarray(operator, dtype=float)
        _check_symmetric(a, "operator")
    try:
        w, v = np.linalg.eigh(a)  # ascending: most negative first
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    radius = np.max(np.abs(w)) if w.size else 0.0
    if radius > 0 and w[-1] > ZERO_REL * radius:
        raise NumericalError(
            f"operator is not negative semidefinite: top eigenvalue {w[-1]:.3e}"
        )
    kernel_dim = int(np.count_nonzero(np.abs(w) <= ZERO_REL * radius))
    values = w[::-1].copy()  # NSD: the kernel tops the ascending w, so it leads
    values[:kernel_dim] = 0.0
    vectors = _sign_normalize(v[:, ::-1])
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(values, vectors, kernel_dim)


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
    if not (1 <= r <= dec.rank):
        raise InputError(f"need 1 <= r <= rank={dec.rank}, got r={r}")
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


def _group_by_gaps(values: np.ndarray, rel: float = 1e-6):
    """Split indices 0..len-1 into runs whose consecutive eigenvalues differ
    by less than rel (relative): eigenspaces of multiplicity > 1."""
    groups = [[0]]
    for i in range(1, len(values)):
        prev = values[i - 1]
        if abs(values[i] - prev) <= rel * max(abs(values[i]), abs(prev), 1.0):
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

    Within each reference eigenspace (grouped by relative gaps < 1e-6) the
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
