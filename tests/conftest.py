import csv
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lapgeo as lg

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def circle_decomposition():
    """Graph-Laplacian decomposition of a seeded 30-point circle sample."""
    cloud = lg.sample_uniform_circle(30, seed=5)
    cfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 30 ** -0.25)
    return lg.eigendecompose(lg.build_laplacian(cloud, cfg)), cloud


def circle_laplacian(n, seed=1):
    """Graph Laplacian of n uniform circle samples at h = n^-1/4 / 2."""
    cloud = lg.sample_uniform_circle(n, seed=seed)
    return lg.build_laplacian(cloud, lg.ManifoldConfig(1, 2 * np.pi, 0.5 * n ** -0.25))


@pytest.fixture(scope="session")
def partial_decomposition():
    """Kernel plus the first 4 modes of a 600-point circle Laplacian, from
    the partial solver."""
    dec = lg.eigendecompose(circle_laplacian(600), 4)
    assert dec.partial and dec.held == 4
    return dec


def random_decomposition(rng, n=None, ambient=3):
    """Decomposition of a random small-cloud Laplacian plus its cloud."""
    if n is None:
        n = int(rng.integers(6, 16))
    cloud = lg.PointCloud(rng.normal(size=(n, ambient)))
    cfg = lg.ManifoldConfig(2, 3.0, float(rng.uniform(0.5, 1.5)))
    return lg.eigendecompose(lg.build_laplacian(cloud, cfg)), cloud


def grad_sup_spectral(cfg, vhat):
    """grad_sup through the spectral-coefficient route: triple products
    c_ijk = sum_m e_i[m] e_j[m] e_k[m] weighted by (lambda_k/2 - lambda_j).

    Algebraically identical to the dirac_squared route (two factorizations
    of the same quadratic form); an independent implementation that
    cross-checks lg.grad_sup.
    """
    vhat = lg.validate_candidate(vhat, cfg.q)
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
    return float(np.sqrt(np.maximum(d2, 0.0).max()))


def csv_layout(matrix) -> bytes:
    """The csv module's rendering of a matrix with every entry formatted as
    format(x, ".17g"): the reference for save_distance_matrix."""
    out = StringIO()
    csv.writer(out).writerows([format(x, ".17g") for x in row] for row in matrix)
    return out.getvalue().encode()


def two_step_distance_matrix_accepts(m) -> bool:
    """The earlier two-step DistanceMatrix predicate, kept as a reference:
    NaN, then the finite mask's symmetry, then the finite entries'
    symmetry with the non-finite ones zeroed, then the diagonal, then
    non-negativity."""
    m = np.array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or np.any(np.isnan(m)):
        return False
    finite_mask = np.isfinite(m)
    if not np.array_equal(finite_mask, finite_mask.T):
        return False
    fin_scale = np.max(np.abs(m[finite_mask]), initial=0.0)
    fin = np.where(finite_mask, m, 0.0)
    if np.max(np.abs(fin - fin.T), initial=0.0) > 1e-9 * max(fin_scale, 1e-300):
        return False
    return not (np.any(np.diag(m) != 0.0) or np.any(m < 0))


def difference_squared_distances(points):
    """Squared distances over the whole matrix, summed from coordinate
    differences in coordinate order from zeros, kept as a reference (the
    formula of perfbench's chordal_band)."""
    x = np.asarray(points, dtype=float)
    acc = np.zeros((x.shape[0], x.shape[0]))
    for c in range(x.shape[1]):
        acc += (x[:, c, None] - x[None, :, c]) ** 2
    return acc


def fresh_array_laplacian(cloud, cfg):
    """The earlier build_laplacian arithmetic, kept as a reference: kernel,
    scale and diagonal each into a fresh n x n array."""
    h, d = cfg.bandwidth, cfg.intrinsic_dim
    s = cfg.volume / ((4.0 * np.pi) ** (d / 2) * cloud.n * h ** (2 + d))
    w = np.exp(-difference_squared_distances(cloud.points) / (4.0 * h * h))
    np.fill_diagonal(w, 0.0)
    m = s * w
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def whole_matrix_laplacian_accepts(m) -> bool:
    """The earlier GraphLaplacian predicate, kept as a reference: square,
    finite and symmetric (1e-12 of max|m|), zero row sums (1e-9 of each
    row's max|m_ij|) and Gershgorin discs below 1e-9 max|m|, each test over
    the whole matrix."""
    m = np.array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = np.max(np.abs(m)) if m.size else 0.0
    if not np.isfinite(scale):
        return False
    if scale > 0 and np.max(np.abs(m - m.T)) > 1e-12 * scale:
        return False
    a = np.abs(m)
    if np.any(np.abs(m.sum(axis=1)) > 1e-9 * a.max(axis=1, initial=1e-300)):
        return False
    diag = np.diagonal(m)
    return not np.any(diag + (a.sum(axis=1) - np.abs(diag)) > 1e-9 * scale)
