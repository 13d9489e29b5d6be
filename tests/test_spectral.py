import warnings

import numpy as np
import pytest

import lapgeo as lg
import lapgeo.spectral as spectral
from lapgeo.errors import InputError, NoAdmissibleQError, NumericalError
from lapgeo.spectral import (
    SIGN_EPS,
    _group_by_gaps,
    _sign_normalize,
    operator_from_modes,
    project_leading,
)

from conftest import circle_laplacian, random_decomposition


def _diag_operator(values):
    return np.diag(np.asarray(values, dtype=float))


class TestEigendecompose:
    def test_two_point_example(self):
        dec = lg.eigendecompose(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        assert np.array_equal(dec.eigenvalues, [0.0, -2.0])
        assert dec.kernel_dim == 1
        assert dec.rank == 1
        # sign convention: first nonzero coordinate positive
        assert np.allclose(dec.eigenvectors[:, 1], [np.sqrt(0.5), -np.sqrt(0.5)])
        # a column with no coordinate above SIGN_EPS keeps its signs
        tiny = -0.5 * SIGN_EPS
        cols = np.array([[tiny, tiny, -1.0], [tiny, -2.0, 3.0]])
        assert np.array_equal(
            _sign_normalize(cols), [[tiny, -tiny, 1.0], [tiny, 2.0, -3.0]]
        )

    def test_zero_operator(self):
        dec = lg.eigendecompose(np.zeros((3, 3)))
        assert dec.kernel_dim == 3
        assert dec.rank == 0
        assert np.array_equal(dec.eigenvalues, np.zeros(3))
        assert lg.eigendecompose(np.zeros((0, 0))).eigenvectors.shape == (0, 0)

    def test_kernel_first_then_increasing_magnitude(self):
        dec = lg.eigendecompose(_diag_operator([0.0, -3.0, -1.0, -2.0]))
        assert np.array_equal(dec.eigenvalues, [0.0, -1.0, -2.0, -3.0])

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(7)
        dec, _ = random_decomposition(rng, n=6)
        v = dec.eigenvectors
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6))
        sym = a + a.T
        w = np.linalg.eigvalsh(sym)
        nsd = sym - (w[-1] + 1.0) * np.eye(6)
        dec = lg.eigendecompose(nsd)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        scale = np.max(np.abs(nsd))
        assert np.max(np.abs(rebuilt - nsd)) <= 1e-8 * scale

    def test_rejects_positive_eigenvalue(self):
        with pytest.raises(NumericalError):
            lg.eigendecompose(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_operator_is_input_error(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            with pytest.raises(InputError, match="finite"):
                lg.eigendecompose(np.array([[bad, 0.0], [0.0, -1.0]]))

    def test_two_clusters_kernel_first(self):
        rng = np.random.default_rng(4)
        pts = 0.3 * rng.normal(size=(40, 2))
        pts[20:, 0] += 100.0  # no kernel weight crosses the gap
        cloud = lg.PointCloud(pts)
        op = lg.build_laplacian(cloud, lg.ManifoldConfig(2, 1.0, 0.5))
        dec = lg.eigendecompose(op)
        assert dec.kernel_dim == 2
        assert np.all(dec.eigenvalues[:2] == 0.0)
        assert np.all(dec.eigenvalues[2:] < 0.0)
        assert np.all(np.diff(dec.eigenvalues[2:]) <= 0.0)
        indicators = np.zeros((40, 2))
        indicators[:20, 0] = indicators[20:, 1] = 1.0 / np.sqrt(20)
        kernel = dec.kernel()
        assert np.max(np.abs(kernel @ kernel.T - indicators @ indicators.T)) <= 1e-12

    def test_near_zero_snapped_exactly(self):
        dec = lg.eigendecompose(_diag_operator([-1e-15, -1.0]))
        assert dec.eigenvalues[0] == 0.0
        assert dec.kernel_dim == 1


def _cluster_sines(dense, part):
    """Sine of the largest angle between the dense and the partial
    subspace of each whole eigen-cluster (relative gaps < 1e-6, as in
    spectral_error) among the modes the partial decomposition holds."""
    m = part.eigenvalues.shape[0]
    sines = []
    for group in _group_by_gaps(dense.eigenvalues[: m + 1]):
        if group[-1] < m:  # a cluster the truncation splits has no partial twin
            u, v = dense.eigenvectors[:, group], part.eigenvectors[:, group]
            sines.append(np.linalg.norm(v - u @ (u.T @ v), 2))
    return np.array(sines)


class TestPartialEigendecompose:
    def _check_against_dense(self, op, r, rho, kernel_dim):
        part = lg.eigendecompose(op, r)
        dense = lg.eigendecompose(op)
        m = kernel_dim + r
        assert part.partial and part.held == r
        assert (part.n, part.rank, part.kernel_dim) == (dense.n, dense.rank, kernel_dim)
        assert part.eigenvalues.shape == (m,) and part.eigenvectors.shape == (part.n, m)
        assert np.all(part.eigenvalues[:kernel_dim] == 0.0)
        assert np.max(np.abs(part.eigenvalues - dense.eigenvalues[:m])) <= 1e-12 * rho
        sines = _cluster_sines(dense, part)
        assert sines.size >= r // 2 and np.max(sines) <= 1e-9
        assert np.allclose(part.eigenvectors.T @ part.eigenvectors, np.eye(m), atol=1e-12)

    def test_circle_laplacian_matches_dense(self):
        op = circle_laplacian(1000)
        self._check_against_dense(op, 12, 2.0 * np.max(np.abs(np.diagonal(op.matrix))), 1)

    def test_raw_operator_matches_dense(self):
        # exact pairs -k^2 up to a bulk at -100, and a kernel of dimension 2:
        # the constants and cos(500 theta), which 998 modes leave out
        vals, modes = lg.analytic_eigenbasis(lg.equally_spaced_angles(1000), 998)
        op = operator_from_modes(np.maximum(vals, -100.0), modes)
        self._check_against_dense(op, 12, np.max(np.abs(op).sum(axis=1)), 2)

    def test_repeated_calls_are_bit_identical(self, partial_decomposition):
        again = lg.eigendecompose(circle_laplacian(600), 4)
        assert np.array_equal(again.eigenvalues, partial_decomposition.eigenvalues)
        assert np.array_equal(again.eigenvectors, partial_decomposition.eigenvectors)

    def test_start_block_is_counter_based(self):
        # columns lo..hi of a block are those columns of a wider one, so a
        # restart's new columns are the ones a first block that wide draws;
        # the bits repeat from call to call
        n = 700
        wide = spectral._start_block(n, 0, 30)
        assert wide.shape == (n, 30)
        assert wide.tobytes() == spectral._start_block(n, 0, 30).tobytes()
        for lo, hi in ((0, 21), (21, 30), (5, 6)):
            assert spectral._start_block(n, lo, hi).tobytes() == wide[:, lo:hi].copy().tobytes()
        # standard normal entries: mean and variance within 5 standard errors
        assert abs(wide.mean()) < 5.0 / np.sqrt(wide.size)
        assert abs(wide.var() - 1.0) < 5.0 * np.sqrt(2.0 / wide.size)
        assert np.all(np.isfinite(wide))

    @staticmethod
    def _assert_leading_columns(dec, full, r):
        """dec holds the kernel and r modes: the leading columns of the
        full decomposition, bit for bit."""
        m = full.kernel_dim + r
        assert dec.held == r and dec.kernel_dim == full.kernel_dim
        assert dec.eigenvalues.tobytes() == full.eigenvalues[:m].tobytes()
        assert dec.eigenvectors.tobytes() == full.eigenvectors[:, :m].copy().tobytes()

    def test_dense_below_crossover(self):
        # the loss sweep's largest cell: n = 400 with r = 20 stays on eigh
        op = circle_laplacian(400)
        assert spectral.CROSSOVER * (20 + 1 + spectral.GUARD) > 400
        self._assert_leading_columns(lg.eigendecompose(op, 20), lg.eigendecompose(op), 20)

    @pytest.mark.parametrize("n", [400, 1000])
    def test_held_modes_do_not_depend_on_the_solver(self, n):
        # n = 400 runs eigh, n = 1000 the partial solver: both hold the
        # kernel and 20 modes, so r = 30 and the full-spectrum
        # dirac_squared are rejected at both sizes
        dec = lg.eigendecompose(circle_laplacian(n), 20)
        assert dec.held == 20 and dec.partial
        with pytest.raises(InputError, match="non-kernel modes held = 20, got r=30"):
            lg.DiracConfig(dec, lg.TruncationParams(4, 30))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(4, 20))
        with pytest.raises(InputError, match="needs every mode"):
            lg.dirac_squared(cfg, np.ones(n))

    def test_r_above_the_rank_holds_every_mode(self):
        full = lg.eigendecompose(circle_laplacian(30))
        dec = lg.eigendecompose(circle_laplacian(30), 40)
        assert not dec.partial
        self._assert_leading_columns(dec, full, full.rank)

    def test_kernel_filling_the_block_restarts_it(self):
        # 25 far-apart clusters: the kernel fills the first two blocks
        rng = np.random.default_rng(4)
        centers = 100.0 * np.array([(i, j) for i in range(5) for j in range(5)], dtype=float)
        pts = (centers[:, None, :] + 0.3 * rng.normal(size=(25, 50, 2))).reshape(-1, 2)
        op = lg.build_laplacian(lg.PointCloud(pts), lg.ManifoldConfig(2, 1.0, 0.5))
        dec = lg.eigendecompose(op, 3)
        assert dec.partial
        assert dec.kernel_dim == lg.eigendecompose(op).kernel_dim == 25
        assert np.all(dec.eigenvalues[25:] < 0.0)

    def test_sweep_cap_falls_back_to_dense(self, monkeypatch):
        op = circle_laplacian(600)
        # a cap of one sweep: 600 // (46 * 13 block columns)
        monkeypatch.setattr(spectral, "SWEEP_COST", 46)
        self._assert_leading_columns(lg.eigendecompose(op, 4), lg.eigendecompose(op), 4)

    @staticmethod
    def _count_filters(monkeypatch):
        calls = []
        filt = spectral._chebyshev_filter

        def counted(*args):
            calls.append(args[1].shape[1])
            return filt(*args)

        monkeypatch.setattr(spectral, "_chebyshev_filter", counted)
        return calls

    def test_estimate_path_runs_its_sweeps_under_the_cap(self, monkeypatch):
        # lapgeo estimate on 1000 circle points at r = 12 converges in 2
        # sweeps of 21 columns (3 when the filter damped the Gershgorin
        # interval), well under the cap
        calls = self._count_filters(monkeypatch)
        dec = lg.eigendecompose(circle_laplacian(1000), 12)
        assert dec.partial and dec.held == 12
        assert calls == [21] * 2
        assert 1000 // (spectral.SWEEP_COST * 21) >= 3

    def test_estimate_path_block_products(self, monkeypatch):
        # filter products of eigendecompose(lap, 12) on ten 1000-point
        # circles: 48 each with full-degree sweeps over the Gershgorin
        # interval; each sweep after the first now takes only the degree
        # its slowest wanted column needs
        degrees = []
        filt = spectral._chebyshev_filter

        def counted(a, x, rho, c, degree):
            degrees[-1].append(degree)
            return filt(a, x, rho, c, degree)

        monkeypatch.setattr(spectral, "_chebyshev_filter", counted)
        for seed in range(10):
            degrees.append([])
            assert lg.eigendecompose(circle_laplacian(1000, seed=seed), 12).partial
        assert all(d[0] == spectral.DEGREE and max(d) <= spectral.DEGREE for d in degrees)
        assert max(sum(d) for d in degrees) <= 40
        assert any(min(d) < spectral.DEGREE for d in degrees)

    def test_reads_the_laplacian_radius(self, monkeypatch):
        # the builder's kernel bound for its own output, the Gershgorin bound
        # for a copy through the constructor, the largest absolute row sum
        # for a raw array
        seen = []
        part = spectral._partial
        monkeypatch.setattr(spectral, "_partial", lambda a, r, rho: seen.append(rho) or part(a, r, rho))
        lap = circle_laplacian(600)
        copy = lg.GraphLaplacian(lap.matrix)
        for op in (lap, copy, lap.matrix):
            assert lg.eigendecompose(op, 4).partial
        gershgorin = 2.0 * np.max(np.abs(np.diagonal(lap.matrix)))
        assert seen == [lap.radius, gershgorin, np.max(np.abs(lap.matrix).sum(axis=1))]
        assert lap.radius < 0.55 * gershgorin
        assert lap.radius >= -np.linalg.eigvalsh(lap.matrix)[0]

    def test_two_clusters_partial_and_dense_agree_on_the_kernel(self):
        # the kernel threshold ZERO_REL * rho follows the tighter bound; the
        # block restarts once for the second kernel column
        rng = np.random.default_rng(4)
        pts = 0.3 * rng.normal(size=(400, 2))
        pts[200:, 0] += 100.0
        op = lg.build_laplacian(lg.PointCloud(pts), lg.ManifoldConfig(2, 1.0, 0.5))
        part, dense = lg.eigendecompose(op, 4), lg.eigendecompose(op)
        assert part.partial
        assert part.kernel_dim == dense.kernel_dim == 2
        assert np.max(np.abs(part.eigenvalues - dense.eigenvalues[:6])) <= 1e-12 * op.radius
        kernel = part.kernel()
        dense_kernel = dense.kernel()
        assert np.max(np.abs(kernel @ kernel.T - dense_kernel @ dense_kernel.T)) <= 1e-10

    def test_one_kernel_scale_with_and_without_r(self):
        # two unit-weight K_300 joined by one light edge: lambda_2 = -3.37e-7
        # lies above ZERO_REL * rho (rho = 598) but below ZERO_REL * 300,
        # the spectral radius; both solvers read it on the scale rho
        n, bridge = 300, 5.0625e-5
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = m[n:, n:] = 1.0
        m[0, n] = m[n, 0] = bridge
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        lap = lg.GraphLaplacian(m)
        lam2 = np.linalg.eigvalsh(m)[-2]
        assert spectral.ZERO_REL * 300 < -lam2 <= spectral.ZERO_REL * lap.radius
        assert lg.eigendecompose(lap).kernel_dim == lg.eigendecompose(lap, 4).kernel_dim == 2

    def test_no_warning_from_degree_sizing(self):
        # converged columns (excess below 1) and a wanted value at c (x = 1)
        # must not reach arccosh or a division by zero
        theta = np.array([-10.0, -5.0, -2.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 2 <= spectral._next_degree(theta, np.array([0.5, 1e3]), 20.0) < spectral.DEGREE
            assert spectral._next_degree(theta, np.array([0.0, 1e-3]), 20.0) == 1
            at_c = np.array([-10.0, -10.0, -1.0])
            assert spectral._next_degree(at_c, np.array([1e3, 1e3]), 20.0) == spectral.DEGREE
            for seed in range(3):
                lg.eigendecompose(circle_laplacian(1000, seed=seed), 12)

    def test_unconverged_block_stops_at_the_cap(self, monkeypatch):
        # r = 30 at n = 1000: 39 columns reach into the dense part of the
        # spectrum and need 27 sweeps; the cap, 1000 // (SWEEP_COST * 39),
        # ends the filter first, and eigh runs
        calls = self._count_filters(monkeypatch)
        op = circle_laplacian(1000)
        dec = lg.eigendecompose(op, 30)
        assert calls == [39] * (1000 // (spectral.SWEEP_COST * 39))
        assert len(calls) >= 1
        self._assert_leading_columns(dec, lg.eigendecompose(op), 30)

    def test_rejects_r_below_one(self):
        with pytest.raises(InputError, match="r=0"):
            lg.eigendecompose(circle_laplacian(20), 0)

    def test_rejects_positive_eigenvalue(self):
        op = np.diag(np.linspace(-1.0, 0.0, 600))
        op[-1, -1] = 1e-3
        with pytest.raises(NumericalError, match="not negative semidefinite"):
            lg.eigendecompose(op, 4)

    def test_readers_reject_r_beyond_the_held_modes(self, partial_decomposition):
        dec = partial_decomposition
        assert dec.rank == 599
        msg = "non-kernel modes held = 4, got r=5"
        with pytest.raises(InputError, match=msg):
            dec.leading(5)
        with pytest.raises(InputError, match=msg):
            lg.select_q(dec, 5)
        ref = np.ones((dec.n, 5))
        with pytest.raises(InputError, match=msg):
            lg.spectral_error(dec, -np.arange(1.0, 6.0), ref, 5)
        assert dec.leading(4).shape == (600, 4)


class TestProjectLeading:
    def test_drops_kernel_component(self):
        dec = lg.eigendecompose(_diag_operator([0.0, -1.0, -2.0]))
        v = np.array([5.0, 1.0, 1.0])
        p = project_leading(dec, v, r=2)
        assert np.allclose(p, [0.0, 1.0, 1.0], atol=1e-12)

    def test_truncates_tail(self):
        dec = lg.eigendecompose(_diag_operator([0.0, -1.0, -2.0, -3.0]))
        v = np.array([0.0, 1.0, 1.0, 1.0])
        p = project_leading(dec, v, r=2)
        assert np.allclose(p, [0.0, 1.0, 1.0, 0.0], atol=1e-12)

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(9)
        dec, _ = random_decomposition(rng, n=10)
        v = rng.normal(size=10)
        r = min(4, dec.rank)
        p = project_leading(dec, v, r)
        assert np.allclose(project_leading(dec, p, r), p, atol=1e-10)
        assert np.linalg.norm(p) <= np.linalg.norm(v) + 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(10)
        dec, _ = random_decomposition(rng, n=10)
        v = rng.normal(size=10)
        r = min(4, dec.rank)
        p = project_leading(dec, v, r)
        lhs = np.linalg.norm(v) ** 2
        rhs = np.linalg.norm(p) ** 2 + np.linalg.norm(v - p) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rejects_r_above_rank(self):
        dec = lg.eigendecompose(_diag_operator([0.0, -1.0]))
        with pytest.raises(InputError, match="rank = 1, got r=2"):
            project_leading(dec, np.zeros(2), r=2)


class TestSelectQ:
    def _dec_1_to_10(self):
        return lg.eigendecompose(_diag_operator([0.0] + [-float(k) for k in range(1, 11)]))

    def test_example_eps_zero(self):
        assert lg.select_q(self._dec_1_to_10(), r=10) == 4

    def test_example_eps_margin(self):
        assert lg.select_q(self._dec_1_to_10(), r=10, epsilon=1.5) == 4

    def test_example_no_admissible(self):
        dec = lg.eigendecompose(_diag_operator([0.0, -5.0, -6.0]))
        with pytest.raises(NoAdmissibleQError):
            lg.select_q(dec, r=2)

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_rejects_epsilon_outside_zero_to_inf(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            lg.select_q(self._dec_1_to_10(), r=10, epsilon=epsilon)

    def test_monotone_in_r(self):
        dec = self._dec_1_to_10()
        qs = []
        for r in range(1, 11):
            try:
                qs.append(lg.select_q(dec, r=r))
            except NoAdmissibleQError:
                qs.append(0)
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_antitone_in_epsilon(self):
        dec = self._dec_1_to_10()
        qs = []
        for eps in (0.0, 1.0, 1.9, 3.0, 7.0):
            try:
                qs.append(lg.select_q(dec, r=10, epsilon=eps))
            except NoAdmissibleQError:
                qs.append(0)
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_q_never_exceeds_r(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            vals = -np.sort(rng.uniform(0.1, 10.0, size=8))[::-1]
            dec = lg.eigendecompose(_diag_operator(np.concatenate([[0.0], vals])))
            r = int(rng.integers(1, 9))
            try:
                q = lg.select_q(dec, r=r)
            except NoAdmissibleQError:
                continue
            assert 1 <= q <= r
            assert 2 * abs(dec.nonzero_eigenvalues[q - 1]) < abs(
                dec.nonzero_eigenvalues[r - 1]
            )


class TestSpectralError:
    def test_zero_against_self(self):
        rng = np.random.default_rng(12)
        dec, _ = random_decomposition(rng, n=10)
        r = min(4, dec.rank)
        err = lg.spectral_error(
            dec, dec.nonzero_eigenvalues[:r], dec.eigenvectors[:, dec.kernel_dim:dec.kernel_dim + r], r
        )
        assert err.value <= 1e-10
        assert err.r == r

    def test_detects_eigenvalue_shift(self):
        rng = np.random.default_rng(13)
        dec, _ = random_decomposition(rng, n=10)
        r = 3
        ref_vals = dec.nonzero_eigenvalues[:r] * 1.1
        ref_vecs = dec.eigenvectors[:, dec.kernel_dim:dec.kernel_dim + r]
        err = lg.spectral_error(dec, ref_vals, ref_vecs, r)
        # deviations enter in absolute terms
        expect = 0.1 * np.max(np.abs(dec.nonzero_eigenvalues[:r]))
        assert err.value == pytest.approx(expect, rel=1e-6)

    def test_sign_flip_is_free(self):
        rng = np.random.default_rng(14)
        dec, _ = random_decomposition(rng, n=10)
        r = 3
        ref_vecs = dec.eigenvectors[:, dec.kernel_dim:dec.kernel_dim + r].copy()
        ref_vecs[:, 1] *= -1.0
        err = lg.spectral_error(dec, dec.nonzero_eigenvalues[:r], ref_vecs, r)
        assert err.value <= 1e-10

    def test_rotation_within_degenerate_pair_is_free(self):
        thetas = lg.equally_spaced_angles(8)
        vals, modes = lg.analytic_eigenbasis(thetas, 4)
        op = operator_from_modes(vals, modes)
        dec = lg.eigendecompose(op)
        ref_vecs = dec.eigenvectors[:, dec.kernel_dim:dec.kernel_dim + 2]
        c, s = np.cos(0.53), np.sin(0.53)
        rot = ref_vecs @ np.array([[c, -s], [s, c]])
        err = lg.spectral_error(dec, dec.nonzero_eigenvalues[:2], rot, 2)
        assert err.value <= 1e-9

    def test_rotation_across_distinct_pairs_is_not_free(self):
        rng = np.random.default_rng(15)
        dec, _ = random_decomposition(rng, n=10)
        ref_vecs = dec.eigenvectors[:, dec.kernel_dim:dec.kernel_dim + 2].copy()
        # swap two non-degenerate columns: Procrustes cannot undo this
        ref_vecs = ref_vecs[:, ::-1]
        err = lg.spectral_error(dec, dec.nonzero_eigenvalues[:2], ref_vecs, 2)
        assert err.value > 0.1


class TestWeylStability:
    def test_eigenvalues_move_at_most_perturbation_norm(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a = rng.normal(size=(10, 10))
            sym = a + a.T
            e = rng.normal(size=(10, 10))
            pert = e + e.T
            delta = np.linalg.norm(pert, 2)
            wa = np.linalg.eigvalsh(sym)
            wb = np.linalg.eigvalsh(sym + pert)
            assert np.max(np.abs(wa - wb)) <= delta + 1e-10


class TestOperatorFromModes:
    def test_modes_become_eigenvectors(self):
        thetas = lg.equally_spaced_angles(12)
        vals, modes = lg.analytic_eigenbasis(thetas, 4)
        assert np.array_equal(vals, [-1.0, -1.0, -4.0, -4.0])
        op = operator_from_modes(vals, modes)
        assert np.allclose(op, op.T, atol=1e-12)
        for j in range(4):
            assert np.allclose(op @ modes[:, j], vals[j] * modes[:, j], atol=1e-10)

    def test_spectrum(self):
        thetas = lg.equally_spaced_angles(12)
        vals, modes = lg.analytic_eigenbasis(thetas, 4)
        op = operator_from_modes(vals, modes)
        dec = lg.eigendecompose(op)
        assert dec.kernel_dim == 8
        assert np.allclose(dec.nonzero_eigenvalues, [-1.0, -1.0, -4.0, -4.0], atol=1e-10)

    def test_rejects_dependent_modes(self):
        modes = np.ones((6, 2))
        with pytest.raises(NumericalError):
            operator_from_modes(np.array([-1.0, -2.0]), modes)
