import logging
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lapgeo as lg
from lapgeo.errors import EstimationFailedError, InputError
import lapgeo.estimator as est
from lapgeo.estimator import (
    DEGENERATE,
    _candidate_cols,
    _dirac_gram,
    _grad_sups,
    _landmark_pairs,
    _objective_cols,
    _psd_parts,
    _row_distances,
    _solve_pairs,
    dirac_squared,
    grad_sup,
)
from lapgeo.laplacian import squared_distances
from lapgeo.spectral import operator_from_modes

from conftest import grad_sup_spectral, random_decomposition

SQRT_PI = np.sqrt(np.pi)


def _analytic_circle(n, n_modes):
    """Exact-spectrum instance: equally spaced samples, analytic modes."""
    thetas = lg.equally_spaced_angles(n)
    vals, modes = lg.analytic_eigenbasis(thetas, n_modes)
    op = operator_from_modes(vals, modes)
    return lg.eigendecompose(op), thetas


def _circle(n, seed, q, r):
    """Laplacian decomposition of n uniform circle samples at h = n^-1/4 / 2."""
    cloud = lg.sample_uniform_circle(n, seed=seed)
    mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * n ** -0.25)
    dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
    return lg.DiracConfig(dec, lg.TruncationParams(q=q, r=r)), cloud


def _all_pairs(cfg, cloud, opt):
    """The whole all-pairs estimate, n x n."""
    return lg.estimate_distance_rows(cfg, cloud, opt).rows(0, cloud.n)


@pytest.fixture(scope="module")
def circle_1000():
    """Angles, cloud and kernel-plus-20-mode decomposition of 1000 uniform
    circle samples (seed 1) at h = n^-1/4 / 2."""
    n = 1000
    thetas = lg.sample_circle_angles(n, 1)
    cloud = lg.embed(thetas)
    lap = lg.build_laplacian(cloud, lg.ManifoldConfig(1, 2 * np.pi, 0.5 * n ** -0.25))
    return thetas, cloud, lg.eigendecompose(lap, 20)


@pytest.fixture(scope="module")
def circle_cfg():
    cloud = lg.sample_uniform_circle(30, seed=5)
    mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 30 ** -0.25)
    dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
    return lg.DiracConfig(dec, lg.TruncationParams(q=3, r=8))


class TestDiracSquared:
    def test_constant_maps_to_zero(self, circle_cfg):
        d2 = dirac_squared(circle_cfg, np.full(30, 2.3))
        assert np.max(np.abs(d2)) < 1e-9

    def test_quadratic_scaling(self, circle_cfg):
        rng = np.random.default_rng(0)
        v = rng.normal(size=30)
        base = dirac_squared(circle_cfg, v)
        for lam in (2.0, -3.5, 0.25):
            scaled = dirac_squared(circle_cfg, lam * v)
            assert np.allclose(scaled, lam * lam * base, rtol=1e-10, atol=1e-12)

    def test_matches_pointwise_gradient_for_pure_mode(self):
        # frequency-1 mode of the exact instance: v_i^2 + (grad v)_i^2 is the
        # constant 2/n at unit discrete norm, whatever phase the pair picks
        n = 500
        dec, _ = _analytic_circle(n, 8)
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=8))
        v = dec.leading(1)[:, 0]
        d2 = dirac_squared(cfg, v)
        expected = 2.0 / n - v * v
        scale = 2.0 / n
        assert np.max(np.abs(d2 - expected)) <= 0.05 * scale
        assert np.max(np.abs(d2 - expected)) < 1e-12

    def test_rejects_partial_decomposition(self, partial_decomposition):
        # L v of an arbitrary v needs every mode
        cfg = lg.DiracConfig(partial_decomposition, lg.TruncationParams(q=2, r=4))
        with pytest.raises(InputError, match="holds 4 of rank 599"):
            dirac_squared(cfg, np.ones(600))

    @pytest.mark.parametrize("n,seed", [(30, 5), (200, 9)])
    def test_candidate_route_matches_full_spectrum(self, n, seed):
        # candidates compute L f = E_q (lambda_q * vhat) in the q-mode
        # subspace; dirac_squared multiplies through the whole spectrum
        cfg, _ = _circle(n, seed, q=4, r=8)
        vhat_cols = np.random.default_rng(seed).uniform(-1, 1, (4, 25))
        f_cols, d2_cols = _candidate_cols(cfg, vhat_cols)
        for f, d2 in zip(f_cols.T, d2_cols.T):
            full = dirac_squared(cfg, f)
            assert np.max(np.abs(d2 - full)) <= 1e-12 * np.max(np.abs(full))

    def test_two_dimensional_kernel_matches_explicit_projector(self):
        # two unit circles 10 apart share no weight above the zero threshold,
        # so the kernel holds both components' constants
        rng = np.random.default_rng(4)
        points = np.vstack([
            lg.sample_uniform_circle(60, seed=3).points,
            lg.sample_uniform_circle(60, seed=4).points + [10.0, 0.0],
        ])
        lap = lg.build_laplacian(lg.PointCloud(points), lg.ManifoldConfig(1, 4 * np.pi, 0.3))
        dec = lg.eigendecompose(lap)
        assert dec.kernel_dim == 2
        r = 6
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=r))
        proj = np.hstack([dec.kernel(), dec.leading(r)])
        for v in (rng.normal(size=120), dec.leading(3) @ rng.uniform(-1, 1, 3)):
            lv = lap.matrix @ v
            expected = 0.5 * lap.matrix @ (proj @ (proj.T @ (v * v))) - proj @ (
                proj.T @ (v * lv)
            )
            got = dirac_squared(cfg, v)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDiracConfig:
    def test_rejects_r_above_rank(self, circle_cfg):
        dec = circle_cfg.decomposition
        with pytest.raises(InputError, match=f"rank = {dec.rank}, got r=30"):
            lg.DiracConfig(dec, lg.TruncationParams(q=2, r=30))

    def test_rejects_r_beyond_the_held_modes(self, partial_decomposition):
        with pytest.raises(InputError, match="non-kernel modes held = 4, got r=5"):
            lg.DiracConfig(partial_decomposition, lg.TruncationParams(q=2, r=5))

    @pytest.mark.parametrize("q", [4, 8])
    def test_gram_is_built_once_per_config(self, q):
        # every solve on one configuration reads its one frozen G+: pairs
        # estimated in either order on a shared config have the bits of
        # each pair on a fresh one
        cfg, _ = _circle(150, 6, q=q, r=20)
        opt = lg.OptimizerConfig()
        pairs = [(0, 75), (3, 149), (40, 41), (120, 9)]
        fresh = [lg.estimate_distance(lg.DiracConfig(cfg.decomposition, cfg.trunc), a, b, opt)
                 for a, b in pairs]
        shared = lg.DiracConfig(cfg.decomposition, cfg.trunc)
        forward = [lg.estimate_distance(shared, a, b, opt) for a, b in pairs]
        backward = [lg.estimate_distance(shared, a, b, opt) for a, b in reversed(pairs)]
        assert forward == fresh and backward[::-1] == fresh
        gram = shared.gram_psd
        assert gram is shared.gram_psd and not gram.flags.writeable
        assert gram.tobytes() == _psd_parts(_dirac_gram(shared)).tobytes()


class TestGradSup:
    def test_pure_modes_on_exact_instance(self):
        n = 500
        dec, _ = _analytic_circle(n, 8)
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=8))
        unit = np.sqrt(2 * np.pi / n)
        # frequency-1 pair occupies the first two coefficient slots; the
        # pair's phase is arbitrary, so the sample sup undershoots the true
        # sup by at most (pi * freq / n)^2 / 2
        for idx, freq in ((0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)):
            vhat = np.zeros(4)
            vhat[idx] = 1.0
            assert grad_sup(cfg, vhat) == pytest.approx(
                (freq / SQRT_PI) * unit, rel=2e-4
            )

    def test_linear_scaling(self, circle_cfg):
        rng = np.random.default_rng(1)
        vhat = rng.uniform(-1, 1, size=3)
        base = grad_sup(circle_cfg, vhat)
        assert grad_sup(circle_cfg, 0.37 * vhat) == pytest.approx(
            0.37 * base, rel=1e-10
        )

    def test_nonnegative(self, circle_cfg):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert grad_sup(circle_cfg, rng.uniform(-1, 1, size=3)) >= 0.0

    @given(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, width=64), min_size=3, max_size=3
        )
    )
    def test_spectral_route_agrees(self, circle_cfg, coeffs):
        vhat = np.array(coeffs)
        direct = grad_sup(circle_cfg, vhat)
        spectral = grad_sup_spectral(circle_cfg, vhat)
        assert abs(direct - spectral) <= 1e-8 * max(direct, 1.0)


class TestClamps:
    def test_sup_clamps_the_column_maxima(self, caplog):
        # columns: all negative, mixed around NEGATIVITY_TOL, zero, positive
        d2 = np.array([
            [-3e-7, 4e-3, 0.0, 2.5],
            [-1e-9, -2e-8, 0.0, 1e-14],
            [-5e-2, -1e-10, 0.0, 0.75],
        ])
        with caplog.at_level(logging.WARNING, logger="lapgeo"):
            sup = _grad_sups(d2)
        assert sup.tobytes() == np.sqrt(np.maximum(d2, 0.0).max(axis=0)).tobytes()
        (record,) = caplog.records
        count, tol, worst = record.args
        assert count == np.count_nonzero(d2 < est.NEGATIVITY_TOL) == 3
        assert tol == est.NEGATIVITY_TOL
        assert worst == d2.min() == -5e-2


class TestObjective:
    def test_zero_for_zero_candidate(self, circle_cfg):
        assert lg.objective(circle_cfg, np.zeros(3), 0, 5) == 0.0

    def test_scale_invariant(self, circle_cfg):
        rng = np.random.default_rng(3)
        vhat = rng.uniform(-1, 1, size=3)
        base = lg.objective(circle_cfg, vhat, 2, 17)
        for c in (0.5, 0.125, -0.9):
            assert lg.objective(circle_cfg, c * vhat, 2, 17) == pytest.approx(
                base, rel=1e-9
            )

    def test_scale_free_down_to_tiny_coefficients(self, circle_cfg):
        # the objective scores v / max|v|, so no absolute threshold reads
        # the raw coefficients: 1e-13 v and 3 v (outside the box) are v
        v = np.array([0.5, -0.3, 0.8])
        base = lg.objective(circle_cfg, v, 0, 12)
        assert base > 0.9
        assert lg.objective(circle_cfg, 2.0**-60 * v, 0, 12) == base
        for c in (1e-13, 3.0):
            assert lg.objective(circle_cfg, c * v, 0, 12) == pytest.approx(base, rel=1e-12)

    def test_plugin_name_is_the_objective(self):
        assert lg.oracle_plugin_estimate is lg.objective

    def test_degenerate_sentinel(self):
        # an isolated near-zero eigenvalue: the candidate separates the two
        # points but carries no usable gradient
        dec = lg.eigendecompose(np.diag([0.0, -1e-24]))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=1, r=1))
        val = lg.objective(cfg, np.array([1.0]), 0, 1)
        assert val == DEGENERATE
        assert DEGENERATE == float("-inf")


class TestEstimateDistance:
    def test_same_point_is_zero(self, circle_cfg):
        opt = lg.OptimizerConfig(n_samples=10, n_refine=2, seed=0)
        assert lg.estimate_distance(circle_cfg, 4, 4, opt) == 0.0

    def test_symmetric(self, circle_cfg):
        opt = lg.OptimizerConfig(n_samples=60, n_refine=4, seed=1)
        ab = lg.estimate_distance(circle_cfg, 3, 11, opt)
        ba = lg.estimate_distance(circle_cfg, 11, 3, opt)
        assert ab == ba

    def test_seed_reproducible(self, circle_cfg):
        opt = lg.OptimizerConfig(n_samples=60, n_refine=4, seed=7)
        a = lg.estimate_distance(circle_cfg, 0, 15, opt)
        b = lg.estimate_distance(circle_cfg, 0, 15, opt)
        assert a == b

    def test_independent_of_seed(self, circle_cfg):
        # the solver draws nothing: the seed is checked, not used
        vals = {
            lg.estimate_distance(circle_cfg, 2, 19, lg.OptimizerConfig(seed=s))
            for s in (0, 1, 12345)
        }
        assert len(vals) == 1

    def test_monotone_in_steps(self, circle_cfg):
        # each solve is a prefix of a longer one, and keeps its best column
        vals = [
            lg.estimate_distance(circle_cfg, 1, 9, lg.OptimizerConfig(n_refine=k))
            for k in (0, 5, 20, 100, 300)
        ]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]

    def test_inseparable_pair_is_zero(self):
        # rows 0 and 1 of the one leading mode are equal: no f in its span
        # separates the two points, and there is nothing to solve
        vecs = np.column_stack([
            np.ones(3) / np.sqrt(3),
            np.array([1.0, 1.0, -2.0]) / np.sqrt(6),
            np.array([1.0, -1.0, 0.0]) / np.sqrt(2),
        ])
        dec = lg.SpectralDecomposition(np.array([0.0, -1.0, -3.0]), vecs, 1)
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=1, r=2))
        assert lg.estimate_distance(cfg, 0, 1, lg.OptimizerConfig()) == 0.0
        assert lg.estimate_distance(cfg, 0, 2, lg.OptimizerConfig()) > 0.0

    def test_all_degenerate_raises(self):
        dec = lg.eigendecompose(np.diag([0.0, -1e-24]))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=1, r=1))
        opt = lg.OptimizerConfig(n_samples=40, n_refine=2, seed=0)
        with pytest.raises(EstimationFailedError):
            lg.estimate_distance(cfg, 0, 1, opt)

    @pytest.mark.parametrize("q", [4, 8])
    def test_is_the_objective_of_the_solved_column(self, q):
        # the pair's candidate is scored once: the estimate has the bits of
        # the objective of the column its solve returns
        cfg, _ = _circle(120, 5, q=q, r=20)
        opt = lg.OptimizerConfig()
        basis_q = cfg.decomposition.leading(q)
        for a, b in ((0, 37), (5, 90), (61, 62), (119, 3)):
            c = (basis_q[a] - basis_q[b])[None, :]
            _, cols, _ = _solve_pairs(cfg.gram_psd, c, opt.n_refine)
            objective = float(_objective_cols(cfg, cols, a, b)[0])
            assert lg.estimate_distance(cfg, a, b, opt) == objective


class TestEstimateAllDistances:
    def test_zero_samples_is_input_error(self):
        # the chordal matrix alone is gram_distances; the solve needs a pair
        with pytest.raises(InputError, match="n_samples"):
            lg.OptimizerConfig(n_samples=0, n_refine=0, seed=0)

    def test_negative_seed_is_input_error(self):
        with pytest.raises(InputError, match="seed"):
            lg.OptimizerConfig(seed=-1)

    def test_dominates_euclidean(self):
        cloud = lg.sample_uniform_circle(15, seed=7)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 15 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=6))
        opt = lg.OptimizerConfig(n_samples=100, n_refine=5, seed=0)
        d = _all_pairs(cfg, cloud, opt)
        euclid = np.linalg.norm(
            cloud.points[:, None, :] - cloud.points[None, :, :], axis=2
        )
        assert np.all(d >= euclid - 1e-12)

    def test_consistent_with_single_pair(self):
        cloud = lg.sample_uniform_circle(15, seed=8)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 15 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=6))
        opt = lg.OptimizerConfig(n_samples=6, seed=3)
        d = _all_pairs(cfg, cloud, opt)
        # a landmark pair's own column is in the embedding: the batched and
        # the single solve are the same iteration
        a, b = _landmark_pairs(dec.leading(2), cloud.points, opt.n_samples)
        for ai, bi in zip(a, b):
            single = lg.estimate_distance(cfg, ai, bi, opt)
            assert d[ai, bi] >= single - 1e-9

    def test_exactly_symmetric(self):
        cloud = lg.sample_uniform_circle(200, seed=9)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 200 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=12))
        d = _all_pairs(cfg, cloud, lg.OptimizerConfig(seed=4))
        assert np.array_equal(d, d.T)

    def test_chebyshev_over_landmark_columns(self):
        cloud = lg.sample_uniform_circle(40, seed=10)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 40 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=3, r=8))
        opt = lg.OptimizerConfig(n_samples=12, n_refine=30)
        d = _all_pairs(cfg, cloud, opt)
        basis_q = dec.leading(cfg.q)
        a, b = _landmark_pairs(basis_q, cloud.points, opt.n_samples)
        value, cols, _ = _solve_pairs(cfg.gram_psd, basis_q[a] - basis_q[b], 30)
        assert np.all(value > 0)
        ref = lg.gram_distances(cloud).matrix.copy()
        for vhat in cols.T:
            f = basis_q @ vhat
            ref = np.maximum(ref, np.abs(f[:, None] - f[None, :]) / grad_sup(cfg, vhat))
        np.fill_diagonal(ref, 0.0)
        assert np.max(np.abs(d - ref)) <= 1e-12

    def test_independent_of_seed(self):
        cfg, cloud = _circle(60, 3, q=4, r=12)
        ref = _all_pairs(cfg, cloud, lg.OptimizerConfig(seed=0))
        other = _all_pairs(cfg, cloud, lg.OptimizerConfig(seed=7))
        assert np.array_equal(ref, other)

    def test_mean_error_falls_with_q(self, circle_1000):
        # more modes bring the truncated sup closer to the geodesic; the
        # chordal distance alone reads 0.298 here
        thetas, cloud, dec = circle_1000
        geo = lg.circle_geodesic(thetas[:, None], thetas[None, :])
        off = ~np.eye(cloud.n, dtype=bool)
        errs = []
        for q in (4, 8, 12):
            cfg = lg.DiracConfig(dec, lg.TruncationParams(q=q, r=20))
            d = _all_pairs(cfg, cloud, lg.OptimizerConfig())
            errs.append(float(np.abs(d - geo)[off].mean()))
        assert errs[1] <= 0.25
        assert errs[0] > errs[1] > errs[2]

    def test_independent_of_blas_threads(self, tmp_path):
        # equally spaced points: every eigenvalue pair is exactly degenerate,
        # so the basis inside each pair follows the BLAS thread count; q = 4
        # keeps both pairs whole, and the estimate must not follow it
        script = (
            "import sys; import numpy as np; import lapgeo as lg\n"
            "n = 600\n"
            "cloud = lg.embed(lg.equally_spaced_angles(n))\n"
            "mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * n ** -0.25)\n"
            "dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg), 12)\n"
            "cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=12))\n"
            "d = lg.estimate_distance_rows(cfg, cloud, lg.OptimizerConfig()).rows(0, n)\n"
            "np.save(sys.argv[1], d)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"d{threads}.npy"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            outs.append(np.load(out))
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12

    def test_all_degenerate_raises(self):
        dec = lg.eigendecompose(np.diag([0.0, -1e-24]))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=1, r=1))
        cloud = lg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        opt = lg.OptimizerConfig(n_samples=40, n_refine=2, seed=0)
        with pytest.raises(EstimationFailedError):
            lg.estimate_distance_rows(cfg, cloud, opt)

    @pytest.mark.parametrize("n", [1, 2, 15, 17, 53])
    def test_tiled_floor_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        emb = rng.normal(size=(n, 37))
        points = rng.normal(size=(n, 2))
        chordal, dist = _floor(points, emb)
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        assert dist.tobytes() == brute.tobytes()

    def test_floors_the_embedding_brute_force(self):
        n = 53
        cfg, cloud = _circle(n, 12, q=4, r=12)
        source = lg.estimate_distance_rows(cfg, cloud, lg.OptimizerConfig())
        emb = source.embedding.T
        assert emb.shape == (n, 32)
        chordal = np.sqrt(squared_distances(cloud.points))
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        np.fill_diagonal(brute, 0.0)
        assert np.array_equal(source.rows(0, n), brute)


def test_landmark_rows_are_the_chordal_rows():
    # one chordal arithmetic: the landmark search's distance rows equal the
    # rows of the floor's chordal matrix bit for bit, also from N = 8 on,
    # where a numpy row sum would regroup its additions
    rng = np.random.default_rng(2)
    dup = rng.normal(size=(40, 2))
    for points in (
        lg.sample_uniform_circle(300, seed=1).points,
        rng.normal(size=(80, 3)),
        np.vstack([dup, dup[::4], dup[:1]]),
        rng.normal(size=(300, 8)),
        rng.normal(size=(300, 10)),
        rng.normal(size=(300, 20)),
    ):
        chordal = np.sqrt(squared_distances(points))
        for i in range(points.shape[0]):
            assert _row_distances(points, i).tobytes() == chordal[i].tobytes()


def _floor_inputs():
    """(name, points, embedding) triples for the floor.  Most embeddings
    have columns sin(<w, x> + c), each Lipschitz with constant |w|, so some
    entries stay chordal and others are raised."""
    rng = np.random.default_rng(11)

    def smooth(pts, m=23, scale=0.6):
        w = rng.normal(size=(pts.shape[1], m)) * scale
        return np.sin(pts @ w + rng.uniform(0, 2 * np.pi, m))

    pts = rng.normal(size=(60, 2))
    dup = np.vstack([pts, pts[::3], pts[:4]])
    line = np.outer(rng.uniform(-3, 3, 70), [0.6, 0.8])
    two = np.vstack([rng.normal(size=(50, 2)), rng.normal(size=(45, 2)) + 40.0])
    three = rng.normal(size=(90, 3))
    flat = rng.normal(size=(80, 2))
    flat_emb = smooth(flat, 9, 0.8)
    flat_emb[:, 4] = 0.25
    cases = [
        ("duplicated", dup, smooth(dup)),
        # F is the coordinate along the line: Chebyshev and chordal tie
        ("collinear", line, line @ [[0.6], [0.8]]),
        ("two-far-clusters", two, smooth(two)),
        ("3-D", three, smooth(three)),
        ("constant-column", flat, flat_emb),
    ]
    for n in (1, 2, 15, 17, 53, 200):
        pts = rng.normal(size=(n, 2))
        cases.append((f"n={n}", pts, smooth(pts)))
    return cases


FLOOR_INPUTS = _floor_inputs()


def _floor(points, emb):
    """(chordal, floored) for a cloud and its (n, m) embedding, the floored
    matrix being rows(0, n) of its DistanceRows."""
    chordal = np.sqrt(squared_distances(points))
    source = est.DistanceRows(points, np.ascontiguousarray(emb.T))
    return chordal, source.rows(0, source.n)


class TestChebyshevFloor:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
    @pytest.mark.parametrize(
        "points, emb", [c[1:] for c in FLOOR_INPUTS], ids=[c[0] for c in FLOOR_INPUTS]
    )
    def test_matches_brute_force(self, monkeypatch, cpus, points, emb):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave as often as possible
        try:
            chordal, dist = _floor(points, emb)
        finally:
            sys.setswitchinterval(interval)
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        assert dist.tobytes() == brute.tobytes()

    @pytest.mark.parametrize(
        "points, emb", [c[1:] for c in FLOOR_INPUTS], ids=[c[0] for c in FLOOR_INPUTS]
    )
    def test_any_window_of_rows_matches_brute_force(self, points, emb):
        # the one row kernel: the writer's chunks and the whole matrix are
        # windows of the same entries, bit for bit
        chordal = np.sqrt(squared_distances(points))
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        source = est.DistanceRows(points, np.ascontiguousarray(emb.T))
        n = source.n
        for a, b in {(0, n), (0, 1), (n // 3, n), (n // 2, n), (n - 1, n),
                     (n // 4, n // 2 + 1)}:
            rows = source.rows(a, b)
            assert rows.tobytes() == brute[a:b].tobytes()

    def test_floor_leaves_the_embedding_as_it_was(self):
        _, points, emb = FLOOR_INPUTS[-1]
        cols = np.ascontiguousarray(emb.T)
        cols.setflags(write=False)
        before = cols.copy()
        est.DistanceRows(points, cols).rows(0, points.shape[0])
        assert cols.tobytes() == before.tobytes()

    def test_estimate_builds_nothing_n_by_n(self):
        # the all-pairs estimate is its encoding, the points and the
        # embedding: what it allocates grows with n, not n^2
        n, q = 600, 4
        cfg, cloud = _circle(n, 17, q=q, r=12)
        tracemalloc.start()
        try:
            source = lg.estimate_distance_rows(cfg, cloud, lg.OptimizerConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = source.embedding.shape[0]
        # four n x m arrays (the candidates' values and Dirac squares, the
        # embedding), G and G+ (n q^2 each) and 256 kB for the rest; measured
        # 0.63 MB, against 2.88 MB for one n x n matrix
        bound = 8 * (4 * n * m + 2 * n * q * q) + (256 << 10)
        assert peak < bound < 8 * n * n / 2


class TestSolver:
    @pytest.mark.parametrize("q", [4, 8, 12])
    def test_gram_matches_candidate_route(self, circle_1000, q):
        # the two routes round differently: a few ulps of the largest value
        dec = circle_1000[2]
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=q, r=20))
        gram = _dirac_gram(cfg).reshape(-1, q, q)
        vhat_cols = np.random.default_rng(q).uniform(-1, 1, (q, 10))
        _, d2_cols = _candidate_cols(cfg, vhat_cols)
        via_gram = np.einsum("kc,ikl,lc->ic", vhat_cols, gram, vhat_cols)
        gap = np.max(np.abs(via_gram - d2_cols))
        assert gap <= 1e-15 and gap <= 1e-14 * np.max(np.abs(d2_cols))

    @pytest.mark.parametrize("q", [4, 8])
    def test_dual_bound_covers_primal(self, q):
        cfg, cloud = _circle(200, 22, q=q, r=20)
        basis_q = cfg.decomposition.leading(q)
        a, b = _landmark_pairs(basis_q, cloud.points, 32)
        value, _, bound = _solve_pairs(cfg.gram_psd, basis_q[a] - basis_q[b], 100)
        assert np.all(np.isfinite(bound)) and np.all(value > 0)
        assert np.all(value <= bound * (1 + 1e-12))

    def test_dual_bound_covers_grid_on_exact_instance(self):
        # criterion 4's instance: the analytic q = 2 operator on 8 points
        thetas = lg.equally_spaced_angles(8)
        vals, modes = lg.analytic_eigenbasis(thetas, 6)
        dec = lg.eigendecompose(operator_from_modes(vals, modes))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=6))
        grid = np.linspace(-1.0, 1.0, 201)
        gx, gy = np.meshgrid(grid, grid)
        grid_cols = np.vstack([gx.ravel(), gy.ravel()])
        basis_q = dec.leading(2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = (int(i) for i in rng.choice(8, size=2, replace=False))
            brute = float(np.max(_objective_cols(cfg, grid_cols, a, b)))
            c = (basis_q[a] - basis_q[b])[None, :]
            _, _, bound = _solve_pairs(cfg.gram_psd, c, 100)
            assert bound[0] >= brute * (1 - 1e-12)

    def test_single_point_gives_no_column(self):
        # n = 1: the landmark is its own partner, c = 0
        a, b = _landmark_pairs(np.ones((1, 2)), np.zeros((1, 3)), 1)
        assert a.tolist() == b.tolist() == [0]
        value, cols, bound = _solve_pairs(_psd_parts(np.ones((1, 4))), np.zeros((1, 2)), 10)
        assert value[0] == DEGENERATE and not np.any(cols) and bound[0] == np.inf

    def test_failed_pairs_spare_the_batch(self):
        cfg, _ = _circle(80, 23, q=4, r=12)
        gram = cfg.gram_psd
        basis_q = cfg.decomposition.leading(4)
        c = basis_q[[5, 7, 9]] - basis_q[[40, 7, 50]]  # the middle c is 0
        value, cols, bound = _solve_pairs(gram, c, 20)
        assert value[1] == DEGENERATE and bound[1] == np.inf and not np.any(cols[:, 1])
        for k in (0, 2):
            alone, _, alone_bound = _solve_pairs(gram, c[k : k + 1], 20)
            assert value[k] == pytest.approx(alone[0], rel=1e-12)
            assert bound[k] == pytest.approx(alone_bound[0], rel=1e-12)
        # M singular: every G_i zero, or PSD parts that share a null
        # direction (_psd_parts clips G_i = diag(1, -1) to diag(1, 0))
        shared_null = np.array([[1.0, 0.0, 0.0, -1.0], [2.0, 0.0, 0.0, 0.0]])
        for g in (np.zeros((3, 4)), shared_null):
            value, cols, bound = _solve_pairs(_psd_parts(g), np.eye(2), 5)
            assert np.all(value == DEGENERATE) and np.all(bound == np.inf)
            assert not np.any(cols)

    @pytest.mark.parametrize("n", [2, 65])
    def test_degenerate_clouds_give_floored_matrices(self, n):
        if n == 2:
            cloud = lg.PointCloud(np.array([[1.0, 0.0], [0.0, 1.0]]))
            trunc, h = lg.TruncationParams(q=1, r=1), 0.5
        else:
            # five points repeated: coincident landmarks and partners
            points = lg.sample_uniform_circle(60, seed=0).points
            cloud = lg.PointCloud(np.vstack([points, points[:5]]))
            trunc, h = lg.TruncationParams(q=4, r=12), 0.2
        lap = lg.build_laplacian(cloud, lg.ManifoldConfig(1, 2 * np.pi, h))
        cfg = lg.DiracConfig(lg.eigendecompose(lap), trunc)
        d = _all_pairs(cfg, cloud, lg.OptimizerConfig())
        chordal = np.sqrt(squared_distances(cloud.points))
        assert np.all(np.isfinite(d)) and np.array_equal(d, d.T)
        assert np.all(d >= chordal) and not np.any(np.diag(d))


class TestOraclePlugin:
    def test_zero_coefficients_give_zero(self, circle_cfg):
        assert lg.oracle_plugin_estimate(circle_cfg, np.zeros(3), 0, 5) == 0.0

    def test_rescaling_is_free(self, circle_cfg):
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=3)
        base = lg.oracle_plugin_estimate(circle_cfg, coeffs, 1, 12)
        for c in (10.0, -0.01, 3e5):
            assert lg.oracle_plugin_estimate(
                circle_cfg, c * coeffs, 1, 12
            ) == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficients_are_input_error(self, circle_cfg, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="coefficients must be finite"):
                lg.oracle_plugin_estimate(circle_cfg, np.array([1.0, bad, 0.5]), 0, 5)

    def test_feasible_below_optimized_sup(self, circle_cfg):
        # a plug-in candidate is feasible once scaled: it cannot beat the
        # pair's dual bound
        dec = circle_cfg.decomposition
        rng = np.random.default_rng(10)
        target = rng.normal(size=30)
        coeffs = dec.leading(circle_cfg.q).T @ target
        plug = lg.oracle_plugin_estimate(circle_cfg, coeffs, 0, 9)
        basis_q = dec.leading(circle_cfg.q)
        c = (basis_q[0] - basis_q[9])[None, :]
        _, _, bound = _solve_pairs(circle_cfg.gram_psd, c, 100)
        assert plug <= bound[0] * (1 + 1e-12)


def test_clamping_is_logged(caplog):
    # randomly sampled analytic modes break discrete orthogonality, which
    # pushes some squared-gradient values slightly negative
    thetas = lg.sample_circle_angles(40, seed=2)
    vals, modes = lg.analytic_eigenbasis(thetas, 8)
    op = operator_from_modes(vals, modes)
    dec = lg.eigendecompose(op)
    cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=8))
    rng = np.random.default_rng(1)
    with caplog.at_level(logging.WARNING, logger="lapgeo"):
        for _ in range(20):
            val = grad_sup(cfg, rng.uniform(-1, 1, size=4))
            assert val >= 0.0 and np.isfinite(val)
    assert "clamping" in caplog.text


def test_clamping_is_logged_once_per_estimate(caplog):
    # the instance of test_clamping_is_logged: each call below scores its
    # candidates once, and some of their Dirac-squared coordinates clamp
    thetas = lg.sample_circle_angles(40, seed=2)
    vals, modes = lg.analytic_eigenbasis(thetas, 8)
    dec = lg.eigendecompose(operator_from_modes(vals, modes))
    cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=8))
    cloud = lg.embed(thetas)
    opt = lg.OptimizerConfig(seed=0)
    vhat = np.array([0.4, 0.2, -0.1, 0.6])
    calls = [
        # the second reuses the first's G+ and still scores once
        lambda: lg.estimate_distance_rows(cfg, cloud, opt),
        lambda: lg.estimate_distance_rows(cfg, cloud, opt),
        lambda: lg.estimate_distance(cfg, 0, 7, opt),
        lambda: lg.grad_sup(cfg, vhat),
        lambda: lg.objective(cfg, vhat, 0, 7),
        lambda: lg.oracle_plugin_estimate(cfg, 2.0 * vhat, 0, 7),
    ]
    with caplog.at_level(logging.WARNING, logger="lapgeo"):
        for call in calls:
            caplog.clear()
            call()
            clamps = [r for r in caplog.records if "clamping" in r.getMessage()]
            assert len(clamps) == 1
