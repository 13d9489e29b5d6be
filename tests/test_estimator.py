import logging
import os
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
    GRAD_EPS,
    TILE,
    _candidate_cols,
    _chebyshev_floor,
    _mc_candidates,
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
    def test_sup_clamps_the_column_maxima(self):
        # columns: all negative, mixed around NEGATIVITY_TOL, zero, positive
        d2 = np.array([
            [-3e-7, 4e-3, 0.0, 2.5],
            [-1e-9, -2e-8, 0.0, 1e-14],
            [-5e-2, -1e-10, 0.0, 0.75],
        ])
        clamps = est._Clamps()
        sup = clamps.sup(d2)
        assert sup.tobytes() == np.sqrt(np.maximum(d2, 0.0).max(axis=0)).tobytes()
        assert clamps.count == np.count_nonzero(d2 < est.NEGATIVITY_TOL) == 3
        assert clamps.worst == d2.min() == -5e-2


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

    def test_monotone_in_samples(self, circle_cfg, monkeypatch):
        # nested candidate streams: more samples never lowers the sup
        vals = []
        for ns in (25, 50, 100, 200):
            monkeypatch.setattr("lapgeo.estimator.KEEP_TOP", ns)
            opt = lg.OptimizerConfig(n_samples=ns, n_refine=3, seed=2)
            vals.append(lg.estimate_distance(circle_cfg, 1, 9, opt))
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_all_degenerate_raises(self):
        dec = lg.eigendecompose(np.diag([0.0, -1e-24]))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=1, r=1))
        opt = lg.OptimizerConfig(n_samples=40, n_refine=2, seed=0)
        with pytest.raises(EstimationFailedError):
            lg.estimate_distance(cfg, 0, 1, opt)


class TestEstimateAllDistances:
    def test_zero_samples_is_input_error(self):
        # the chordal matrix alone is gram_distances; a search needs a draw
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
        d = lg.estimate_all_distances(cfg, cloud, opt)
        euclid = np.linalg.norm(
            cloud.points[:, None, :] - cloud.points[None, :, :], axis=2
        )
        assert np.all(d.matrix >= euclid - 1e-12)

    def test_consistent_with_single_pair(self):
        cloud = lg.sample_uniform_circle(15, seed=8)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 15 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=6))
        # refinement off: both paths then probe exactly the shared stream
        opt = lg.OptimizerConfig(n_samples=150, n_refine=0, seed=3)
        d = lg.estimate_all_distances(cfg, cloud, opt)
        for a, b in ((0, 7), (2, 11), (5, 14)):
            single = lg.estimate_distance(cfg, a, b, opt)
            assert d.matrix[a, b] >= single - 1e-9

    def test_exactly_symmetric(self):
        cloud = lg.sample_uniform_circle(200, seed=9)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 200 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=12))
        d = lg.estimate_all_distances(cfg, cloud, lg.OptimizerConfig(seed=4)).matrix
        assert np.array_equal(d, d.T)

    def test_chebyshev_over_monte_carlo_candidates(self):
        cloud = lg.sample_uniform_circle(40, seed=10)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * 40 ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=3, r=8))
        # refinement off: the probed candidates are the Monte-Carlo stream
        opt = lg.OptimizerConfig(n_samples=80, n_refine=0, seed=5)
        d = lg.estimate_all_distances(cfg, cloud, opt).matrix
        ref = lg.gram_distances(cloud).matrix.copy()
        for vhat in _mc_candidates(cfg.q, opt).T:
            sup = grad_sup(cfg, vhat)
            if sup < GRAD_EPS:
                continue
            f = dec.leading(cfg.q) @ vhat
            ref = np.maximum(ref, np.abs(f[:, None] - f[None, :]) / sup)
        np.fill_diagonal(ref, 0.0)
        assert np.max(np.abs(d - ref)) <= 1e-12

    def test_all_degenerate_raises(self):
        dec = lg.eigendecompose(np.diag([0.0, -1e-24]))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=1, r=1))
        cloud = lg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        opt = lg.OptimizerConfig(n_samples=40, n_refine=2, seed=0)
        with pytest.raises(EstimationFailedError):
            lg.estimate_all_distances(cfg, cloud, opt)

    def test_no_candidate_scored_twice(self, monkeypatch):
        cfg, cloud = _circle(100, 11, q=4, r=12)
        opt = lg.OptimizerConfig(seed=6)
        searches = []
        search = est._search

        def spy(score_cols, q, opt):
            scored = []
            searches.append(scored)

            def counted(vhat_cols):
                scored.extend(map(tuple, vhat_cols.T.tolist()))
                return score_cols(vhat_cols)

            return search(counted, q, opt)

        monkeypatch.setattr(est, "_search", spy)
        lg.estimate_all_distances(cfg, cloud, opt)
        lg.estimate_distance(cfg, 3, 40, opt)
        assert len(searches) == 2
        for scored in searches:
            # past the Monte-Carlo stream into refinement
            assert len(scored) > opt.n_samples
            assert len(set(scored)) == len(scored)

    @pytest.mark.parametrize("n", [1, 2, TILE - 1, TILE + 1, 3 * TILE + 5])
    def test_tiled_floor_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        emb = rng.normal(size=(n, 37))
        points = rng.normal(size=(n, 2))
        chordal, dist, _ = _floor(points, emb)
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        assert np.array_equal(dist, brute)

    def test_floors_the_embedding_brute_force(self, monkeypatch):
        n = 3 * TILE + 5
        cfg, cloud = _circle(n, 12, q=4, r=12)
        embeddings = []
        floor = est._chebyshev_floor

        def spy(dist, emb, perm, starts):
            # the embedding's rows come in bisection order
            embeddings.append(emb[np.argsort(perm)])
            floor(dist, emb, perm, starts)

        monkeypatch.setattr(est, "_chebyshev_floor", spy)
        d = lg.estimate_all_distances(cfg, cloud, lg.OptimizerConfig(seed=2))
        (emb,) = embeddings
        chordal = np.sqrt(squared_distances(cloud.points))
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        np.fill_diagonal(brute, 0.0)
        assert np.array_equal(d.matrix, brute)

    def test_independent_of_worker_count(self, monkeypatch):
        cfg, cloud = _circle(150, 13, q=4, r=12)
        opt = lg.OptimizerConfig(seed=3)
        results = []
        for cpus in ({0}, {0, 1, 2}, os.sched_getaffinity(0)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
            results.append(lg.estimate_all_distances(cfg, cloud, opt).matrix)
        # platforms without sched_getaffinity (macOS, Windows) use cpu_count
        monkeypatch.delattr(os, "sched_getaffinity")
        results.append(lg.estimate_all_distances(cfg, cloud, opt).matrix)
        assert all(np.array_equal(results[0], r) for r in results[1:])


def _floor_inputs():
    """(name, points, embedding) triples that stress the tile bounds.  Most
    embeddings have columns sin(<w, x> + c), each Lipschitz with constant
    |w|, so the bounds prune some tile pairs and keep others."""
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
    for n in (1, 2, TILE - 1, TILE + 1, 3 * TILE + 5, 200):
        pts = rng.normal(size=(n, 2))
        cases.append((f"n={n}", pts, smooth(pts)))
    return cases


FLOOR_INPUTS = _floor_inputs()


def _floor(points, emb):
    """(chordal, floored, evaluated) for a cloud and its embedding, whose
    rows the floor takes in the points' bisection order."""
    chordal = np.sqrt(squared_distances(points))
    dist = chordal.copy()
    perm, starts = est._bisection_order(points)
    evaluated = _chebyshev_floor(dist, emb[perm], perm, starts)
    return chordal, dist, evaluated


def _tile_pairs(points):
    tiles = est._bisection_order(points)[1].size
    return tiles * (tiles + 1) // 2


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
            chordal, dist, _ = _floor(points, emb)
        finally:
            sys.setswitchinterval(interval)
        brute = np.maximum(chordal, np.abs(emb[:, None] - emb[None]).max(-1))
        assert dist.tobytes() == brute.tobytes()

    def test_cases_prune_and_floor(self):
        # the brute-force cases exercise both branches: columns of tile
        # pairs are skipped, and the embedding raises entries
        pruned = raised = 0
        for _, points, emb in FLOOR_INPUTS:
            chordal, dist, evaluated = _floor(points, emb)
            pruned += evaluated < _tile_pairs(points) * emb.shape[1]
            raised += bool(np.any(dist > chordal))
        assert pruned >= 5 and raised >= 5

    def test_zero_embedding_evaluates_diagonal_tiles_at_most(self):
        points = np.random.default_rng(12).normal(size=(200, 2))
        emb = np.zeros((200, 8))
        chordal, dist, evaluated = _floor(points, emb)
        tiles = est._bisection_order(points)[1].size
        assert tiles == 16  # of 12 or 13 points
        assert evaluated <= tiles * emb.shape[1]
        assert np.array_equal(dist, chordal)

    def test_circle_estimate_skips_most_columns(self, monkeypatch):
        cfg, cloud = _circle(400, 14, q=4, r=12)
        counts = []
        floor = est._chebyshev_floor

        def spy(dist, emb, perm, starts):
            counts.append(floor(dist, emb, perm, starts) / emb.shape[1])

        monkeypatch.setattr(est, "_chebyshev_floor", spy)
        lg.estimate_all_distances(cfg, cloud, lg.OptimizerConfig(seed=4))
        (per_column,) = counts
        assert per_column < 0.5 * _tile_pairs(cloud.points)

    def test_bisection_order_tiles(self):
        points = np.random.default_rng(13).normal(size=(200, 3))
        perm, starts = est._bisection_order(points)
        assert np.array_equal(np.sort(perm), np.arange(200))
        sizes = np.diff(np.append(starts, 200))
        assert starts[0] == 0 and np.all((sizes > 0) & (sizes <= TILE))


class TestInPlacePermutation:
    """The floor applies the bisection order in place: through index arrays
    into dist, whose strips are its only scratch, with the embedding only
    read."""

    def test_floor_leaves_the_embedding_as_it_was(self):
        _, points, emb = FLOOR_INPUTS[-1]
        perm, starts = est._bisection_order(points)
        rows = emb[perm]
        rows.setflags(write=False)
        before = rows.copy()
        dist = np.sqrt(squared_distances(points))
        _chebyshev_floor(dist, rows, perm, starts)
        assert rows.tobytes() == before.tobytes()

    def test_peak_is_one_matrix_plus_the_embedding(self, monkeypatch):
        # one worker: each worker holds an m x TILE x TILE difference buffer
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n = 600
        cfg, cloud = _circle(n, 17, q=4, r=12)
        widths = []
        floor = est._chebyshev_floor

        def spy(dist, emb, perm, starts):
            widths.append(emb.shape[1])
            return floor(dist, emb, perm, starts)

        monkeypatch.setattr(est, "_chebyshev_floor", spy)
        tracemalloc.start()
        try:
            lg.estimate_all_distances(cfg, cloud, lg.OptimizerConfig(seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (m,) = widths
        # the search's columns and the embedding they are copied into, or
        # the chordal matrix, the embedding and the floor's scratch
        assert peak < 8 * (n * n + 2 * n * m + m * TILE * TILE)


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

    def test_feasible_below_optimized_sup(self, circle_cfg, monkeypatch):
        dec = circle_cfg.decomposition
        rng = np.random.default_rng(10)
        target = rng.normal(size=30)
        coeffs = dec.leading(circle_cfg.q).T @ target
        plug = lg.oracle_plugin_estimate(circle_cfg, coeffs, 0, 9)
        monkeypatch.setattr("lapgeo.estimator.KEEP_TOP", 20)
        opt = lg.OptimizerConfig(n_samples=4000, n_refine=30, seed=0)
        est = lg.estimate_distance(circle_cfg, 0, 9, opt)
        assert plug <= est + 1e-9


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
    # the instance of test_clamping_is_logged: each search below clamps in
    # over 400 of its scoring calls
    thetas = lg.sample_circle_angles(40, seed=2)
    vals, modes = lg.analytic_eigenbasis(thetas, 8)
    dec = lg.eigendecompose(operator_from_modes(vals, modes))
    cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=8))
    cloud = lg.embed(thetas)
    opt = lg.OptimizerConfig(seed=0)
    with caplog.at_level(logging.WARNING, logger="lapgeo"):
        for _ in range(2):
            lg.estimate_all_distances(cfg, cloud, opt)
        lg.estimate_distance(cfg, 0, 7, opt)
    clamps = [r for r in caplog.records if "clamping" in r.getMessage()]
    assert len(clamps) == 3
