import numpy as np
import pytest

import lapgeo as lg
from lapgeo.circle import (
    GRID_SIZE,
    TWO_PI,
    covering_radius_circle,
    distance_fourier_coeffs,
    equally_spaced_angles,
    q_resolved_distance,
)

SQRT_PI = np.sqrt(np.pi)


class TestGeodesic:
    def test_short_way_round(self):
        # 0.3 vs 6.1: crossing zero is shorter than going the long way
        assert lg.circle_geodesic(0.3, 6.1) == pytest.approx(0.4831853071795864, abs=1e-15)

    def test_antipodes(self):
        assert lg.circle_geodesic(0.0, np.pi) == pytest.approx(np.pi, abs=1e-15)

    def test_symmetry_and_identity(self):
        assert lg.circle_geodesic(1.0, 1.0) == 0.0
        assert lg.circle_geodesic(1.0, 2.5) == lg.circle_geodesic(2.5, 1.0)

    def test_vectorized(self):
        t = np.array([0.0, 1.0, 4.0])
        out = lg.circle_geodesic(0.0, t)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(2 * np.pi - 4.0, abs=1e-14)

    def test_bounded_by_pi(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(0, 2 * np.pi, size=(2, 200))
        assert np.all(lg.circle_geodesic(a, b) <= np.pi + 1e-15)


class TestSampling:
    def test_embed_unit_norm(self):
        cloud = lg.sample_uniform_circle(100, seed=3)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_seed_is_bitwise_reproducible(self):
        a = lg.sample_circle_angles(50, seed=9)
        b = lg.sample_circle_angles(50, seed=9)
        assert np.array_equal(a, b)

    def test_mean_position_near_zero(self):
        cloud = lg.sample_uniform_circle(10_000, seed=11)
        assert np.max(np.abs(cloud.points.mean(axis=0))) < 0.05

    def test_equally_spaced(self):
        t = equally_spaced_angles(4)
        assert np.allclose(t, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-15)


class TestAnalyticEigenbasis:
    def test_eigenvalue_pattern(self):
        thetas = equally_spaced_angles(16)
        vals, modes = lg.analytic_eigenbasis(thetas, 4)
        assert np.array_equal(vals, [-1.0, -1.0, -4.0, -4.0])
        assert modes.shape == (16, 4)
        # columns alternate sin/cos per frequency; amplitude 1/sqrt(pi)
        assert np.allclose(modes[:, 0], np.sin(thetas) / SQRT_PI, atol=1e-15)
        assert np.allclose(modes[:, 1], np.cos(thetas) / SQRT_PI, atol=1e-15)
        assert np.allclose(modes[:, 2], np.sin(2 * thetas) / SQRT_PI, atol=1e-15)

    def test_uniform_amplitude_bound(self):
        grid = np.linspace(0.0, 2 * np.pi, 100_001)
        _, modes = lg.analytic_eigenbasis(grid, 10)
        sups = np.max(np.abs(modes), axis=0)
        assert np.all(sups <= 1.0 / SQRT_PI + 1e-12)
        assert np.all(sups >= 1.0 / SQRT_PI - 1e-6)

    def test_near_orthonormal_under_uniform_sampling(self):
        thetas = lg.sample_circle_angles(1000, seed=21)
        _, modes = lg.analytic_eigenbasis(thetas, 6)
        gram = (2 * np.pi / 1000) * modes.T @ modes
        assert np.max(np.abs(gram - np.eye(6))) < 0.1

    def test_exactly_orthogonal_when_equally_spaced(self):
        thetas = equally_spaced_angles(64)
        _, modes = lg.analytic_eigenbasis(thetas, 8)
        gram = (2 * np.pi / 64) * modes.T @ modes
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_triple_products_vanish_off_resonance(self):
        # product of three harmonics integrates to zero unless one frequency
        # equals the sum or difference of the other two
        grid = np.linspace(0.0, 2 * np.pi, 4097)
        vals, modes = lg.analytic_eigenbasis(grid, 8)
        freqs = [int(np.sqrt(-v)) for v in vals]
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    if freqs[k] in (freqs[i] + freqs[j], abs(freqs[i] - freqs[j])):
                        continue
                    prod = modes[:, i] * modes[:, j] * modes[:, k]
                    val = np.trapezoid(prod, grid)
                    assert abs(val) < 1e-8


class TestDistanceFourierCoeffs:
    def test_closed_form_at_zero(self):
        c = distance_fourier_coeffs(0.0, 4)
        # order: sin1, cos1, sin2, cos2; only odd frequencies survive
        assert c[0] == pytest.approx(0.0, abs=1e-15)
        assert c[1] == pytest.approx(-4.0 / SQRT_PI, abs=1e-12)
        assert c[2] == pytest.approx(0.0, abs=1e-15)
        assert c[3] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("t0", [0.0, 1.234, 4.0])
    def test_matches_quadrature(self, t0):
        grid = np.linspace(0.0, 2 * np.pi, 100_001)
        f = lg.circle_geodesic(t0, grid)
        c = distance_fourier_coeffs(t0, 8)
        _, modes = lg.analytic_eigenbasis(grid, 8)
        for j in range(8):
            quad = np.trapezoid(f * modes[:, j], grid)
            assert c[j] == pytest.approx(quad, abs=1e-6)

    def test_even_frequencies_vanish(self):
        c = distance_fourier_coeffs(2.2, 12)
        for j in range(12):
            if (j // 2 + 1) % 2 == 0:
                assert abs(c[j]) < 1e-10


def _q_resolved_two_trig(t0, t1, q):
    """Reference q_resolved_distance that evaluates sin and cos of every
    phase and keeps one per row by np.where."""
    coeffs = distance_fourier_coeffs(t0, q)
    ks = np.arange(q) // 2 + 1
    is_sin = np.arange(q) % 2 == 0

    def f(t):
        phases = np.multiply.outer(ks, t)
        basis = np.where(is_sin, np.sin(phases), np.cos(phases)) / SQRT_PI
        return np.pi / 2.0 + coeffs @ basis

    phases = np.outer(ks, np.linspace(0.0, TWO_PI, GRID_SIZE, endpoint=False))
    dbasis = np.where(is_sin[:, None], np.cos(phases), -np.sin(phases))
    dbasis *= ks[:, None] / SQRT_PI
    sup_grad = np.max(np.abs(coeffs @ dbasis))
    return float(np.abs(f(t0) - f(t1)) / max(sup_grad, 1.0))


class TestQResolvedDistance:
    def test_bitwise_equal_to_two_trig_reference(self):
        rng = np.random.default_rng(31)
        for q in range(1, 30):  # odd q ends on a sin row
            for t0, t1 in rng.uniform(0, 2 * np.pi, size=(4, 2)):
                assert q_resolved_distance(t0, t1, q) == _q_resolved_two_trig(t0, t1, q)

    def test_includes_all_requested_terms(self):
        # with two coefficients the cosine term carries everything at t0=0
        val = q_resolved_distance(0.0, np.pi, 2)
        assert val == pytest.approx(2.0, rel=1e-3)

    def test_zero_at_coincident_points(self):
        assert q_resolved_distance(1.5, 1.5, 7) == pytest.approx(0.0, abs=1e-12)

    def test_never_far_above_geodesic(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            t0, t1 = rng.uniform(0, 2 * np.pi, size=2)
            geo = lg.circle_geodesic(t0, t1)
            for q in (2, 6, 12, 24):
                assert q_resolved_distance(t0, t1, q) <= geo + 1e-3

    def test_monotone_on_even_steps(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            t0, t1 = rng.uniform(0, 2 * np.pi, size=2)
            vals = [q_resolved_distance(t0, t1, q) for q in range(2, 30, 2)]
            assert all(a <= b + 1e-6 for a, b in zip(vals, vals[1:]))


class TestCoveringRadius:
    def test_four_equally_spaced(self):
        assert covering_radius_circle(equally_spaced_angles(4)) == pytest.approx(
            np.pi / 4, abs=1e-12
        )

    def test_single_point(self):
        assert covering_radius_circle(np.array([1.0])) == pytest.approx(np.pi, abs=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(25)
        thetas = rng.uniform(0, 2 * np.pi, size=100)
        grid = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
        worst = 0.0
        for chunk in np.array_split(grid, 10):
            d = lg.circle_geodesic(chunk[:, None], thetas[None, :])
            worst = max(worst, float(d.min(axis=1).max()))
        assert covering_radius_circle(thetas) == pytest.approx(worst, abs=1e-3)
