import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lapgeo as lg
from lapgeo.laplacian import gram_distances, squared_distances


def _cfg(vol=2 * np.pi, h=0.5, d=1):
    return lg.ManifoldConfig(d, vol, h)


clouds = st.integers(2, 8).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: arrays(
            np.float64,
            (n, d),
            elements=st.floats(-3.0, 3.0, allow_nan=False, width=64),
        )
    )
)


def test_two_point_closed_form():
    h = 0.7
    pts = np.array([[0.0], [1.0]])
    lap = lg.build_laplacian(lg.PointCloud(pts), _cfg(h=h))
    s = 2 * np.pi / (2 * np.sqrt(np.pi) * 2 * h ** 3)
    off = s * np.exp(-1.0 / (4 * h * h))
    expect = np.array([[-off, off], [off, -off]])
    assert np.allclose(lap.matrix, expect, rtol=1e-14)


def test_single_point_is_zero_operator():
    lap = lg.build_laplacian(lg.PointCloud(np.array([[2.0, 3.0]])), _cfg(d=2))
    assert lap.matrix.shape == (1, 1)
    assert lap.matrix[0, 0] == 0.0


def test_constant_in_kernel():
    cloud = lg.sample_uniform_circle(40, seed=1)
    lap = lg.build_laplacian(cloud, _cfg(h=0.3))
    assert np.max(np.abs(lap.matrix @ np.ones(40))) < 1e-9 * np.max(np.abs(lap.matrix))


def test_volume_scaling_is_linear():
    cloud = lg.sample_uniform_circle(12, seed=2)
    l1 = lg.build_laplacian(cloud, _cfg(vol=2 * np.pi)).matrix
    l2 = lg.build_laplacian(cloud, _cfg(vol=4 * np.pi)).matrix
    assert np.allclose(l2, 2.0 * l1, rtol=1e-14)


def test_offdiag_couplings_decay_with_bandwidth():
    # smaller h concentrates the kernel: far-pair weight shrinks
    pts = np.array([[0.0], [3.0]])
    cloud = lg.PointCloud(pts)
    w = []
    for h in (1.0, 0.5, 0.25):
        lap = lg.build_laplacian(cloud, _cfg(h=h))
        w.append(np.exp(-9.0 / (4 * h * h)))
        assert lap.matrix[0, 1] > 0
    assert w[0] > w[1] > w[2]


def test_circle_scale_is_bitwise_the_d1_constant():
    # (4 pi)^(1/2) == 2 sqrt(pi) in floating point, so d = 1 operators are
    # unchanged by the general heat-kernel constant
    cloud = lg.sample_uniform_circle(50, seed=3)
    h = 0.4
    lap = lg.build_laplacian(cloud, _cfg(h=h)).matrix
    d2 = squared_distances(cloud.points)
    w = np.exp(-d2 / (4.0 * h * h))
    np.fill_diagonal(w, 0.0)
    old = (2 * np.pi / (2.0 * np.sqrt(np.pi) * 50 * h ** 3)) * w
    np.fill_diagonal(old, -old.sum(axis=1))
    assert np.array_equal(lap, old)


def test_sphere_first_eigenvalues_near_minus_two():
    # the l = 1 eigenspace of the Laplace-Beltrami operator on the unit
    # 2-sphere has eigenvalue -l(l + 1) = -2, multiplicity 3
    n = 500
    x = np.random.default_rng(0).standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    cfg = lg.ManifoldConfig(2, 4 * np.pi, 0.5 * n ** (-1 / 6))
    dec = lg.eigendecompose(lg.build_laplacian(lg.PointCloud(x), cfg))
    assert np.allclose(dec.nonzero_eigenvalues[:3], -2.0, rtol=0.25, atol=0.0)


@pytest.mark.parametrize("volume, bandwidth", [(1e308, 1e-100), (1e308, 0.2)])
def test_overflowing_scale_is_silent_input_error(volume, bandwidth):
    # 1e-100: s is inf and inf * 0 is NaN; 0.2: s is finite but the row
    # sums overflow.  Either way an InputError, and no numpy warning first
    cloud = lg.sample_uniform_circle(1000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(lg.InputError, match="finite"):
            lg.build_laplacian(cloud, _cfg(vol=volume, h=bandwidth))


@given(clouds)
def test_row_sums_vanish(pts):
    lap = lg.build_laplacian(lg.PointCloud(pts), _cfg(d=pts.shape[1]))
    scale = max(np.max(np.abs(lap.matrix)), 1.0)
    assert np.max(np.abs(lap.matrix.sum(axis=1))) <= 1e-9 * scale


@given(clouds)
def test_negative_semidefinite(pts):
    lap = lg.build_laplacian(lg.PointCloud(pts), _cfg(d=pts.shape[1]))
    w = np.linalg.eigvalsh(lap.matrix)
    scale = max(np.max(np.abs(w)), 1.0)
    assert w[-1] <= 1e-9 * scale


class TestGramDistances:
    def test_right_triangle(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        d = gram_distances(lg.PointCloud(pts)).matrix
        assert d[0, 1] == pytest.approx(3.0, rel=1e-14)
        assert d[0, 2] == pytest.approx(4.0, rel=1e-14)
        assert d[1, 2] == pytest.approx(5.0, rel=1e-14)

    def test_single_point(self):
        d = gram_distances(lg.PointCloud(np.array([[7.0]]))).matrix
        assert d.shape == (1, 1) and d[0, 0] == 0.0

    @given(clouds)
    def test_matches_brute_force(self, pts):
        d = gram_distances(lg.PointCloud(pts)).matrix
        brute = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        assert np.allclose(d, brute, atol=1e-7)

    def test_squared_distances_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        d2 = squared_distances(pts)
        assert np.array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)
        assert np.all(d2 >= 0.0)
