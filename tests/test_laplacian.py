import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lapgeo as lg
import lapgeo.types as types
from conftest import difference_squared_distances, fresh_array_laplacian
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


@pytest.mark.parametrize(
    "volume, bandwidth",
    [(1e308, 1e-100), (1e308, 0.2), (6.28, 1e-170), (6.28, 1e-200), (6.28, 1e300)],
)
def test_overflowing_scale_is_silent_input_error(volume, bandwidth):
    # 1e-100: s is inf; 0.2: s is finite but the row sums overflow;
    # 1e-170 and 1e-200: h^3 and 4h^2 underflow to 0; 1e300: h^3 overflows.
    # Each is an InputError, with no numpy warning first
    cloud = lg.sample_uniform_circle(1000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(lg.InputError, match="finite"):
            lg.build_laplacian(cloud, _cfg(vol=volume, h=bandwidth))


def test_underflowing_weights_are_silent_zeros():
    # -d2 / 4h^2 leaves the double range; exp of the -inf is the zero weight
    cloud = lg.PointCloud(np.array([[1e150, 0.0], [0.0, 1e150], [0.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lap = lg.build_laplacian(cloud, _cfg(h=1e-10))
    assert not np.any(lap.matrix)


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


class _SkewedGram(np.ndarray):
    """Points whose Gram product x @ x.T scales the entries below its
    diagonal by 1 + 2^-50."""

    def __matmul__(self, other):
        g = np.asarray(self) @ np.asarray(other)
        g[np.tril_indices_from(g, -1)] *= 1.0 + 2.0 ** -50
        return g


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

    def test_squared_distances_exactly_symmetric(self, monkeypatch):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        # symmetry by construction: the Gram product itself is not symmetric
        skewed = rng.normal(size=(30, 2)).view(_SkewedGram)
        for entries in (None, 1, 100, 999):
            if entries is not None:
                monkeypatch.setattr(types, "BLOCK_ENTRIES", entries)
            for x in (pts, skewed):
                d2 = squared_distances(x)
                assert np.array_equal(d2, d2.T)
                assert np.all(np.diag(d2) == 0.0)
                assert np.all(d2 >= 0.0)


class TestInPlaceArithmetic:
    """squared_distances and build_laplacian reuse their n x n buffers;
    every bit equals the fresh-array formulas."""

    @staticmethod
    def _clouds():
        rng = np.random.default_rng(4)
        yield rng.normal(size=(40, 3))
        yield rng.normal(size=(33, 2)) * 1e3 + 1e5  # far from the origin
        dup = rng.normal(size=(12, 2))
        yield np.vstack([dup, dup[::2]])  # coincident points
        yield lg.sample_uniform_circle(200, seed=6).points
        yield np.array([[0.5]])

    def test_squared_distances_bitwise(self):
        for pts in self._clouds():
            assert squared_distances(pts).tobytes() == \
                difference_squared_distances(pts).tobytes()

    @pytest.mark.parametrize("h", [0.05, 0.5, 3.0])
    def test_build_laplacian_bitwise(self, h):
        for pts in self._clouds():
            cloud = lg.PointCloud(pts)
            for cfg in (_cfg(h=h), _cfg(vol=4 * np.pi, h=h, d=2)):
                m = lg.build_laplacian(cloud, cfg).matrix
                assert m.tobytes() == fresh_array_laplacian(cloud, cfg).tobytes()


class TestRowBlocks:
    """squared_distances sums coordinate differences into its one n x n
    buffer over row blocks: every bit equals the whole-matrix sum, whatever
    the block size."""

    @staticmethod
    def _clouds():
        rng = np.random.default_rng(9)
        yield "one point", np.array([[0.5, -2.0]])
        # 700 rows: blocks of 280, 280 and 140 at the default size
        yield "n=700", lg.sample_uniform_circle(700, seed=3).points
        dup = rng.normal(size=(30, 2))
        yield "duplicates", np.vstack([dup, dup[::3], dup[:1]])
        yield "3-d", rng.normal(size=(57, 3)) * 10.0
        yield "far", rng.normal(size=(41, 2)) + 1e4

    @pytest.mark.parametrize("entries", [None, 1, 100, 999])
    def test_squared_distances_bitwise_two_buffer(self, monkeypatch, entries):
        if entries is not None:  # 1 entry: one row per block
            monkeypatch.setattr(types, "BLOCK_ENTRIES", entries)
        for name, pts in self._clouds():
            if entries is None and name == "n=700":
                assert len(types.row_blocks(700)) == 3
            got = squared_distances(pts)
            assert got.tobytes() == difference_squared_distances(pts).tobytes(), name

    def test_row_blocks_cover_in_order(self):
        for n in [0, 1, 5, 700, 443, 444]:
            blocks = types.row_blocks(n)
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
            assert all((b.stop - b.start) * n <= max(types.BLOCK_ENTRIES, n) for b in blocks)
        # the loss sweep's largest matrix is one block
        assert len(types.row_blocks(400)) == 1

    def test_builders_adopt_their_array(self):
        cloud = lg.sample_uniform_circle(50, seed=2)
        for made in (lg.build_laplacian(cloud, _cfg(h=0.3)), gram_distances(cloud)):
            assert not made.matrix.flags.writeable
            assert made.matrix.base is None  # owned, not a view of a copy source


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """One n x n array plus a block-sized temporary: the whole-matrix
    checks of a copied matrix reached four n x n arrays."""

    N = 600

    def _bound(self):
        return 8 * (self.N * self.N + 1.5 * types.BLOCK_ENTRIES)

    def test_build_laplacian(self):
        cloud = lg.sample_uniform_circle(self.N, seed=1)
        cfg = _cfg(h=0.5 * self.N ** -0.25)
        assert _traced_peak(lg.build_laplacian, cloud, cfg) < self._bound()

    def test_gram_distances(self):
        cloud = lg.sample_uniform_circle(self.N, seed=1)
        assert _traced_peak(gram_distances, cloud) < self._bound()


# clouds in R^1 to R^3 with exact copies of some of their points: a copy
# pair e_i - e_j is a kernel null vector, where the bound can be attained
clouds_with_copies = clouds.flatmap(
    lambda pts: st.lists(st.integers(0, len(pts) - 1), max_size=4).map(
        lambda rows: np.vstack([pts, pts[rows]])
    )
)


@given(clouds_with_copies, st.floats(-2.0, 2.0))
def test_radius_bounds_the_spectrum(pts, log_h):
    cfg = _cfg(h=10.0 ** log_h, d=pts.shape[1])
    lap = lg.build_laplacian(lg.PointCloud(pts), cfg)
    lowest = np.linalg.eigvalsh(lap.matrix)[0]
    assert lap.radius >= -lowest * (1.0 - 1e-12)
    assert lap.radius <= 2.0 * np.max(np.abs(np.diagonal(lap.matrix)))


def test_kernel_bound_holds_only_for_the_builder():
    # K_3,3 with unit weights: its adjacency plus I is not positive
    # semidefinite, and the spectrum 0, -3 (four times), -6 reaches below
    # max|L_ii| + max w = 4.  The public constructor keeps the Gershgorin
    # bound 2 max|L_ii| = 6, which holds for any non-negative weights
    adj = np.zeros((6, 6))
    adj[:3, 3:] = adj[3:, :3] = 1.0
    lap = lg.GraphLaplacian(adj - np.diag(adj.sum(axis=1)))
    assert lap.radius == 6.0
    lowest = np.linalg.eigvalsh(lap.matrix)[0]
    assert np.isclose(lowest, -6.0, rtol=1e-14)
    assert -lowest > np.max(np.abs(np.diagonal(lap.matrix))) + 1.0


def test_builder_radius_is_the_kernel_bound():
    # on 1000 circle samples: within a few parts in 1e7 above the true
    # radius, about half the Gershgorin bound
    n = 1000
    cloud = lg.sample_uniform_circle(n, seed=0)
    lap = lg.build_laplacian(cloud, _cfg(h=0.5 * n ** -0.25))
    peak = np.max(np.abs(np.diagonal(lap.matrix)))
    true = -np.linalg.eigvalsh(lap.matrix)[0]
    assert true <= lap.radius <= true * (1.0 + 1e-6)
    assert lap.radius < 0.55 * 2.0 * peak
    assert lg.GraphLaplacian(lap.matrix).radius == 2.0 * peak
