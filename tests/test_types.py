import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import lapgeo as lg
import lapgeo.types as types
from conftest import two_step_distance_matrix_accepts, whole_matrix_laplacian_accepts
from lapgeo.errors import InputError
from lapgeo.laplacian import squared_distances


class TestValidatePointCloud:
    """PointCloud checks a raw cloud itself; every bad one is an InputError."""

    def test_accepts_list_of_rows(self):
        cloud = lg.PointCloud([[0.0, 1.0], [1.0, 0.0]])
        assert cloud.n == 2
        assert cloud.ambient_dim == 2
        assert cloud.points.dtype == np.float64

    def test_accepts_array(self):
        pts = np.arange(12.0).reshape(4, 3)
        cloud = lg.PointCloud(pts)
        assert np.array_equal(cloud.points, pts)

    def test_single_point(self):
        cloud = lg.PointCloud([[1.5]])
        assert cloud.n == 1 and cloud.ambient_dim == 1

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            lg.PointCloud([])

    @pytest.mark.filterwarnings("error")
    def test_rejects_ragged(self):
        with pytest.raises(InputError, match=r"differing lengths \[1, 2\]"):
            lg.PointCloud([[1.0, 2.0], [3.0]])
        with pytest.raises(InputError, match=r"differing lengths \[2, 3\]"):
            lg.PointCloud([[1.0, 2.0], [3.0, 4.0, 5.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "raw", [[1.0, 2.0], np.arange(3.0), [[1.0, 2.0], 3.0], [[0.0, 1.0], [[2.0], [3.0]]]]
    )
    def test_rejects_rows_that_are_numbers(self, raw):
        with pytest.raises(InputError, match="vector of coordinates"):
            lg.PointCloud(raw)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "raw, match",
        [
            ([["a", "b"]], "real numbers: could not convert string to float: 'a'"),
            ([[1.0, 0.0], [2.0, 1j]], "real numbers"),
            ([[10**400, 0]], "real numbers: int too large"),
        ],
        ids=["text", "complex", "huge-int"],
    )
    def test_rejects_cells_that_are_not_real_numbers(self, raw, match):
        with pytest.raises(InputError, match=match):
            lg.PointCloud(raw)

    def test_rejects_zero_width(self):
        with pytest.raises(InputError, match="non-empty 2-d"):
            lg.PointCloud([[], []])

    def test_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="non-finite"):
                lg.PointCloud([[bad, 0.0]])

    @pytest.mark.parametrize("x, width", [(1e160, 2), (1.3e154, 2), (9.5e153, 2), (2.2e153, 30)])
    def test_rejects_overflowing_squared_distances(self, x, width):
        pts = np.zeros((2, width))
        pts[0, 0] = x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="too large"):
                lg.PointCloud(pts)

    def test_accepts_up_to_the_bound_without_warning(self):
        # opposite corners at the largest |x| that 8 N max|x|^2 admits in the
        # plane: each squared distance is 4 N x^2, the largest sum that
        # squared_distances forms
        x = math.sqrt(sys.float_info.max / 16)
        while 16.0 * x * x == math.inf:
            x = math.nextafter(x, 0.0)
        pts = np.array([[x, -x], [-x, x]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = squared_distances(lg.PointCloud(pts).points)
        assert np.all(np.isfinite(d2))
        with pytest.raises(InputError, match="too large"):
            lg.PointCloud(pts * 1.000001)

    def test_points_are_read_only(self):
        cloud = lg.PointCloud([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 9.0


class TestManifoldConfig:
    def test_holds_fields(self):
        cfg = lg.ManifoldConfig(1, 2 * np.pi, 0.3)
        assert cfg.intrinsic_dim == 1
        assert cfg.volume == 2 * np.pi
        assert cfg.bandwidth == 0.3

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan])
    def test_rejects_bad_bandwidth(self, bad):
        with pytest.raises(InputError, match="bandwidth"):
            lg.ManifoldConfig(1, 1.0, bad)

    def test_rejects_bad_dim_and_volume(self):
        with pytest.raises(InputError):
            lg.ManifoldConfig(0, 1.0, 0.5)
        with pytest.raises(InputError):
            lg.ManifoldConfig(1, -1.0, 0.5)

    @pytest.mark.parametrize("volume, bandwidth", [(np.inf, 0.5), (1.0, np.inf)])
    def test_rejects_infinite_volume_and_bandwidth(self, volume, bandwidth):
        with pytest.raises(InputError, match="finite"):
            lg.ManifoldConfig(1, volume, bandwidth)


class TestGraphLaplacian:
    def test_accepts_valid(self):
        m = np.array([[-1.0, 1.0], [1.0, -1.0]])
        lap = lg.GraphLaplacian(m)
        assert lap.n == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.array([[-bad, bad], [bad, -bad]])
        with pytest.raises(InputError, match="entries must be finite"):
            lg.GraphLaplacian(m)

    def test_rejects_asymmetric(self):
        m = np.array([[-1.0, 1.0], [0.5, -0.5]])
        with pytest.raises(InputError):
            lg.GraphLaplacian(m)

    def test_rejects_nonzero_row_sums(self):
        m = np.array([[-1.0, 0.5], [0.5, -1.0]])
        with pytest.raises(InputError):
            lg.GraphLaplacian(m)

    def test_rejects_positive_semidefinite_direction(self):
        # zero row sums but a positive eigenvalue
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InputError):
            lg.GraphLaplacian(m)

    def test_rejects_nsd_operator_with_a_negative_weight(self):
        # zero row sums and NSD, but w_02 = -1: not diagonally dominant, so
        # not a graph Laplacian; the raw array still decomposes
        b = np.array([1.0, -2.0, 1.0])
        with pytest.raises(InputError, match="weights must be non-negative"):
            lg.GraphLaplacian(-np.outer(b, b))
        dec = lg.eigendecompose(-np.outer(b, b))
        assert np.allclose(dec.eigenvalues, [0.0, 0.0, -6.0], atol=1e-12)
        assert dec.kernel_dim == 2

    def test_accepts_the_empty_and_the_zero_operator(self):
        assert lg.GraphLaplacian(np.zeros((0, 0))).n == 0
        assert lg.GraphLaplacian(np.zeros((3, 3))).n == 3


class TestTruncationParams:
    def test_rejects_q_above_r(self):
        with pytest.raises(InputError):
            lg.TruncationParams(q=6, r=5)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(InputError):
            lg.TruncationParams(q=0, r=5)


class TestDistanceMatrix:
    def test_accepts_inf_entries(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        d = lg.DistanceMatrix(m)
        assert np.isinf(d.matrix[0, 1])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            lg.DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_rejects_asymmetric_infinity_pattern(self):
        m = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(InputError):
            lg.DistanceMatrix(m)

    def test_rejects_negative(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InputError):
            lg.DistanceMatrix(m)

    def test_rejects_negative_infinity(self):
        m = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        with pytest.raises(InputError, match="non-negative"):
            lg.DistanceMatrix(m)

    def test_accepts_negative_zero_and_inf(self):
        m = np.array([[0.0, -0.0, np.inf], [-0.0, 0.0, 1.0], [np.inf, 1.0, -0.0]])
        assert np.array_equal(lg.DistanceMatrix(m).matrix, m)

    def test_tolerates_rounding_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        lg.DistanceMatrix(m)


def _accepts(m) -> bool:
    try:
        lg.DistanceMatrix(m)
    except InputError:
        return False
    return True


# -0.0 and 1 + 1e-13 probe the sign of zero and the symmetry tolerance
ENTRIES = [0.0, -0.0, 1.0, 1.0 + 1e-13, 2.0, np.inf, -np.inf, np.nan, -1.0]


class TestDistanceMatrixAcceptance:
    def test_every_2x2_matches_the_two_step_reference(self):
        accepted = 0
        for entries in itertools.product(ENTRIES, repeat=4):
            m = np.array(entries).reshape(2, 2)
            assert _accepts(m) == two_step_distance_matrix_accepts(m), m
            accepted += _accepts(m)
        assert accepted > 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_matrices_match_the_two_step_reference(self, n):
        rng = np.random.default_rng(n)
        outcomes = set()
        for _ in range(3000):
            m = rng.choice(ENTRIES, size=(n, n))
            # mostly near-valid matrices, so that the symmetry test decides
            if rng.random() < 0.8:
                np.fill_diagonal(m, rng.choice([0.0, -0.0], size=n))
            if rng.random() < 0.7:  # mirror the upper triangle, signs of zero kept
                m = np.where(np.tri(n, dtype=bool), m.T, m)
                if rng.random() < 0.5:
                    i, j = rng.integers(n, size=2)
                    m[i, j] = rng.choice(ENTRIES)
            expect = two_step_distance_matrix_accepts(m)
            assert _accepts(m) == expect, m
            outcomes.add(expect)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("entries", [1, 5])
    def test_row_blocks_match_the_two_step_reference(self, monkeypatch, entries):
        monkeypatch.setattr(types, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(entries)
        outcomes = set()
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            m = rng.choice(ENTRIES, size=(n, n))
            np.fill_diagonal(m, 0.0)
            if rng.random() < 0.8:
                m = np.where(np.tri(n, dtype=bool), m.T, m)
                if rng.random() < 0.5:
                    i, j = rng.integers(n, size=2)
                    m[i, j] = rng.choice(ENTRIES)
            expect = two_step_distance_matrix_accepts(m)
            assert _accepts(m) == expect, m
            outcomes.add(expect)
        assert outcomes == {True, False}

    def test_peak_is_one_copy_and_one_gap_buffer(self):
        n = 1000
        a = np.random.default_rng(0).uniform(size=(n, n))
        m = a + a.T
        np.fill_diagonal(m, 0.0)
        m[0, 1] = m[1, 0] = np.inf
        del a
        tracemalloc.start()
        try:
            lg.DistanceMatrix(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n


def _accepts_laplacian(m) -> bool:
    try:
        lg.GraphLaplacian(m)
    except InputError:
        return False
    return True


def _near_laplacians(rng, n, count):
    """Graph Laplacians of random weights, most with one fault near a
    check's threshold: a row sum, a weight's sign, an asymmetric pair, a
    non-finite entry, or nothing."""
    for _ in range(count):
        w = rng.uniform(0.0, 2.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        m = w - np.diag(w.sum(axis=1))
        i, j = rng.integers(n, size=2)
        kind = rng.integers(6)
        if kind == 1:  # a row sum off by about its tolerance
            m[i, i] += rng.choice([0.5, 2.0]) * 1e-9 * np.abs(m[i]).max()
        elif kind == 2 and i != j:  # a weight of either sign near zero
            m[i, j] = m[j, i] = rng.choice([-1.0, 1.0]) * rng.choice([1e-12, 1e-6, 0.5])
            np.fill_diagonal(m, np.diagonal(m) - m.sum(axis=1))
        elif kind == 3 and i != j:  # one pair asymmetric by about its tolerance
            m[i, j] += rng.choice([0.5, 2.0]) * 1e-12 * np.abs(m).max()
        elif kind == 4:
            m[i, j] = rng.choice([np.nan, np.inf, -np.inf])
        yield m


class TestGraphLaplacianRowBlocks:
    @pytest.mark.parametrize("entries", [None, 1, 7, 40])
    def test_accepts_exactly_what_the_whole_matrix_checks_accept(self, monkeypatch, entries):
        if entries is not None:  # a few rows per block, or one
            monkeypatch.setattr(types, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(entries or 0)
        outcomes = set()
        for n in (1, 2, 5, 9):
            for m in _near_laplacians(rng, n, 300):
                expect = whole_matrix_laplacian_accepts(m)
                assert _accepts_laplacian(m) == expect, m
                outcomes.add(expect)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_before_any_warning(self, monkeypatch, bad):
        monkeypatch.setattr(types, "BLOCK_ENTRIES", 3)
        m = np.zeros((6, 6))
        m[5, 0] = bad  # in the last block, after finite ones
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="finite"):
                lg.GraphLaplacian(m)
            with pytest.raises(InputError, match="finite"):
                lg.eigendecompose(m)


class TestPublicConstructorsCopy:
    def test_caller_array_stays_writeable_and_unaliased(self):
        lap = np.array([[-1.0, 1.0], [1.0, -1.0]])
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        for cls, m in ((lg.GraphLaplacian, lap), (lg.DistanceMatrix, dist)):
            made = cls(m)
            assert m.flags.writeable
            assert not made.matrix.flags.writeable
            assert not np.shares_memory(m, made.matrix)
            m[0, 0] = 5.0  # the caller's later writes do not reach it
            assert made.matrix[0, 0] != 5.0


class TestValidateCandidate:
    def test_accepts_box_interior(self):
        v = lg.validate_candidate([0.5, -0.5], q=2)
        assert v.shape == (2,)

    def test_rejects_out_of_box(self):
        with pytest.raises(InputError):
            lg.validate_candidate([1.5, 0.0], q=2)

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError):
            lg.validate_candidate([0.5], q=2)
