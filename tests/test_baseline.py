import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

import lapgeo as lg
from lapgeo.baseline import build_neighbor_graph, shortest_path_distances
from lapgeo.errors import InputError


def _cloud(pts):
    return lg.PointCloud(np.asarray(pts, dtype=float))


class TestBuildNeighborGraph:
    def test_three_collinear_points(self):
        g = build_neighbor_graph(_cloud([[0.0], [2.0], [3.0]]), h_graph=1.5)
        assert g.edge_list() == [(1, 2, 1.0)]

    def test_threshold_is_strict(self):
        g = build_neighbor_graph(_cloud([[0.0], [1.0]]), h_graph=1.0)
        assert g.edge_list() == []

    def test_complete_graph_at_large_radius(self):
        g = build_neighbor_graph(_cloud([[0.0], [1.0], [2.0]]), h_graph=10.0)
        assert len(g.edge_list()) == 3

    def test_zero_radius_gives_empty_graph(self):
        g = build_neighbor_graph(_cloud([[0.0], [1.0]]), h_graph=0.0)
        assert g.edge_list() == []

    def test_coincident_points_keep_zero_weight_edge(self):
        g = build_neighbor_graph(_cloud([[1.0], [1.0]]), h_graph=0.5)
        assert g.edge_list() == [(0, 1, 0.0)]

    def test_rejects_negative_radius(self):
        with pytest.raises(InputError):
            build_neighbor_graph(_cloud([[0.0]]), h_graph=-1.0)


class TestShortestPathDistances:
    def test_two_points(self):
        g = build_neighbor_graph(_cloud([[0.0], [1.0]]), h_graph=2.0)
        d = shortest_path_distances(g).matrix
        assert d[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert d[0, 0] == 0.0

    def test_path_sums_edges(self):
        g = build_neighbor_graph(_cloud([[0.0], [1.0], [2.0]]), h_graph=1.5)
        d = shortest_path_distances(g).matrix
        assert d[0, 2] == pytest.approx(2.0, abs=1e-14)

    def test_disconnected_pair_is_inf(self):
        g = build_neighbor_graph(_cloud([[0.0], [10.0]]), h_graph=1.0)
        d = shortest_path_distances(g).matrix
        assert np.isinf(d[0, 1]) and np.isinf(d[1, 0])

    def test_zero_radius_all_offdiagonal_inf(self):
        g = build_neighbor_graph(_cloud([[0.0], [1.0], [2.0]]), h_graph=0.0)
        d = shortest_path_distances(g).matrix
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isinf(d[off]))
        assert np.all(np.diag(d) == 0.0)

    def test_triangle_shortcut(self):
        # direct edge beats the two-hop detour
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]]
        g = build_neighbor_graph(_cloud(pts), h_graph=2.0)
        d = shortest_path_distances(g).matrix
        assert d[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_dominates_euclidean(self):
        cloud = lg.sample_uniform_circle(60, seed=4)
        g = build_neighbor_graph(cloud, h_graph=0.5)
        d = shortest_path_distances(g).matrix
        euclid = np.linalg.norm(
            cloud.points[:, None, :] - cloud.points[None, :, :], axis=2
        )
        finite = np.isfinite(d)
        assert np.all(d[finite] >= euclid[finite] - 1e-12)

    def test_monotone_in_radius(self):
        cloud = lg.sample_uniform_circle(40, seed=5)
        d_small = shortest_path_distances(build_neighbor_graph(cloud, 0.3)).matrix
        d_large = shortest_path_distances(build_neighbor_graph(cloud, 0.8)).matrix
        assert np.all(d_large <= d_small + 1e-12)

    def test_triangle_inequality_zero_slack(self):
        cloud = lg.sample_uniform_circle(80, seed=9)
        d = lg.run_baseline(cloud, h_graph=0.4).matrix
        for k in range(80):
            excess = d - (d[:, k][:, None] + d[k, :][None, :])
            finite = np.isfinite(excess)
            assert not np.any(excess[finite] > 0.0)

    def test_run_baseline_wrapper(self):
        cloud = lg.sample_uniform_circle(25, seed=6)
        d = lg.run_baseline(cloud, h_graph=0.7)
        assert d.matrix.shape == (25, 25)
        assert np.all(np.diag(d.matrix) == 0.0)

    def test_exactly_symmetric(self):
        cloud = lg.sample_uniform_circle(300, seed=2)
        d = lg.run_baseline(cloud, h_graph=0.3).matrix
        assert np.array_equal(d, d.T)

    def test_coincident_points_are_at_distance_zero(self):
        # total edge weight 0 (nothing to quantise), then zero edges mixed
        # with positive ones
        g = build_neighbor_graph(_cloud([[1.0], [1.0]]), h_graph=0.5)
        assert np.array_equal(shortest_path_distances(g).matrix, np.zeros((2, 2)))
        g = build_neighbor_graph(_cloud([[0.0], [0.0], [1.0], [2.5]]), h_graph=1.6)
        d = shortest_path_distances(g).matrix
        assert d[0, 1] == 0.0 and d[1, 0] == 0.0
        assert np.array_equal(d[0], d[1])
        assert d[0, 3] == pytest.approx(2.5, abs=1e-14)

    def test_within_quantisation_bound_of_unquantised(self):
        cloud = lg.sample_uniform_circle(300, seed=3)
        g = build_neighbor_graph(cloud, h_graph=0.3)
        d = shortest_path_distances(g).matrix
        unquantised = dijkstra(g.adjacency, directed=False)
        total = float(g.adjacency.sum())
        quantum = 2.0 ** (math.ceil(math.log2(2 * total)) - 52)
        assert np.array_equal(np.isinf(d), np.isinf(unquantised))
        finite = np.isfinite(d)
        assert np.all(d[finite] % quantum == 0.0)
        assert np.all(np.abs(d - unquantised)[finite] <= (cloud.n - 1) * quantum / 2)

    def test_directed_search_matches_undirected(self, monkeypatch):
        # coincident points (zero-weight edges) in two components, plus
        # scattered ones; the search sees the quantised adjacency
        import scipy.sparse.csgraph as csgraph

        rng = np.random.default_rng(7)
        a = rng.normal(size=(30, 2)) * 0.2
        b = rng.normal(size=(25, 2)) * 0.2 + 10.0
        pts = np.vstack([a, a[:5], b, b[-4:]])
        searched = []
        search = csgraph.dijkstra

        def spy(graph, directed):
            searched.append((graph, directed))
            return search(graph, directed=directed)

        monkeypatch.setattr(csgraph, "dijkstra", spy)
        g = build_neighbor_graph(_cloud(pts), h_graph=0.3)
        d = shortest_path_distances(g).matrix
        ((adjacency, directed),) = searched
        assert directed
        coo = adjacency.tocoo()
        entries = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        assert 0.0 in coo.data
        assert entries == sorted(zip(coo.col.tolist(), coo.row.tolist(), coo.data.tolist()))
        assert np.array_equal(d, search(adjacency, directed=False))
        assert np.isinf(d[0, -1]) and d[0, 30] == 0.0
