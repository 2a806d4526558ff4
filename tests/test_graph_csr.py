"""CSRGraph: construction, queries, conversion, caching, I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import load
from repro.generators.er import erdos_renyi_gnp
from repro.graph.csr import CSRGraph, get_csr
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list


def edge_set(graph):
    return set(graph.edges())


class TestConstruction:
    def test_from_graph_preserves_neighbor_order(self, paw):
        csr = CSRGraph.from_graph(paw)
        for v in paw.vertices():
            assert csr.neighbors(v).tolist() == list(paw.neighbors(v))

    def test_from_graph_counts(self, house):
        csr = CSRGraph.from_graph(house)
        assert csr.num_vertices == house.num_vertices
        assert csr.num_edges == house.num_edges
        assert csr.degrees().tolist() == house.degrees()

    def test_from_edges_collapses_duplicates_and_self_loops(self):
        csr = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
        assert csr.num_vertices == 3
        assert csr.num_edges == 2
        assert edge_set(csr) == {(0, 1), (1, 2)}

    def test_from_edges_explicit_num_vertices(self):
        csr = CSRGraph.from_edges([(0, 1)], num_vertices=5)
        assert csr.num_vertices == 5
        assert csr.isolated_vertices() == [2, 3, 4]

    def test_from_edges_num_vertices_too_small(self):
        with pytest.raises(ValueError, match="mention"):
            CSRGraph.from_edges([(0, 4)], num_vertices=3)

    def test_from_edges_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            CSRGraph.from_edges([(0, -1)])

    def test_from_edges_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="array"):
            CSRGraph.from_edges(np.zeros((3, 3), dtype=np.int64))

    def test_from_edges_empty(self):
        csr = CSRGraph.from_edges([], num_vertices=4)
        assert csr.num_vertices == 4
        assert csr.num_edges == 0

    def test_from_edges_matches_graph_from_edges(self):
        edges = [(0, 3), (3, 1), (1, 0), (2, 3), (0, 3)]
        graph = Graph.from_edges(edges)
        csr = CSRGraph.from_edges(edges)
        assert edge_set(csr) == edge_set(graph)
        assert sorted(csr.degrees().tolist()) == sorted(graph.degrees())

    def test_raw_arrays_validated(self):
        with pytest.raises(ValueError, match="start with 0"):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))
        with pytest.raises(ValueError, match="must equal"):
            CSRGraph(np.array([0, 1]), np.array([0, 0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 4]), np.array([0, 1, 2, 0]))
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(np.array([0, 2]), np.array([0, 5]))

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            ([0, 2, 3, 4], [1, 2, 2, 1], r"\(0, 1\) occurs 1 time\(s\) but \(1, 0\) 0"),
            ([0, 1, 2, 2], [2, 0], r"\(1, 0\) occurs 1 time\(s\) but \(0, 1\) 0"),
            ([0, 2, 4], [1, 1, 0, 1], r"\(0, 1\) occurs 2 time\(s\) but \(1, 0\) 1"),
        ],
    )
    def test_asymmetric_arrays_rejected(self, indptr, indices, message):
        with pytest.raises(ValueError, match="not symmetric: " + message):
            CSRGraph(np.array(indptr), np.array(indices))
        # Trusted input skips the scan.
        CSRGraph(np.array(indptr), np.array(indices), validate=False)

    def test_symmetric_multigraph_rows_accepted(self):
        csr = CSRGraph(np.array([0, 3, 5, 6]), np.array([1, 2, 1, 0, 0, 0]))
        assert csr.num_edges == 3

    def test_round_trip_through_graph(self):
        graph = erdos_renyi_gnp(60, 0.1, rng=5)
        csr = CSRGraph.from_graph(graph)
        back = csr.to_graph()
        assert edge_set(back) == edge_set(graph)
        assert back.num_vertices == graph.num_vertices


class TestQueries:
    def test_degree_and_neighbors(self, paw):
        csr = CSRGraph.from_graph(paw)
        for v in paw.vertices():
            assert csr.degree(v) == paw.degree(v)
        assert csr.degree(3) == 1

    def test_degree_out_of_range(self, paw):
        csr = CSRGraph.from_graph(paw)
        with pytest.raises(IndexError):
            csr.degree(99)

    def test_has_edge(self, paw):
        csr = CSRGraph.from_graph(paw)
        assert csr.has_edge(0, 1)
        assert csr.has_edge(0, 3)
        assert not csr.has_edge(1, 3)

    def test_volume_and_averages(self, house):
        csr = CSRGraph.from_graph(house)
        assert csr.volume() == 2 * house.num_edges
        assert csr.volume([0, 2]) == house.degree(0) + house.degree(2)
        assert csr.average_degree() == pytest.approx(house.average_degree())
        assert csr.max_degree() == house.max_degree()

    def test_empty_graph_stats_raise(self):
        csr = CSRGraph.from_edges([], num_vertices=0)
        with pytest.raises(ValueError):
            csr.average_degree()
        with pytest.raises(ValueError):
            csr.max_degree()

    def test_repr(self, paw):
        text = repr(CSRGraph.from_graph(paw))
        assert "num_vertices=4" in text


class TestRandomPrimitives:
    def test_random_neighbor_distribution_support(self, paw):
        csr = CSRGraph.from_graph(paw)
        rng = np.random.default_rng(0)
        seen = {csr.random_neighbor(0, rng) for _ in range(200)}
        assert seen == set(paw.neighbors(0))

    def test_random_neighbor_isolated_raises(self):
        csr = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        with pytest.raises(ValueError, match="no neighbors"):
            csr.random_neighbor(2, np.random.default_rng(0))


class TestGetCsrCache:
    def test_cache_hit(self, house):
        assert get_csr(house) is get_csr(house)

    def test_passthrough(self, house):
        csr = get_csr(house)
        assert get_csr(csr) is csr

    def test_cache_invalidated_by_mutation(self, house):
        before = get_csr(house)
        house.add_edge(1, 4)
        after = get_csr(house)
        assert after is not before
        assert after.num_edges == before.num_edges + 1

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            get_csr([(0, 1)])


class TestIo:
    def test_read_edge_list_csr_matches_list(self, tmp_path):
        graph = erdos_renyi_gnp(40, 0.15, rng=9)
        path = tmp_path / "edges.txt"
        write_edge_list(graph, path)
        as_list = read_edge_list(path)
        as_csr = read_edge_list(path, backend="csr")
        assert isinstance(as_csr, CSRGraph)
        assert edge_set(as_csr) == edge_set(as_list)
        assert as_csr.num_vertices == as_list.num_vertices

    def test_read_edge_list_csr_num_vertices(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n", encoding="utf-8")
        csr = read_edge_list(path, backend="csr", num_vertices=6)
        assert csr.num_vertices == 6

    def test_read_edge_list_csr_skips_self_loops(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0 0\n0 1\n", encoding="utf-8")
        csr = read_edge_list(path, backend="csr")
        assert edge_set(csr) == {(0, 1)}

    def test_read_edge_list_csr_directed_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="undirected"):
            read_edge_list(path, directed=True, backend="csr")

    def test_read_edge_list_bad_backend(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="backend"):
            read_edge_list(path, backend="sparse")

    def test_write_edge_list_accepts_csr(self, tmp_path):
        graph = erdos_renyi_gnp(20, 0.2, rng=2)
        csr = CSRGraph.from_graph(graph)
        path = tmp_path / "out.txt"
        write_edge_list(csr, path)
        assert edge_set(read_edge_list(path)) == edge_set(graph)


class TestRegistryBackend:
    def test_load_csr_attaches_view(self):
        dataset = load("gab", scale=0.05, backend="csr")
        assert dataset.csr is not None
        assert dataset.csr.num_edges == dataset.graph.num_edges

    def test_sampling_graph_caches(self):
        dataset = load("gab", scale=0.05)
        assert dataset.csr is None
        first = dataset.sampling_graph("csr")
        assert dataset.sampling_graph("csr") is first
        assert dataset.sampling_graph("list") is dataset.graph

    def test_sampling_graph_tracks_mutation(self):
        dataset = load("gab", scale=0.05)
        before = dataset.sampling_graph("csr")
        isolated = dataset.graph.add_vertex()
        dataset.graph.add_edge(0, isolated)
        after = dataset.sampling_graph("csr")
        assert after is not before
        assert after.num_edges == dataset.graph.num_edges

    def test_sampling_graph_bad_backend(self):
        dataset = load("gab", scale=0.05)
        with pytest.raises(ValueError, match="backend"):
            dataset.sampling_graph("dense")

    def test_load_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            load("gab", scale=0.05, backend="dense")
