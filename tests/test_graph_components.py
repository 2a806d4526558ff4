"""Tests for connected components, checked against networkx as oracle."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.er import erdos_renyi_gnm
from repro.graph.components import (
    component_sizes,
    connected_components,
    induced_subgraph,
    is_connected,
    largest_connected_component,
)
from repro.graph.csr import CSRGraph, get_csr
from repro.graph.graph import Graph


class TestConnectedComponents:
    def test_single_component(self, triangle):
        components = connected_components(triangle)
        assert components == [[0, 1, 2]]

    def test_two_components(self, two_triangles):
        components = connected_components(two_triangles)
        assert len(components) == 2
        assert components[0] == [0, 1, 2]

    def test_isolated_vertices_are_components(self):
        graph = Graph(3)
        graph.add_edge(0, 1)
        components = connected_components(graph)
        assert [2] in components

    def test_largest_first_ordering(self):
        graph = Graph(5)
        graph.add_edge(3, 4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        components = connected_components(graph)
        assert components[0] == [0, 1, 2]

    def test_empty_graph(self):
        assert connected_components(Graph()) == []

    def test_component_sizes(self, two_triangles):
        assert component_sizes(two_triangles) == [3, 3]


class TestIsConnected:
    def test_connected(self, bridge_graph):
        assert is_connected(bridge_graph)

    def test_disconnected(self, two_triangles):
        assert not is_connected(two_triangles)

    def test_empty_graph_vacuously_connected(self):
        assert is_connected(Graph())

    def test_single_vertex(self):
        assert is_connected(Graph(1))


class TestInducedSubgraph:
    def test_relabeling(self, two_triangles):
        sub, mapping = induced_subgraph(two_triangles, [3, 4, 5])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3
        assert mapping == {3: 0, 4: 1, 5: 2}

    def test_partial_edges_dropped(self, triangle):
        sub, _ = induced_subgraph(triangle, [0, 1])
        assert sub.num_edges == 1

    def test_duplicate_vertices_collapsed(self, triangle):
        sub, _ = induced_subgraph(triangle, [0, 0, 1])
        assert sub.num_vertices == 2

    def test_empty_selection(self, triangle):
        sub, mapping = induced_subgraph(triangle, [])
        assert sub.num_vertices == 0
        assert mapping == {}


class TestLargestConnectedComponent:
    def test_lcc_of_disconnected(self):
        graph = Graph(7)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            graph.add_edge(u, v)
        graph.add_edge(5, 6)
        lcc, mapping = largest_connected_component(graph)
        assert lcc.num_vertices == 4
        assert lcc.num_edges == 3
        assert set(mapping) == {0, 1, 2, 3}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            largest_connected_component(Graph())

    def test_connected_graph_is_its_own_lcc(self, house):
        lcc, _ = largest_connected_component(house)
        assert lcc.num_vertices == house.num_vertices
        assert lcc.num_edges == house.num_edges


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=100,
        )
    )
    graph = Graph(n)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _to_networkx(graph: Graph) -> nx.Graph:
    oracle = nx.Graph()
    oracle.add_nodes_from(graph.vertices())
    oracle.add_edges_from(graph.edges())
    return oracle


@given(graph=random_graphs())
@settings(max_examples=100)
def test_components_match_networkx(graph):
    ours = {frozenset(c) for c in connected_components(graph)}
    oracle = {
        frozenset(c) for c in nx.connected_components(_to_networkx(graph))
    }
    assert ours == oracle


@given(graph=random_graphs())
@settings(max_examples=100)
def test_is_connected_matches_networkx(graph):
    oracle_graph = _to_networkx(graph)
    if graph.num_vertices == 0:
        return
    assert is_connected(graph) == nx.is_connected(oracle_graph)


def _networkx_components(graph: Graph):
    """networkx's components in this module's order: largest first,
    ties by smallest vertex, each sorted."""
    components = [sorted(c) for c in nx.connected_components(_to_networkx(graph))]
    return sorted(components, key=lambda c: (-len(c), c[0]))


@given(graph=random_graphs())
@settings(max_examples=100)
def test_component_order_and_lcc_match_networkx(graph):
    expected = _networkx_components(graph)
    assert connected_components(graph) == expected
    assert component_sizes(graph) == [len(c) for c in expected]
    lcc, mapping = largest_connected_component(graph)
    assert sorted(mapping) == expected[0]
    assert lcc.num_vertices == len(expected[0])


class TestComponentEdgeCases:
    def test_equal_sizes_pick_the_smallest_vertex(self):
        # The component inserted first does not hold the smallest vertex.
        graph = Graph(7)
        for u, v in [(6, 5), (5, 4), (3, 2), (2, 1)]:
            graph.add_edge(u, v)
        assert connected_components(graph) == [[1, 2, 3], [4, 5, 6], [0]]
        lcc, mapping = largest_connected_component(graph)
        assert mapping == {1: 0, 2: 1, 3: 2}
        assert [list(lcc.neighbors(v)) for v in lcc.vertices()] == [[1], [0, 2], [1]]

    def test_isolated_vertices_in_id_order(self):
        graph = Graph(6)
        graph.add_edge(4, 2)
        assert connected_components(graph) == [[2, 4], [0], [1], [3], [5]]
        assert component_sizes(graph) == [2, 1, 1, 1, 1]
        lcc, mapping = largest_connected_component(graph)
        assert mapping == {2: 0, 4: 1}
        assert list(lcc.neighbors(0)) == [1]

    def test_edgeless_graph(self):
        graph = Graph(3)
        assert connected_components(graph) == [[0], [1], [2]]
        assert not is_connected(graph)
        lcc, mapping = largest_connected_component(graph)
        assert (lcc.num_vertices, lcc.num_edges, mapping) == (1, 0, {0: 0})

    def test_fifty_thousand_pairs(self):
        n = 100_000
        order = list(range(n))
        random.Random(5).shuffle(order)
        graph = Graph(n)
        for i in range(0, n, 2):
            graph.add_edge(order[i], order[i + 1])
        expected = _networkx_components(graph)
        assert len(expected) == 50_000
        assert connected_components(graph) == expected
        lcc, mapping = largest_connected_component(graph)
        assert sorted(mapping) == expected[0]
        assert lcc.num_edges == 1

    def test_long_shuffled_path(self):
        # Worst case for label propagation: diameter n - 1, ids random.
        n = 5000
        order = list(range(n))
        random.Random(9).shuffle(order)
        graph = Graph(n)
        for a, b in zip(order, order[1:]):
            graph.add_edge(a, b)
        assert is_connected(graph)
        assert connected_components(graph) == [list(range(n))]


class TestCsrInput:
    def test_lcc_of_csr_equals_lcc_of_graph(self):
        graph = erdos_renyi_gnm(400, 300, rng=3)
        lcc, mapping = largest_connected_component(graph)
        from_csr, csr_mapping = largest_connected_component(get_csr(graph))
        assert csr_mapping == mapping
        # The LCC has its input's type.
        assert isinstance(lcc, Graph) and isinstance(from_csr, CSRGraph)
        assert from_csr.num_edges == lcc.version
        expected = get_csr(lcc)
        assert np.array_equal(from_csr.indptr, expected.indptr)
        assert np.array_equal(from_csr.indices, expected.indices)

    def test_empty_csr_rejected(self):
        with pytest.raises(ValueError):
            largest_connected_component(get_csr(Graph()))


class TestInducedSubgraphOrder:
    def test_rows_follow_the_row_major_insertion_loop(self):
        graph = Graph(5)
        for u, v in [(4, 0), (3, 1), (0, 3), (1, 4), (2, 3)]:
            graph.add_edge(u, v)
        sub, mapping = induced_subgraph(graph, [0, 1, 3, 4])
        expected = Graph(4)
        for old in sorted(mapping):
            for nbr in graph.neighbors(old):
                if nbr in mapping and old < nbr:
                    expected.add_edge(mapping[old], mapping[nbr])
        assert [list(sub.neighbors(v)) for v in sub.vertices()] == [
            list(expected.neighbors(v)) for v in expected.vertices()
        ]
        assert sub.version == expected.version

    @pytest.mark.parametrize("bad", [5, 99, -1])
    def test_out_of_range_vertex_raises(self, bad):
        graph = Graph(5)
        graph.add_edge(0, 1)
        with pytest.raises(IndexError):
            induced_subgraph(graph, [0, bad])
