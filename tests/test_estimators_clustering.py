"""Tests for the global clustering coefficient estimator."""

import networkx as nx
import pytest

from repro.generators.ba import barabasi_albert
from repro.generators.classic import complete_graph, cycle_graph, star_graph
from repro.generators.smallworld import watts_strogatz
from repro.graph.csr import get_csr
from repro.graph.graph import Graph
from repro.sampling.base import WalkTrace
from repro.sampling.single import SingleRandomWalk
from repro.estimators.clustering import (
    global_clustering_from_trace,
    shared_neighbors,
)
from repro.metrics.exact import true_global_clustering


class TestSharedNeighbors:
    def test_triangle(self, triangle):
        assert shared_neighbors(triangle, 0, 1) == 1

    def test_no_shared(self, path4):
        assert shared_neighbors(path4, 0, 1) == 0

    def test_complete_graph(self):
        graph = complete_graph(5)
        assert shared_neighbors(graph, 0, 1) == 3

    def test_symmetry(self, paw):
        for u, v in paw.edges():
            assert shared_neighbors(paw, u, v) == shared_neighbors(paw, v, u)


class TestTrueGlobalClustering:
    def test_complete_graph_is_one(self):
        assert true_global_clustering(complete_graph(6)) == pytest.approx(1.0)

    def test_cycle_is_zero(self):
        assert true_global_clustering(cycle_graph(6)) == 0.0

    def test_star_rejected(self):
        """A star has no vertex with two adjacent neighbors but every
        internal vertex has degree >= 2 only at the hub; V* = {hub}."""
        assert true_global_clustering(star_graph(4)) == 0.0

    def test_no_valid_vertices_rejected(self):
        graph = Graph(2)
        graph.add_edge(0, 1)
        with pytest.raises(ValueError):
            true_global_clustering(graph)

    def test_matches_networkx_average_over_vstar(self):
        """Our C equals the average of nx local clustering over vertices
        with degree >= 2 (the paper's V*)."""
        graph = barabasi_albert(200, 3, rng=0)
        oracle = nx.Graph(list(graph.edges()))
        local = nx.clustering(oracle)
        v_star = [v for v in graph.vertices() if graph.degree(v) >= 2]
        expected = sum(local[v] for v in v_star) / len(v_star)
        assert true_global_clustering(graph) == pytest.approx(
            expected, abs=1e-9
        )

    def test_paw_hand_computed(self, paw):
        # c(0)=1/3 (one triangle of 3 possible pairs), c(1)=c(2)=1,
        # vertex 3 has degree 1 -> excluded. C = (1/3 + 1 + 1)/3
        assert true_global_clustering(paw) == pytest.approx((1 / 3 + 2) / 3)


class TestEstimator:
    def test_empty_trace_rejected(self, paw):
        with pytest.raises(ValueError):
            global_clustering_from_trace(paw, WalkTrace("x", [], [0], 0, 1.0))

    def test_all_degree_one_rejected(self):
        graph = Graph(2)
        graph.add_edge(0, 1)
        trace = WalkTrace("x", [(0, 1), (1, 0)], [0], 2, 1.0)
        with pytest.raises(ValueError):
            global_clustering_from_trace(graph, trace)

    def test_complete_graph_estimates_one(self):
        graph = complete_graph(6)
        trace = SingleRandomWalk().sample(graph, 2000, rng=1)
        assert global_clustering_from_trace(graph, trace) == pytest.approx(1.0)

    def test_converges_on_paw(self, paw):
        trace = SingleRandomWalk(seeding="stationary").sample(
            paw, 60_000, rng=2
        )
        truth = true_global_clustering(paw)
        estimate = global_clustering_from_trace(paw, trace)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_converges_on_smallworld(self):
        graph = watts_strogatz(150, 6, 0.1, rng=3)
        trace = SingleRandomWalk(seeding="stationary").sample(
            graph, 60_000, rng=4
        )
        truth = true_global_clustering(graph)
        estimate = global_clustering_from_trace(graph, trace)
        assert estimate == pytest.approx(truth, abs=0.05)

    def test_converges_on_ba(self):
        graph = barabasi_albert(150, 3, rng=5)
        trace = SingleRandomWalk(seeding="stationary").sample(
            graph, 80_000, rng=6
        )
        truth = true_global_clustering(graph)
        estimate = global_clustering_from_trace(graph, trace)
        assert estimate == pytest.approx(truth, rel=0.2)


class TestCSRGraph:
    def test_csr_matches_graph(self):
        """Both the exact value and the estimate accept a CSRGraph and
        equal their Graph values exactly."""
        graph = barabasi_albert(300, 3, rng=8)
        csr = get_csr(graph)
        trace = SingleRandomWalk().sample(graph, 3_000, rng=9)
        assert true_global_clustering(csr) == true_global_clustering(graph)
        assert global_clustering_from_trace(
            csr, trace
        ) == global_clustering_from_trace(graph, trace)
