"""Array-reduction-vs-tuple-loop estimator parity.

Every public ``*_from_trace`` estimator is one update of its
accumulator in :mod:`repro.estimators.streaming`, which reduces an
array-backed trace to visit counts or distinct edges and runs a tuple
loop over a list-backed one.  These fixed-seed goldens pin the
contract: on the same FS steps, the two code paths agree to 1e-12 on
ER, BA and disconnected graphs — including the ``degree_of``
label-vs-walking-degree decoupling.

The tuple-loop reference is the *same* steps wrapped in a plain
list-backed :class:`~repro.sampling.base.WalkTrace`, so any
disagreement is an estimator bug, never walk randomness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import streaming
from repro.estimators.assortativity import (
    assortativity_from_trace,
    directed_assortativity_from_trace,
)
from repro.estimators.clustering import global_clustering_from_trace
from repro.estimators.degree import (
    degree_ccdf_from_trace,
    degree_pmf_from_trace,
)
from repro.estimators.edge_density import (
    edge_label_densities_from_trace,
    edge_label_density_from_trace,
)
from repro.estimators.functionals import (
    edge_functional_from_trace,
    vertex_functional_from_trace,
    weighted_vertex_sums,
)
from repro.estimators.size import (
    estimate_num_edges,
    estimate_num_vertices,
    estimate_volume,
)
from repro.estimators.vertex_density import (
    vertex_label_densities_from_trace,
    vertex_label_density_from_trace,
)
from repro.generators.ba import barabasi_albert
from repro.generators.er import erdos_renyi_gnp
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling.base import WalkTrace
from repro.sampling.fused import FusedNeeds, block_from_arrays
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.vectorized import ArrayWalkTrace

TOL = dict(rel=1e-12, abs=1e-12)


def disconnected_graph() -> Graph:
    """Two triangles, a 2-path, and an isolated vertex."""
    graph = Graph(9)
    for base in (0, 3):
        graph.add_edge(base, base + 1)
        graph.add_edge(base + 1, base + 2)
        graph.add_edge(base, base + 2)
    graph.add_edge(6, 7)  # vertex 8 stays isolated
    return graph


GRAPH_BUILDERS = {
    "er": lambda: erdos_renyi_gnp(80, 0.08, rng=17),
    "ba": lambda: barabasi_albert(120, 3, rng=23),
    "disconnected": disconnected_graph,
}


@pytest.fixture(params=sorted(GRAPH_BUILDERS), scope="module")
def graph_pair(request):
    """(graph, array trace, tuple-loop twin) for each golden graph."""
    graph = GRAPH_BUILDERS[request.param]()
    array_trace = FrontierSampler(4, backend="csr").sample(
        graph, 1_500, rng=5
    )
    assert isinstance(array_trace, ArrayWalkTrace)
    tuple_trace = WalkTrace(
        method=array_trace.method,
        edges=list(array_trace.edges),
        initial_vertices=array_trace.initial_vertices,
        budget=array_trace.budget,
        seed_cost=array_trace.seed_cost,
    )
    return graph, array_trace, tuple_trace


def empty_array_trace() -> ArrayWalkTrace:
    return ArrayWalkTrace(
        "FS",
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        [0],
        0.0,
        1.0,
    )


class TestDegreeParity:
    def test_pmf_matches_tuple_loop(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        fast = degree_pmf_from_trace(graph, array_trace)
        slow = degree_pmf_from_trace(graph, tuple_trace)
        assert set(fast) == set(slow)
        for k in slow:
            assert fast[k] == pytest.approx(slow[k], **TOL)

    def test_ccdf_matches_tuple_loop(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        fast = degree_ccdf_from_trace(graph, array_trace)
        slow = degree_ccdf_from_trace(graph, tuple_trace)
        assert set(fast) == set(slow)
        for k in slow:
            assert fast[k] == pytest.approx(slow[k], **TOL)

    def test_degree_of_decoupling(self, graph_pair):
        """An arbitrary label is histogrammed; walking degree reweights."""
        graph, array_trace, tuple_trace = graph_pair
        label_of = lambda v: (v % 3) * 2  # noqa: E731 — unrelated to degree
        fast = degree_pmf_from_trace(graph, array_trace, degree_of=label_of)
        slow = degree_pmf_from_trace(graph, tuple_trace, degree_of=label_of)
        assert set(fast) == set(slow) == set(range(5))
        for k in slow:
            assert fast[k] == pytest.approx(slow[k], **TOL)
        # The label histogram really decoupled from the walking degree:
        # only the labels {0, 2, 4} carry mass.
        assert fast[1] == fast[3] == 0.0

    def test_empty_trace_raises(self, graph_pair):
        graph = graph_pair[0]
        with pytest.raises(ValueError, match="empty trace"):
            degree_pmf_from_trace(graph, empty_array_trace())


class TestFunctionalParity:
    def test_vertex_functional(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        g = lambda v: 0.25 * v + 1.0  # noqa: E731
        assert vertex_functional_from_trace(
            graph, array_trace, g
        ) == pytest.approx(
            vertex_functional_from_trace(graph, tuple_trace, g), **TOL
        )

    def test_weighted_vertex_sums(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        g = lambda v: float(v * v)  # noqa: E731
        fast = weighted_vertex_sums(graph, array_trace, g)
        slow = weighted_vertex_sums(graph, tuple_trace, g)
        assert fast[0] == pytest.approx(slow[0], **TOL)
        assert fast[1] == pytest.approx(slow[1], **TOL)

    def test_edge_functional_with_membership(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        f = lambda u, v: float(u + 2 * v)  # noqa: E731
        member = lambda u, v: (u + v) % 2 == 0  # noqa: E731
        assert edge_functional_from_trace(
            array_trace, f, member
        ) == pytest.approx(
            edge_functional_from_trace(tuple_trace, f, member), **TOL
        )

    def test_edge_functional_empty_membership_raises(self, graph_pair):
        _, array_trace, tuple_trace = graph_pair
        never = lambda u, v: False  # noqa: E731
        for trace in (array_trace, tuple_trace):
            with pytest.raises(ValueError, match="E\\*"):
                edge_functional_from_trace(trace, lambda u, v: 1.0, never)


class TestLabelDensityParity:
    @staticmethod
    def _vertex_labeling(graph):
        labeling = VertexLabeling()
        for v in graph.vertices():
            labeling.add(v, "even" if v % 2 == 0 else "odd")
            if v % 5 == 0:
                labeling.add(v, "fifth")
        return labeling

    def test_vertex_label_density(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        labeling = self._vertex_labeling(graph)
        for label in ("even", "odd", "fifth", "missing"):
            assert vertex_label_density_from_trace(
                graph, array_trace, labeling, label
            ) == pytest.approx(
                vertex_label_density_from_trace(
                    graph, tuple_trace, labeling, label
                ),
                **TOL,
            )

    def test_vertex_label_densities_shared_normalizer(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        labeling = self._vertex_labeling(graph)
        labels = ["even", "odd", "fifth"]
        fast = vertex_label_densities_from_trace(
            graph, array_trace, labeling, labels
        )
        slow = vertex_label_densities_from_trace(
            graph, tuple_trace, labeling, labels
        )
        assert set(fast) == set(slow)
        for label in labels:
            assert fast[label] == pytest.approx(slow[label], **TOL)

    def test_edge_label_density(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        labeling = EdgeLabeling()
        for u, v in graph.edges():
            # Label one orientation only: E* = E_d semantics.
            labeling.add((u, v), "low" if u + v < 40 else "high")
        for label in ("low", "high"):
            assert edge_label_density_from_trace(
                array_trace, labeling, label
            ) == pytest.approx(
                edge_label_density_from_trace(tuple_trace, labeling, label),
                **TOL,
            )
        fast = edge_label_densities_from_trace(
            array_trace, labeling, ["low", "high"]
        )
        slow = edge_label_densities_from_trace(
            tuple_trace, labeling, ["low", "high"]
        )
        assert fast == pytest.approx(slow, **TOL)

    def test_unlabeled_trace_raises(self, graph_pair):
        _, array_trace, tuple_trace = graph_pair
        empty_labeling = EdgeLabeling()
        for trace in (array_trace, tuple_trace):
            with pytest.raises(ValueError, match="no sampled edge"):
                edge_label_density_from_trace(trace, empty_labeling, "x")


class TestCharacteristicParity:
    def test_clustering(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        assert global_clustering_from_trace(
            graph, array_trace
        ) == pytest.approx(
            global_clustering_from_trace(graph, tuple_trace), **TOL
        )

    def test_assortativity(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        assert assortativity_from_trace(
            graph, array_trace
        ) == pytest.approx(
            assortativity_from_trace(graph, tuple_trace), **TOL
        )

    def test_directed_assortativity(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        digraph = DiGraph(graph.num_vertices)
        for u, v in graph.edges():
            digraph.add_edge(u, v)  # one orientation: E* = E_d
        assert directed_assortativity_from_trace(
            digraph, array_trace
        ) == pytest.approx(
            directed_assortativity_from_trace(digraph, tuple_trace), **TOL
        )

    def test_size_estimators(self, graph_pair):
        graph, array_trace, tuple_trace = graph_pair
        for estimate in (
            estimate_num_vertices,
            estimate_volume,
            estimate_num_edges,
        ):
            assert estimate(graph, array_trace) == pytest.approx(
                estimate(graph, tuple_trace), **TOL
            )


class TestMetropolisTraceParity:
    def test_accepted_edge_estimators_agree(self):
        """ArrayMetropolisTrace rides the same dispatch path."""
        graph = barabasi_albert(150, 3, rng=9)
        array_trace = MetropolisHastingsWalk(backend="csr").sample(
            graph, 2_000, rng=11
        )
        tuple_trace = WalkTrace(
            method=array_trace.method,
            edges=list(array_trace.edges),
            initial_vertices=array_trace.initial_vertices,
            budget=array_trace.budget,
            seed_cost=array_trace.seed_cost,
        )
        fast = degree_pmf_from_trace(graph, array_trace)
        slow = degree_pmf_from_trace(graph, tuple_trace)
        assert set(fast) == set(slow)
        for k in slow:
            assert fast[k] == pytest.approx(slow[k], **TOL)


class TestVectorizedInternals:
    def test_degree_array_cache_tracks_mutation(self):
        graph = disconnected_graph()
        before = streaming.degrees_of(graph)
        assert before.tolist() == graph.degrees()
        graph.add_edge(7, 8)
        after = streaming.degrees_of(graph)
        assert after.tolist() == graph.degrees()
        assert (before[8], after[8]) == (0, 1)

    def test_unique_edges_multiplicities(self):
        sources = np.array([2, 0, 2, 2], dtype=np.int64)
        targets = np.array([1, 1, 1, 0], dtype=np.int64)
        block = block_from_arrays(
            FusedNeeds(edge_keys=True), sources, targets, None
        )
        us, vs, counts = streaming._decode_edge_keys(block)
        observed = {
            (int(u), int(v)): int(c) for u, v, c in zip(us, vs, counts)
        }
        assert observed == {(2, 1): 2, (0, 1): 1, (2, 0): 1}
