"""Streaming accumulators vs their batch twins (≤1e-12 parity).

Every accumulator consumes the same walk split into irregular
increments (via ``session.take_trace()``) and must agree with the
batch ``*_from_trace`` estimator applied to the full trace, on both
backends.
"""

from __future__ import annotations

import pytest

from repro.estimators import (
    StreamingAssortativity,
    StreamingAverageDegree,
    StreamingClustering,
    StreamingDegreePMF,
    StreamingDirectedAssortativity,
    StreamingEdgeDensity,
    StreamingEdgeFunctional,
    StreamingGraphSize,
    StreamingVertexDensity,
    StreamingVertexFunctional,
    assortativity_from_trace,
    degree_ccdf_from_trace,
    degree_pmf_from_trace,
    degree_pmf_from_vertices,
    directed_assortativity_from_trace,
    edge_functional_from_trace,
    edge_label_densities_from_trace,
    estimate_num_edges,
    estimate_num_vertices,
    global_clustering_from_trace,
    vertex_functional_from_trace,
    vertex_label_densities_from_trace,
)
from repro.generators.ba import barabasi_albert
from repro.graph.digraph import DiGraph
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    RandomVertexSampler,
    SingleRandomWalk,
)

BUDGET = 4_000
CHECKPOINTS = (137, 950, 2_400, BUDGET)
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(2_000, 3, rng=42)


@pytest.fixture(scope="module")
def vertex_labeling(graph):
    labeling = VertexLabeling()
    for v in graph.vertices():
        labeling.add(v, "even" if v % 2 == 0 else "odd")
    return labeling


@pytest.fixture(scope="module")
def edge_labeling(graph):
    labeling = EdgeLabeling()
    for u, v in graph.edges():
        label = "near" if abs(u - v) < 100 else "far"
        labeling.add((u, v), label)
        labeling.add((v, u), label)
    return labeling


@pytest.fixture(scope="module")
def digraph(graph):
    """``G_d`` holding one orientation of each edge."""
    directed = DiGraph(graph.num_vertices)
    for u, v in graph.edges():
        directed.add_edge(u, v)
    return directed


def run_streamed(graph, sampler, accumulators, rng=7):
    """Advance one session through the checkpoints, draining into
    every accumulator; returns the identical-stream full trace (from a
    twin session with the same chunk boundaries, which matters for
    MultipleRW's shared-stream walkers)."""
    session = sampler.start(graph, rng=rng)
    reference = sampler.start(graph, rng=rng)
    for budget in CHECKPOINTS:
        session.advance_budget(budget)
        reference.advance_budget(budget)
        increment = session.take_trace()
        for accumulator in accumulators:
            accumulator.update(increment)
    return reference.trace()


SAMPLERS = [
    SingleRandomWalk(),
    MetropolisHastingsWalk(),
    FrontierSampler(16),
    FrontierSampler(16, backend="csr"),
    MetropolisHastingsWalk(backend="csr"),
    MultipleRandomWalk(8, backend="csr"),
]


class TestWalkTraceParity:
    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_degree_pmf_and_ccdf(self, graph, sampler):
        accumulator = StreamingDegreePMF(graph)
        full = run_streamed(graph, sampler, [accumulator])
        batch = degree_pmf_from_trace(graph, full)
        streamed = accumulator.estimate()
        assert set(batch) == set(streamed)
        assert all(
            abs(batch[k] - streamed[k]) <= TOLERANCE for k in batch
        )
        batch_ccdf = degree_ccdf_from_trace(graph, full)
        streamed_ccdf = accumulator.ccdf()
        assert all(
            abs(batch_ccdf[k] - streamed_ccdf[k]) <= 10 * TOLERANCE
            for k in batch_ccdf
        )

    @pytest.mark.parametrize("sampler", SAMPLERS[:3], ids=lambda s: repr(s))
    def test_degree_relabeling(self, graph, sampler):
        """``degree_of`` relabels the histogram, not the reweighting."""
        relabel = lambda v: min(graph.degree(v), 10)  # noqa: E731
        accumulator = StreamingDegreePMF(graph, degree_of=relabel)
        full = run_streamed(graph, sampler, [accumulator])
        batch = degree_pmf_from_trace(graph, full, degree_of=relabel)
        streamed = accumulator.estimate()
        assert set(batch) == set(streamed)
        assert all(
            abs(batch[k] - streamed[k]) <= TOLERANCE for k in batch
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_average_degree_eq7(self, graph, sampler):
        accumulator = StreamingAverageDegree(graph)
        full = run_streamed(graph, sampler, [accumulator])
        batch = vertex_functional_from_trace(
            graph, full, lambda v: float(graph.degree(v))
        )
        assert accumulator.estimate() == pytest.approx(
            batch, abs=TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_vertex_functional(self, graph, sampler):
        g = lambda v: (v % 13) * 0.77  # noqa: E731
        accumulator = StreamingVertexFunctional(graph, g)
        full = run_streamed(graph, sampler, [accumulator])
        batch = vertex_functional_from_trace(graph, full, g)
        assert accumulator.estimate() == pytest.approx(
            batch, abs=TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_vertex_label_density(self, graph, vertex_labeling, sampler):
        labels = ["even", "odd"]
        accumulator = StreamingVertexDensity(graph, vertex_labeling, labels)
        full = run_streamed(graph, sampler, [accumulator])
        batch = vertex_label_densities_from_trace(
            graph, full, vertex_labeling, labels
        )
        streamed = accumulator.estimate()
        assert all(
            abs(batch[label] - streamed[label]) <= TOLERANCE
            for label in labels
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_edge_label_density_exact(self, graph, edge_labeling, sampler):
        labels = ["near", "far"]
        accumulator = StreamingEdgeDensity(edge_labeling, labels)
        full = run_streamed(graph, sampler, [accumulator])
        batch = edge_label_densities_from_trace(full, edge_labeling, labels)
        # integer counting: exact, not just 1e-12
        assert accumulator.estimate() == batch

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_edge_functional_with_membership(self, graph, sampler):
        f = lambda u, v: abs(u - v) ** 0.5  # noqa: E731
        member = lambda u, v: (u + v) % 2 == 0  # noqa: E731
        accumulator = StreamingEdgeFunctional(f, membership=member)
        full = run_streamed(graph, sampler, [accumulator])
        batch = edge_functional_from_trace(full, f, membership=member)
        assert accumulator.estimate() == pytest.approx(
            batch, abs=100 * TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_graph_size(self, graph, sampler):
        accumulator = StreamingGraphSize(graph)
        full = run_streamed(graph, sampler, [accumulator])
        assert accumulator.num_vertices() == pytest.approx(
            estimate_num_vertices(graph, full), rel=1e-12
        )
        assert accumulator.num_edges() == pytest.approx(
            estimate_num_edges(graph, full), rel=1e-12
        )
        assert accumulator.estimate() == accumulator.num_vertices()

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_clustering(self, graph, sampler):
        accumulator = StreamingClustering(graph)
        full = run_streamed(graph, sampler, [accumulator])
        assert accumulator.estimate() == pytest.approx(
            global_clustering_from_trace(graph, full), abs=TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_assortativity_exact(self, graph, digraph, sampler):
        """Integer-valued moment sums: chunking cannot move them."""
        undirected = StreamingAssortativity(graph)
        directed = StreamingDirectedAssortativity(digraph)
        full = run_streamed(graph, sampler, [undirected, directed])
        assert undirected.estimate() == assortativity_from_trace(graph, full)
        assert directed.estimate() == directed_assortativity_from_trace(
            digraph, full
        )


class TestVertexTraceMode:
    def test_uniform_vertex_samples_use_plain_counts(self, graph):
        sampler = RandomVertexSampler(0.9)
        accumulator = StreamingDegreePMF(graph)
        full = run_streamed(graph, sampler, [accumulator])
        batch = degree_pmf_from_vertices(full.vertices, graph.degree)
        streamed = accumulator.estimate()
        assert set(batch) == set(streamed)
        assert all(
            abs(batch[k] - streamed[k]) <= TOLERANCE for k in batch
        )

    def test_mixing_laws_raises(self, graph):
        accumulator = StreamingDegreePMF(graph)
        accumulator.update(SingleRandomWalk().sample(graph, 50, rng=1))
        with pytest.raises(TypeError, match="mix"):
            accumulator.update(
                RandomVertexSampler().sample(graph, 50, rng=1)
            )

    def test_non_degree_accumulators_reject_vertex_traces(self, graph):
        trace = RandomVertexSampler().sample(graph, 50, rng=1)
        with pytest.raises(TypeError):
            StreamingAverageDegree(graph).update(trace)


class TestProtocol:
    def test_estimate_requires_samples(self, graph):
        with pytest.raises(ValueError):
            StreamingDegreePMF(graph).estimate()
        with pytest.raises(ValueError):
            StreamingAverageDegree(graph).estimate()
        with pytest.raises(ValueError):
            StreamingGraphSize(graph).estimate()

    def test_empty_increment_is_a_noop(self, graph):
        sampler = FrontierSampler(8, backend="csr")
        session = sampler.start(graph, rng=3)
        accumulator = StreamingAverageDegree(graph)
        accumulator.update(session.take_trace())  # zero steps so far
        with pytest.raises(ValueError):
            accumulator.estimate()
        session.advance(100)
        accumulator.update(session.take_trace())
        accumulator.update(session.take_trace())  # drained: another noop
        assert accumulator._steps == 100

    def test_update_returns_self_for_chaining(self, graph):
        trace = SingleRandomWalk().sample(graph, 60, rng=2)
        accumulator = StreamingAverageDegree(graph)
        assert accumulator.update(trace) is accumulator

    def test_rejects_unknown_increment_type(self, graph):
        with pytest.raises(TypeError):
            StreamingAverageDegree(graph).update([1, 2, 3])

    def test_accumulator_checkpoint_drops_graph(self, graph):
        import pickle

        accumulator = StreamingDegreePMF(graph)
        accumulator.update(SingleRandomWalk().sample(graph, 80, rng=2))
        clone = pickle.loads(pickle.dumps(accumulator))
        assert clone.graph is None
        clone.attach(graph)
        assert clone.estimate() == accumulator.estimate()

    def test_directed_checkpoint_drops_digraph(self, graph, digraph):
        import pickle

        accumulator = StreamingDirectedAssortativity(digraph)
        accumulator.update(SingleRandomWalk().sample(graph, 400, rng=2))
        clone = pickle.loads(pickle.dumps(accumulator))
        assert clone.graph is None
        clone.attach(digraph)
        clone.update(SingleRandomWalk().sample(graph, 400, rng=3))
        accumulator.update(SingleRandomWalk().sample(graph, 400, rng=3))
        assert clone.estimate() == accumulator.estimate()
