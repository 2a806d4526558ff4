"""Tests for degree distribution estimators."""

import pytest

from repro.generators.ba import barabasi_albert
from repro.sampling.base import WalkTrace
from repro.sampling.independent import RandomEdgeSampler, RandomVertexSampler
from repro.sampling.single import SingleRandomWalk
from repro.estimators import StreamingDegreePMF
from repro.estimators.degree import (
    degree_ccdf_from_trace,
    degree_ccdf_from_vertices,
    degree_pmf_from_trace,
    degree_pmf_from_vertices,
)
from repro.metrics.exact import true_degree_pmf
from repro.util.stats import total_variation


class TestFromTrace:
    def test_empty_trace_rejected(self, paw):
        with pytest.raises(ValueError):
            degree_pmf_from_trace(paw, WalkTrace("x", [], [0], 0, 1.0))

    def test_pmf_sums_to_one(self, paw):
        trace = SingleRandomWalk().sample(paw, 1000, rng=0)
        pmf = degree_pmf_from_trace(paw, trace)
        assert sum(pmf.values()) == pytest.approx(1.0)

    def test_dense_support(self, paw):
        trace = SingleRandomWalk().sample(paw, 1000, rng=1)
        pmf = degree_pmf_from_trace(paw, trace)
        assert set(pmf) == set(range(max(pmf) + 1))

    def test_converges_to_truth(self, paw):
        trace = SingleRandomWalk(seeding="stationary").sample(
            paw, 50_000, rng=2
        )
        pmf = degree_pmf_from_trace(paw, trace)
        truth = true_degree_pmf(paw)
        assert total_variation(pmf, truth) < 0.02

    def test_ccdf_consistent_with_pmf(self, paw):
        trace = SingleRandomWalk().sample(paw, 2000, rng=3)
        pmf = degree_pmf_from_trace(paw, trace)
        ccdf = degree_ccdf_from_trace(paw, trace)
        for k in ccdf:
            tail = sum(v for d, v in pmf.items() if d > k)
            assert ccdf[k] == pytest.approx(tail)

    def test_custom_degree_label(self, paw):
        """Walking degree reweights; an arbitrary label is histogrammed."""
        label = {0: 7, 1: 7, 2: 9, 3: 9}
        trace = SingleRandomWalk(seeding="stationary").sample(
            paw, 40_000, rng=4
        )
        pmf = degree_pmf_from_trace(paw, trace, degree_of=lambda v: label[v])
        assert pmf[7] == pytest.approx(0.5, abs=0.03)
        assert pmf[9] == pytest.approx(0.5, abs=0.03)

    def test_ba_graph_convergence(self):
        graph = barabasi_albert(400, 2, rng=5)
        trace = SingleRandomWalk(seeding="stationary").sample(
            graph, 80_000, rng=6
        )
        pmf = degree_pmf_from_trace(graph, trace)
        truth = true_degree_pmf(graph)
        assert total_variation(pmf, truth) < 0.05


class TestFromVertices:
    def test_empty_rejected(self, paw):
        with pytest.raises(ValueError):
            degree_pmf_from_vertices([], paw.degree)

    def test_empirical_pmf(self, paw):
        pmf = degree_pmf_from_vertices([0, 3, 3, 1], paw.degree)
        assert pmf[3] == pytest.approx(0.25)  # vertex 0 has degree 3
        assert pmf[1] == pytest.approx(0.5)
        assert pmf[2] == pytest.approx(0.25)

    def test_converges_uniform_sampling(self, paw):
        trace = RandomVertexSampler().sample(paw, 40_000, rng=7)
        pmf = degree_pmf_from_vertices(trace.vertices, paw.degree)
        truth = true_degree_pmf(paw)
        assert total_variation(pmf, truth) < 0.02

    def test_ccdf_from_vertices(self, paw):
        ccdf = degree_ccdf_from_vertices([0, 3], paw.degree)
        assert ccdf[1] == pytest.approx(0.5)


class TestEdgeSamplesUseSameEstimator:
    def test_random_edge_trace_converges(self, paw):
        """RandomEdgeSampler's trace is exchangeable with a stationary
        RW trace for this estimator (both are uniform edge samples)."""
        trace = RandomEdgeSampler().sample(paw, 80_000, rng=8)
        pmf = degree_pmf_from_trace(paw, trace)
        truth = true_degree_pmf(paw)
        assert total_variation(pmf, truth) < 0.02


class TestNegativeLabel:
    """A negative degree label raises instead of losing its mass: the
    PMFs are dense on 0 .. max, so a label below 0 has no bin.  An
    accumulator raises in ``update``, before any estimate is read."""

    @pytest.mark.parametrize(
        "path", ["list", "csr", "update", "vertices", "exact"]
    )
    def test_raises_naming_the_label(self, path):
        graph = barabasi_albert(200, 2, rng=0)
        label = lambda v: -1 if v % 2 else graph.degree(v)  # noqa: E731
        trace = SingleRandomWalk(
            backend="csr" if path == "csr" else "list"
        ).sample(graph, 2_000, rng=1)
        calls = {
            "list": lambda: degree_pmf_from_trace(graph, trace, label),
            "csr": lambda: degree_pmf_from_trace(graph, trace, label),
            "update": lambda: StreamingDegreePMF(graph, label).update(trace),
            "vertices": lambda: degree_pmf_from_vertices(
                list(graph.vertices()), label
            ),
            "exact": lambda: true_degree_pmf(graph, label),
        }
        with pytest.raises(ValueError, match="degree label -1 is negative"):
            calls[path]()
