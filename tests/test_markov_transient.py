"""Tests for the Appendix B / Table 4 transient machinery."""

import numpy as np
import pytest

from repro.generators.ba import barabasi_albert
from repro.generators.classic import complete_graph
from repro.graph.csr import get_csr
from repro.markov.transient import (
    final_edge_gap_from_edges,
    multiple_rw_worst_case_gap,
    single_rw_edge_probabilities,
    single_rw_worst_case_gap,
    walk_trace_final_edge_gap,
    worst_case_gap,
)
from repro.sampling.frontier import FrontierSampler
from repro.sampling.single import SingleRandomWalk


class TestSingleRwEdgeProbabilities:
    def test_probabilities_sum_to_one(self, house):
        probabilities = single_rw_edge_probabilities(house, 5)
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_steps_validation(self, house):
        with pytest.raises(ValueError):
            single_rw_edge_probabilities(house, 0)

    def test_one_step_from_uniform(self, paw):
        """After one step from a uniform start, edge (u, v) has
        probability (1/n) / deg(u)."""
        probabilities = single_rw_edge_probabilities(paw, 1)
        n = paw.num_vertices
        for (u, _v), p in probabilities.items():
            assert p == pytest.approx(1.0 / (n * paw.degree(u)))

    def test_regular_graph_is_stationary_immediately(self):
        """On a regular graph the uniform start *is* stationary, so the
        gap is zero at every horizon."""
        graph = complete_graph(5)
        for steps in (1, 3, 10):
            assert single_rw_worst_case_gap(graph, steps) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_gap_decreases_with_steps(self, paw):
        gaps = [single_rw_worst_case_gap(paw, steps) for steps in (1, 4, 16, 64)]
        assert gaps[0] > gaps[-1]
        assert gaps[-1] == pytest.approx(0.0, abs=1e-6)

    def test_bipartite_graph_never_converges(self):
        """A *non-regular* bipartite graph oscillates forever (on a
        regular one the uniform start is already edge-stationary)."""
        from repro.generators.classic import star_graph

        graph = star_graph(3)
        assert single_rw_worst_case_gap(graph, 101) > 0.1
        assert single_rw_worst_case_gap(graph, 102) > 0.1


class TestWorstCaseGap:
    def test_stationary_probabilities_zero_gap(self, paw):
        volume = paw.volume()
        probabilities = {
            edge: 1.0 / volume
            for edge in paw.directed_edges()
        }
        assert worst_case_gap(probabilities, volume) == pytest.approx(0.0)

    def test_missing_edge_dominates(self, paw):
        volume = paw.volume()
        probabilities = {
            edge: 1.0 / volume for edge in paw.directed_edges()
        }
        first = next(iter(probabilities))
        probabilities[first] = 0.0
        assert worst_case_gap(probabilities, volume) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            worst_case_gap({}, 4)


class TestMultipleRw:
    def test_reduces_to_single_with_fewer_steps(self, paw):
        """K walkers split the budget: each gets (B-K)/K steps, so MRW's
        gap at budget B equals SRW's gap at (B-K)/K steps."""
        budget, k = 41, 4
        expected = single_rw_worst_case_gap(paw, (budget - k) // k)
        assert multiple_rw_worst_case_gap(paw, budget, k) == expected

    def test_validation(self, paw):
        with pytest.raises(ValueError):
            multiple_rw_worst_case_gap(paw, 10, 0)


class TestMonteCarloGap:
    def test_matches_exact_for_single_rw(self, paw):
        """Monte Carlo over SingleRW traces approximates the exact gap."""
        budget = 6
        exact = single_rw_worst_case_gap(paw, budget - 1)
        estimated = walk_trace_final_edge_gap(
            paw, SingleRandomWalk(), budget, runs=40_000, root_seed=1
        )
        assert estimated == pytest.approx(exact, abs=0.08)

    def test_fs_gap_smaller_than_single(self, paw):
        """The Appendix B claim, on a tiny graph: FS's final-edge law is
        closer to uniform than SingleRW's at the same budget."""
        budget = 8
        fs_gap = walk_trace_final_edge_gap(
            paw, FrontierSampler(4), budget, runs=40_000, root_seed=2
        )
        srw_gap = single_rw_worst_case_gap(paw, budget - 1)
        assert fs_gap < srw_gap

    def test_runs_validation(self, paw):
        with pytest.raises(ValueError):
            walk_trace_final_edge_gap(paw, SingleRandomWalk(), 5, runs=0)


def _gap_listing_every_edge(graph, final_edges):
    """``final_edge_gap_from_edges`` as it was: a 0.0 probability listed
    for every directed edge never seen."""
    seen = [edge for edge in final_edges if edge is not None]
    probabilities = {edge: seen.count(edge) / len(seen) for edge in seen}
    for edge in graph.directed_edges():
        probabilities.setdefault(edge, 0.0)
    return worst_case_gap(probabilities, graph.volume())


class TestFinalEdgeGap:
    def test_every_edge_seen(self):
        graph = barabasi_albert(30, 2, rng=3)
        edges = list(graph.directed_edges())
        final_edges = edges * 3 + edges[:7]
        final_edges.append(None)
        gap = final_edge_gap_from_edges(graph, final_edges)
        assert 0.0 < gap < 1.0
        assert gap == _gap_listing_every_edge(graph, final_edges)

    @pytest.mark.parametrize("repeats", [0, 40])
    def test_unseen_edges(self, repeats):
        """Unseen edges raise the gap to 1.0, unless an oversampled
        edge's gap is larger; the edge lists are never built."""
        graph = barabasi_albert(30, 2, rng=4)
        csr = get_csr(graph)
        sources = np.repeat(np.arange(csr.num_vertices), np.diff(csr.indptr))
        edges = list(zip(sources.tolist(), csr.indices.tolist()))
        final_edges = edges[5:] + edges[5:6] * repeats
        gap = final_edge_gap_from_edges(graph, final_edges)
        assert "_adj" not in vars(graph)
        assert gap == _gap_listing_every_edge(graph, final_edges)
        assert (gap == 1.0) == (repeats == 0)
