"""Tests for SingleRandomWalk."""

from collections import Counter

import pytest

from repro.graph.graph import Graph
from repro.sampling.single import SingleRandomWalk


class TestSingleRandomWalk:
    def test_budget_accounting(self, house):
        trace = SingleRandomWalk().sample(house, 100, rng=0)
        assert trace.num_steps == 99  # one seed, unit cost
        assert trace.spent() == 100

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_walk_length(self, house, backend):
        session = SingleRandomWalk(backend=backend).start(
            house, rng=0, initial_vertices=[0]
        )
        assert session.advance(50) == 50
        assert len(session.trace().edges) == 50

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_zero_steps(self, house, backend):
        session = SingleRandomWalk(backend=backend).start(
            house, rng=0, initial_vertices=[0]
        )
        assert session.advance(0) == 0
        trace = session.trace()
        assert trace.edges == []
        assert trace.initial_vertices == [0]

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_walk_is_a_path_of_real_edges(self, house, backend):
        trace = SingleRandomWalk(backend=backend).sample(house, 60, rng=2)
        edges = trace.edges
        assert edges[0][0] == trace.initial_vertices[0]
        assert all(house.has_edge(u, v) for u, v in edges)
        for (_u1, v1), (u2, _) in zip(edges, edges[1:]):
            assert v1 == u2

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_isolated_start_rejected(self, backend):
        graph = Graph(2)
        graph.add_edge(0, 1)
        graph.add_vertex()
        with pytest.raises(ValueError, match="isolated"):
            SingleRandomWalk(backend=backend).start(
                graph, rng=0, initial_vertices=[2]
            )

    def test_invalid_seeding_rejected(self):
        with pytest.raises(ValueError):
            SingleRandomWalk(seeding="banana")

    def test_negative_seed_cost_rejected(self):
        with pytest.raises(ValueError):
            SingleRandomWalk(seed_cost=-1)

    def test_stays_in_component(self, two_triangles):
        trace = SingleRandomWalk().sample(two_triangles, 200, rng=1)
        start = trace.initial_vertices[0]
        component = set(range(3)) if start < 3 else set(range(3, 6))
        assert all(v in component for _, v in trace.edges)

    def test_deterministic_given_seed(self, house):
        a = SingleRandomWalk().sample(house, 50, rng=7)
        b = SingleRandomWalk().sample(house, 50, rng=7)
        assert a.edges == b.edges

    def test_stationary_edge_law(self, paw):
        """A long stationary walk samples each directed edge with
        probability 1/vol(V) (Section 4's key property)."""
        trace = SingleRandomWalk(seeding="stationary").sample(
            paw, 60_000, rng=3
        )
        counts = Counter(trace.edges)
        expected = 1.0 / paw.volume()
        for _edge, count in counts.items():
            assert count / trace.num_steps == pytest.approx(
                expected, rel=0.15
            )
        assert len(counts) == paw.volume()  # every orientation seen

    def test_vertex_visits_degree_proportional(self, paw):
        trace = SingleRandomWalk(seeding="stationary").sample(
            paw, 60_000, rng=4
        )
        counts = Counter(v for _, v in trace.edges)
        volume = paw.volume()
        for v in paw.vertices():
            assert counts[v] / trace.num_steps == pytest.approx(
                paw.degree(v) / volume, rel=0.1
            )

    def test_repr(self):
        text = repr(SingleRandomWalk(seeding="stationary", seed_cost=2.0))
        assert "stationary" in text
