"""Tests for burn-in handling, on both backends' traces."""

import pytest

from repro.generators.ba import barabasi_albert
from repro.sampling.base import WalkTrace
from repro.sampling.burnin import discard_burn_in, effective_sample_count
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk, MetropolisTrace
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.sharded import ShardedFrontierSampler
from repro.sampling.single import SingleRandomWalk

#: Every walk sampler on both backends (the clocked walkers are csr-only).
WALKS = [
    pytest.param(factory, backend, id=f"{name}-{backend}")
    for name, factory in [
        ("SRW", lambda backend: SingleRandomWalk(backend=backend)),
        ("MultipleRW", lambda backend: MultipleRandomWalk(4, backend=backend)),
        ("FS", lambda backend: FrontierSampler(4, backend=backend)),
        ("MRW", lambda backend: MetropolisHastingsWalk(backend=backend)),
    ]
    for backend in ("list", "csr")
] + [
    pytest.param(
        lambda backend: ShardedFrontierSampler(4, procs=1), "csr", id="DFS-csr"
    )
]


@pytest.fixture(scope="module")
def ba():
    return barabasi_albert(200, 2, rng=11)


def _as_list_trace(trace):
    """The list-backend trace recording the same steps as ``trace``."""
    fields = dict(
        method=trace.method,
        edges=list(trace.edges),
        initial_vertices=list(trace.initial_vertices),
        budget=trace.budget,
        seed_cost=trace.seed_cost,
    )
    if hasattr(trace, "visited"):
        listed = MetropolisTrace(**fields)
        listed.visited = list(trace.visited)
        return listed
    return WalkTrace(
        **fields,
        per_walker=trace.per_walker,
        walker_indices=trace.walker_indices,
    )


class TestDiscardBurnIn:
    def test_zero_is_identity(self, house):
        trace = SingleRandomWalk().sample(house, 50, rng=0)
        assert discard_burn_in(trace, 0) is trace

    def test_negative_rejected(self, house):
        trace = SingleRandomWalk().sample(house, 50, rng=0)
        with pytest.raises(ValueError):
            discard_burn_in(trace, -1)

    def test_single_walker_prefix_dropped(self, house):
        trace = SingleRandomWalk().sample(house, 50, rng=1)
        burned = discard_burn_in(trace, 10)
        assert burned.edges == trace.edges[10:]
        assert burned.num_steps == trace.num_steps - 10

    def test_original_untouched(self, house):
        trace = SingleRandomWalk().sample(house, 50, rng=2)
        before = list(trace.edges)
        discard_burn_in(trace, 10)
        assert trace.edges == before

    def test_budget_still_reflects_full_spend(self, house):
        trace = SingleRandomWalk().sample(house, 50, rng=3)
        burned = discard_burn_in(trace, 10)
        assert burned.budget == trace.budget

    def test_multi_walker_proportional(self, house):
        trace = MultipleRandomWalk(4).sample(house, 100, rng=4)
        burned = discard_burn_in(trace, 40)
        per_walker_burn = 10
        for original, kept in zip(trace.per_walker, burned.per_walker):
            assert kept == original[per_walker_burn:]
        assert len(burned.edges) == sum(len(e) for e in burned.per_walker)

    def test_fs_trace_supported(self, house):
        trace = FrontierSampler(4).sample(house, 100, rng=5)
        burned = discard_burn_in(trace, 40)
        assert burned.walker_indices == [
            w for w, edges in enumerate(burned.per_walker) for _ in edges
        ]
        assert burned.num_steps < trace.num_steps

    @pytest.mark.parametrize(
        "sampler", [MultipleRandomWalk(4), FrontierSampler(4)], ids=["MRW", "FS"]
    )
    def test_list_walker_ids_group_the_kept_edges(self, house, sampler):
        """A burned list trace names each kept edge's walker, walker by
        walker, so its ids regroup the edges into ``per_walker``."""
        trace = sampler.sample(house, 100, rng=7)
        assert trace.walker_indices is not None
        burned = discard_burn_in(trace, 12)
        assert len(burned.walker_indices) == burned.num_steps
        regrouped = [[] for _ in burned.per_walker]
        for walker, edge in zip(burned.walker_indices, burned.edges):
            regrouped[walker].append(edge)
        assert regrouped == burned.per_walker
        assert burned.walker_indices == sorted(burned.walker_indices)

    def test_burn_longer_than_trace(self, house):
        trace = SingleRandomWalk().sample(house, 20, rng=6)
        burned = discard_burn_in(trace, 100)
        assert burned.edges == []


class TestBothBackends:
    @pytest.mark.parametrize("factory, backend", WALKS)
    @pytest.mark.parametrize("burn_in", [1, 10, 40, 10_000])
    def test_well_formed(self, ba, factory, backend, burn_in):
        trace = factory(backend).sample(ba, 200, rng=3)
        burned = discard_burn_in(trace, burn_in)
        assert type(burned) is type(trace)
        assert burned.num_steps == len(burned.edges) <= trace.num_steps
        assert burned.budget == trace.budget
        assert burned.initial_vertices == trace.initial_vertices
        if trace.per_walker is not None:
            per_walker_burn = max(1, burn_in // len(trace.per_walker))
            assert burned.per_walker == [
                edges[per_walker_burn:] for edges in trace.per_walker
            ]
            assert burned.edges == [
                edge for edges in burned.per_walker for edge in edges
            ]
        if hasattr(trace, "visited"):
            assert burned.visited == trace.visited[burn_in:]
            assert set(burned.edges) <= set(trace.edges)
            assert burned.spent() == trace.spent() - min(
                burn_in, len(trace.visited)
            )
        else:
            assert burned.spent() == (
                trace.spent() - trace.num_steps + burned.num_steps
            )

    @pytest.mark.parametrize("factory, backend", WALKS)
    def test_csr_matches_the_list_path_on_the_same_edges(
        self, ba, factory, backend
    ):
        trace = factory(backend).sample(ba, 200, rng=4)
        for burn_in in (1, 7, 40, 150):
            burned = discard_burn_in(trace, burn_in)
            reference = discard_burn_in(_as_list_trace(trace), burn_in)
            assert burned.edges == reference.edges

    @pytest.mark.parametrize("factory, backend", WALKS)
    def test_both_backends_keep_the_same_walker_ids(self, ba, factory, backend):
        trace = factory(backend).sample(ba, 200, rng=4)
        for burn_in in (1, 40):
            burned = discard_burn_in(trace, burn_in)
            reference = discard_burn_in(_as_list_trace(trace), burn_in)
            assert burned.walker_indices == reference.walker_indices
            assert burned.per_walker == reference.per_walker
            assert burned.spent() == reference.spent()
            assert getattr(burned, "visited", None) == getattr(
                reference, "visited", None
            )

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_metropolis_keeps_its_visits(self, backend):
        graph = barabasi_albert(200, 2, rng=1)
        trace = MetropolisHastingsWalk(backend=backend).sample(
            graph, 200, rng=3
        )
        assert len(trace.visited) == 199 and trace.spent() == 200
        burned = discard_burn_in(trace, 10)
        assert len(burned.visited) == 189
        assert burned.spent() == 190
        # The kept edges are exactly the transitions accepted after
        # proposal 10: the position changes along the kept visits.
        positions = [trace.visited[9]] + burned.visited
        moves = [
            (u, v) for u, v in zip(positions, positions[1:]) if u != v
        ]
        assert burned.edges == moves


class TestEffectiveSampleCount:
    def test_basic(self, house):
        trace = SingleRandomWalk().sample(house, 50, rng=7)
        assert effective_sample_count(trace, 10) == trace.num_steps - 10

    def test_floor_at_zero(self, house):
        trace = SingleRandomWalk().sample(house, 20, rng=8)
        assert effective_sample_count(trace, 1000) == 0
