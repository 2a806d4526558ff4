"""Backend parity: the csr engine's two kernel paths agree exactly.

The contract under test: given the same seeded generator, SRW / MHRW /
FS / MultipleRW csr sessions produce element-for-element identical
traces whether they step through the pure-Python loops over
:class:`CSRGraph` arrays (``REPRO_NO_NATIVE=1``, the reference) or the
native C kernels, and whether the sampler is handed a :class:`Graph`
or its :class:`CSRGraph`.  Fixed-seed golden traces pin the draw
protocol itself against silent drift.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.ba import barabasi_albert
from repro.generators.classic import cycle_graph
from repro.generators.er import erdos_renyi_gnp
from repro.graph.csr import get_csr
from repro.graph.graph import Graph
from repro.sampling import _native
from repro.sampling import vectorized as vec
from repro.sampling.base import resolve_backend
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk

NATIVE = _native.available()

#: Every kernel path runnable here; "csr-python" is the reference.
KERNEL_PATHS = ["csr-python"] + (["csr-native"] if NATIVE else [])


@contextmanager
def kernel_path(label):
    """Run the enclosed walks on one kernel path (``REPRO_NO_NATIVE``
    is the only switch between them)."""
    with pytest.MonkeyPatch.context() as patch:
        if label == "csr-python":
            patch.setenv("REPRO_NO_NATIVE", "1")
        else:
            patch.delenv("REPRO_NO_NATIVE", raising=False)
        yield


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

SAMPLERS = {
    "srw": lambda: SingleRandomWalk(backend="csr"),
    "mhrw": lambda: MetropolisHastingsWalk(backend="csr"),
    "fs": lambda: FrontierSampler(5, backend="csr"),
    "fs-uniform-selection": lambda: FrontierSampler(
        5, walker_selection="uniform", backend="csr"
    ),
    "fs-stationary": lambda: FrontierSampler(
        5, seeding="stationary", backend="csr"
    ),
    "multiple": lambda: MultipleRandomWalk(6, backend="csr"),
}


def assert_traces_identical(reference, other):
    assert reference.initial_vertices == other.initial_vertices
    assert reference.edges == other.edges
    assert reference.walker_indices == other.walker_indices
    assert reference.per_walker == other.per_walker
    if hasattr(reference, "visited"):
        assert reference.visited == other.visited


class TestKernelParity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_kernel_paths_trace_identical(self, graph_name, sampler_name):
        graph = GRAPH_BUILDERS[graph_name]()
        csr = get_csr(graph)
        sampler = SAMPLERS[sampler_name]()
        with kernel_path("csr-python"):
            reference = sampler.sample(graph, 200, rng=42)
        for label in KERNEL_PATHS:
            with kernel_path(label):
                trace = sampler.sample(csr, 200, rng=42)
            assert_traces_identical(reference, trace)

    @pytest.mark.skipif(not NATIVE, reason="no C compiler available")
    def test_native_actually_engaged(self, monkeypatch):
        graph = get_csr(barabasi_albert(50, 2, rng=1))
        real = _native.fs_steps_acc
        steps = []

        def spy(*args, **kwargs):
            steps.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(_native, "fs_steps_acc", spy)
        trace = FrontierSampler(3, backend="csr").sample(graph, 100, rng=0)
        assert trace.num_steps == 97
        assert steps == [97]


class TestFixedSeedRegression:
    """Golden traces pin the draw protocol (any change is a break)."""

    @pytest.fixture
    def house(self):
        graph = cycle_graph(5)
        graph.add_edge(0, 2)
        return graph

    def test_fs_golden(self, house):
        for label in KERNEL_PATHS:
            for graph in (house, get_csr(house)):
                with kernel_path(label):
                    trace = FrontierSampler(2, backend="csr").sample(
                        graph, 14, rng=123
                    )
                assert trace.initial_vertices == [3, 0]
                assert trace.edges == [
                    (3, 4), (4, 3), (3, 2), (0, 4), (4, 0), (2, 3),
                    (0, 2), (2, 0), (0, 1), (3, 2), (1, 2), (2, 3),
                ]
                assert trace.walker_indices == [
                    0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0,
                ]

    def test_srw_golden(self, house):
        for label in KERNEL_PATHS:
            with kernel_path(label):
                trace = SingleRandomWalk(backend="csr").sample(
                    house, 8, rng=7
                )
            assert trace.initial_vertices == [3]
            assert trace.edges == [
                (3, 4), (4, 0), (0, 1), (1, 0), (0, 2), (2, 1), (1, 2),
            ]

    def test_mhrw_golden(self, house):
        for label in KERNEL_PATHS:
            with kernel_path(label):
                trace = MetropolisHastingsWalk(backend="csr").sample(
                    house, 8, rng=11
                )
            assert trace.initial_vertices == [0]
            assert trace.edges == [
                (0, 4), (4, 3), (3, 4), (4, 3), (3, 4), (4, 0), (0, 1),
            ]
            assert trace.visited == [4, 3, 4, 3, 4, 0, 1]


class TestHypothesisParity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=60),
        p=st.floats(min_value=0.08, max_value=0.5),
        graph_seed=st.integers(min_value=0, max_value=2**31),
        walk_seed=st.integers(min_value=0, max_value=2**31),
        dimension=st.integers(min_value=1, max_value=6),
    )
    def test_fs_parity_on_random_graphs(
        self, n, p, graph_seed, walk_seed, dimension
    ):
        graph = erdos_renyi_gnp(n, p, rng=graph_seed)
        if graph.num_edges == 0:
            return
        csr = get_csr(graph)
        sampler = FrontierSampler(dimension, backend="csr")
        with kernel_path("csr-python"):
            reference = sampler.sample(graph, 120, rng=walk_seed)
        for label in KERNEL_PATHS:
            with kernel_path(label):
                trace = sampler.sample(csr, 120, rng=walk_seed)
            assert_traces_identical(reference, trace)

    @settings(max_examples=15, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**31),
        walk_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_srw_and_mhrw_parity_on_random_graphs(
        self, graph_seed, walk_seed
    ):
        graph = barabasi_albert(40, 2, rng=graph_seed)
        csr = get_csr(graph)
        for sampler in (
            SingleRandomWalk(backend="csr"),
            MetropolisHastingsWalk(backend="csr"),
        ):
            with kernel_path("csr-python"):
                reference = sampler.sample(graph, 150, rng=walk_seed)
            for label in KERNEL_PATHS:
                with kernel_path(label):
                    trace = sampler.sample(csr, 150, rng=walk_seed)
                assert_traces_identical(reference, trace)


class TestSeeding:
    def test_uniform_seeds_skip_isolated(self):
        graph = disconnected_graph()
        degrees = get_csr(graph).degrees()
        seeds = vec.uniform_seeds_np(
            degrees, 500, np.random.default_rng(0)
        )
        assert 8 not in seeds
        assert set(seeds) <= set(range(8))

    def test_stationary_seeds_degree_proportional(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (0, 3)])  # star
        degrees = get_csr(graph).degrees()
        seeds = vec.stationary_seeds_np(
            degrees, 6000, np.random.default_rng(1)
        )
        hub_share = seeds.count(0) / len(seeds)
        assert hub_share == pytest.approx(0.5, abs=0.05)

    def test_stationary_seeds_no_edges_raises(self):
        with pytest.raises(ValueError, match="no edges"):
            vec.stationary_seeds_np(
                np.zeros(4, dtype=np.int64), 3, np.random.default_rng(0)
            )

    def test_isolated_start_raises(self):
        csr = get_csr(disconnected_graph())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="isolated"):
            vec.run_random_walk(csr, 8, 10, rng)
        with pytest.raises(ValueError, match="isolated"):
            vec.run_frontier(csr, [0, 8], 10, rng)


class TestArrayTraces:
    def test_lazy_views_consistent(self):
        graph = get_csr(barabasi_albert(60, 2, rng=4))
        trace = FrontierSampler(4, backend="csr").sample(graph, 300, rng=9)
        assert trace.num_steps == 296
        assert len(trace.edges) == 296
        assert trace.visited_vertices == [v for _, v in trace.edges]
        assert sum(len(block) for block in trace.per_walker) == 296
        flat_by_walker = {
            (i, edge)
            for i, block in enumerate(trace.per_walker)
            for edge in block
        }
        rebuilt = {
            (w, edge)
            for w, edge in zip(trace.walker_indices, trace.edges)
        }
        assert flat_by_walker == rebuilt
        assert trace.spent() == 4 * 1.0 + 296

    def test_multiple_per_walker_blocks(self):
        graph = get_csr(barabasi_albert(60, 2, rng=4))
        trace = MultipleRandomWalk(5, backend="csr").sample(graph, 200, rng=2)
        steps_each = int(200 / 5 - 1)
        assert [len(block) for block in trace.per_walker] == [steps_each] * 5
        for start, block in zip(trace.initial_vertices, trace.per_walker):
            assert block[0][0] == start


class TestSamplerBackendSwitch:
    @pytest.fixture
    def graph(self):
        return barabasi_albert(100, 3, rng=8)

    def test_csr_backend_same_trace_for_graph_and_csr_input(self, graph):
        sampler = FrontierSampler(4, backend="csr")
        first = sampler.sample(graph, 300, rng=5)
        second = sampler.sample(get_csr(graph), 300, rng=5)
        assert first.edges == second.edges

    def test_all_samplers_run_on_csr_backend(self, graph):
        csr = get_csr(graph)
        for sampler in (
            SingleRandomWalk(backend="csr"),
            MultipleRandomWalk(4, backend="csr"),
            FrontierSampler(4, backend="csr"),
            MetropolisHastingsWalk(backend="csr"),
        ):
            trace = sampler.sample(csr, 200, rng=1)
            assert trace.num_steps > 0
            assert trace.method == type(sampler).name

    def test_sample_from_csr_backend(self, graph):
        sampler = FrontierSampler(3, backend="csr")
        trace = sampler.sample_from(get_csr(graph), [5, 6, 7], 50, rng=2)
        assert trace.initial_vertices == [5, 6, 7]
        assert trace.num_steps == 50

    def test_explicit_list_backend_rejects_csr_graph(self, graph):
        sampler = SingleRandomWalk(backend="list")
        with pytest.raises(TypeError, match="list"):
            sampler.sample(get_csr(graph), 100, rng=0)

    def test_csr_graph_input_implies_csr_backend(self, graph):
        trace = SingleRandomWalk().sample(get_csr(graph), 100, rng=0)
        assert isinstance(trace, vec.ArrayWalkTrace)

    def test_backend_is_the_samplers_else_the_graphs(self, graph):
        """No process state: an explicit backend wins, else the graph's
        type decides."""
        csr = get_csr(graph)
        assert resolve_backend(None, graph) == "list"
        assert resolve_backend(None, csr) == "csr"
        assert resolve_backend("csr", graph) == "csr"
        assert resolve_backend("list", graph) == "list"
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("gpu", csr)
        trace = SingleRandomWalk().sample(graph, 100, rng=0)
        assert not isinstance(trace, vec.ArrayWalkTrace)
        trace = SingleRandomWalk(backend="csr").sample(graph, 100, rng=0)
        assert isinstance(trace, vec.ArrayWalkTrace)

    def test_invalid_backend_at_construction(self):
        with pytest.raises(ValueError, match="backend"):
            FrontierSampler(2, backend="gpu")

    def test_interpreted_list_backend_uses_a_different_stream(self, graph):
        """The parity guarantee's boundary, pinned as a test.

        Bit-for-bit parity holds *within* the csr engine (CSR-python
        vs CSR-native).  The interpreted list
        backend draws from ``random.Random`` and is statistically — not
        element-wise — equivalent for the same seed; if these ever
        collide, a protocol change has silently aliased the streams.
        """
        interpreted = SingleRandomWalk(backend="list").sample(
            graph, 100, rng=7
        )
        engine = SingleRandomWalk(backend="csr").sample(graph, 100, rng=7)
        assert interpreted.num_steps == engine.num_steps
        assert interpreted.edges != engine.edges

    def test_mhrw_spent_counts_rejected_proposals(self, graph):
        budget = 100
        for backend in ("list", "csr"):
            trace = MetropolisHastingsWalk(backend=backend).sample(
                graph, budget, rng=7
            )
            assert len(trace.visited) == 99  # budget minus the seed
            assert trace.spent() == budget
            assert len(trace.edges) < len(trace.visited)  # some rejections


class TestEstimatorCompatibility:
    def test_degree_pmf_from_csr_trace(self):
        from repro.estimators.degree import degree_pmf_from_trace

        graph = barabasi_albert(400, 3, rng=12)
        trace = FrontierSampler(10, backend="csr").sample(
            graph, 4000, rng=3
        )
        pmf = degree_pmf_from_trace(graph, trace)
        assert sum(pmf.values()) == pytest.approx(1.0)
        assert pmf  # non-degenerate

    def test_statistical_agreement_with_list_backend(self):
        """Same chain law: csr and list FS agree on average degree."""
        from repro.estimators.degree import degree_pmf_from_trace

        graph = barabasi_albert(300, 3, rng=15)

        def mean_degree(trace):
            pmf = degree_pmf_from_trace(graph, trace)
            return sum(k * p for k, p in pmf.items())

        list_est = mean_degree(
            FrontierSampler(8).sample(graph, 6000, rng=21)
        )
        csr_est = mean_degree(
            FrontierSampler(8, backend="csr").sample(graph, 6000, rng=21)
        )
        assert csr_est == pytest.approx(list_est, rel=0.15)
