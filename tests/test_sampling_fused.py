"""Fused walk+accumulate parity: ``advance_into`` vs the drain path.

The contract under test: fusing the eq. (7)/(9) sufficient statistics
into the walk (``SamplerSession.advance_into`` feeding
``FusedBlock``s to the streaming estimators) is a memory/speed knob,
never a statistics change.  For every sampler family, backend kernel
(native C or the pure-Python ``REPRO_NO_NATIVE`` fallback), chunking,
advance mode (steps or budget) and executor:

- estimates from the fused path equal the drain path's **exactly**
  (``==``, not approx) when both absorb at the same chunk boundaries —
  the integer-count block design makes the two paths evaluate the very
  same float expressions;
- walker state is bit-identical afterwards: a session advanced via
  ``advance_into`` continues with the same trace a drained twin
  produces;
- drain-only accumulators (no ``fused_needs``: a drain-only wrapper,
  ``TraceCollector``) take the drain path with equal results;
- checkpoints taken mid-fused-advance resume bit-identically.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.estimators.streaming import (
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
)
from repro.experiments.engine import ExperimentPlan, TraceCollector, run_plan
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.graph.digraph import DiGraph
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    SingleRandomWalk,
    load_session,
)
from repro.sampling.fused import (
    FusedBlock,
    FusedNeeds,
    block_from_arrays,
    merge_needs,
)
from repro.sampling.sharded import ShardedFrontierSampler
from repro.sampling.vectorized import ArrayWalkTrace

_GRAPH = None


def fused_graph():
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = barabasi_albert(300, 2, rng=5)
    return _GRAPH


SAMPLERS = {
    "srw": lambda: SingleRandomWalk(backend="csr"),
    "mhrw": lambda: MetropolisHastingsWalk(backend="csr"),
    "fs-degree": lambda: FrontierSampler(6, backend="csr"),
    "fs-uniform": lambda: FrontierSampler(
        6, walker_selection="uniform", backend="csr"
    ),
    "mrw": lambda: MultipleRandomWalk(4, backend="csr"),
}


def edge_weight(u: int, v: int) -> float:
    return float(2 * u + v)


def vertex_weight(v: int) -> float:
    return (v % 7) * 0.3


def make_parts(graph):
    """A bundle needing all three block statistics: every fuse-capable
    accumulator, the directed assortativity on a digraph holding one
    orientation of each edge."""
    vertex_labels, edge_labels = VertexLabeling(), EdgeLabeling()
    digraph = DiGraph(graph.num_vertices)
    for v in graph.vertices():
        vertex_labels.add(v, "even" if v % 2 == 0 else "odd")
    for u, v in graph.edges():
        edge_labels.add((u, v), "low" if u + v < graph.num_vertices else "high")
        digraph.add_edge(u, v)
    return [
        StreamingDegreePMF(graph),
        StreamingDegreePMF(graph, np.array(digraph.out_degrees())),
        StreamingAverageDegree(graph),
        StreamingGraphSize(graph),
        StreamingEdgeFunctional(edge_weight),
        StreamingVertexFunctional(graph, vertex_weight),
        StreamingVertexDensity(graph, vertex_labels, ["even", "odd"]),
        StreamingEdgeDensity(edge_labels, ["low", "high"]),
        StreamingClustering(graph),
        StreamingAssortativity(graph),
        StreamingDirectedAssortativity(digraph),
    ]


def estimates(parts):
    """Per-part estimates; short-walk refusals (StreamingGraphSize
    needs collisions) must at least refuse identically on both paths."""
    values = []
    for part in parts:
        try:
            values.append(part.estimate())
        except ValueError as error:
            values.append(("raised", str(error)))
    return values


def drain_into(session, parts):
    increment = session.take_trace()
    for part in parts:
        part.update(increment)


def assert_same_continuation(fused_session, drained_session, steps=30):
    """Both sessions walk the same post-advance trajectory."""
    fused_session.advance(steps)
    drained_session.advance(steps)
    a = fused_session.take_trace()
    b = drained_session.take_trace()
    assert np.array_equal(a.step_sources, b.step_sources)
    assert np.array_equal(a.step_targets, b.step_targets)


def run_parity(sampler_key, seed, chunks, budget_tail):
    """Fused vs drained twin at identical chunk boundaries."""
    graph = fused_graph()
    fused = SAMPLERS[sampler_key]().start(graph, rng=seed)
    drained = SAMPLERS[sampler_key]().start(graph, rng=seed)
    fused_parts, drained_parts = make_parts(graph), make_parts(graph)
    total = 0
    for chunk in chunks:
        total += chunk
        assert fused.advance_into(fused_parts, steps=chunk) == chunk
        drained.advance(chunk)
        drain_into(drained, drained_parts)
    if budget_tail is not None:
        fused.advance_into(fused_parts, budget=budget_tail)
        drained.advance_budget(budget_tail)
        drain_into(drained, drained_parts)
    assert fused.steps_taken == drained.steps_taken
    if fused.steps_taken:
        assert estimates(fused_parts) == estimates(drained_parts)
    assert_same_continuation(fused, drained)


class TestSessionParity:
    @given(
        sampler_key=st.sampled_from(sorted(SAMPLERS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunks=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=4
        ),
        budget_tail=st.one_of(
            st.none(), st.floats(min_value=150.0, max_value=260.0)
        ),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_estimates_and_state_match_drained_twin(
        self, sampler_key, seed, chunks, budget_tail
    ):
        run_parity(sampler_key, seed, chunks, budget_tail)

    @pytest.mark.parametrize("sampler_key", sorted(SAMPLERS))
    def test_pure_python_fused_fallback(self, sampler_key, monkeypatch):
        """REPRO_NO_NATIVE keeps fusion on, via the vectorized
        fallback kernels — same exact-parity contract."""
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        run_parity(sampler_key, seed=11, chunks=[30, 0, 45], budget_tail=200.0)

    @pytest.mark.parametrize("sampler_key", sorted(SAMPLERS))
    def test_labeled_degree_pmf_fuses(self, sampler_key):
        """A relabeled PMF absorbs per-vertex visit counts, and its fused
        estimate equals its drained twin's exactly, for every sampler
        (the bundle in :func:`make_parts` carries one too)."""
        graph = fused_graph()
        labels = np.arange(graph.num_vertices) % 9
        fused = StreamingDegreePMF(graph, labels)
        drained = StreamingDegreePMF(graph, labels)
        assert fused.fused_needs() == FusedNeeds(visit_counts=True)
        fused_session = SAMPLERS[sampler_key]().start(graph, rng=21)
        drained_session = SAMPLERS[sampler_key]().start(graph, rng=21)
        for chunk in (40, 1, 75):
            fused_session.advance_into(fused, steps=chunk)
            drained_session.advance(chunk)
            drain_into(drained_session, [drained])
        assert fused.estimate() == drained.estimate()
        assert fused.ccdf() == drained.ccdf()

    def test_trace_collector_falls_back_to_drain(self):
        """A non-fusable accumulator still works: advance_into drains
        the increment into it and leaves the session record empty."""
        graph = fused_graph()
        session = SingleRandomWalk(backend="csr").start(graph, rng=1)
        collector = TraceCollector()
        assert session.advance_into(collector, steps=50) == 50
        assert collector.trace().step_targets.size == 50
        assert session.take_trace().step_targets.size == 0

    def test_zero_step_advance_is_a_no_op(self):
        graph = fused_graph()
        session = FrontierSampler(6, backend="csr").start(graph, rng=2)
        parts = make_parts(graph)
        session.advance_into(parts, steps=60)
        before = estimates(parts)
        assert session.advance_into(parts, steps=0) == 0
        assert estimates(parts) == before

    def test_requires_exactly_one_advance_mode(self):
        graph = fused_graph()
        session = SingleRandomWalk(backend="csr").start(graph, rng=1)
        parts = make_parts(graph)
        with pytest.raises(ValueError, match="exactly one"):
            session.advance_into(parts)
        with pytest.raises(ValueError, match="exactly one"):
            session.advance_into(parts, steps=5, budget=10.0)

    def test_checkpoint_mid_fused_advance_resumes_bit_identically(
        self, tmp_path
    ):
        graph = fused_graph()
        straight = FrontierSampler(6, backend="csr").start(graph, rng=9)
        interrupted = FrontierSampler(6, backend="csr").start(graph, rng=9)
        straight_parts = make_parts(graph)
        resumed_parts = make_parts(graph)
        straight.advance_into(straight_parts, steps=60)
        interrupted.advance_into(resumed_parts, steps=60)
        path = tmp_path / "fused.ckpt"
        interrupted.save(path)
        resumed = load_session(path, graph)
        straight.advance_into(straight_parts, budget=220.0)
        resumed.advance_into(resumed_parts, budget=220.0)
        assert resumed.steps_taken == straight.steps_taken
        assert estimates(resumed_parts) == estimates(straight_parts)
        assert_same_continuation(resumed, straight)

    def test_sharded_session_fused_parity(self):
        graph = fused_graph()
        fused = ShardedFrontierSampler(6, procs=2, executor="thread").start(
            graph, rng=4
        )
        drained = ShardedFrontierSampler(6, procs=2, executor="thread").start(
            graph, rng=4
        )
        fused_parts, drained_parts = make_parts(graph), make_parts(graph)
        fused.advance_into(fused_parts, steps=70)
        fused.advance_into(fused_parts, budget=260.0)
        drained.advance(70)
        drain_into(drained, drained_parts)
        drained.advance_budget(260.0)
        drain_into(drained, drained_parts)
        assert fused.steps_taken == drained.steps_taken
        assert estimates(fused_parts) == estimates(drained_parts)
        assert_same_continuation(fused, drained)
        fused.close()
        drained.close()


class TestBlockStructure:
    def test_needs_union_and_incapable_parts(self):
        graph = fused_graph()
        needs = merge_needs(
            [StreamingDegreePMF(graph), StreamingAverageDegree(graph)]
        )
        assert needs == FusedNeeds(degree_counts=True)
        assert merge_needs([StreamingDegreePMF(graph), TraceCollector()]) is None
        assert merge_needs(
            [StreamingDegreePMF(graph, degree_of=lambda v: 1)]
        ) == FusedNeeds(visit_counts=True)

    def test_degree_only_block_is_o_max_degree(self):
        """The bench's memory claim, structurally: a degree-statistics
        block allocates the (max_degree + 1) counts and nothing else."""
        block = FusedBlock(
            FusedNeeds(degree_counts=True), num_vertices=1000, max_degree=37
        )
        assert block.deg_counts is not None
        assert block.deg_counts.size == 38
        assert block.visit_counts is None
        assert block.new_edge_buffer(10_000) is None
        assert block.edge_key_array().size == 0

    def test_folded_increment_reads_as_the_graph_wide_block(self):
        """An array increment on low vertex ids folds into a block sized
        to its largest id and target degree, and every accumulator reads
        the same estimate from it as from the graph-wide block of the
        same steps."""
        graph = fused_graph()
        csr = get_csr(graph)
        degrees = csr.degrees()
        low = 60
        rng = np.random.default_rng(0)
        sources, targets, position = [], [], 0
        for _ in range(500):
            row = [w for w in graph.neighbors(position) if w < low]
            step = row[int(rng.integers(len(row)))]
            sources.append(position)
            targets.append(step)
            position = step
        trace = ArrayWalkTrace(
            "SingleRW",
            np.array(sources, dtype=np.int64),
            np.array(targets, dtype=np.int64),
            [0],
            500.0,
            1.0,
        )
        folded_parts, wide_parts = make_parts(graph), make_parts(graph)
        needs = merge_needs(wide_parts)
        folded = block_from_arrays(
            needs, trace.step_sources, trace.step_targets, degrees
        )
        assert folded.num_vertices == max(sources + targets) + 1 <= low
        assert folded.max_degree == int(degrees[trace.step_targets].max())
        wide = FusedBlock(needs, csr.num_vertices, int(degrees.max()))
        wide.fold_step_arrays(degrees, trace.step_sources, trace.step_targets)
        for part in folded_parts:
            part.update(trace)
        for part in wide_parts:
            part.absorb_block(wide)
        assert estimates(folded_parts) == estimates(wide_parts)


def streaming_accumulator(method):
    return StreamingAverageDegree(fused_graph())


def average_snapshot(method, accumulator, checkpoint):
    return accumulator.estimate()


class DrainOnly:
    """An accumulator without ``fused_needs``: sessions feed it
    ``take_trace()`` increments, the drain path."""

    def __init__(self, inner):
        self.inner = inner

    def update(self, increment):
        self.inner.update(increment)
        return self

    def estimate(self):
        return self.inner.estimate()


def drain_only_accumulator(method):
    return DrainOnly(streaming_accumulator(method))


class TestEngineParity:
    @pytest.mark.parametrize("schedule,marks", [
        ("budget", [120.0, 260.0]),
        ("steps", [60, 140]),
    ])
    def test_rows_identical_fused_drained_and_pooled(self, schedule, marks):
        plan = ExperimentPlan(
            title="fused-parity",
            graph=fused_graph(),
            samplers={
                "fs": FrontierSampler(6),
                "srw": SingleRandomWalk(),
                "mhrw": MetropolisHastingsWalk(),
            },
            budgets=marks,
            accumulator=streaming_accumulator,
            snapshot=average_snapshot,
            schedule=schedule,
            root_seed=13,
            backend="csr",
        )
        fused = run_plan(plan, replicates=2)
        drained = run_plan(
            replace(plan, accumulator=drain_only_accumulator), replicates=2
        )
        legs = {
            "inline": run_plan(plan, replicates=2, procs=1),
            "thread": run_plan(
                plan, replicates=2, procs=2, executor="thread"
            ),
            "spawn": run_plan(plan, replicates=2, procs=2, executor="spawn"),
        }
        for method, run in fused.methods.items():
            assert run.rows == drained.methods[method].rows
            assert run.steps_taken == drained.methods[method].steps_taken
            for leg in legs.values():
                assert run.rows == leg.methods[method].rows
