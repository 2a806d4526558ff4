"""The incremental session protocol: chunking, checkpoint/resume,
budget accounting, and bit-identity with the one-shot API.

The determinism contract under test:

- ``Sampler.sample()`` is ``start(); advance_budget(B); trace()`` and
  must reproduce the pre-session fixed-seed goldens exactly;
- both backends consume their random streams in protocol-defined
  units, so a session advanced in *any* chunk sequence matches the
  one-shot trace (except MultipleRW, whose walkers share one stream —
  there, identical chunk boundaries are required);
- a session checkpointed to disk at step k and resumed must finish
  with a trace bit-identical to the uninterrupted run — on both
  backends, and identically under ``REPRO_NO_NATIVE=1`` (the csr
  goldens pin the numpy draw protocol, which the native and
  pure-Python kernels implement bit-for-bit).
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.generators.ba import barabasi_albert
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    RandomEdgeSampler,
    RandomVertexSampler,
    SamplerSession,
    ShardedFrontierSampler,
    SingleRandomWalk,
    VertexTrace,
    load_session,
)

BUDGET = 150

#: (sampler key, backend) -> (initial vertices, first 4 edges, digest of
#: the full (edges, initial_vertices, visited) record).  Regenerate by
#: running the samplers at seed 7 on barabasi_albert(300, 2, rng=5) —
#: but any change here is an API-breaking change to the draw protocol.
GOLDENS = {
    ("SRW", "list"): ([165], [(165, 0), (0, 165), (165, 0), (0, 5)], "fb90b9d3c07e2cf7"),
    ("MHRW", "list"): ([165], [(165, 0), (0, 185), (185, 49), (49, 219)], "fe7fc79abf0d36ec"),
    ("FS", "list"): ([165, 77, 202, 24, 37, 274], [(77, 9), (37, 82), (165, 43), (9, 17)], "f012eb6e9bcb7067"),
    ("SRW", "csr"): ([187], [(187, 72), (72, 104), (104, 72), (72, 39)], "af7191c02c9ecb91"),
    ("MHRW", "csr"): ([187], [(187, 72), (72, 187), (187, 72), (72, 28)], "4b158542be38a120"),
    ("FS", "csr"): ([187, 269, 232, 67, 90, 262], [(187, 0), (232, 142), (142, 28), (0, 221)], "2c2e7551ea0c05ed"),
}


def make_sampler(key: str, backend: str):
    if key == "SRW":
        return SingleRandomWalk(backend=backend)
    if key == "MHRW":
        return MetropolisHastingsWalk(backend=backend)
    return FrontierSampler(6, backend=backend)


def digest(trace) -> str:
    record = (
        trace.edges,
        trace.initial_vertices,
        getattr(trace, "visited", None),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def trace_key(trace):
    if isinstance(trace, VertexTrace):
        return (trace.method, trace.vertices, trace.budget)
    return (
        trace.method,
        trace.edges,
        trace.initial_vertices,
        trace.budget,
        trace.seed_cost,
        trace.per_walker,
        trace.walker_indices,
        getattr(trace, "visited", None),
    )


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 2, rng=5)


ALL_SAMPLERS = [
    SingleRandomWalk(),
    MetropolisHastingsWalk(),
    FrontierSampler(6),
    MultipleRandomWalk(4),
    ShardedFrontierSampler(4, procs=1),
    RandomVertexSampler(0.8),
    RandomEdgeSampler(0.9),
    SingleRandomWalk(backend="csr"),
    MetropolisHastingsWalk(backend="csr"),
    FrontierSampler(6, backend="csr"),
    MultipleRandomWalk(4, backend="csr"),
]


class TestGoldens:
    @pytest.mark.parametrize("key,backend", sorted(GOLDENS))
    def test_sample_matches_fixed_seed_golden(self, graph, key, backend):
        """One-shot sample() reproduces the pre-session traces."""
        trace = make_sampler(key, backend).sample(graph, BUDGET, rng=7)
        seeds, head, expected = GOLDENS[(key, backend)]
        assert trace.initial_vertices == seeds
        assert trace.edges[:4] == head
        assert digest(trace) == expected

    @pytest.mark.parametrize("key,backend", sorted(GOLDENS))
    def test_checkpoint_resume_matches_golden(
        self, graph, tmp_path, key, backend
    ):
        """Chunked, disk-round-tripped sessions land on the goldens too.

        SRW/MHRW/FS consume their streams one event (or one contiguous
        block) at a time, so chunk boundaries and checkpoints are
        invisible: the resumed trace equals the one-shot golden bit for
        bit.
        """
        sampler = make_sampler(key, backend)
        session = sampler.start(graph, rng=7)
        session.advance_budget(40)  # checkpoint mid-walk, at step ~33
        path = tmp_path / "session.ckpt"
        session.save(path)
        resumed = load_session(path, graph)
        assert isinstance(resumed, SamplerSession)
        assert resumed.steps_taken == session.steps_taken
        resumed.advance_budget(BUDGET)
        trace = resumed.trace()
        _, _, expected = GOLDENS[(key, backend)]
        assert digest(trace) == expected
        assert trace_key(trace) == trace_key(
            sampler.sample(graph, BUDGET, rng=7)
        )


class TestResumeDeterminism:
    @pytest.mark.parametrize(
        "sampler", ALL_SAMPLERS, ids=lambda s: repr(s)
    )
    def test_resume_equals_uninterrupted(self, graph, tmp_path, sampler):
        """Checkpoint at step k + resume == the same run uninterrupted.

        Both runs use identical advance boundaries, so the guarantee
        covers every sampler — including MultipleRW, whose trace is
        chunk-boundary-sensitive by design.
        """
        uninterrupted = sampler.start(graph, rng=11)
        uninterrupted.advance_budget(60)
        uninterrupted.advance_budget(BUDGET)

        interrupted = sampler.start(graph, rng=11)
        interrupted.advance_budget(60)
        path = tmp_path / "ckpt.pkl"
        interrupted.save(path)
        del interrupted
        resumed = load_session(path, graph)
        resumed.advance_budget(BUDGET)

        assert trace_key(resumed.trace()) == trace_key(
            uninterrupted.trace()
        )
        assert resumed.spent() == uninterrupted.spent()

    @pytest.mark.parametrize(
        "sampler", ALL_SAMPLERS, ids=lambda s: repr(s)
    )
    def test_resume_same_checkpoint_twice_is_identical(
        self, graph, tmp_path, sampler
    ):
        """Two resumes of one checkpoint file must not alias.

        Each ``load_session`` unpickles a fully independent session —
        RNG state, walker positions and step records included — so
        driving the first resume to completion cannot perturb the
        second.  The two continuations must match bit for bit.
        """
        session = sampler.start(graph, rng=23)
        session.advance_budget(60)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        first = load_session(path, graph)
        second = load_session(path, graph)
        first.advance_budget(BUDGET)  # finish one before starting the other
        second.advance_budget(BUDGET)
        assert trace_key(first.trace()) == trace_key(second.trace())
        assert first.spent() == second.spent()

    def test_attach_rejects_mismatched_graph(self, graph, tmp_path):
        session = FrontierSampler(6).start(graph, rng=1)
        session.advance(10)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        other = barabasi_albert(200, 2, rng=6)
        with pytest.raises(ValueError, match="signature"):
            load_session(path, other)

    def test_attach_rejects_graph_mutated_since_save(self, tmp_path):
        """Satellite: a graph edited after save() must be refused.

        ``add_edge`` changes the edge count *and* bumps
        ``Graph.version``; either way the resumed walk would replay its
        stream against different neighbor rows and silently produce
        garbage, so ``load_session`` raises instead.
        """
        mutable = barabasi_albert(120, 2, rng=9)
        session = FrontierSampler(4).start(mutable, rng=1)
        session.advance(10)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        added = next(
            (u, v)
            for u in mutable.vertices()
            for v in mutable.vertices()
            if u < v and not mutable.has_edge(u, v)
        )
        assert mutable.add_edge(*added)
        with pytest.raises(ValueError, match="mutated"):
            load_session(path, mutable)

    def test_attach_rejects_count_preserving_mutation(self, tmp_path):
        """remove_edge + add_edge keeps (|V|, |E|) but reorders
        neighbor rows — the version field in the signature catches it."""
        mutable = barabasi_albert(120, 2, rng=9)
        session = FrontierSampler(4).start(mutable, rng=1)
        session.advance(10)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        edges_before = mutable.num_edges
        u, v = next(iter(mutable.edges()))
        assert mutable.remove_edge(u, v)
        assert mutable.add_edge(u, v)
        assert mutable.num_edges == edges_before  # counts alone can't tell
        with pytest.raises(ValueError, match="mutated"):
            load_session(path, mutable)

    def test_attach_guard_survives_a_failed_attempt(self, graph, tmp_path):
        """A rejected attach must not disarm the signature check."""
        import pickle

        session = FrontierSampler(6).start(graph, rng=1)
        session.advance(10)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        with open(path, "rb") as handle:
            detached = pickle.load(handle)
        with pytest.raises(ValueError, match="signature"):
            detached.attach(barabasi_albert(200, 2, rng=6))
        with pytest.raises(ValueError, match="signature"):
            detached.attach(barabasi_albert(250, 2, rng=6))
        detached.attach(graph)  # the right graph still works
        assert detached.graph is graph

    def test_attach_across_graph_representations(self, graph, tmp_path):
        """A csr-backend checkpoint saved on a Graph must reattach to
        the identical CSRGraph (which carries no mutation counter) —
        the version field is only compared when both sides have one."""
        from repro.graph.csr import get_csr

        sampler = FrontierSampler(6, backend="csr")
        session = sampler.start(graph, rng=1)
        session.advance(10)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        resumed = load_session(path, get_csr(graph))
        resumed.advance(10)
        assert resumed.steps_taken == 20
        # ...and the continuation matches staying on the Graph form.
        twin = load_session(path, graph)
        twin.advance(10)
        assert trace_key(twin.trace()) == trace_key(resumed.trace())

    def test_pre_version_checkpoints_stay_loadable(self, graph, tmp_path):
        """Checkpoints written before the signature carried the graph
        version stored a (|V|, |E|) 2-tuple; they must still attach
        (compared on the common prefix), not be rejected as mutated."""
        session = FrontierSampler(6).start(graph, rng=1)
        session.advance(10)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        with open(path, "rb") as handle:
            detached = pickle.load(handle)
        detached.__dict__["_graph_signature"] = (
            graph.num_vertices,
            graph.num_edges,
        )
        detached.attach(graph)
        assert detached.graph is graph
        with open(path, "rb") as handle:
            stale = pickle.load(handle)
        stale.__dict__["_graph_signature"] = (graph.num_vertices, 1)
        with pytest.raises(ValueError, match="mutated"):
            stale.attach(graph)

    def test_load_session_rejects_non_session(self, graph, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a session"}, handle)
        with pytest.raises(TypeError):
            load_session(path, graph)

    @pytest.mark.parametrize(
        "missing",
        [
            "repro.sampling.session.RetiredSession",
            "repro.sampling.retired.RetiredSampler",
        ],
    )
    def test_checkpoint_from_another_version_is_refused_readably(
        self, graph, tmp_path, missing
    ):
        """A checkpoint naming a class or module this code does not
        define fails with a ValueError naming the file and the missing
        name — not a bare unpickling AttributeError/ImportError."""
        module, name = missing.rsplit(".", 1)
        path = tmp_path / "old.ckpt"
        # A bare GLOBAL opcode, as a pickled instance of that class
        # would begin.
        path.write_bytes(f"c{module}\n{name}\n.".encode())
        with pytest.raises(ValueError) as excinfo:
            load_session(path, graph)
        message = str(excinfo.value)
        assert str(path) in message
        assert missing in message
        assert "another version of the code" in message

    def test_detached_session_cannot_advance(self, graph, tmp_path):
        session = SingleRandomWalk().start(graph, rng=1)
        path = tmp_path / "ckpt.pkl"
        session.save(path)
        with open(path, "rb") as handle:
            detached = pickle.load(handle)
        assert detached.graph is None
        with pytest.raises(RuntimeError, match="detached"):
            detached.advance(5)

    def test_state_is_picklable_and_graph_free(self, graph):
        session = FrontierSampler(6, backend="csr").start(graph, rng=3)
        session.advance(25)
        state = session.state
        assert state["_graph"] is None
        assert pickle.loads(pickle.dumps(state))  # round-trips

    def test_snapshot_is_independent_of_the_live_session(self, graph):
        """`.state` is a view; `.snapshot()` must be a deep copy."""
        session = FrontierSampler(6).start(graph, rng=3)
        session.advance(10)
        view = session.state
        snapshot = session.snapshot()
        frontier_then = list(snapshot["frontier"])
        session.advance(40)
        # The cheap view aliases live members; the snapshot does not.
        assert view["frontier"] == session.frontier
        assert snapshot["frontier"] == frontier_then


class TestChunkingInvariance:
    @pytest.mark.parametrize("backend", ["list", "csr"])
    @pytest.mark.parametrize("key", ["SRW", "MHRW", "FS"])
    def test_any_chunk_sequence_matches_one_shot(self, graph, key, backend):
        sampler = make_sampler(key, backend)
        session = sampler.start(graph, rng=9)
        for steps in (1, 7, 30, 50, 12):
            session.advance(steps)
        one_shot = sampler.start(graph, rng=9)
        one_shot.advance(100)
        assert trace_key(session.trace()) == trace_key(one_shot.trace())

    def test_take_trace_drains_in_increments(self, graph):
        sampler = FrontierSampler(6, backend="csr")
        keep = sampler.start(graph, rng=4)
        drain = sampler.start(graph, rng=4)
        collected = []
        for budget in (50, 90, BUDGET):
            keep.advance_budget(budget)
            drain.advance_budget(budget)
            increment = drain.take_trace()
            collected.extend(increment.edges)
        assert collected == keep.trace().edges
        assert drain.spent() == keep.spent()
        # after draining, only post-drain steps are retained
        assert drain.trace().num_steps == 0

    def test_frontier_session_tracks_positions(self, graph):
        """The session's frontier equals the last per-walker targets."""
        sampler = FrontierSampler(6, backend="csr")
        session = sampler.start(graph, rng=2)
        session.advance(200)
        trace = session.trace()
        expected = list(session.initial_vertices)
        for idx, (_, v) in zip(trace.walker_indices, trace.edges):
            expected[idx] = v
        assert session.frontier == expected


class TestBudgetAccounting:
    def test_advance_budget_is_monotone_and_idempotent(self, graph):
        session = SingleRandomWalk().start(graph, rng=1)
        took = session.advance_budget(101)
        assert took == 100  # one seed unit, then 100 steps
        assert session.advance_budget(101) == 0
        assert session.advance_budget(50) == 0  # budgets never rewind
        assert session.advance_budget(121) == 20
        assert session.spent() == 121

    def test_fractional_budgets_leave_change_unspent(self, graph):
        session = FrontierSampler(6, seed_cost=1.5).start(graph, rng=1)
        session.advance_budget(20.7)  # 6 seeds * 1.5 = 9; int(11.7) steps
        assert session.steps_taken == 11
        assert session.spent() == pytest.approx(20.0)

    def test_multiple_rw_splits_budget_per_walker(self, graph):
        session = MultipleRandomWalk(4).start(graph, rng=1)
        session.advance_budget(100)  # int(100/4 - 1) = 24 per walker
        assert session.steps_taken == 24
        assert session.trace().num_steps == 96
        assert session.spent() == 100.0

    def test_trace_budget_reports_requested_budget(self, graph):
        sampler = SingleRandomWalk()
        session = sampler.start(graph, rng=1)
        session.advance_budget(77.5)
        assert session.trace().budget == 77.5
        # plain advance() reports actual spend instead
        other = sampler.start(graph, rng=1)
        other.advance(10)
        assert other.trace().budget == other.spent() == 11.0

    def test_negative_arguments_rejected(self, graph):
        session = SingleRandomWalk().start(graph, rng=1)
        with pytest.raises(ValueError):
            session.advance(-1)
        with pytest.raises(ValueError):
            session.advance_budget(-5)

    def test_edge_sampler_session_counts_attempt_cost(self, graph):
        session = RandomEdgeSampler(cost_per_edge=2.0).start(graph, rng=1)
        session.advance_budget(25)
        assert session.steps_taken == 12  # attempts
        assert session.spent() == 24.0
        assert len(session.trace().edges) == 12  # hit_ratio 1.0


class TestIsolatedSeeds:
    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_pinned_isolated_seed_rejected_at_start(self, backend):
        from repro.graph.graph import Graph

        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)  # vertex 3 is isolated
        sampler = FrontierSampler(2, backend=backend)
        with pytest.raises(ValueError, match="isolated"):
            sampler.start(graph, rng=1, initial_vertices=[0, 3])
        with pytest.raises(ValueError, match="isolated"):
            sampler.sample_from(graph, [0, 3], 0, rng=1)


class TestPlainAdvanceBudgetConsistency:
    def test_budget_never_underreports_spend(self, graph):
        """advance() past a named budget floors trace.budget at spend."""
        session = SingleRandomWalk().start(graph, rng=1)
        session.advance(100)
        session.advance_budget(50)  # no-op rewind attempt
        trace = session.trace()
        assert trace.num_steps == 100
        assert trace.budget == session.spent() == 101.0

    def test_named_budget_below_seed_cost_still_reported_verbatim(
        self, graph
    ):
        """sample(budget=0) semantics: seeds paid, budget field stays 0."""
        trace = FrontierSampler(6).sample(graph, 0, rng=1)
        assert trace.budget == 0
        assert trace.num_steps == 0
