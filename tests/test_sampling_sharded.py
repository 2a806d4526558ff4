"""Multi-process frontier sharding: determinism, parity, accounting.

The contract under test (see ``sampling/sharded.py``):

- per-walker spawn-key RNG streams make the merged trace a pure
  function of ``(seed, graph, event_block)`` — invariant to shard
  count, to inline-vs-spawn execution, to worker scheduling, and to
  how ``advance`` calls were chunked (hypothesis-checked);
- the engine runs the identical draw protocol with and without the
  native kernels (the CI ``REPRO_NO_NATIVE=1`` leg re-runs this whole
  file on the pure-Python fallback);
- the merged trace is Theorem 5.5's FS process: its statistics agree
  with Algorithm 1 (``FrontierSampler``), and budget accounting
  (``spent()``) agrees with both FS backends for any ``seed_cost``,
  including 0;
- checkpoints resume bit-identically, twice, from the same file;
- :class:`ShardedSessionPool` reproduces in-process replication bit
  for bit, just fanned out across spawn workers.

The real-spawn tests default to 2 worker processes; CI's 4-proc smoke
leg sets ``REPRO_SHARD_PROCS=4`` to cover a wider pool under spawn
start-method semantics (what macOS/Windows use by default), and its
thread leg sets ``REPRO_EXECUTOR=thread`` to re-run the same parity
checks with the fan-out on a thread pool over the in-process graph
(no spill, no pickling — same traces).
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.graph.graph import Graph
from repro.graph.io import load_csr_npy, save_csr_npy
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    ShardedFrontierSampler,
    ShardedSessionPool,
    SingleRandomWalk,
    load_session,
)
from repro.sampling import _native
from repro.util.rng import child_rng

#: Worker count for the real-spawn tests (CI's smoke leg sets 4).
SPAWN_PROCS = int(os.environ.get("REPRO_SHARD_PROCS", "2"))
#: Executor override for the fan-out tests (CI's thread leg sets
#: "thread"); None keeps the legacy spawn default.
EXECUTOR = os.environ.get("REPRO_EXECUTOR") or None


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 2, rng=5)


@pytest.fixture(scope="module")
def csr(graph):
    return get_csr(graph)


def inline_sampler(dimension=6, procs=1, **kwargs):
    return ShardedFrontierSampler(
        dimension, procs=procs, executor="thread", **kwargs
    )


def assert_traces_equal(a, b):
    assert (a.step_sources == b.step_sources).all()
    assert (a.step_targets == b.step_targets).all()
    assert (a.step_walkers == b.step_walkers).all()
    assert (a.step_times == b.step_times).all()
    assert a.initial_vertices == b.initial_vertices


class TestValidation:
    def test_dimension_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            ShardedFrontierSampler(0)

    def test_bad_seeding(self):
        with pytest.raises(ValueError, match="seeding"):
            ShardedFrontierSampler(2, seeding="nope")

    def test_negative_seed_cost(self):
        with pytest.raises(ValueError, match="seed_cost"):
            ShardedFrontierSampler(2, seed_cost=-1)


class TestMergedTraceContract:
    def test_trace_is_time_ordered_and_walker_consistent(self, graph):
        trace = inline_sampler(6).sample(graph, 200, rng=7)
        assert trace.num_steps == 200 - 6
        assert np.all(np.diff(trace.step_times) >= 0)
        assert trace.step_walkers.min() >= 0
        assert trace.step_walkers.max() < 6
        # Each walker's subsequence is a contiguous walk from its seed.
        position = dict(enumerate(trace.initial_vertices))
        for w, u, v in zip(
            trace.step_walkers.tolist(),
            trace.step_sources.tolist(),
            trace.step_targets.tolist(),
        ):
            assert position[w] == u
            position[w] = v

    def test_every_walker_index_jumps_eventually(self, graph):
        trace = inline_sampler(4).sample(graph, 400, rng=3)
        assert set(trace.step_walkers.tolist()) == {0, 1, 2, 3}

    def test_edges_are_real(self, house):
        trace = inline_sampler(3).sample(house, 150, rng=1)
        assert trace.num_steps == 147
        for u, v in trace.edges:
            assert house.has_edge(u, v)

    def test_per_walker_paths(self, house):
        trace = inline_sampler(4).sample(house, 150, rng=2)
        assert len(trace.per_walker) == 4
        assert sum(map(len, trace.per_walker)) == trace.num_steps
        for seed, edges in zip(trace.initial_vertices, trace.per_walker):
            if not edges:
                continue
            assert edges[0][0] == seed
            for (_u1, v1), (u2, _) in zip(edges, edges[1:]):
                assert v1 == u2

    def test_invalid_procs_rejected(self, graph):
        with pytest.raises(ValueError, match="procs"):
            ShardedFrontierSampler(4, procs=0)
        with pytest.raises(ValueError, match="procs"):
            ShardedSessionPool(graph, procs=0)
        with pytest.raises(ValueError, match="event_block"):
            ShardedFrontierSampler(4, event_block=0)

    def test_pinned_seeds_and_dimension_check(self, graph):
        sampler = inline_sampler(3)
        trace = sampler.sample_from(graph, [5, 9, 11], 40, rng=1)
        assert trace.initial_vertices == [5, 9, 11]
        with pytest.raises(ValueError):
            sampler.start(graph, rng=1, initial_vertices=[5, 9])

    def test_isolated_pinned_seed_rejected(self):
        lonely = barabasi_albert(50, 2, rng=1)
        lonely.add_vertex()
        isolated = lonely.num_vertices - 1
        with pytest.raises(ValueError, match="isolated"):
            inline_sampler(2).start(
                lonely, rng=1, initial_vertices=[0, isolated]
            )


class TestDeterminism:
    def test_shard_count_invariance_inline(self, graph):
        reference = inline_sampler(6, procs=1).sample(graph, 250, rng=11)
        for shards in (2, 3, 5, 8):
            other = inline_sampler(6, procs=shards).sample(graph, 250, rng=11)
            assert_traces_equal(reference, other)

    def test_repeated_runs_bit_identical(self, graph):
        a = inline_sampler(5, procs=2).sample(graph, 200, rng=21)
        b = inline_sampler(5, procs=2).sample(graph, 200, rng=21)
        assert_traces_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dimension=st.integers(1, 8),
        steps=st.integers(1, 80),
        shards=st.integers(2, 5),
        split=st.integers(1, 79),
    )
    def test_shard_count_and_chunking_invariance(
        self, seed, dimension, steps, shards, split
    ):
        """Shard-count 1 vs k and any advance chunking: identical merges."""
        graph = _hypothesis_graph()
        one = inline_sampler(dimension, procs=1)
        sharded = inline_sampler(dimension, procs=shards)
        with one.start(graph, rng=seed) as session:
            session.advance(steps)
            reference = session.trace()
        with sharded.start(graph, rng=seed) as session:
            first = min(steps, 1 + split % steps)
            session.advance(first)
            session.advance(steps - first)
            chunked = session.trace()
        assert_traces_equal(reference, chunked)

    @pytest.mark.skipif(
        not _native.available(), reason="no native kernels to compare"
    )
    def test_native_and_fallback_kernels_agree(self, csr, monkeypatch):
        fast = inline_sampler(4).sample(csr, 150, rng=13)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        slow = inline_sampler(4).sample(csr, 150, rng=13)
        assert_traces_equal(fast, slow)

    def test_mmap_graph_matches_in_memory(self, graph, csr, tmp_path):
        save_csr_npy(csr, tmp_path / "g")
        mapped = load_csr_npy(tmp_path / "g", mmap=True)
        assert mapped.mmap_stem is not None
        in_memory = inline_sampler(4).sample(csr, 150, rng=5)
        via_mmap = inline_sampler(4).sample(mapped, 150, rng=5)
        assert_traces_equal(in_memory, via_mmap)


class TestSpawnPool:
    def test_spawn_pool_matches_inline(self, graph):
        """Real worker processes over the temp-spilled mmap'd graph."""
        pooled_sampler = ShardedFrontierSampler(
            6, procs=SPAWN_PROCS, executor=EXECUTOR
        )
        with pooled_sampler.start(graph, rng=7) as session:
            session.advance_budget(220)
            pooled = session.trace()
            spill = session._spill_dir
            if session.executor == "spawn":
                # The graph was spilled for sharing; close() cleans up.
                assert spill is not None and spill.exists()
            else:
                # Threads read the in-process CSR: nothing to spill.
                assert spill is None
        assert spill is None or not spill.exists()
        inline = inline_sampler(6, procs=SPAWN_PROCS).start(graph, rng=7)
        inline.advance_budget(220)
        assert_traces_equal(pooled, inline.trace())
        inline.close()

    def test_spawn_pool_reuses_file_backed_graph(self, csr, tmp_path):
        save_csr_npy(csr, tmp_path / "g")
        mapped = load_csr_npy(tmp_path / "g", mmap=True)
        with ShardedFrontierSampler(
            4, procs=SPAWN_PROCS, executor=EXECUTOR
        ).start(mapped, rng=3) as session:
            session.advance(100)
            assert session._spill_dir is None  # shared in place
            pooled = session.trace()
        assert_traces_equal(
            pooled, inline_sampler(4).sample_from(
                csr, pooled.initial_vertices, 100, rng=3
            ),
        )


class TestBudgetParity:
    @pytest.mark.parametrize("seed_cost", [0.0, 0.5, 1.0, 2.5])
    def test_spent_agrees_across_fs_realizations(self, graph, seed_cost):
        """Satellite: seed_cost budget accounting parity (incl. 0)."""
        budget = 150
        dimension = 6
        sessions = [
            FrontierSampler(dimension, seed_cost=seed_cost).start(
                graph, rng=7
            ),
            FrontierSampler(
                dimension, seed_cost=seed_cost, backend="csr"
            ).start(graph, rng=7),
            inline_sampler(dimension, seed_cost=seed_cost).start(graph, rng=7),
        ]
        expected_steps = max(0, int(budget - dimension * seed_cost))
        for session in sessions:
            session.advance_budget(budget)
            assert session.steps_taken == expected_steps, session
            assert session.spent() == pytest.approx(
                seed_cost * dimension + expected_steps
            ), session
            trace = session.trace()
            assert trace.spent() == pytest.approx(session.spent()), session
            closer = getattr(session, "close", None)
            if closer:
                closer()

    def test_budget_below_seed_cost_takes_no_steps(self, graph):
        session = inline_sampler(6, seed_cost=2.0).start(graph, rng=1)
        session.advance_budget(11)  # 6 seeds cost 12 > 11
        assert session.steps_taken == 0
        assert session.spent() == pytest.approx(12.0)
        session.close()


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self, graph, tmp_path):
        sampler = inline_sampler(6)
        interrupted = sampler.start(graph, rng=7)
        interrupted.advance(60)
        path = tmp_path / "sharded.ckpt"
        interrupted.save(path)
        interrupted.close()
        resumed = load_session(path, graph)
        resumed.advance(90)
        full = sampler.start(graph, rng=7)
        full.advance(150)
        assert_traces_equal(resumed.trace(), full.trace())
        resumed.close()
        full.close()

    def test_resume_same_checkpoint_twice_is_identical(self, graph, tmp_path):
        """Satellite: two resumes of one file must not alias."""
        session = inline_sampler(5).start(graph, rng=19)
        session.advance(40)
        path = tmp_path / "sharded.ckpt"
        session.save(path)
        session.close()
        first = load_session(path, graph)
        second = load_session(path, graph)
        first.advance(70)  # fully drive one before touching the other
        second.advance(70)
        assert_traces_equal(first.trace(), second.trace())
        first.close()
        second.close()


class TestDistributionalParityWithFS:
    """Theorem 5.5: the clocked walkers' embedded jump chain is the FS
    chain, so the merged trace must agree with Algorithm 1 *in
    distribution*."""

    def test_degree_biased_mean_matches_algorithm_1(self, graph):
        """Sampled-vertex degree statistics agree with
        ``FrontierSampler`` across replicated fixed-seed runs."""
        degrees = np.asarray(graph.degrees(), dtype=np.float64)

        def biased_mean(traces):
            visited = np.concatenate(
                [np.asarray(t.visited_vertices, dtype=np.int64) for t in traces]
            )
            return float(degrees[visited].mean())

        sharded = [
            inline_sampler(6).sample(graph, 300, rng=child_rng(1, run))
            for run in range(15)
        ]
        algorithm_1 = [
            FrontierSampler(6, backend="csr").sample(
                graph, 300, rng=child_rng(2, run)
            )
            for run in range(15)
        ]
        a, b = biased_mean(sharded), biased_mean(algorithm_1)
        assert a == pytest.approx(b, rel=0.08), (a, b)

    def test_stationary_edge_law_uniform(self, paw):
        trace = inline_sampler(3, seeding="stationary").sample(
            paw, 60_000, rng=3
        )
        counts = Counter(trace.edges)
        expected = 1.0 / paw.volume()
        for _edge, count in counts.items():
            assert count / trace.num_steps == pytest.approx(expected, rel=0.15)

    def test_walker_move_rates_match_fs(self):
        """From pinned seeds in a frozen-degree configuration, walker i
        jumps with long-run frequency deg(v_i)/sum(deg) under both
        realizations."""
        # Two disjoint stars: each walker alternates between hub degree
        # and 1, and the symmetric pair must split the jumps evenly.
        stars = Graph(14)
        for leaf in range(1, 7):
            stars.add_edge(0, leaf)  # hub 0, degree 6
        for leaf in range(8, 14):
            stars.add_edge(7, leaf)  # hub 7, degree 6
        steps = 30_000
        fs_trace = FrontierSampler(2).sample_from(
            stars, [0, 7], steps, rng=11
        )
        sharded_trace = inline_sampler(2).sample_from(
            stars, [0, 7], steps, rng=12
        )
        assert sharded_trace.initial_vertices == [0, 7]
        fs_share = len(fs_trace.per_walker[0]) / steps
        sharded_share = len(sharded_trace.per_walker[0]) / steps
        assert fs_share == pytest.approx(0.5, abs=0.03)
        assert sharded_share == pytest.approx(0.5, abs=0.03)

    def test_visit_distribution_matches_fs(self, paw):
        """Long-run vertex visit frequencies agree with Algorithm 1."""
        steps = 40_000
        fs = FrontierSampler(2, seeding="stationary").sample(
            paw, steps, rng=21
        )
        sharded = inline_sampler(2, seeding="stationary").sample(
            paw, steps, rng=22
        )
        fs_counts = Counter(v for _, v in fs.edges)
        sharded_counts = Counter(v for _, v in sharded.edges)
        for v in paw.vertices():
            assert fs_counts[v] / fs.num_steps == pytest.approx(
                sharded_counts[v] / sharded.num_steps, abs=0.02
            )


class TestSessionPool:
    @pytest.mark.parametrize(
        "sampler",
        [
            SingleRandomWalk(),
            MetropolisHastingsWalk(),
            MultipleRandomWalk(4),
            FrontierSampler(4),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_inline_pool_matches_in_process_sampling(
        self, graph, csr, sampler
    ):
        with ShardedSessionPool(graph, procs=1) as pool:
            traces = pool.run(sampler, 120, runs=3, root_seed=9)
        for index, trace in enumerate(traces):
            reference = sampler.sample(csr, 120, rng=child_rng(9, index))
            assert trace.edges == reference.edges
            assert trace.initial_vertices == reference.initial_vertices
            assert trace.walker_indices == reference.walker_indices
            assert trace.budget == reference.budget
            assert trace.spent() == pytest.approx(reference.spent())

    def test_spawn_pool_matches_inline_pool(self, graph):
        sampler = FrontierSampler(4)
        with ShardedSessionPool(graph, procs=1) as pool:
            inline = pool.run(sampler, 120, runs=4, root_seed=9)
        with ShardedSessionPool(
            graph, procs=SPAWN_PROCS, executor=EXECUTOR
        ) as pool:
            pooled = pool.run(sampler, 120, runs=4, root_seed=9)
        for a, b in zip(inline, pooled):
            assert a.edges == b.edges
            assert a.initial_vertices == b.initial_vertices

    def test_rejects_nested_sharded_sampler(self, graph):
        """A sharded sampler inside the pool would nest Pools inside
        daemonic workers; refuse up front with a pointer to procs=."""
        with ShardedSessionPool(graph, procs=1) as pool:
            with pytest.raises(TypeError, match="procs"):
                pool.run(ShardedFrontierSampler(4), 100, runs=1)

    def test_rejects_bad_runs(self, graph):
        with ShardedSessionPool(graph, procs=1) as pool:
            with pytest.raises(ValueError):
                pool.run(SingleRandomWalk(), 100, runs=0)


_HYPOTHESIS_GRAPH = None


def _hypothesis_graph():
    global _HYPOTHESIS_GRAPH
    if _HYPOTHESIS_GRAPH is None:
        _HYPOTHESIS_GRAPH = barabasi_albert(120, 2, rng=3)
    return _HYPOTHESIS_GRAPH
