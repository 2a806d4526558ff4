"""Tests for the session-native replication engine."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.engine import (
    METHOD_SEED_STRIDE,
    ExperimentPlan,
    TraceCollector,
    concat_traces,
    default_budget_schedule,
    run_plan,
)
from repro.generators.ba import barabasi_albert
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    RandomEdgeSampler,
    RandomVertexSampler,
    ShardedFrontierSampler,
    SingleRandomWalk,
)
from repro.sampling.base import VertexTrace, walk_steps
from repro.util.rng import child_rng

#: Worker count for the real-spawn tests (CI's smoke leg sets 4).
SPAWN_PROCS = int(os.environ.get("REPRO_SHARD_PROCS", "2"))
#: Executor override for the fan-out tests (CI's thread leg sets
#: "thread"); None keeps the legacy spawn default.
EXECUTOR = os.environ.get("REPRO_EXECUTOR") or None


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(400, 2, rng=3)


def _trace_record(trace):
    """What a trace of either backend records, as plain values."""
    return (
        type(trace).__name__,
        getattr(trace, "vertices", None),
        getattr(trace, "edges", None),
        getattr(trace, "visited", None),
        trace.budget,
    )


class TestPlanValidation:
    def test_bad_schedule_rejected(self, graph):
        with pytest.raises(ValueError, match="schedule"):
            ExperimentPlan(
                title="t", graph=graph, samplers={}, schedule="sideways"
            )

    def test_bad_backend_rejected(self, graph):
        with pytest.raises(ValueError):
            ExperimentPlan(
                title="t", graph=graph, samplers={}, backend="gpu"
            )

    def test_non_ascending_budgets_rejected(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[100, 50],
        )
        with pytest.raises(ValueError, match="ascending"):
            run_plan(plan, 1)

    def test_empty_budgets_rejected(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[],
        )
        with pytest.raises(ValueError, match="ascending"):
            run_plan(plan, 1)

    def test_zero_replicates_rejected_with_samplers(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[10],
        )
        with pytest.raises(ValueError, match="replicates"):
            run_plan(plan, 0)

    def test_bad_procs_rejected(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[10],
        )
        with pytest.raises(ValueError, match="procs"):
            run_plan(plan, 1, procs=0)

    def test_list_backend_cannot_pool(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[10],
            backend="list",
        )
        with pytest.raises(ValueError, match="list"):
            run_plan(plan, 1, procs=2)

    def test_empty_grid_is_descriptive(self, graph):
        """Empty sampler grid: the engine resolves the graph factory
        and returns an empty result (figs 3/7, table 1)."""
        calls = []

        def factory():
            calls.append(1)
            return graph

        plan = ExperimentPlan(title="t", graph=factory, samplers={})
        result = run_plan(plan, replicates=0)
        assert result.graph is graph
        assert calls == [1]
        assert result.methods == {}


class TestSchedulesAndSeeds:
    def test_default_method_seeds_follow_stride(self, graph):
        """Sorted-grid method i replicates on root + 7919*i — the
        historical degree_error_experiment streams."""
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"B": SingleRandomWalk(), "A": SingleRandomWalk()},
            budgets=[60],
            root_seed=5,
        )
        outcome = run_plan(plan, 2)
        for index, method in enumerate(["A", "B"]):
            for run_index, trace in enumerate(
                outcome.measurements(method)
            ):
                seed = 5 + METHOD_SEED_STRIDE * index
                ref = SingleRandomWalk().sample(
                    graph, 60, child_rng(seed, run_index)
                )
                assert trace.edges == ref.edges

    def test_method_seed_mapping_and_callable(self, graph):
        mapping_plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[50],
            method_seed={"SRW": 123},
        )
        callable_plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[50],
            method_seed=lambda method, index: 123,
        )
        a = run_plan(mapping_plan, 2).measurements("SRW")
        b = run_plan(callable_plan, 2).measurements("SRW")
        for ta, tb in zip(a, b):
            assert ta.edges == tb.edges

    def test_steps_schedule_advances_cumulatively(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"FS": FrontierSampler(4)},
            budgets=[10, 25, 40],
            schedule="steps",
        )
        outcome = run_plan(plan, 1)
        run = outcome.run("FS")
        assert run.steps_taken == [40]
        increments = run.rows[0]
        assert [t.num_steps for t in increments] == [10, 25, 40]

    def test_per_method_budget_mapping(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={
                "FS": FrontierSampler(4),
                "MRW": MultipleRandomWalk(4),
            },
            budgets={"FS": [40], "MRW": [10]},
            schedule="steps",
        )
        outcome = run_plan(plan, 1)
        assert outcome.run("FS").steps_taken == [40]
        assert outcome.run("MRW").steps_taken == [10]  # per walker

    def test_default_budget_schedule(self):
        assert default_budget_schedule(100.0, 4) == [25.0, 50.0, 75.0, 100.0]
        with pytest.raises(ValueError):
            default_budget_schedule(100.0, 0)
        with pytest.raises(ValueError):
            default_budget_schedule(0.0)


class TestSingleWalkAccounting:
    def test_budget_sweep_walks_each_replicate_once(self, graph):
        """The engine receipt: a k-point sweep takes steps(final), not
        sum_i steps(b_i) — each replicate's session is advanced
        through the schedule exactly once."""
        budgets = [100.0, 200.0, 400.0]
        replicates = 3
        sampler = FrontierSampler(8)
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"FS": sampler},
            budgets=budgets,
        )
        outcome = run_plan(plan, replicates)
        run = outcome.run("FS")
        final_steps = walk_steps(budgets[-1], 8, sampler.seed_cost)
        resample_steps = sum(
            walk_steps(b, 8, sampler.seed_cost) for b in budgets
        )
        assert run.sessions_started == replicates
        assert run.steps_taken == [final_steps] * replicates
        assert run.total_steps() == replicates * final_steps
        assert run.total_steps() < replicates * resample_steps

    def test_sweep_final_snapshot_is_the_one_shot_trace(self, graph):
        """The default snapshot is the cumulative trace: the final
        checkpoint's value equals the one-shot ``sample()`` trace."""
        sampler = SingleRandomWalk()
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": sampler},
            budgets=[50, 150, 300],
        )
        outcome = run_plan(plan, 2)
        for index, row in enumerate(outcome.run("SRW").rows):
            ref = sampler.sample(graph, 300, child_rng(0, index))
            assert row[-1].edges == ref.edges
            assert [t.num_steps for t in row] == [49, 149, 299]


class TestTraceCollector:
    def test_empty_collector_raises(self):
        with pytest.raises(ValueError):
            TraceCollector().trace()

    def test_single_increment_returned_unchanged(self, graph):
        trace = SingleRandomWalk().sample(graph, 30, 1)
        collector = TraceCollector().update(trace)
        assert collector.trace() is trace

    def test_concat_list_walk_traces(self, graph):
        session = MultipleRandomWalk(3).start(graph, rng=4)
        session.advance(5)
        first = session.take_trace()
        session.advance(5)
        second = session.take_trace()
        merged = concat_traces([first, second])
        assert merged.num_steps == 30
        assert len(merged.per_walker) == 3
        assert all(len(edges) == 10 for edges in merged.per_walker)

    def test_concat_array_traces(self, graph):
        session = FrontierSampler(4, backend="csr").start(graph, rng=4)
        session.advance(20)
        first = session.take_trace()
        session.advance(15)
        second = session.take_trace()
        merged = concat_traces([first, second])
        assert merged.num_steps == 35
        assert merged.step_walkers.size == 35
        reference = FrontierSampler(4, backend="csr").start(graph, rng=4)
        reference.advance(35)
        assert (
            merged.step_sources == reference.trace().step_sources
        ).all()

    def test_concat_metropolis_keeps_visits(self, graph):
        session = MetropolisHastingsWalk().start(graph, rng=4)
        session.advance(10)
        first = session.take_trace()
        session.advance(10)
        second = session.take_trace()
        merged = concat_traces([first, second])
        assert len(merged.visited) == 20

    def test_concat_vertex_traces(self, graph):
        session = RandomVertexSampler().start(graph, rng=4)
        session.advance(10)
        first = session.take_trace()
        session.advance(10)
        second = session.take_trace()
        merged = concat_traces([first, second])
        assert isinstance(merged, VertexTrace)
        assert merged.num_samples == 20


class TestProcsFanOut:
    def test_pool_incapable_samplers_replicate_in_process(self, graph):
        """Independent-probe samplers cannot cross the process
        boundary; under procs they run in-process with streams
        invariant to the procs value."""
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"RV": RandomVertexSampler()},
            budgets=[80],
        )
        base = run_plan(plan, 3)
        pooled = run_plan(plan, 3, procs=SPAWN_PROCS, executor=EXECUTOR)
        assert not pooled.run("RV").pooled
        for ta, tb in zip(
            base.measurements("RV"), pooled.measurements("RV")
        ):
            assert ta.vertices == tb.vertices

    def test_procs_one_matches_backend_csr_in_process(self, graph):
        """The routing rule: on a backend="csr" plan, procs=None and
        procs=1 run the same inline loop on the same substrates, and
        exactly the four walk samplers run on the shared CSR."""
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={
                "SRW": SingleRandomWalk(),
                "MHRW": MetropolisHastingsWalk(),
                "MultipleRW": MultipleRandomWalk(4),
                "FS": FrontierSampler(6),
                "RV": RandomVertexSampler(),
                "RE": RandomEdgeSampler(),
                "DFS": ShardedFrontierSampler(6, procs=1),
            },
            budgets=[100, 250],
            backend="csr",
        )
        inproc = run_plan(plan, 3)
        inline = run_plan(plan, 3, procs=1)
        walks = {"SRW", "MHRW", "MultipleRW", "FS"}
        for outcome in (inproc, inline):
            pooled = {m for m, run in outcome.methods.items() if run.pooled}
            assert pooled == walks
        for method in plan.samplers:
            a, b = inproc.run(method), inline.run(method)
            assert a.steps_taken == b.steps_taken
            for ra, rb in zip(a.rows, b.rows):
                assert [_trace_record(t) for t in ra] == [
                    _trace_record(t) for t in rb
                ]

    def test_spawn_procs_bit_identical_to_inline(self, graph):
        """Real spawn workers: procs=1 and procs=SPAWN_PROCS agree bit
        for bit, method by method."""
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={
                "FS": FrontierSampler(6),
                "MRW": MultipleRandomWalk(4),
                "SRW": SingleRandomWalk(),
            },
            budgets=[100, 250],
        )
        inline = run_plan(plan, 3, procs=1)
        pooled = run_plan(plan, 3, procs=SPAWN_PROCS, executor=EXECUTOR)
        for method in ("FS", "MRW", "SRW"):
            assert (
                inline.run(method).steps_taken
                == pooled.run(method).steps_taken
            )
            for ra, rb in zip(
                inline.run(method).rows, pooled.run(method).rows
            ):
                for ta, tb in zip(ra, rb):
                    assert (ta.step_sources == tb.step_sources).all()
                    assert (ta.step_targets == tb.step_targets).all()

    def test_measurement_column_helpers(self, graph):
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"SRW": SingleRandomWalk()},
            budgets=[50, 100],
        )
        outcome = run_plan(plan, 2)
        run = outcome.run("SRW")
        assert len(run.measurements(50)) == 2
        assert run.measurements() == run.measurements(100)
        with pytest.raises(ValueError):
            run.measurements(75)


class TestRunAnytime:
    def test_validation(self, graph):
        from repro.sampling.sharded import ShardedSessionPool

        with ShardedSessionPool(graph, procs=1) as pool:
            with pytest.raises(ValueError, match="schedule"):
                pool.run_anytime(
                    SingleRandomWalk(), [10], 1, schedule="sideways"
                )
            with pytest.raises(ValueError, match="ascending"):
                pool.run_anytime(SingleRandomWalk(), [100, 50], 1)
            with pytest.raises(ValueError, match="runs"):
                pool.run_anytime(SingleRandomWalk(), [10], 0)

    def test_increments_and_steps(self, graph):
        from repro.sampling.sharded import ShardedSessionPool

        with ShardedSessionPool(graph, procs=1) as pool:
            rows = pool.run_anytime(
                SingleRandomWalk(), [50, 120], 2, root_seed=7
            )
        assert len(rows) == 2
        for increments, steps in rows:
            assert steps == 119  # one seed unit, then steps to B=120
            assert [t.num_steps for t in increments] == [49, 70]

    def test_streams_match_pool_run(self, graph):
        """run_anytime at one checkpoint reproduces run()'s traces."""
        from repro.sampling.sharded import ShardedSessionPool

        sampler = FrontierSampler(4)
        with ShardedSessionPool(graph, procs=1) as pool:
            one_shot = pool.run(sampler, 120, runs=2, root_seed=9)
            anytime = pool.run_anytime(
                sampler, [120], runs=2, root_seed=9
            )
        for trace, (increments, _) in zip(one_shot, anytime):
            assert len(increments) == 1
            assert np.array_equal(
                trace.step_sources, increments[0].step_sources
            )
