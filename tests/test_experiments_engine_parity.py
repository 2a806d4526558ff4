"""Fixed-seed parity goldens: engine-ported drivers vs the
pre-refactor closure loops.

Each test re-implements the *pre-engine* driver computation inline
(one ``sampler.sample`` per replicate, batch estimators on the full
trace) and asserts the ported driver reproduces it at ``procs=None``
on the list backend — bit-identically where the computation is
identical float-op-for-float-op, and to <= 1e-12 where a streaming
accumulator replaced a batch estimator.

The ``TestProcsInvariance`` suite is the other half of the
contract: representative drivers of every family (error figure,
budget sweep, sample paths, group densities, tables, ablations) run
at ``procs=1`` and ``procs=SPAWN_PROCS`` (real spawn workers; CI's
smoke leg raises the count to 4 via ``REPRO_SHARD_PROCS``, and its
thread leg swaps the fan-out vehicle via ``REPRO_EXECUTOR=thread``)
and must agree exactly.

``TestExecutorTorture`` is the executor half: a Hypothesis property
walks executor in {inline, thread, spawn} x procs in {1, 2, 4} x
advance-chunking for every pool-capable sampler family and asserts
byte-identical trace fingerprints and accumulator states against the
inline reference, plus a ``REPRO_NO_NATIVE`` leg exercising the
``executor="auto"`` fallback (pure-Python kernels cannot release the
GIL, so auto must pick spawn there).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.estimators.streaming import StreamingDegreePMF
from repro.experiments import ablations, figures, tables
from repro.experiments.degree_errors import (
    _estimate,
    degree_error_experiment,
)
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.metrics.errors import nmse_curve
from repro.metrics.exact import true_degree_ccdf
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    RandomEdgeSampler,
    RandomVertexSampler,
    ShardedSessionPool,
    SingleRandomWalk,
)
from repro.sampling import _native
from repro.sampling.base import walk_steps
from repro.sampling.fused import FusedBlock, merge_needs
from repro.sampling.sharded import resolve_executor, threads_can_scale
from repro.util.rng import child_rng

#: Worker count for the real-spawn tests (CI's smoke leg sets 4).
SPAWN_PROCS = int(os.environ.get("REPRO_SHARD_PROCS", "2"))
#: Fan-out vehicle for the parallel side of the invariance tests
#: (CI's thread smoke leg sets "thread"; default keeps legacy spawn).
EXECUTOR = os.environ.get("REPRO_EXECUTOR") or None

SCALE = 0.05
RUNS = 3
DIMENSION = 10


def assert_curves_close(new, ref, tol=0.0):
    assert set(new) == set(ref)
    for key in ref:
        assert abs(new[key] - ref[key]) <= tol, (key, new[key], ref[key])


class TestDegreeErrorParity:
    def test_experiment_matches_pre_refactor_loop(self):
        """The engine path is bit-identical to the historical
        closure loop on the list backend, sampler family by family."""
        graph = barabasi_albert(500, 2, rng=0)
        samplers = {
            "FS": FrontierSampler(DIMENSION),
            "SingleRW": SingleRandomWalk(),
            "MRW": MultipleRandomWalk(DIMENSION),
            "RV": RandomVertexSampler(0.5),
            "RE": RandomEdgeSampler(0.5),
        }
        budget, runs, seed = 300, 5, 11
        truth = true_degree_ccdf(graph)
        reference = {}
        for method_index, (method, sampler) in enumerate(
            sorted(samplers.items())
        ):
            estimates = []
            for run_index in range(runs):
                rng = child_rng(seed + 7919 * method_index, run_index)
                trace = sampler.sample(graph, budget, rng)
                try:
                    estimates.append(_estimate(graph, trace, "ccdf", None))
                except ValueError:
                    estimates.append({})
            reference[method] = nmse_curve(estimates, truth)
        result = degree_error_experiment(
            graph, samplers, budget, runs, root_seed=seed, metric="ccdf"
        )
        for method in reference:
            assert_curves_close(result.curves[method], reference[method])

    def test_fig_budget_sweeps_walk_once(self):
        """fig4/8/12 with a budget schedule: one session per
        replicate, advanced to the final budget only — the
        acceptance-criteria step-count assertion."""
        for fig, _dimension_is_frontier in (
            (figures.fig4, True),
            (figures.fig8, True),
            (figures.fig12, True),
        ):
            sweep = fig(
                scale=SCALE, runs=RUNS, dimension=DIMENSION, budgets=3
            )
            budgets = sweep.budgets
            assert len(budgets) == 3
            fs_method = f"FS(m={DIMENSION})"
            final_steps = walk_steps(budgets[-1], DIMENSION, 1.0)
            assert sweep.steps_walked[fs_method] == RUNS * final_steps
            resampled = RUNS * sum(
                walk_steps(b, DIMENSION, 1.0) for b in budgets
            )
            assert sweep.steps_walked[fs_method] < resampled

    def test_fig_sweep_final_point_matches_single_budget_figure(self):
        """The sweep's last checkpoint reproduces the plain figure for
        the chunk-invisible samplers.

        MultipleRW is the documented exception (its walkers share one
        stream walker-by-walker, so checkpoint boundaries change the
        draw interleaving — same law, different stream); FS and
        SingleRW must agree to float-summation noise.
        """
        single = figures.fig4(scale=SCALE, runs=RUNS, dimension=DIMENSION)
        sweep = figures.fig4(
            scale=SCALE,
            runs=RUNS,
            dimension=DIMENSION,
            budgets=[single.budget / 2, single.budget],
        )
        final = sweep.at(single.budget)
        for method in single.curves:
            if method.startswith("MultipleRW"):
                continue
            assert_curves_close(
                final.curves[method], single.curves[method], tol=1e-12
            )

    def test_fig12_sweep_attaches_analytic_overlays_per_budget(self):
        sweep = figures.fig12(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, budgets=2
        )
        for budget in sweep.budgets:
            assert "analytic RV (eq.4)" in sweep.at(budget).curves
            assert "analytic RE (eq.3)" in sweep.at(budget).curves


class TestTableParity:
    def test_table2_matches_pre_refactor_loop(self):
        from repro.datasets.registry import gab
        from repro.estimators.assortativity import assortativity_from_trace
        from repro.metrics.errors import nmse, relative_bias
        from repro.metrics.exact import true_undirected_assortativity

        dataset = gab(SCALE)
        graph = dataset.graph
        truth = true_undirected_assortativity(graph)
        budget = max(4 * DIMENSION, int(graph.num_vertices * 0.1))
        samplers = {
            "FS": FrontierSampler(DIMENSION),
            "MultipleRW": MultipleRandomWalk(DIMENSION),
            "SingleRW": SingleRandomWalk(),
        }
        reference_bias, reference_error = {}, {}
        for method, sampler in samplers.items():
            estimates = []
            for run_index in range(RUNS):
                rng = child_rng(2, run_index)  # dataset_index 0
                trace = sampler.sample(graph, budget, rng)
                estimates.append(assortativity_from_trace(graph, trace))
            reference_bias[method] = relative_bias(estimates, truth)
            reference_error[method] = nmse(estimates, truth)
        result = tables.table2(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, datasets=[dataset]
        )
        row = result.rows[0]
        for method in samplers:
            assert row.bias[method] == reference_bias[method]
            assert row.error[method] == reference_error[method]

    def test_table3_matches_pre_refactor_loop(self):
        from repro.datasets.registry import flickr_like
        from repro.estimators.clustering import global_clustering_from_trace
        from repro.metrics.errors import nmse
        from repro.metrics.exact import true_global_clustering

        dataset = flickr_like(SCALE)
        graph = dataset.graph
        truth = true_global_clustering(graph)
        budget = max(4 * DIMENSION, int(graph.num_vertices * 0.1))
        samplers = {
            "FS": FrontierSampler(DIMENSION),
            "MultipleRW": MultipleRandomWalk(DIMENSION),
            "SingleRW": SingleRandomWalk(),
        }
        reference_mean, reference_error = {}, {}
        for method, sampler in samplers.items():
            estimates = []
            for run_index in range(RUNS):
                rng = child_rng(3, run_index)
                trace = sampler.sample(graph, budget, rng)
                estimates.append(global_clustering_from_trace(graph, trace))
            reference_mean[method] = sum(estimates) / len(estimates)
            reference_error[method] = nmse(estimates, truth)
        result = tables.table3(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, datasets=[dataset]
        )
        row = result.rows[0]
        for method in samplers:
            assert row.mean_estimate[method] == reference_mean[method]
            assert row.error[method] == reference_error[method]

    def test_table4_matches_walk_trace_final_edge_gap(self):
        from repro.experiments.tables import _table4_graphs
        from repro.graph.components import largest_connected_component
        from repro.markov.transient import walk_trace_final_edge_gap

        graph_size, walkers, mc_runs, seed = 40, 4, 300, 4
        result = tables.table4(
            graph_size=graph_size,
            num_walkers=walkers,
            mc_runs=mc_runs,
            root_seed=seed,
        )
        graphs = _table4_graphs(graph_size, seed + 97)
        samplers = {
            "FS": FrontierSampler(walkers),
            "MRW": MultipleRandomWalk(walkers),
            "SRW": SingleRandomWalk(),
        }
        budgets = {
            "internet-rlt-mini": 3 * walkers,
            "youtube-mini": 2 * walkers,
            "hepth-mini": 2 * walkers,
        }
        for row in result.rows:
            lcc, _ = largest_connected_component(graphs[row.graph_name])
            for method_index, (method, sampler) in enumerate(
                samplers.items()
            ):
                reference = walk_trace_final_edge_gap(
                    lcc,
                    sampler,
                    budgets[row.graph_name],
                    runs=mc_runs,
                    root_seed=seed + 31 * method_index,
                )
                assert row.gaps[method] == reference


class TestAblationParity:
    def test_metropolis_vs_rw_matches_pre_refactor_loop(self):
        from repro.estimators.degree import (
            degree_pmf_from_trace,
            degree_pmf_from_vertices,
        )
        from repro.graph.components import largest_connected_component
        from repro.datasets.registry import flickr_like
        from repro.metrics.errors import nmse
        from repro.metrics.exact import true_degree_pmf
        from repro.sampling.metropolis import MetropolisHastingsWalk

        scale, runs, seed = 0.1, 4, 903
        dataset = flickr_like(scale)
        lcc, _ = largest_connected_component(dataset.graph)
        budget = lcc.num_vertices / 2.5
        truth = true_degree_pmf(lcc)
        probe = [
            k
            for k, v in sorted(truth.items(), key=lambda kv: -kv[1])[:8]
            if v > 0
        ]
        rw_estimates = {k: [] for k in probe}
        mh_estimates = {k: [] for k in probe}
        rw, mh = SingleRandomWalk(), MetropolisHastingsWalk()
        for run in range(runs):
            rw_trace = rw.sample(lcc, budget, child_rng(seed, run))
            rw_pmf = degree_pmf_from_trace(lcc, rw_trace)
            mh_trace = mh.sample(lcc, budget, child_rng(seed + 1, run))
            mh_pmf = degree_pmf_from_vertices(mh_trace.visited, lcc.degree)
            for k in probe:
                rw_estimates[k].append(rw_pmf.get(k, 0.0))
                mh_estimates[k].append(mh_pmf.get(k, 0.0))
        reference_rw = sum(
            nmse(rw_estimates[k], truth[k]) for k in probe
        ) / len(probe)
        reference_mh = sum(
            nmse(mh_estimates[k], truth[k]) for k in probe
        ) / len(probe)
        sweep = ablations.metropolis_vs_rw(
            scale=scale, runs=runs, root_seed=seed
        )
        assert sweep.errors["RW + eq.(7)"] == reference_rw
        assert sweep.errors["Metropolis-Hastings"] == reference_mh

    def test_burn_in_matches_pre_refactor_loop(self):
        """Old driver re-walked an identical trace per burn-in level;
        the engine walks once and scores every level — same numbers."""
        from repro.datasets.registry import gab
        from repro.estimators.degree import degree_ccdf_from_trace
        from repro.sampling.burnin import discard_burn_in

        scale, runs, seed = 0.1, 4, 905
        burn_ins = (0, 20)
        dataset = gab(scale)
        graph = dataset.graph
        budget = graph.num_vertices / 2.5
        truth = true_degree_ccdf(graph)

        def mean_cnmse(estimates):
            curve = nmse_curve(estimates, truth)
            return sum(curve.values()) / len(curve)

        single = SingleRandomWalk()
        reference = {}
        for burn in burn_ins:
            estimates = []
            for run in range(runs):
                trace = single.sample(graph, budget, child_rng(seed, run))
                burned = discard_burn_in(trace, burn)
                try:
                    estimates.append(degree_ccdf_from_trace(graph, burned))
                except ValueError:
                    estimates.append({})
            reference[f"SingleRW(burn-in={burn})"] = mean_cnmse(estimates)
        fs = FrontierSampler(64)
        estimates = [
            degree_ccdf_from_trace(
                graph, fs.sample(graph, budget, child_rng(seed + 1, run))
            )
            for run in range(runs)
        ]
        reference["FS(m=64, no burn-in)"] = mean_cnmse(estimates)
        sweep = ablations.burn_in_ablation(
            scale=scale, runs=runs, burn_ins=burn_ins, root_seed=seed
        )
        for name, value in reference.items():
            assert sweep.errors[name] == value


class TestProcsInvariance:
    """procs=1 == procs=SPAWN_PROCS, driver family by driver family.

    Real spawn workers on one side; the inline pooled path on the
    other.  Scales are tiny — the point is stream identity, not
    statistics.
    """

    def test_error_figure(self):
        a = figures.fig10(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, procs=1
        )
        b = figures.fig10(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        assert a.curves == b.curves

    def test_budget_sweep_figure(self):
        a = figures.fig4(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, budgets=2, procs=1
        )
        b = figures.fig4(
            scale=SCALE,
            runs=RUNS,
            dimension=DIMENSION,
            budgets=2,
            procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        assert a.steps_walked == b.steps_walked
        for budget in a.budgets:
            assert a.at(budget).curves == b.at(budget).curves

    def test_sample_paths_figure(self):
        a = figures.fig9(
            scale=SCALE, dimension=DIMENSION, num_paths=2, procs=1
        )
        b = figures.fig9(
            scale=SCALE, dimension=DIMENSION, num_paths=2, procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        assert a.paths == b.paths

    def test_group_density_figure(self):
        a = figures.fig14(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, procs=1
        )
        b = figures.fig14(
            scale=SCALE, runs=RUNS, dimension=DIMENSION, procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        assert a.curves == b.curves

    def test_table(self):
        from repro.datasets.registry import gab

        a = tables.table3(
            scale=SCALE,
            runs=RUNS,
            dimension=DIMENSION,
            datasets=[gab(SCALE)],
            procs=1,
        )
        b = tables.table3(
            scale=SCALE,
            runs=RUNS,
            dimension=DIMENSION,
            datasets=[gab(SCALE)],
            procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        assert a.rows[0].mean_estimate == b.rows[0].mean_estimate
        assert a.rows[0].error == b.rows[0].error

    def test_monte_carlo_table(self):
        a = tables.table4(
            graph_size=40, num_walkers=4, mc_runs=200, procs=1
        )
        b = tables.table4(
            graph_size=40, num_walkers=4, mc_runs=200, procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.gaps == row_b.gaps

    def test_ablation_with_in_process_sampler(self):
        """The sharded DFS arm replicates in-process under procs; FS
        fans out — results must still be procs-invariant end to end."""
        a = ablations.fs_vs_distributed(
            scale=0.1, runs=RUNS, dimension=8, procs=1
        )
        b = ablations.fs_vs_distributed(
            scale=0.1, runs=RUNS, dimension=8, procs=SPAWN_PROCS,
            executor=EXECUTOR,
        )
        assert a.errors == b.errors


@pytest.mark.parametrize("fig", [figures.fig4, figures.fig8, figures.fig12])
def test_budget_sweep_render_and_structure(fig):
    sweep = fig(scale=SCALE, runs=RUNS, dimension=DIMENSION, budgets=2)
    assert len(sweep.budgets) == 2
    text = sweep.render()
    assert "budget" in text


# ----------------------------------------------------------------------
# executor torture: inline x thread x spawn x procs x chunking
# ----------------------------------------------------------------------
#: One shared graph for the whole torture matrix (the pools below are
#: keyed on (procs, executor) and cached for the session, so spawn
#: startup is paid once, not per Hypothesis example).
_TORTURE_GRAPH = None
_TORTURE_POOLS = {}


def _torture_graph():
    global _TORTURE_GRAPH
    if _TORTURE_GRAPH is None:
        _TORTURE_GRAPH = get_csr(barabasi_albert(600, 3, rng=19))
    return _TORTURE_GRAPH


def _torture_pool(procs, executor):
    key = (procs, executor)
    if key not in _TORTURE_POOLS:
        _TORTURE_POOLS[key] = ShardedSessionPool(
            _torture_graph(), procs=procs, executor=executor
        )
    return _TORTURE_POOLS[key]


@atexit.register
def _close_torture_pools():
    for pool in _TORTURE_POOLS.values():
        pool.close()
    _TORTURE_POOLS.clear()


def rows_fingerprint(rows):
    """A byte-exact digest of anytime rows: every trace increment's
    arrays plus the final step counts.  Two executors agree iff their
    fingerprints agree."""
    digest = hashlib.sha256()
    for increments, steps in rows:
        digest.update(int(steps).to_bytes(8, "little", signed=True))
        for trace in increments:
            for name in ("step_sources", "step_targets", "step_walkers",
                         "visited_array"):
                part = getattr(trace, name, None)
                if part is None:
                    continue
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def accumulator_state(graph, rows):
    """Replicate-ordered streaming-PMF estimates accumulated from the
    rows' trace increments — the engine-side state the snapshots see."""
    states = []
    for increments, _steps in rows:
        accumulator = StreamingDegreePMF(graph)
        for trace in increments:
            accumulator.update(trace)
        states.append(accumulator.estimate())
    return states


#: The pool-capable sampler families (what `_POOL_SAFE_TYPES` admits).
TORTURE_SAMPLERS = {
    "SRW": lambda: SingleRandomWalk(),
    "MHRW": lambda: MetropolisHastingsWalk(),
    "MultipleRW": lambda: MultipleRandomWalk(4),
    "FS": lambda: FrontierSampler(6),
}


@st.composite
def chunk_schedules(draw):
    """An ascending steps-schedule — the advance-chunking axis.  The
    same schedule is pinned on both sides, so even MultipleRW (whose
    stream is documented chunk-boundary-sensitive) must agree."""
    count = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=20, max_value=120),
            min_size=count,
            max_size=count,
        )
    )
    marks, total = [], 0
    for size in sizes:
        total += size
        marks.append(float(total))
    return marks


class TestExecutorTorture:
    """Byte-identical rows for every executor, worker count, sampler
    family and advance-chunking — the determinism contract the thread
    backend ships under."""

    @given(
        sampler_key=st.sampled_from(sorted(TORTURE_SAMPLERS)),
        executor=st.sampled_from(["inline", "thread", "spawn"]),
        procs=st.sampled_from([1, 2, 4]),
        marks=chunk_schedules(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rows_bit_identical_across_executors(
        self, sampler_key, executor, procs, marks, seed
    ):
        graph = _torture_graph()
        sampler = TORTURE_SAMPLERS[sampler_key]()
        if executor == "inline":
            procs = 1
        pool = _torture_pool(procs, None if executor == "inline" else executor)
        rows = list(
            pool.run_anytime(
                sampler, marks, 3, root_seed=seed, schedule="steps"
            )
        )
        reference_pool = _torture_pool(1, None)
        reference = list(
            reference_pool.run_anytime(
                sampler, marks, 3, root_seed=seed, schedule="steps"
            )
        )
        assert rows_fingerprint(rows) == rows_fingerprint(reference)
        assert accumulator_state(graph, rows) == accumulator_state(
            graph, reference
        )

    @given(
        sampler_key=st.sampled_from(sorted(TORTURE_SAMPLERS)),
        executor=st.sampled_from(["inline", "thread", "spawn"]),
        procs=st.sampled_from([1, 2, 4]),
        marks=chunk_schedules(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_block_rows_match_trace_rows_across_executors(
        self, sampler_key, executor, procs, marks, seed
    ):
        """Workers handed the accumulator's needs ship one block per
        checkpoint, and the blocks estimate what the trace rows do."""
        graph = _torture_graph()
        sampler = TORTURE_SAMPLERS[sampler_key]()
        if executor == "inline":
            procs = 1
        pool = _torture_pool(procs, None if executor == "inline" else executor)
        needs = merge_needs([StreamingDegreePMF(graph)])
        blocks = list(
            pool.run_anytime(
                sampler, marks, 3, root_seed=seed, schedule="steps",
                needs=needs,
            )
        )
        traces = list(
            _torture_pool(1, None).run_anytime(
                sampler, marks, 3, root_seed=seed, schedule="steps"
            )
        )
        assert [len(items) for items, _ in blocks] == [len(marks)] * 3
        assert [steps for _, steps in blocks] == [
            steps for _, steps in traces
        ]
        for (block_items, _), (increments, _) in zip(blocks, traces):
            assert all(isinstance(item, FusedBlock) for item in block_items)
            assert [block.steps for block in block_items] == [
                trace.step_targets.size for trace in increments
            ]
        states = []
        for block_items, _steps in blocks:
            accumulator = StreamingDegreePMF(graph)
            for block in block_items:
                accumulator.absorb_block(block)
            states.append(accumulator.estimate())
        assert states == accumulator_state(graph, traces)

    def test_auto_resolves_to_thread_with_native(self):
        if not _native.available():
            pytest.skip("native kernels unavailable on this host")
        assert threads_can_scale()
        assert resolve_executor("auto") == "thread"

    def test_auto_falls_back_to_spawn_without_native(self, monkeypatch):
        """The documented heuristic: pure-Python kernels hold the GIL,
        so auto must not pick threads when native is unavailable
        (unless the interpreter itself is free-threaded)."""
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        gil_check = getattr(sys, "_is_gil_enabled", None)
        if gil_check is not None and not gil_check():
            assert resolve_executor("auto") == "thread"
        else:
            assert not threads_can_scale()
            assert resolve_executor("auto") == "spawn"

    def test_auto_fallback_rows_match_inline_without_native(
        self, monkeypatch
    ):
        """executor="auto" under REPRO_NO_NATIVE runs real spawn
        workers (which inherit the env) and still reproduces the
        inline rows byte for byte."""
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        graph = _torture_graph()
        sampler = FrontierSampler(6)
        marks = [40.0, 90.0]
        with ShardedSessionPool(graph, procs=2, executor="auto") as pool:
            assert pool.executor == resolve_executor("auto")
            rows = list(
                pool.run_anytime(
                    sampler, marks, 2, root_seed=5, schedule="steps"
                )
            )
        with ShardedSessionPool(graph, procs=1) as pool:
            reference = list(
                pool.run_anytime(
                    sampler, marks, 2, root_seed=5, schedule="steps"
                )
            )
        assert rows_fingerprint(rows) == rows_fingerprint(reference)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("fork")
        with pytest.raises(ValueError, match="executor"):
            ShardedSessionPool(_torture_graph(), procs=2, executor="fork")

    def test_run_plan_executor_requires_procs(self):
        from repro.experiments.engine import ExperimentPlan, run_plan

        plan = ExperimentPlan(
            title="executor validation",
            graph=_torture_graph(),
            samplers={"FS": FrontierSampler(4)},
            budgets=[50.0],
        )
        with pytest.raises(ValueError, match="procs"):
            run_plan(plan, 1, executor="thread")
        with pytest.raises(ValueError, match="executor"):
            run_plan(plan, 1, procs=2, executor="fork")
