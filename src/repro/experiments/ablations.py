"""Ablations beyond the paper's printed artifacts.

These probe the design choices DESIGN.md calls out:

- ``dimension_sweep`` — FS error as a function of the frontier
  dimension ``m`` (Theorem 5.4 says the uniform-seeding advantage grows
  with m; m=1 degenerates to SingleRW).
- ``walker_selection_ablation`` — Algorithm 1's degree-proportional
  walker choice vs a uniform walker choice (breaking the G^m
  equivalence), showing line 4 is load-bearing.
- ``metropolis_vs_rw`` — the Section 7 claim that the reweighted RW
  estimator beats the Metropolis-Hastings walk for degree
  distributions.
- ``fs_vs_distributed`` — FS and its exponential-clock realization
  (Theorem 5.5, :class:`~repro.sampling.sharded.ShardedFrontierSampler`
  run inline) produce statistically indistinguishable estimates.

Every sweep replicates through the experiment engine
(:func:`~repro.experiments.engine.run_plan`): ``procs`` fans the
replicates of pool-capable samplers across worker processes, and the
burn-in ablation now walks each SingleRW replicate ONCE, scoring all
burn-in levels against the same trace (the levels previously re-walked
identical traces per level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.datasets.registry import flickr_like, gab
from repro.experiments.degree_errors import degree_error_experiment
from repro.experiments.engine import ExperimentPlan, run_plan
from repro.experiments.render import format_float, render_table
from repro.estimators.degree import (
    degree_pmf_from_trace,
    degree_pmf_from_vertices,
)
from repro.estimators.streaming import degrees_of
from repro.metrics.errors import nmse
from repro.metrics.exact import true_degree_pmf
from repro.sampling.base import Backend
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.sharded import ShardedFrontierSampler
from repro.sampling.single import SingleRandomWalk


@dataclass
class SweepResult:
    """Scalar error per configuration, with a rendered table."""

    title: str
    errors: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [name, format_float(value, 4)]
            for name, value in self.errors.items()
        ]
        return render_table(self.title, ["configuration", "mean CNMSE"], rows)


def dimension_sweep(
    scale: float = 0.3,
    runs: int = 40,
    dimensions: Sequence[int] = (1, 4, 16, 64, 256),
    root_seed: int = 901,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SweepResult:
    """FS error on GAB as the frontier dimension grows.

    m=1 is a single random walk; larger m means more (dependent)
    walkers covering the loosely connected halves, and a joint start
    closer to stationarity (Theorem 5.4).
    """
    dataset = gab(scale)
    graph = dataset.graph
    budget = graph.num_vertices / 2.5
    samplers = {
        f"FS(m={m})": FrontierSampler(m) for m in dimensions
    }
    result = degree_error_experiment(
        graph,
        samplers,
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        metric="ccdf",
        title="dimension sweep",
        backend=backend,
        procs=procs,
        executor=executor,
    )
    sweep = SweepResult(
        title=f"FS dimension sweep on GAB (B={budget:.0f}, {runs} runs)"
    )
    for m in dimensions:
        sweep.errors[f"FS(m={m})"] = result.mean_error(f"FS(m={m})")
    return sweep


def walker_selection_ablation(
    scale: float = 0.3,
    runs: int = 40,
    dimension: int = 64,
    root_seed: int = 902,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SweepResult:
    """Degree-proportional vs uniform walker selection in FS.

    The uniform variant is *not* a random walk on G^m: it no longer
    samples the edge frontier uniformly, so its stationary law is
    biased and its error should be visibly worse.
    """
    dataset = gab(scale)
    graph = dataset.graph
    budget = graph.num_vertices / 2.5
    samplers = {
        "FS(degree selection)": FrontierSampler(dimension),
        "FS(uniform selection)": FrontierSampler(
            dimension, walker_selection="uniform"
        ),
    }
    result = degree_error_experiment(
        graph,
        samplers,
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        metric="ccdf",
        title="walker selection",
        backend=backend,
        procs=procs,
        executor=executor,
    )
    sweep = SweepResult(
        title=f"Algorithm 1 line 4 ablation on GAB (m={dimension})"
    )
    for name in samplers:
        sweep.errors[name] = result.mean_error(name)
    return sweep


def metropolis_vs_rw(
    scale: float = 0.3,
    runs: int = 40,
    root_seed: int = 903,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SweepResult:
    """Degree-pmf NMSE: reweighted RW estimator vs Metropolis walk.

    Both walks get the same budget on the Flickr LCC.  The MH walk
    samples vertices uniformly, so its estimator is the plain
    empirical pmf over visited vertices; the RW uses eq. (7).  The
    literature ([15, 29] via Section 7) finds RW at least as accurate —
    chiefly because MH wastes budget on rejected moves.
    """
    from repro.graph.components import largest_connected_component

    dataset = flickr_like(scale)
    lcc, _ = largest_connected_component(dataset.graph)
    budget = lcc.num_vertices / 2.5
    truth = true_degree_pmf(lcc)
    degrees = degrees_of(lcc)
    probe = [
        k for k, v in sorted(truth.items(), key=lambda kv: -kv[1])[:8] if v > 0
    ]
    rw_name, mh_name = "RW + eq.(7)", "Metropolis-Hastings"

    def snapshot(method: str, collector, checkpoint: float) -> List[float]:
        trace = collector.trace()
        if method == mh_name:
            pmf = degree_pmf_from_vertices(trace.visited, degrees)
        else:
            pmf = degree_pmf_from_trace(lcc, trace)
        return [pmf.get(k, 0.0) for k in probe]

    plan = ExperimentPlan(
        title="RW vs Metropolis-Hastings",
        graph=lcc,
        samplers={
            rw_name: SingleRandomWalk(),
            mh_name: MetropolisHastingsWalk(),
        },
        budgets=[budget],
        snapshot=snapshot,
        method_seed={rw_name: root_seed, mh_name: root_seed + 1},
        backend=backend,
    )
    outcome = run_plan(plan, runs, procs=procs, executor=executor)
    sweep = SweepResult(
        title="RW (eq. 7) vs Metropolis-Hastings walk"
        f" (flickr-like LCC, B={budget:.0f})"
    )
    for method in (rw_name, mh_name):
        rows = outcome.measurements(method)
        sweep.errors[method] = sum(
            nmse([row[j] for row in rows], truth[k])
            for j, k in enumerate(probe)
        ) / len(probe)
    return sweep


def burn_in_ablation(
    scale: float = 0.3,
    runs: int = 40,
    burn_ins: Sequence[int] = (0, 50, 200),
    root_seed: int = 905,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SweepResult:
    """Does discarding a burn-in rescue SingleRW on a trappable graph?

    Section 4.3's point: burn-in only addresses non-stationarity, not
    trapping — a walker stuck on one side of GAB stays stuck no matter
    how many initial samples are discarded, and the discarded samples
    are paid for.  FS without any burn-in should beat SingleRW at every
    burn-in level.

    Each SingleRW replicate walks once; every burn-in level is scored
    against that one trace (the pre-engine driver re-walked an
    identical trace per level — same numbers, len(burn_ins)x the
    walking).
    """
    from repro.sampling.burnin import discard_burn_in
    from repro.estimators.degree import degree_ccdf_from_trace
    from repro.metrics.errors import nmse_curve
    from repro.metrics.exact import true_degree_ccdf

    dataset = gab(scale)
    graph = dataset.graph
    budget = graph.num_vertices / 2.5
    truth = true_degree_ccdf(graph)
    sweep = SweepResult(
        title=f"Burn-in ablation on GAB (B={budget:.0f}, {runs} runs)"
    )
    levels = list(burn_ins)
    single_name, fs_name = "SingleRW", "FS(m=64, no burn-in)"

    def snapshot(method: str, collector, checkpoint: float):
        trace = collector.trace()
        if method == fs_name:
            return degree_ccdf_from_trace(graph, trace)
        by_level = {}
        for burn in levels:
            burned = discard_burn_in(trace, burn)
            try:
                by_level[burn] = degree_ccdf_from_trace(graph, burned)
            except ValueError:
                by_level[burn] = {}
        return by_level

    plan = ExperimentPlan(
        title="burn-in ablation",
        graph=graph,
        samplers={
            single_name: SingleRandomWalk(),
            fs_name: FrontierSampler(64),
        },
        budgets=[budget],
        snapshot=snapshot,
        method_seed={single_name: root_seed, fs_name: root_seed + 1},
        backend=backend,
    )
    outcome = run_plan(plan, runs, procs=procs, executor=executor)

    def mean_cnmse(estimates):
        curve = nmse_curve(estimates, truth)
        return sum(curve.values()) / len(curve)

    single_rows = outcome.measurements(single_name)
    for burn in levels:
        sweep.errors[f"SingleRW(burn-in={burn})"] = mean_cnmse(
            [row[burn] for row in single_rows]
        )
    sweep.errors[fs_name] = mean_cnmse(outcome.measurements(fs_name))
    return sweep


def fs_vs_distributed(
    scale: float = 0.3,
    runs: int = 40,
    dimension: int = 64,
    root_seed: int = 904,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SweepResult:
    """FS vs its exponential-clock realization (Theorem 5.5).

    The clocked walkers run as one inline shard
    (``ShardedFrontierSampler(dimension, procs=1)``).  A sharded
    sampler fans out through its own ``procs``, never through the
    engine's pool, so under ``procs`` it replicates in-process (with
    procs-invariant streams) while FS fans out — the engine routes
    each method appropriately.
    """
    dataset = flickr_like(scale)
    graph = dataset.graph
    budget = graph.num_vertices / 2.5
    samplers = {
        "FS (Algorithm 1)": FrontierSampler(dimension),
        "Distributed FS": ShardedFrontierSampler(dimension, procs=1),
    }
    result = degree_error_experiment(
        graph,
        samplers,
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        metric="ccdf",
        title="fs vs dfs",
        backend=backend,
        procs=procs,
        executor=executor,
    )
    sweep = SweepResult(
        title=f"Theorem 5.5: centralized vs distributed FS (m={dimension})"
    )
    for name in samplers:
        sweep.errors[name] = result.mean_error(name)
    return sweep
