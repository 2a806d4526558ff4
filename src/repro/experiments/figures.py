"""Drivers for Figures 1 and 3–14 of the paper.

Figure 2 is a proof illustration (the m=2 Markov chain), not an
experiment; its content is verified exactly by the Lemma 5.1 tests in
``tests/test_markov_frontier_chain.py``.

Every driver takes ``scale`` (dataset size multiplier) and ``runs``
and returns a result object with ``render()``.  Defaults reproduce the
paper's qualitative shapes in minutes; benchmarks call the same
drivers at smaller scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.analysis.vertex_vs_edge import analytic_nmse_curves
from repro.datasets.registry import Dataset, flickr_like, gab, livejournal_like
from repro.estimators.streaming import StreamingVertexDensity
from repro.experiments.degree_errors import (
    BudgetSweepResult,
    DegreeErrorResult,
    degree_error_budget_sweep,
    degree_error_experiment,
)
from repro.experiments.engine import (
    ExperimentPlan,
    default_budget_schedule,
    run_plan,
)
from repro.experiments.render import format_float, render_table
from repro.experiments.samplepaths import SamplePathResult, sample_paths
from repro.graph.components import largest_connected_component
from repro.graph.labels import VertexLabel, label_membership
from repro.metrics.errors import nmse
from repro.metrics.exact import (
    true_degree_ccdf,
    true_degree_pmf,
    true_group_densities,
)
from repro.sampling.base import Backend, Sampler
from repro.sampling.frontier import FrontierSampler
from repro.sampling.independent import RandomEdgeSampler, RandomVertexSampler
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk

#: ``budgets`` accepted by the budget-style figures (4, 8, 12):
#: ``None`` reproduces the paper's single-budget error figure, an int
#: asks for that many :func:`default_budget_schedule` checkpoints, a
#: sequence pins the checkpoints explicitly.  Either sweep form walks
#: each replicate ONCE (one resumed session to the final budget).
BudgetsArg = Union[None, int, Sequence[float]]


def _budget_schedule(budgets: BudgetsArg, final_budget: float):
    if budgets is None:
        return None
    if isinstance(budgets, int):
        return default_budget_schedule(final_budget, budgets)
    return list(budgets)


def _degree_errors(
    graph, samplers, budget: float, budgets: BudgetsArg, titles, **options
) -> Union[DegreeErrorResult, BudgetSweepResult]:
    """The error result at ``budget``, or the budget sweep ``budgets``
    asks for; ``titles`` is the pair (result title, sweep title)."""
    schedule = _budget_schedule(budgets, budget)
    if schedule is None:
        return degree_error_experiment(
            graph, samplers, budget=budget, title=titles[0], **options
        )
    return degree_error_budget_sweep(
        graph, samplers, schedule, title=titles[1], **options
    )


def _lcc_with_labels(dataset: Dataset, labels: np.ndarray) -> tuple:
    """LCC of a dataset plus the label array indexed by LCC ids."""
    lcc, old_to_new = largest_connected_component(dataset.graph)
    # The LCC numbers its vertices densely in the order of their old ids.
    return lcc, labels[sorted(old_to_new)]


# ----------------------------------------------------------------------
# Figure 1 — SingleRW vs MultipleRW(10), in-degree CNMSE, B = |V|/10
# ----------------------------------------------------------------------
def fig1(
    scale: float = 1.0,
    runs: int = 100,
    root_seed: int = 101,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> DegreeErrorResult:
    """SingleRW beats uniformly seeded MultipleRW — the motivating
    surprise of Section 4.4."""
    dataset = flickr_like(scale)
    # The paper's B=|V|/10 is ~170k absolute queries on the real Flickr;
    # our stand-in is ~100x smaller, so budget fractions are inflated to
    # keep per-walker walk depths meaningful (see EXPERIMENTS.md).
    budget = dataset.graph.num_vertices / 2.5
    samplers: Dict[str, Sampler] = {
        "SingleRW": SingleRandomWalk(),
        "MultipleRW(m=10)": MultipleRandomWalk(10),
    }
    return degree_error_experiment(
        dataset.graph,
        samplers,
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        metric="ccdf",
        title="Figure 1 — in-degree CNMSE on flickr-like, B=|V|/2.5",
        backend=backend,
        procs=procs,
        executor=executor,
    )


# ----------------------------------------------------------------------
# Figures 3 and 7 — descriptive CCDF plots
# ----------------------------------------------------------------------
@dataclass
class CcdfFigure:
    title: str
    ccdf: Dict[int, float]

    def render(self, max_points: int = 24) -> str:
        support = [k for k, v in sorted(self.ccdf.items()) if v > 0]
        if len(support) > max_points:
            step = len(support) / max_points
            support = sorted(
                {support[int(i * step)] for i in range(max_points)}
                | {support[-1]}
            )
        rows = [
            [str(k), format_float(self.ccdf[k], 6)] for k in support
        ]
        return render_table(self.title, ["degree", "CCDF"], rows)


def _descriptive_dataset(title: str, dataset_factory):
    """Resolve a descriptive figure's dataset through the engine.

    Figures 3/7 (and Table 1) replicate nothing — their artifact is an
    exact statistic — so their plan carries an empty sampler grid: the
    engine invokes the dataset factory (the plan's graph slot holds
    the whole :class:`~repro.datasets.registry.Dataset`, since the
    exact statistic needs its degree labels too) and contributes the
    uniform entry point, nothing more.
    """
    plan = ExperimentPlan(title=title, graph=dataset_factory, samplers={})
    return run_plan(plan, replicates=0).graph


def fig3(scale: float = 1.0) -> CcdfFigure:
    """Exact in-degree CCDF of the Flickr stand-in (log-log in the
    paper; here a degree/CCDF table over log-spaced support)."""
    title = "Figure 3 — flickr-like in-degree CCDF"
    dataset = _descriptive_dataset(title, lambda: flickr_like(scale))
    return CcdfFigure(
        title=title,
        ccdf=true_degree_ccdf(dataset.graph, dataset.in_degrees),
    )


def fig7(scale: float = 1.0) -> CcdfFigure:
    """Exact out-degree CCDF of the LiveJournal stand-in."""
    title = "Figure 7 — livejournal-like out-degree CCDF"
    dataset = _descriptive_dataset(title, lambda: livejournal_like(scale))
    return CcdfFigure(
        title=title,
        ccdf=true_degree_ccdf(dataset.graph, dataset.out_degrees),
    )


# ----------------------------------------------------------------------
# Figures 4, 5 — FS vs SingleRW vs MultipleRW on Flickr (LCC / full)
# ----------------------------------------------------------------------
def _fs_single_multiple(dimension: int) -> Dict[str, Sampler]:
    return {
        f"FS(m={dimension})": FrontierSampler(dimension),
        "SingleRW": SingleRandomWalk(),
        f"MultipleRW(m={dimension})": MultipleRandomWalk(dimension),
    }


def fig4(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 104,
    budgets: BudgetsArg = None,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> Union[DegreeErrorResult, BudgetSweepResult]:
    """FS wins even with no disconnected components (Flickr LCC).

    ``budgets`` turns the figure into an error-versus-budget sweep
    (Section 4.4 style) computed from ONE resumed session per
    replicate — the engine walks each replicate to the final budget
    once instead of re-sampling every budget point.
    """
    dataset = flickr_like(scale)
    lcc, degree_of = _lcc_with_labels(dataset, dataset.in_degrees)
    title = "Figure 4 — in-degree CNMSE on flickr-like LCC"
    return _degree_errors(
        lcc,
        _fs_single_multiple(dimension),
        lcc.num_vertices / 2.5,
        budgets,
        (title, f"{title} (budget sweep)"),
        runs=runs,
        root_seed=root_seed,
        degree_of=degree_of,
        metric="ccdf",
        backend=backend,
        procs=procs,
        executor=executor,
    )


def fig5(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 105,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> DegreeErrorResult:
    """Full Flickr stand-in: the FS gap widens once disconnected
    components can trap SingleRW/MultipleRW walkers."""
    dataset = flickr_like(scale)
    budget = dataset.graph.num_vertices / 2.5
    return degree_error_experiment(
        dataset.graph,
        _fs_single_multiple(dimension),
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        metric="ccdf",
        title="Figure 5 — in-degree CNMSE on full flickr-like",
        backend=backend,
        procs=procs,
        executor=executor,
    )


# ----------------------------------------------------------------------
# Figures 6 and 9 — sample paths
# ----------------------------------------------------------------------
def fig6(
    scale: float = 1.0,
    dimension: int = 100,
    num_paths: int = 4,
    root_seed: int = 106,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SamplePathResult:
    """Trajectories of theta_hat_1 (fraction of in-degree-1 vertices)
    on the full Flickr stand-in."""
    dataset = flickr_like(scale)
    pmf = true_degree_pmf(dataset.graph, dataset.in_degrees)
    target = 1
    total_steps = max(1000, dataset.graph.num_vertices)
    return sample_paths(
        dataset.graph,
        target_degree=target,
        true_value=pmf.get(target, 0.0),
        dimension=dimension,
        total_steps=total_steps,
        num_paths=num_paths,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        title="Figure 6 — sample paths of theta_hat_1 on flickr-like",
        backend=backend,
        procs=procs,
        executor=executor,
    )


def fig9(
    scale: float = 1.0,
    dimension: int = 100,
    num_paths: int = 4,
    root_seed: int = 109,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SamplePathResult:
    """Trajectories of theta_hat_10 on the GAB bridge graph."""
    dataset = gab(scale)
    pmf = true_degree_pmf(dataset.graph)
    target = 10
    total_steps = max(1000, dataset.graph.num_vertices * 2)
    return sample_paths(
        dataset.graph,
        target_degree=target,
        true_value=pmf.get(target, 0.0),
        dimension=dimension,
        total_steps=total_steps,
        num_paths=num_paths,
        root_seed=root_seed,
        title="Figure 9 — sample paths of theta_hat_10 on GAB",
        backend=backend,
        procs=procs,
        executor=executor,
    )


# ----------------------------------------------------------------------
# Figures 8, 10, 11 — more CNMSE comparisons
# ----------------------------------------------------------------------
def fig8(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 108,
    budgets: BudgetsArg = None,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> Union[DegreeErrorResult, BudgetSweepResult]:
    """Out-degree CNMSE on the LiveJournal stand-in.

    ``budgets`` turns the figure into a single-walk-per-replicate
    error-versus-budget sweep (see :func:`fig4`).
    """
    dataset = livejournal_like(scale)
    title = "Figure 8 — out-degree CNMSE on livejournal-like"
    return _degree_errors(
        dataset.graph,
        _fs_single_multiple(dimension),
        dataset.graph.num_vertices / 10,
        budgets,
        (title, f"{title} (budget sweep)"),
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.out_degrees,
        metric="ccdf",
        backend=backend,
        procs=procs,
        executor=executor,
    )


def fig10(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 110,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> DegreeErrorResult:
    """Degree CNMSE on GAB — the loosely connected stress test."""
    dataset = gab(scale)
    budget = dataset.graph.num_vertices / 10
    return degree_error_experiment(
        dataset.graph,
        _fs_single_multiple(dimension),
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        metric="ccdf",
        title="Figure 10 — degree CNMSE on GAB",
        backend=backend,
        procs=procs,
        executor=executor,
    )


def fig11(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 111,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> DegreeErrorResult:
    """SingleRW/MultipleRW seeded *in steady state* vs uniformly seeded
    FS: the baselines catch up, showing their earlier losses came from
    the uniform start (Section 6.3)."""
    dataset = flickr_like(scale)
    budget = dataset.graph.num_vertices / 2.5
    samplers: Dict[str, Sampler] = {
        f"FS(m={dimension})": FrontierSampler(dimension),
        "SingleRW(stationary)": SingleRandomWalk(seeding="stationary"),
        f"MultipleRW(stationary,m={dimension})": MultipleRandomWalk(
            dimension, seeding="stationary"
        ),
    }
    return degree_error_experiment(
        dataset.graph,
        samplers,
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        metric="ccdf",
        title="Figure 11 — in-degree CNMSE, baselines seeded in steady"
        " state (flickr-like)",
        backend=backend,
        procs=procs,
        executor=executor,
    )


# ----------------------------------------------------------------------
# Figures 12, 13 — FS vs independent vertex/edge sampling
# ----------------------------------------------------------------------
def _fig12_analytic_overlays(
    result: DegreeErrorResult, graph, budget: float, degree_of: VertexLabel
) -> None:
    """Attach the eq. (3)/(4) analytic overlays, at the same
    *effective* sample counts the simulated methods obtained."""
    vertex_curve, _ = analytic_nmse_curves(graph, budget, degree_of=degree_of)
    _, edge_half = analytic_nmse_curves(
        graph, budget / 2.0, degree_of=degree_of
    )
    result.curves["analytic RV (eq.4)"] = vertex_curve
    result.curves["analytic RE (eq.3)"] = edge_half


def fig12(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 112,
    include_analytic: bool = True,
    budgets: BudgetsArg = None,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> Union[DegreeErrorResult, BudgetSweepResult]:
    """NMSE of in-degree density: random edge vs random vertex vs FS at
    100% hit ratio.  Edge sampling should win above the average degree
    (the Section 3 crossover) and FS should track edge sampling.

    ``budgets`` turns the figure into a single-walk-per-replicate
    error-versus-budget sweep (see :func:`fig4`); the analytic
    overlays are recomputed at each budget checkpoint.
    """
    dataset = flickr_like(scale)
    budget = dataset.graph.num_vertices / 10
    samplers: Dict[str, Sampler] = {
        "RandomEdge": RandomEdgeSampler(hit_ratio=1.0, cost_per_edge=2.0),
        "RandomVertex": RandomVertexSampler(hit_ratio=1.0),
        f"FS(m={dimension})": FrontierSampler(dimension),
    }
    result = _degree_errors(
        dataset.graph,
        samplers,
        budget,
        budgets,
        (
            "Figure 12 — in-degree NMSE, 100% hit ratio (flickr-like)",
            "Figure 12 — in-degree NMSE, 100% hit ratio"
            " (flickr-like, budget sweep)",
        ),
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        metric="pmf",
        backend=backend,
        procs=procs,
        executor=executor,
    )
    if include_analytic:
        swept = isinstance(result, BudgetSweepResult)
        points = result.results if swept else {budget: result}
        for checkpoint, point_result in points.items():
            _fig12_analytic_overlays(
                point_result, dataset.graph, checkpoint, dataset.in_degrees
            )
    return result


def fig13(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    root_seed: int = 113,
    vertex_hit_ratio: float = 0.1,
    edge_hit_ratio: float = 0.025,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> DegreeErrorResult:
    """Sparse id space: random vertex pays a 10% hit ratio, random edge
    an even lower one, while FS pays the vertex cost only for its m
    seeds — FS is the most robust to low hit ratios (Section 6.4).

    The paper used a 1% edge hit ratio on a 5.2M-vertex graph; at our
    ~100x smaller scale that would leave edge sampling with almost no
    valid samples, so the default is 2.5% (documented in
    EXPERIMENTS.md).
    """
    dataset = livejournal_like(scale)
    budget = dataset.graph.num_vertices / 5
    samplers: Dict[str, Sampler] = {
        f"RandomVertex({int(vertex_hit_ratio * 100)}% hit)": (
            RandomVertexSampler(hit_ratio=vertex_hit_ratio)
        ),
        f"RandomEdge({edge_hit_ratio * 100:g}% hit)": RandomEdgeSampler(
            hit_ratio=edge_hit_ratio, cost_per_edge=2.0
        ),
        f"FS(m={dimension})": FrontierSampler(
            dimension, seed_cost=1.0 / vertex_hit_ratio
        ),
    }
    return degree_error_experiment(
        dataset.graph,
        samplers,
        budget=budget,
        runs=runs,
        root_seed=root_seed,
        degree_of=dataset.in_degrees,
        metric="ccdf",
        title="Figure 13 — in-degree CNMSE under sparse id space"
        " (livejournal-like)",
        backend=backend,
        procs=procs,
        executor=executor,
    )


# ----------------------------------------------------------------------
# Figure 14 — special-interest group densities
# ----------------------------------------------------------------------
@dataclass
class GroupDensityResult:
    title: str
    budget: float
    runs: int
    group_truth: Dict[int, float]
    curves: Dict[str, Dict[int, float]]

    def render(self, max_rows: int = 30) -> str:
        methods = sorted(self.curves)
        groups = sorted(
            self.group_truth, key=lambda g: -self.group_truth[g]
        )[:max_rows]
        rows = []
        for rank, group in enumerate(groups, start=1):
            cells = [str(rank), format_float(self.group_truth[group], 5)]
            cells.extend(
                format_float(self.curves[m].get(group, float("nan")), 3)
                for m in methods
            )
            rows.append(cells)
        return render_table(
            f"{self.title} (B={self.budget:.0f}, {self.runs} runs)",
            ["rank", "theta_l"] + [f"{m} NMSE" for m in methods],
            rows,
        )

    def mean_error(self, method: str) -> float:
        curve = self.curves[method]
        if not curve:
            raise ValueError(f"no groups scored for {method!r}")
        return sum(curve.values()) / len(curve)


def fig14(
    scale: float = 1.0,
    runs: int = 100,
    dimension: int = 100,
    top_groups: int = 10,
    root_seed: int = 114,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> GroupDensityResult:
    """NMSE of the density of the most popular groups (Section 6.5).

    The budget is |V|/2.5 (vs the paper's |V|/100) because the graph is
    ~100x smaller: group densities need theta * B >> 1 sampled members
    per group to be estimable at all, and the paper's absolute budget
    (17k queries) dwarfs ours at |V|/100.

    Runs as an engine plan: one
    :class:`~repro.estimators.streaming.StreamingVertexDensity`
    accumulator per replicate, replicates fanned across ``procs``
    worker processes when asked.
    """
    dataset = flickr_like(scale)
    graph = dataset.graph
    labels = dataset.labels
    all_groups = sorted(
        labels.all_labels(),
        key=lambda g: -labels.count_with_label(g),
    )[:top_groups]
    truth = true_group_densities(graph, labels, all_groups)
    scored_groups = [g for g in all_groups if truth[g] > 0]
    budget = graph.num_vertices / 2.5
    samplers: Dict[str, Sampler] = {
        f"FS(m={dimension})": FrontierSampler(dimension),
        "SingleRW": SingleRandomWalk(),
        f"MultipleRW(m={dimension})": MultipleRandomWalk(dimension),
    }

    membership = label_membership(labels, scored_groups, graph.num_vertices)

    def accumulator(method: str) -> StreamingVertexDensity:
        return StreamingVertexDensity(graph, membership, scored_groups)

    def snapshot(method: str, acc: StreamingVertexDensity, checkpoint: float):
        return acc.estimate()

    plan = ExperimentPlan(
        title="Figure 14 — NMSE of top group densities (flickr-like)",
        graph=graph,
        samplers=samplers,
        budgets=[budget],
        accumulator=accumulator,
        snapshot=snapshot,
        root_seed=root_seed,
        backend=backend,
    )
    outcome = run_plan(plan, runs, procs=procs, executor=executor)
    curves: Dict[str, Dict[int, float]] = {
        method: {
            group: nmse(
                [estimate[group] for estimate in outcome.measurements(method)],
                truth[group],
            )
            for group in scored_groups
        }
        for method in outcome.methods
    }
    return GroupDensityResult(
        title="Figure 14 — NMSE of top group densities (flickr-like)",
        budget=budget,
        runs=runs,
        group_truth={g: truth[g] for g in scored_groups},
        curves=curves,
    )
