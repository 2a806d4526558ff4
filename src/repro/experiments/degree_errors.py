"""The CNMSE/NMSE-versus-degree workhorse behind Figures 1, 4, 5, 8,
10, 11, 12 and 13.

One call runs every sampler for ``runs`` independent replications,
estimates the degree distribution (PMF or CCDF) from each trace, and
aggregates per-degree errors against the exact distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.estimators.degree import degree_ccdf_from_trace, degree_pmf_from_trace
from repro.estimators.streaming import StreamingDegreePMF
from repro.experiments.engine import ExperimentPlan, run_plan
from repro.graph.graph import Graph
from repro.graph.labels import VertexLabel, vertex_label_array
from repro.metrics.errors import nmse_curve
from repro.metrics.exact import true_degree_ccdf, true_degree_pmf
from repro.sampling.base import Backend, Sampler


@dataclass
class DegreeErrorResult:
    """Error curves for one experiment: method name -> degree -> error."""

    title: str
    metric: str  # "ccdf" (CNMSE) or "pmf" (NMSE)
    budget: float
    runs: int
    truth: Dict[int, float]
    curves: Dict[str, Dict[int, float]] = field(default_factory=dict)
    average_degree: float = 0.0

    def degrees(self, max_points: int = 24) -> List[int]:
        """Log-spaced degree checkpoints within the truth's support."""
        support = [k for k, v in sorted(self.truth.items()) if v > 0]
        if len(support) <= max_points:
            return support
        picked: List[int] = []
        step = len(support) / max_points
        position = 0.0
        while int(position) < len(support):
            degree = support[int(position)]
            if not picked or degree != picked[-1]:
                picked.append(degree)
            position += step
        if picked[-1] != support[-1]:
            picked.append(support[-1])
        return picked

    def render(self, max_points: int = 24) -> str:
        """ASCII table: one row per degree, one error column per method."""
        methods = sorted(self.curves)
        label = "CNMSE" if self.metric == "ccdf" else "NMSE"
        lines = [
            f"{self.title}",
            f"  metric={label}  budget={self.budget:.0f}  runs={self.runs}"
            f"  avg_degree={self.average_degree:.2f}",
            "  " + f"{'degree':>8} " + " ".join(f"{m:>14}" for m in methods),
        ]
        for degree in self.degrees(max_points):
            cells = []
            for method in methods:
                value = self.curves[method].get(degree)
                cells.append(f"{value:>14.4f}" if value is not None else " " * 14)
            lines.append("  " + f"{degree:>8} " + " ".join(cells))
        return "\n".join(lines)

    def mean_error(self, method: str) -> float:
        """Average error over the support — a scalar summary used by
        assertions of the form "FS beats MultipleRW overall"."""
        curve = self.curves[method]
        if not curve:
            raise ValueError(f"no error curve for {method!r}")
        return sum(curve.values()) / len(curve)

    def tail_mean_error(self, method: str, above_degree: float) -> float:
        """Average error restricted to degrees above a threshold."""
        curve = {k: v for k, v in self.curves[method].items() if k > above_degree}
        if not curve:
            raise ValueError(
                f"no degrees above {above_degree} for {method!r}"
            )
        return sum(curve.values()) / len(curve)


def _estimate(
    graph: Graph,
    trace,
    metric: str,
    degree_of: Optional[VertexLabel],
) -> Mapping[int, float]:
    """The batch estimator of ``metric`` over one whole trace.

    The engine path below streams increments into
    :class:`StreamingDegreePMF`; a trace here is one update of the same
    accumulator (its vertex-sample mode for a
    :class:`~repro.sampling.base.VertexTrace`), whose tuple loop is the
    reference the parity tests check the array reductions against.
    """
    if metric == "ccdf":
        return degree_ccdf_from_trace(graph, trace, degree_of)
    return degree_pmf_from_trace(graph, trace, degree_of)


def degree_error_experiment(
    graph: Graph,
    samplers: Mapping[str, Sampler],
    budget: float,
    runs: int,
    root_seed: int = 0,
    degree_of: Optional[VertexLabel] = None,
    metric: str = "ccdf",
    title: str = "degree error experiment",
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> DegreeErrorResult:
    """Run all samplers and aggregate per-degree error curves.

    ``metric="ccdf"`` reproduces the paper's CNMSE plots (eq. 2);
    ``metric="pmf"`` the NMSE plots (eq. 1, Figure 12).  Runs that
    produce an empty or degenerate trace are counted as estimating
    zero everywhere — the estimator had its chance and produced
    nothing, which is an error, not a skip.

    ``backend="csr"`` opens every walk sampler not pinned to
    ``backend="list"`` on the graph's CSR, which makes the whole
    pipeline array-native — the batch walkers emit
    :class:`~repro.sampling.vectorized.ArrayWalkTrace` and the degree
    estimators reweight over its arrays without ever materializing
    Python tuples.  ``None`` leaves each sampler on its own
    ``backend=`` and the graph's type: the list walkers for a
    :class:`~repro.graph.graph.Graph` (unless ``procs`` is given).  The
    CLI's ``--backend`` flag passes its value here.

    ``procs`` fans the replicates of each pool-capable sampler across
    that many worker processes over shared CSR buffers (see
    :func:`~repro.experiments.engine.run_plan`); results are
    bit-identical for every ``procs`` value at a fixed seed.  The
    experiment is the one-budget :func:`degree_error_budget_sweep`.
    """
    result = degree_error_budget_sweep(
        graph,
        samplers,
        [budget],
        runs,
        root_seed=root_seed,
        degree_of=degree_of,
        metric=metric,
        title=title,
        backend=backend,
        procs=procs,
        executor=executor,
    ).at(budget)
    result.title = title
    return result


# ----------------------------------------------------------------------
# MSE-versus-budget curves from resumed sessions (Section 4.4)
# ----------------------------------------------------------------------
@dataclass
class BudgetSweepResult:
    """Per-budget error results plus the error-versus-budget summary."""

    title: str
    metric: str  # "ccdf" (CNMSE) or "pmf" (NMSE)
    budgets: List[float]
    runs: int
    results: Dict[float, DegreeErrorResult] = field(default_factory=dict)
    #: Total walk steps each method's sessions took across all
    #: replicates — the single-walk receipt: under the engine this is
    #: ``runs * steps(budgets[-1])``, not ``runs * sum_i steps(b_i)``.
    steps_walked: Dict[str, int] = field(default_factory=dict)

    def at(self, budget: float) -> DegreeErrorResult:
        """The full per-degree error result at one budget checkpoint."""
        return self.results[float(budget)]

    def mean_error_curve(self, method: str) -> Dict[float, float]:
        """Budget -> mean error over the degree support, one method."""
        return {
            budget: self.results[budget].mean_error(method)
            for budget in self.budgets
        }

    def render(self) -> str:
        """ASCII table: one row per budget, one column per method."""
        methods = sorted(self.results[self.budgets[0]].curves)
        label = "CNMSE" if self.metric == "ccdf" else "NMSE"
        lines = [
            self.title,
            f"  mean {label} over the degree support, {self.runs} runs,"
            " one resumed session per replicate",
            "  " + f"{'budget':>10} " + " ".join(f"{m:>14}" for m in methods),
        ]
        for budget in self.budgets:
            cells = " ".join(
                f"{self.results[budget].mean_error(m):>14.4f}"
                for m in methods
            )
            lines.append("  " + f"{budget:>10.0f} " + cells)
        return "\n".join(lines)


def degree_error_budget_sweep(
    graph: Graph,
    samplers: Mapping[str, Sampler],
    budgets: Sequence[float],
    runs: int,
    root_seed: int = 0,
    degree_of: Optional[VertexLabel] = None,
    metric: str = "ccdf",
    title: str = "degree error budget sweep",
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> BudgetSweepResult:
    """Error curves at every budget in one anytime pass per replicate.

    The Section 4.4 MSE-versus-budget experiment: instead of re-walking
    the graph from scratch at each budget point, every replicate opens
    one :class:`~repro.sampling.session.SamplerSession`, advances it to
    each ascending budget checkpoint, and snapshots the estimate from a
    :class:`~repro.estimators.streaming.StreamingDegreePMF` accumulator
    fed the trace increments — identical statistics at the largest
    budget for a fraction of the walking.  ``procs`` fans the
    replicates across worker processes (procs-invariant results; see
    :func:`~repro.experiments.engine.run_plan`);
    ``result.steps_walked`` records the single-walk receipt.
    ``degree_of`` (an array over vertex ids or a callable) becomes one
    label array, shared by the truth and every replicate.
    """
    checkpoints = [float(b) for b in budgets]
    if not checkpoints or any(
        b > a for b, a in zip(checkpoints, checkpoints[1:])
    ):
        raise ValueError(
            f"budgets must be a non-empty ascending sequence, got {budgets}"
        )
    if metric not in ("ccdf", "pmf"):
        raise ValueError(f"metric must be 'ccdf' or 'pmf', got {metric!r}")
    degree_of = vertex_label_array(degree_of, graph.num_vertices)
    truth = (
        true_degree_ccdf(graph, degree_of)
        if metric == "ccdf"
        else true_degree_pmf(graph, degree_of)
    )
    sweep = BudgetSweepResult(
        title=title, metric=metric, budgets=checkpoints, runs=runs
    )
    for budget in checkpoints:
        sweep.results[budget] = DegreeErrorResult(
            title=f"{title} (B={budget:g})",
            metric=metric,
            budget=budget,
            runs=runs,
            truth=dict(truth),
            average_degree=graph.average_degree(),
        )

    def accumulator(method: str) -> StreamingDegreePMF:
        return StreamingDegreePMF(graph, degree_of)

    def snapshot(method: str, acc: StreamingDegreePMF, budget: float):
        try:
            return acc.ccdf() if metric == "ccdf" else acc.estimate()
        except ValueError:
            return {}  # empty trace estimates zero mass

    plan = ExperimentPlan(
        title=title,
        graph=graph,
        samplers=samplers,
        budgets=checkpoints,
        accumulator=accumulator,
        snapshot=snapshot,
        root_seed=root_seed,
        backend=backend,
    )
    outcome = run_plan(plan, runs, procs=procs, executor=executor)
    for method, run in outcome.methods.items():
        for budget in checkpoints:
            sweep.results[budget].curves[method] = nmse_curve(
                run.measurements(budget), truth
            )
        sweep.steps_walked[method] = run.total_steps()
    return sweep
