"""Drivers for Tables 1–4 of the paper.

Each function regenerates one table on the synthetic stand-ins; the
returned result object renders the same rows the paper reports.
Budgets default to a larger fraction of |V| than the paper's because
the stand-ins are ~100x smaller (see EXPERIMENTS.md for the scaling
argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.datasets.registry import (
    Dataset,
    flickr_like,
    gab,
    hepth_like,
    internet_rlt_like,
    livejournal_like,
    youtube_like,
)
from repro.estimators.streaming import StreamingAssortativity, StreamingClustering
from repro.experiments.engine import ExperimentPlan, run_plan
from repro.experiments.render import format_float, render_table
from repro.graph.components import largest_connected_component
from repro.graph.summary import GraphSummary
from repro.metrics.errors import nmse, relative_bias
from repro.metrics.exact import (
    true_global_clustering,
    true_undirected_assortativity,
)
from repro.sampling.base import Backend, Sampler
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import FusedBlock, FusedNeeds
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk


# ----------------------------------------------------------------------
# Table 1 — dataset summary
# ----------------------------------------------------------------------
@dataclass
class Table1Result:
    summaries: List[GraphSummary]

    def render(self) -> str:
        lines = ["Table 1 — dataset stand-in summary", GraphSummary.header()]
        lines.extend(s.as_row() for s in self.summaries)
        return "\n".join(lines)


def table1(scale: float = 1.0) -> Table1Result:
    """Regenerate Table 1 for every stand-in dataset.

    Descriptive (no replication): its engine plans carry empty sampler
    grids — the engine resolves each dataset factory and the exact
    summary is read off the resolved graph.
    """
    factories = [
        ("flickr-like", flickr_like),
        ("livejournal-like", livejournal_like),
        ("youtube-like", youtube_like),
        ("internet-rlt-like", internet_rlt_like),
        ("hepth-like", hepth_like),
        ("gab", gab),
    ]
    summaries = []
    for name, factory in factories:
        plan = ExperimentPlan(
            title=f"Table 1 ({name})",
            graph=lambda factory=factory: factory(scale),
            samplers={},
        )
        dataset = run_plan(plan, replicates=0).graph
        summaries.append(dataset.summary())
    return Table1Result(summaries)


# ----------------------------------------------------------------------
# Table 2 — assortative mixing coefficient
# ----------------------------------------------------------------------
@dataclass
class Table2Row:
    graph_name: str
    true_r: float
    bias: Dict[str, float]
    error: Dict[str, float]


@dataclass
class Table2Result:
    rows: List[Table2Row]
    budget_fraction: float
    runs: int

    def render(self) -> str:
        methods = sorted(self.rows[0].bias) if self.rows else []
        headers = ["Graph", "r"] + [
            f"{m} {stat}" for m in methods for stat in ("bias", "NMSE")
        ]
        body = []
        for row in self.rows:
            cells = [row.graph_name, format_float(row.true_r)]
            for m in methods:
                cells.append(f"{100 * row.bias[m]:.1f}%")
                cells.append(format_float(row.error[m], 2))
            body.append(cells)
        return render_table(
            "Table 2 — assortativity estimates"
            f" (B=|V|*{self.budget_fraction}, {self.runs} runs)",
            headers,
            body,
        )


def _estimate_snapshot(method: str, accumulator, checkpoint: float) -> float:
    return accumulator.estimate()


def _scalar_plan(
    title: str,
    graph,
    samplers: Dict[str, Sampler],
    budget: float,
    seed: int,
    accumulator: Callable[[Any], Any],
    backend: Optional[Backend],
) -> ExperimentPlan:
    """A one-budget plan whose replicates each feed a fresh
    ``accumulator(graph)`` and record its estimate.

    Every method replicates on the *same* child streams (the
    historical tables drew one stream per ``(dataset, run)`` shared by
    all methods), hence the constant ``method_seed``.
    """
    return ExperimentPlan(
        title=title,
        graph=graph,
        samplers=samplers,
        budgets=[float(budget)],
        accumulator=lambda method: accumulator(graph),
        snapshot=_estimate_snapshot,
        backend=backend,
        method_seed={method: seed for method in samplers},
    )


def table2(
    scale: float = 1.0,
    runs: int = 100,
    budget_fraction: float = 0.1,
    dimension: int = 100,
    root_seed: int = 2,
    datasets: Optional[List[Dataset]] = None,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> Table2Result:
    """Regenerate Table 2: assortativity bias and NMSE per method.

    The paper treats every graph as undirected here (Section 6.1), so
    the target is the symmetric degree-degree correlation.  Each
    (dataset, method) cell replicates through the engine; ``procs``
    fans the replicates across worker processes.
    """
    if datasets is None:
        datasets = [
            flickr_like(scale),
            livejournal_like(scale),
            internet_rlt_like(scale),
            youtube_like(scale),
            gab(scale),
        ]
    result = Table2Result(rows=[], budget_fraction=budget_fraction, runs=runs)
    for dataset_index, dataset in enumerate(datasets):
        graph = dataset.graph
        truth = true_undirected_assortativity(graph)
        budget = max(4 * dimension, int(graph.num_vertices * budget_fraction))
        samplers: Dict[str, Sampler] = {
            "FS": FrontierSampler(dimension),
            "MultipleRW": MultipleRandomWalk(dimension),
            "SingleRW": SingleRandomWalk(),
        }
        plan = _scalar_plan(
            f"Table 2 — assortativity ({dataset.name})",
            graph,
            samplers,
            budget,
            root_seed + 104729 * dataset_index,
            StreamingAssortativity,
            backend,
        )
        outcome = run_plan(plan, runs, procs=procs, executor=executor)
        bias: Dict[str, float] = {}
        error: Dict[str, float] = {}
        for method in samplers:
            estimates = outcome.measurements(method)
            if truth == 0:
                # Degenerate truth; report raw mean as bias proxy.
                bias[method] = sum(estimates) / len(estimates)
                error[method] = float("nan")
            else:
                bias[method] = relative_bias(estimates, truth)
                error[method] = nmse(estimates, truth)
        result.rows.append(
            Table2Row(
                graph_name=dataset.name,
                true_r=truth,
                bias=bias,
                error=error,
            )
        )
    return result


# ----------------------------------------------------------------------
# Table 3 — global clustering coefficient
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    graph_name: str
    true_c: float
    mean_estimate: Dict[str, float]
    error: Dict[str, float]


@dataclass
class Table3Result:
    rows: List[Table3Row]
    budget_fraction: float
    runs: int

    def render(self) -> str:
        methods = sorted(self.rows[0].mean_estimate) if self.rows else []
        headers = ["Graph", "C"] + [
            f"{m} {stat}" for m in methods for stat in ("E[C^]", "NMSE")
        ]
        body = []
        for row in self.rows:
            cells = [row.graph_name, format_float(row.true_c, 3)]
            for m in methods:
                cells.append(format_float(row.mean_estimate[m], 3))
                cells.append(format_float(row.error[m], 2))
            body.append(cells)
        return render_table(
            "Table 3 — global clustering estimates"
            f" (B=|V|*{self.budget_fraction}, {self.runs} runs)",
            headers,
            body,
        )


def table3(
    scale: float = 1.0,
    runs: int = 100,
    budget_fraction: float = 0.1,
    dimension: int = 100,
    root_seed: int = 3,
    datasets: Optional[List[Dataset]] = None,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> Table3Result:
    """Regenerate Table 3: E[C_hat] and NMSE on Flickr and LiveJournal
    stand-ins for FS, SingleRW and MultipleRW.  Replicates run through
    the engine; ``procs`` fans them across worker processes."""
    if datasets is None:
        datasets = [flickr_like(scale), livejournal_like(scale)]
    result = Table3Result(rows=[], budget_fraction=budget_fraction, runs=runs)
    for dataset_index, dataset in enumerate(datasets):
        graph = dataset.graph
        truth = true_global_clustering(graph)
        budget = max(4 * dimension, int(graph.num_vertices * budget_fraction))
        samplers: Dict[str, Sampler] = {
            "FS": FrontierSampler(dimension),
            "MultipleRW": MultipleRandomWalk(dimension),
            "SingleRW": SingleRandomWalk(),
        }
        plan = _scalar_plan(
            f"Table 3 — clustering ({dataset.name})",
            graph,
            samplers,
            budget,
            root_seed + 15485863 * dataset_index,
            StreamingClustering,
            backend,
        )
        outcome = run_plan(plan, runs, procs=procs, executor=executor)
        means: Dict[str, float] = {}
        errors: Dict[str, float] = {}
        for method in samplers:
            estimates = outcome.measurements(method)
            means[method] = sum(estimates) / len(estimates)
            errors[method] = nmse(estimates, truth)
        result.rows.append(
            Table3Row(
                graph_name=dataset.name,
                true_c=truth,
                mean_estimate=means,
                error=errors,
            )
        )
    return result


# ----------------------------------------------------------------------
# Table 4 — convergence to uniform edge sampling (Appendix B)
# ----------------------------------------------------------------------
@dataclass
class Table4Row:
    graph_name: str
    budget: int
    gaps: Dict[str, float]


@dataclass
class Table4Result:
    rows: List[Table4Row]
    num_walkers: int
    mc_runs: int

    def render(self) -> str:
        methods = sorted(self.rows[0].gaps) if self.rows else []
        headers = ["Graph", "B"] + methods
        body = [
            [row.graph_name, str(row.budget)]
            + [f"{100 * row.gaps[m]:.0f}%" for m in methods]
            for row in self.rows
        ]
        return render_table(
            "Table 4 — worst-case transient vs stationary edge sampling"
            f" probability (K={self.num_walkers}, FS via {self.mc_runs}"
            " Monte Carlo runs)",
            headers,
            body,
        )


def _table4_graphs(size: int, seed: int):
    """Miniature LCCs mirroring the paper's three smallest datasets.

    Exact transient propagation and a reliable Monte Carlo estimate of
    a *max* statistic both require small graphs (the Monte Carlo needs
    runs >> vol * log(vol)); the paper likewise restricted Table 4 to
    its three smallest graphs "to speed the computation".
    """
    from repro.generators.ba import barabasi_albert
    from repro.generators.configuration import (
        configuration_model,
        power_law_degree_sequence,
    )
    from repro.generators.social import SocialGraphSpec, social_network
    from repro.util.rng import ensure_rng

    rng = ensure_rng(seed)
    # Sparse shortcuts keep the PA tree slow-mixing (the paper's RLT
    # graph is far from mixed at B=100) while breaking bipartiteness.
    internet = barabasi_albert(size, 1, rng=rng)
    shortcuts = int(0.25 * size)
    added = attempts = 0
    while added < shortcuts and attempts < 100 * shortcuts:
        u = rng.randrange(size)
        v = rng.randrange(size)
        attempts += 1
        if u != v and internet.add_edge(u, v):
            added += 1

    youtube_spec = SocialGraphSpec(
        num_vertices=max(15, int(size * 0.85)),
        out_exponent=2.1,
        in_exponent=2.0,
        min_degree=1,
        dust_components=0,
    )
    youtube_digraph, _ = social_network(youtube_spec, rng=rng)
    youtube = youtube_digraph.to_symmetric()

    hepth_degrees = power_law_degree_sequence(
        max(15, int(size * 1.05)), 2.2, min_degree=1, max_degree=10, rng=rng
    )
    hepth = configuration_model(hepth_degrees, rng=rng)

    return {
        "internet-rlt-mini": internet,
        "youtube-mini": youtube,
        "hepth-mini": hepth,
    }


class _FinalEdge:
    """Table 4's statistic: the replicate's last sampled edge.

    A block's edge keys are in step order, so its last key is its last
    sampled edge (MH: the last accepted proposal); a list walker's
    increment gives ``trace.edges[-1]``.  An item without a sampled
    edge leaves the edge as it was, ``None`` before the first.
    """

    def __init__(self) -> None:
        self.edge: Optional[Tuple[int, int]] = None

    def fused_needs(self) -> FusedNeeds:
        return FusedNeeds(edge_keys=True)

    def absorb_block(self, block: FusedBlock) -> "_FinalEdge":
        keys = block.edge_key_array()
        if keys.size:
            self.edge = divmod(int(keys[-1]), block.key_base)
        return self

    def update(self, trace) -> "_FinalEdge":
        if trace.edges:
            u, v = trace.edges[-1]
            self.edge = (int(u), int(v))
        return self


def _final_edge_snapshot(method: str, final: _FinalEdge, checkpoint: float):
    """The replicate's last sampled edge (``None`` before any step)."""
    return final.edge


def table4(
    graph_size: int = 150,
    num_walkers: int = 10,
    mc_runs: int = 50_000,
    root_seed: int = 4,
    budgets: Optional[Dict[str, int]] = None,
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> Table4Result:
    """Regenerate Table 4 on miniature LCCs of the three smallest
    stand-ins.

    All three gaps are Monte Carlo estimates over full traces (as in
    the paper), so the upward bias of estimating a *max* statistic from
    finite runs cancels across methods.  Budgets use the paper's K=10
    and B in {20, 30}, chosen so the budget stays far below the mixing
    time — the regime Table 4 probes on its 10^5-10^6-vertex graphs.

    The Monte Carlo runs through the engine: every replicate's final
    sampled edge is the snapshot, and
    :func:`repro.markov.transient.final_edge_gap_from_edges`
    aggregates them; ``procs`` fans the (many) replicates across
    worker processes.  The final edge is read off the replicate's
    block of edge keys on the csr sessions (``backend="csr"`` or any
    ``procs``), so no trace is materialized there, and off its trace
    increment on the list walkers.
    """
    from repro.markov.transient import final_edge_gap_from_edges

    if budgets is None:
        budgets = {
            "internet-rlt-mini": 3 * num_walkers,
            "youtube-mini": 2 * num_walkers,
            "hepth-mini": 2 * num_walkers,
        }
    graphs = _table4_graphs(graph_size, root_seed + 97)
    result = Table4Result(rows=[], num_walkers=num_walkers, mc_runs=mc_runs)
    samplers = {
        "FS": FrontierSampler(num_walkers),
        "MRW": MultipleRandomWalk(num_walkers),
        "SRW": SingleRandomWalk(),
    }
    method_seed = {
        method: root_seed + 31 * method_index
        for method_index, method in enumerate(samplers)
    }
    for name, budget in budgets.items():
        lcc, _ = largest_connected_component(graphs[name])
        plan = ExperimentPlan(
            title=f"Table 4 ({name})",
            graph=lcc,
            samplers=samplers,
            budgets=[float(budget)],
            accumulator=lambda method: _FinalEdge(),
            snapshot=_final_edge_snapshot,
            method_seed=method_seed,
            backend=backend,
        )
        outcome = run_plan(plan, mc_runs, procs=procs, executor=executor)
        gaps: Dict[str, float] = {
            method: final_edge_gap_from_edges(
                lcc, outcome.measurements(method)
            )
            for method in samplers
        }
        result.rows.append(
            Table4Row(graph_name=name, budget=budget, gaps=gaps)
        )
    return result
