"""Transient edge-sampling probabilities — Appendix B / Table 4.

``p^(B)_{u,v}`` is the probability that a walker seeded uniformly at
random samples directed edge ``(u, v)`` at the *last* step of its
budget.  In steady state every orientation has probability
``1 / vol(V)``; Table 4 reports the worst-case relative shortfall

    max_{(u,v)} (1 - p^(B)_{u,v} * vol(V)).

For single and multiple independent walkers the law of the walker's
position is a Markov distribution we can propagate exactly.  FS's
marginal is not Markov (walkers interact through the frontier), so FS
uses a Monte Carlo estimate over full trace simulations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.graph.graph import Graph
from repro.markov.chain import distribution_after, uniform_distribution
from repro.sampling.base import Edge, Sampler, WalkTrace
from repro.util.rng import child_rng


def single_rw_edge_probabilities(
    graph: Graph, steps: int
) -> Dict[Edge, float]:
    """Exact ``p^(steps)_{u,v}`` for one uniformly seeded walker.

    The walker's position before its last step is
    ``pi_0 P^(steps-1)`` with ``pi_0`` uniform; the last step crosses
    ``(u, v)`` with probability ``pi_{steps-1}(u) / deg(u)``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    before_last = distribution_after(
        graph, uniform_distribution(graph), steps - 1
    )
    probabilities: Dict[Edge, float] = {}
    for u in graph.vertices():
        deg = graph.degree(u)
        if deg == 0:
            continue
        share = before_last[u] / deg
        for v in graph.neighbors(u):
            probabilities[(u, v)] = share
    return probabilities


def worst_case_gap(
    probabilities: Dict[Edge, float], volume: float
) -> float:
    """``max_(u,v) |1 - p_{u,v} / (1/vol)|`` over directed edges.

    The relative difference is taken in absolute value: a transient
    walker *over*-samples edges near low-degree vertices just as it
    under-samples hub edges, and Table 4's values above 100% (e.g. 257%)
    are only possible for oversampled edges.
    """
    if not probabilities:
        raise ValueError("no edge probabilities")
    stationary = 1.0 / volume
    return max(abs(1.0 - p / stationary) for p in probabilities.values())


def single_rw_worst_case_gap(graph: Graph, steps: int) -> float:
    """Table 4's statistic for SingleRW, computed exactly."""
    return worst_case_gap(
        single_rw_edge_probabilities(graph, steps), graph.volume()
    )


def multiple_rw_worst_case_gap(
    graph: Graph, budget: int, num_walkers: int
) -> float:
    """Table 4's statistic for MultipleRW, computed exactly.

    Each of the ``K`` independent walkers takes ``(B - K) / K`` steps
    (budget minus the K seeds, split evenly); walkers are i.i.d., so
    the per-walker last-step edge law is the single-walker one.
    """
    if num_walkers < 1:
        raise ValueError(f"num_walkers must be >= 1, got {num_walkers}")
    steps = max(1, (budget - num_walkers) // num_walkers)
    return single_rw_worst_case_gap(graph, steps)


def final_edge_gap_from_edges(
    graph: Graph, final_edges: Iterable[Optional[Edge]]
) -> float:
    """Table 4's statistic from per-run final edges.

    ``final_edges`` holds each run's last sampled edge (``None`` for a
    run whose trace was empty — those are skipped).  Edges never seen
    have estimated probability zero, so each contributes a gap of
    exactly 1.0: the max is raised to 1.0 when fewer distinct edges
    were seen than ``graph.volume()``, exactly as it should be, since
    the walker demonstrably cannot reach them by step B.  No edge list
    is read.  This is the measurement-side half of
    :func:`walk_trace_final_edge_gap`, split out so the experiment
    engine can replicate the traces (and fan them across processes)
    while the gap aggregation stays here.
    """
    counts: Dict[Edge, int] = {}
    effective_runs = 0
    for edge in final_edges:
        if edge is None:
            continue
        counts[edge] = counts.get(edge, 0) + 1
        effective_runs += 1
    if effective_runs == 0:
        raise ValueError("no run produced any sampled edge")
    probabilities = {
        edge: count / effective_runs for edge, count in counts.items()
    }
    volume = graph.volume()
    gap = worst_case_gap(probabilities, volume)
    if len(probabilities) < volume:
        gap = max(gap, 1.0)
    return gap


def walk_trace_final_edge_gap(
    graph: Graph,
    sampler: Sampler,
    budget: float,
    runs: int,
    root_seed: int = 0,
) -> float:
    """Monte Carlo estimate of Table 4's statistic for any sampler.

    Simulates ``runs`` independent traces, histograms the *final*
    sampled edge of each, and compares against the stationary edge law.
    Used for FS, whose marginal transient law has no closed form.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")

    def final_edges():
        for run_index in range(runs):
            rng = child_rng(root_seed, run_index)
            trace: WalkTrace = sampler.sample(graph, budget, rng)
            yield trace.edges[-1] if trace.edges else None

    return final_edge_gap_from_edges(graph, final_edges())
