"""Degree assortativity estimators (Section 4.2.2).

The paper's ``r_hat`` is, algebraically, the Pearson correlation of the
pair ``(outdeg(u), indeg(v))`` under the empirical law ``p_hat_ij`` of
sampled labeled edges — we compute it in that moment form rather than
materializing the full ``p_hat_ij`` matrix, which is exactly equivalent
and O(B) instead of O(W_in * W_out).

Two variants:

- :func:`assortativity_from_trace` — undirected degree-degree
  correlation on the symmetric graph ``G`` (what Section 6.1's
  experiment computes after "treating the graphs as undirected");
- :func:`directed_assortativity_from_trace` — the directed form with
  ``E* = E_d`` and labels ``(outdeg_{G_d}(u), indeg_{G_d}(v))``.
"""

from __future__ import annotations

from repro.estimators.streaming import (
    StreamingAssortativity,
    StreamingDirectedAssortativity,
)
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.sampling.base import WalkTrace


def assortativity_from_trace(graph: Graph, trace: WalkTrace) -> float:
    """Undirected degree assortativity from RW-sampled edges.

    Every sampled directed orientation contributes the degree pair of
    its endpoints; in steady state orientations are uniform, so this
    matches the symmetric true value computed over both orientations of
    every edge.
    """
    return StreamingAssortativity(graph).update(trace).estimate()


def directed_assortativity_from_trace(
    digraph: DiGraph, trace: WalkTrace
) -> float:
    """Directed degree assortativity with ``E* = E_d``.

    The RW walks the symmetric closure, so a sampled orientation
    ``(u, v)`` is relevant iff the arc exists in ``G_d``; its label is
    ``(outdeg(u), indeg(v))`` per Section 4.2.2.
    """
    return StreamingDirectedAssortativity(digraph).update(trace).estimate()
