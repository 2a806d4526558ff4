"""Generic SLLN estimators (Theorem 4.1).

Everything in Section 4.2 is an instance of two templates:

- *edge functional*: the average of ``f(u, v)`` over the sampled edges
  restricted to a subset ``E*`` converges to the average of ``f`` over
  ``E*``;
- *vertex functional*: the ``1/deg``-reweighted, self-normalized
  average of ``g(v)`` over visited vertices converges to the uniform
  vertex average of ``g`` (importance sampling against the
  degree-biased stationary law).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.estimators.streaming import (
    StreamingEdgeFunctional,
    StreamingVertexFunctional,
)
from repro.graph.graph import Graph
from repro.sampling.base import WalkTrace

EdgeFunction = Callable[[int, int], float]
EdgePredicate = Callable[[int, int], bool]
VertexFunction = Callable[[int], float]


def edge_functional_from_trace(
    trace: WalkTrace,
    f: EdgeFunction,
    membership: Optional[EdgePredicate] = None,
) -> float:
    """``(1/B*) sum f(u_i, v_i)`` over sampled edges in ``E*``.

    ``membership(u, v)`` selects ``E*`` (all edges when omitted).
    Raises if no sampled edge lands in ``E*`` — the estimator is
    undefined with zero relevant samples (``B* = 0``), and silently
    returning 0 would bias downstream error statistics.
    """
    return StreamingEdgeFunctional(f, membership).update(trace).estimate()


def vertex_functional_from_trace(
    graph: Graph, trace: WalkTrace, g: VertexFunction
) -> float:
    """Self-normalized importance-sampling estimate of ``mean_v g(v)``.

    Implements eq. (7)'s pattern: visited vertices arrive with
    probability proportional to degree, so each observation is weighted
    ``1/deg(v_i)`` and the weights are renormalized by
    ``S = (1/B) sum 1/deg(v_i)`` (which itself converges to
    ``|V| / |E|`` — the paper reports ``|E|`` but on the symmetric graph
    the denominator is ``vol(V) = 2|E|``; the ratio cancels either way).
    """
    return StreamingVertexFunctional(graph, g).update(trace).estimate()


def weighted_vertex_sums(
    graph: Graph, trace: WalkTrace, g: VertexFunction
) -> Tuple[float, float]:
    """Return the raw ``(sum g(v)/deg(v), sum 1/deg(v))`` pair.

    Exposed for estimators (degree distributions) that share one
    normalizer across many labels and for incremental sample-path
    plots (Figures 6 and 9).  An empty trace gives ``(0.0, 0.0)``.
    """
    return StreamingVertexFunctional(graph, g).update(trace).sums()
