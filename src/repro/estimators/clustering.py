"""Global clustering coefficient estimator (Section 4.2.4).

``C`` is the average over vertices with degree >= 2 of
``Delta(v) / C(deg(v), 2)``.  Computing ``Delta(v)`` needs the full
two-hop neighborhood; the paper's estimator avoids that by rewriting
the triangle count as a sum over incident edges of the *shared
neighbor* count ``f(v, u) = |N(v) ∩ N(u)|``, which a crawler learns
from the two adjacency lists it already holds.

Derivation (and a correction to the paper's printed formula).  A
stationary RW samples directed edges uniformly with probability
``1/vol(V)`` each.  Summing over the ``deg(v)`` directed edges out of
``v``: ``sum_{u in N(v)} f(v, u) = 2 Delta(v)`` (each triangle at ``v``
is seen through two incident edges).  Therefore the per-sample weight

    g(v, u) = f(v, u) / (2 * C(deg(v), 2))

has stationary mean ``(1/vol) * sum_v c(v)``, while the normalizer
``S = (1/B) sum_i 1(deg(v_i) >= 2) / deg(v_i)`` converges to
``|V*| / vol``; their ratio is exactly ``C``.  The paper's displayed
estimator carries an extra ``1/deg(v_i)`` inside the numerator, which
would converge to the average of ``2 Delta(v) / (C(deg v, 2) deg(v))``
instead of ``C`` (e.g. 0.4 instead of 1.0 on K6); we implement the
corrected weight, which is what Corollary 4.2's statement requires.
"""

from __future__ import annotations

from repro.estimators.streaming import StreamingClustering, shared_neighbors
from repro.graph.graph import Graph
from repro.sampling.base import WalkTrace

__all__ = ["global_clustering_from_trace", "shared_neighbors"]


def global_clustering_from_trace(graph: Graph, trace: WalkTrace) -> float:
    """Estimate the global clustering coefficient from a walk trace.

    The i-th sampled edge is read as ``(v_i, u_i)`` with ``v_i`` its
    first endpoint (in steady state the orientation is uniform).
    Samples whose first endpoint has degree < 2 contribute to neither
    sum: such a vertex is outside ``V*`` and cannot close a triangle.
    """
    return StreamingClustering(graph).update(trace).estimate()
