"""Graph size estimation from random-walk samples.

A natural companion to the paper's estimators: the number of vertices
``|V|`` and edges ``|E|`` of a crawled graph are themselves unknown
characteristics.  The classic approach (Katzir, Liberty & Somekh,
WWW'11 — contemporaneous with the paper and built on the same
stationary-RW machinery) combines

- the average inverse degree ``Psi_1 = (1/B) sum 1/deg(v_i)``, which
  converges to ``|V| / vol(V)`` (the paper's own ``S``),
- the average degree ``Psi_2 = (1/B) sum deg(v_i)``, and
- the number of *collisions* (sample index pairs that hit the same
  vertex), which calibrates the absolute scale.

Estimators::

    |V|_hat  =  Psi_1 * Psi_2 * C(B, 2) / collisions
    vol_hat  =  Psi_2 * C(B, 2) / collisions        (volume = 2|E|)

Both are asymptotically unbiased for a stationary walk; accuracy needs
``B = Omega(sqrt(|V|))`` so that collisions occur at all.
"""

from __future__ import annotations

from repro.estimators.streaming import StreamingGraphSize
from repro.graph.graph import Graph
from repro.sampling.base import WalkTrace


def estimate_num_vertices(graph: Graph, trace: WalkTrace) -> float:
    """Katzir-style ``|V|`` estimate from a stationary RW/FS trace.

    Raises if the trace produced no vertex collisions — the walk was
    too short relative to the graph and no finite estimate exists.
    """
    return StreamingGraphSize(graph).update(trace).num_vertices()


def estimate_volume(graph: Graph, trace: WalkTrace) -> float:
    """Estimate ``vol(V) = 2|E|`` from the same collision statistics."""
    return StreamingGraphSize(graph).update(trace).volume()


def estimate_num_edges(graph: Graph, trace: WalkTrace) -> float:
    """Estimate ``|E|`` (undirected edge count)."""
    return StreamingGraphSize(graph).update(trace).num_edges()
