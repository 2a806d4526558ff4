"""Ground-truth graph characteristics, computed from the whole graph.

These are what the estimators' outputs are scored against.  All
functions mirror the definitions in Sections 2–4 of the paper.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Union

from repro.estimators.clustering import shared_neighbors
from repro.estimators.streaming import (
    StreamingAssortativity,
    StreamingDegreePMF,
    StreamingDirectedAssortativity,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.labels import VertexLabel, VertexLabeling
from repro.sampling.base import VertexTrace, WalkTrace
from repro.util.stats import ccdf_from_pmf

Label = Hashable


def true_degree_pmf(
    graph: Union[Graph, CSRGraph], degree_of: Optional[VertexLabel] = None
) -> Dict[int, float]:
    """Exact ``theta_i``: fraction of vertices with degree label ``i``.

    One vertex-sample update of :class:`StreamingDegreePMF` over every
    vertex; ``degree_of`` is an array over vertex ids or a callable.
    Dense on ``0 .. max``, like the estimators' output; a negative
    label raises :class:`ValueError`.
    """
    if graph.num_vertices == 0:
        raise ValueError("empty graph")
    everyone = VertexTrace("exact", list(graph.vertices()), 0.0, 0.0)
    return StreamingDegreePMF(graph, degree_of).update(everyone).estimate()


def true_degree_ccdf(
    graph: Union[Graph, CSRGraph], degree_of: Optional[VertexLabel] = None
) -> Dict[int, float]:
    """Exact CCDF ``gamma_i = sum_{k > i} theta_k``."""
    return ccdf_from_pmf(true_degree_pmf(graph, degree_of))


def true_vertex_label_density(
    graph: Graph, labeling: VertexLabeling, label: Label
) -> float:
    """Exact ``theta_l``: fraction of vertices carrying ``label``."""
    if graph.num_vertices == 0:
        raise ValueError("empty graph")
    return labeling.count_with_label(label) / graph.num_vertices


def true_group_densities(
    graph: Graph, labeling: VertexLabeling, labels: Iterable[Label]
) -> Dict[Label, float]:
    """Exact densities for many labels at once."""
    return {
        label: true_vertex_label_density(graph, labeling, label)
        for label in labels
    }


def true_global_clustering(graph: Graph) -> float:
    """Exact global clustering coefficient (Section 4.2.4, eq. 8).

    ``C = (1/|V*|) sum_{v in V*} Delta(v) / C(deg(v), 2)`` where ``V*``
    is the set of vertices with degree >= 2.  ``Delta(v)`` is computed
    as half the sum over incident edges of shared-neighbor counts.
    """
    numerator = 0.0
    v_star = 0
    for v in graph.vertices():
        deg = graph.degree(v)
        if deg < 2:
            continue
        v_star += 1
        triangles2 = sum(
            shared_neighbors(graph, v, u) for u in graph.neighbors(v)
        )  # counts each triangle at v twice
        pairs = deg * (deg - 1) / 2.0
        numerator += (triangles2 / 2.0) / pairs
    if v_star == 0:
        raise ValueError(
            "no vertex has degree >= 2; clustering is undefined"
        )
    return numerator / v_star


def true_undirected_assortativity(graph: Graph) -> float:
    """Exact degree-degree Pearson correlation over edge orientations.

    Both orientations of every edge contribute, matching what a
    stationary RW converges to on the symmetric graph: one update of
    :class:`StreamingAssortativity` with every orientation as a trace.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges; assortativity is undefined")
    every_edge = WalkTrace("exact", list(graph.directed_edges()), [], 0.0, 0.0)
    return StreamingAssortativity(graph).update(every_edge).estimate()


def true_directed_assortativity(digraph: DiGraph) -> float:
    """Exact directed assortativity over ``E_d`` with labels
    ``(outdeg(u), indeg(v))`` (Newman 2002 eq. 25 in moment form): one
    update of :class:`StreamingDirectedAssortativity` with every arc as
    a trace."""
    if digraph.num_edges == 0:
        raise ValueError("digraph has no edges; assortativity is undefined")
    every_arc = WalkTrace("exact", list(digraph.edges()), [], 0.0, 0.0)
    return StreamingDirectedAssortativity(digraph).update(every_arc).estimate()
