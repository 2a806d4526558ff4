"""Ground-truth graph characteristics, computed from the whole graph.

These are what the estimators' outputs are scored against.  All
functions mirror the definitions in Sections 2–4 of the paper.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, Optional

from repro.estimators.clustering import shared_neighbors
from repro.estimators.streaming import _dense
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.labels import VertexLabeling
from repro.util.stats import ccdf_from_pmf

Label = Hashable
DegreeOf = Callable[[int], int]


def true_degree_pmf(
    graph: Graph, degree_of: Optional[DegreeOf] = None
) -> Dict[int, float]:
    """Exact ``theta_i``: fraction of vertices with degree label ``i``.

    Dense on ``0 .. max``, like the estimators' output; a negative label
    raises :class:`ValueError`.
    """
    if graph.num_vertices == 0:
        raise ValueError("empty graph")
    label = degree_of if degree_of is not None else graph.degree
    counts: Dict[int, int] = {}
    for v in graph.vertices():
        key = label(v)
        counts[key] = counts.get(key, 0) + 1
    n = graph.num_vertices
    return _dense({k: c / n for k, c in counts.items()})


def true_degree_ccdf(
    graph: Graph, degree_of: Optional[DegreeOf] = None
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
    stationary RW converges to on the symmetric graph.
    """
    n = 0
    sum_x = sum_y = sum_xx = sum_yy = sum_xy = 0.0
    for u, v in graph.directed_edges():
        x = float(graph.degree(u))
        y = float(graph.degree(v))
        n += 1
        sum_x += x
        sum_y += y
        sum_xx += x * x
        sum_yy += y * y
        sum_xy += x * y
    if n == 0:
        raise ValueError("graph has no edges; assortativity is undefined")
    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = sum_xx / n - mean_x * mean_x
    var_y = sum_yy / n - mean_y * mean_y
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return (sum_xy / n - mean_x * mean_y) / math.sqrt(var_x * var_y)


def true_directed_assortativity(digraph: DiGraph) -> float:
    """Exact directed assortativity over ``E_d`` with labels
    ``(outdeg(u), indeg(v))`` (Newman 2002 eq. 25 in moment form)."""
    n = 0
    sum_x = sum_y = sum_xx = sum_yy = sum_xy = 0.0
    for u, v in digraph.edges():
        x = float(digraph.out_degree(u))
        y = float(digraph.in_degree(v))
        n += 1
        sum_x += x
        sum_y += y
        sum_xx += x * x
        sum_yy += y * y
        sum_xy += x * y
    if n == 0:
        raise ValueError("digraph has no edges; assortativity is undefined")
    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = sum_xx / n - mean_x * mean_x
    var_y = sum_yy / n - mean_y * mean_y
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return (sum_xy / n - mean_x * mean_y) / math.sqrt(var_x * var_y)
