"""Connected components and induced subgraphs.

The paper's datasets are disconnected (Table 1 reports LCC sizes), and
several experiments restrict the walk to the largest connected
component.  Components are labeled on the CSR arrays by min-label
hooking with pointer jumping, so each component is named by its
smallest vertex and no Python loop visits a vertex or an edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, TypeVar

import numpy as np

from repro.graph.csr import CSRGraph, get_csr, induced_csr, induced_graph
from repro.graph.graph import Graph

AnyGraph = TypeVar("AnyGraph", Graph, CSRGraph)


def _component_labels(csr: CSRGraph) -> np.ndarray:
    """Per vertex, the smallest vertex id of its component."""
    labels = np.arange(csr.num_vertices, dtype=np.int64)
    walkable = np.flatnonzero(np.diff(csr.indptr))
    starts = csr.indptr[walkable]
    while True:
        # Hook: the root each vertex points at adopts the smallest label
        # among its neighbors.
        smallest = np.minimum.reduceat(labels[csr.indices], starts)
        before = labels.copy()
        np.minimum.at(labels, labels[walkable], smallest)
        # Jump: point every vertex straight at its root.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def _ranked_labels(labels: np.ndarray) -> np.ndarray:
    """Component labels largest first, ties by smallest vertex."""
    sizes = np.bincount(labels, minlength=labels.size)
    roots = np.flatnonzero(sizes)
    return roots[np.argsort(-sizes[roots], kind="stable")]


def connected_components(graph: Graph) -> List[List[int]]:
    """All connected components, each a sorted vertex list.

    Components are returned largest-first (ties broken by smallest
    contained vertex id) so ``components[0]`` is always the LCC.
    """
    labels = _component_labels(get_csr(graph))
    by_label = np.argsort(labels, kind="stable")
    bounds = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=labels.size), out=bounds[1:])
    members = by_label.tolist()
    return [
        members[bounds[root] : bounds[root + 1]]
        for root in _ranked_labels(labels).tolist()
    ]


def is_connected(graph: Graph) -> bool:
    """True iff the graph has exactly one connected component.

    The empty graph is vacuously connected.
    """
    if graph.num_vertices == 0:
        return True
    return len(connected_components(graph)) == 1


def induced_subgraph(
    graph: Graph, vertices: Iterable[int]
) -> Tuple[Graph, Dict[int, int]]:
    """Subgraph induced by ``vertices`` with dense relabeling.

    Returns ``(subgraph, old_to_new)`` where ``old_to_new`` maps
    original vertex ids to ids in the subgraph.  Edges with both
    endpoints inside the vertex set are kept.
    """
    vertex_list = sorted(set(vertices))
    n = graph.num_vertices
    if vertex_list and not (0 <= vertex_list[0] and vertex_list[-1] < n):
        bad = vertex_list[0] if vertex_list[0] < 0 else vertex_list[-1]
        raise IndexError(f"vertex {bad} out of range [0, {n})")
    keep = np.zeros(n, dtype=bool)
    keep[vertex_list] = True
    return induced_graph(get_csr(graph), keep), _relabeling(keep)


def _relabeling(keep: np.ndarray) -> Dict[int, int]:
    old = np.flatnonzero(keep).tolist()
    return dict(zip(old, range(len(old))))


def largest_connected_component(
    graph: AnyGraph,
) -> Tuple[AnyGraph, Dict[int, int]]:
    """The LCC as an induced subgraph plus the old->new vertex map.

    The subgraph has the input's type: a :class:`CSRGraph` is labeled
    and cut on its arrays and never becomes lists, and a :class:`Graph`
    gives a :class:`Graph` over the same rows.
    """
    if graph.num_vertices == 0:
        raise ValueError("the empty graph has no components")
    csr = get_csr(graph)
    labels = _component_labels(csr)
    keep = labels == _ranked_labels(labels)[0]
    if isinstance(graph, CSRGraph):
        return induced_csr(csr, keep), _relabeling(keep)
    return induced_graph(csr, keep), _relabeling(keep)


def component_sizes(graph: Graph) -> List[int]:
    """Component sizes, largest first."""
    return [len(c) for c in connected_components(graph)]
