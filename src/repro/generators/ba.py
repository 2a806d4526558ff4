"""Barabási–Albert preferential attachment [Barabási & Albert 1999].

The paper's ``GAB`` experiment (Sections 6.1–6.2) joins two BA graphs
with average degrees 2 and 10; average degree in BA is about ``2k``
where ``k`` is the number of edges each arriving vertex brings.
"""

from __future__ import annotations

import random
from typing import Tuple

import numpy as np

from repro.graph.csr import graph_from_edge_sequence
from repro.graph.graph import Graph
from repro.sampling import _native
from repro.util.rng import RngLike, ensure_rng, randrange_on_words, run_on_words


def barabasi_albert(num_vertices: int, edges_per_vertex: int, rng: RngLike = None) -> Graph:
    """Grow a BA graph: each new vertex attaches ``edges_per_vertex``
    edges to existing vertices chosen proportionally to degree.

    The seed graph is a star on ``edges_per_vertex + 1`` vertices, so
    the result is always connected and simple.  The graph is built from
    :func:`ba_edges` in one bulk pass, as the ``add_edge`` calls would.
    """
    return graph_from_edge_sequence(
        *ba_edges(num_vertices, edges_per_vertex, rng), num_vertices
    )


def ba_edges(
    num_vertices: int, edges_per_vertex: int, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The BA edge sequence: ``(heads, tails)`` in ``add_edge`` order.

    Preferential attachment is implemented with the standard
    repeated-endpoints list, giving O(|E|) expected construction time.
    With native kernels and a plain :class:`random.Random`, the draw
    loop runs in C on the generator's own words and draws the same
    edges; the loop below is its reference.
    """
    k = edges_per_vertex
    if k < 1:
        raise ValueError(f"edges_per_vertex must be >= 1, got {k}")
    if num_vertices < k + 1:
        raise ValueError(
            f"need at least edges_per_vertex + 1 = {k + 1} vertices,"
            f" got {num_vertices}"
        )
    generator = ensure_rng(rng)
    largest_range = 2 * k * (num_vertices - k - 1)
    if randrange_on_words(generator, largest_range) and _native.available():
        ends = _attach_on_words(num_vertices, k, generator)
        return ends[0::2], ends[1::2]
    randrange = generator.randrange

    # Each endpoint appears once per incident edge, and each edge
    # appends its (head, tail) pair in add_edge order, so this list is
    # also the edge sequence the graph is built from.
    endpoints = []
    # Seed: star centered at vertex 0 over vertices 0..k.
    for v in range(1, k + 1):
        endpoints.append(0)
        endpoints.append(v)

    for new_vertex in range(k + 1, num_vertices):
        targets = set()
        # Rejection-sample k distinct existing vertices, degree-biased.
        while len(targets) < k:
            targets.add(endpoints[randrange(len(endpoints))])
        for target in targets:
            endpoints.append(new_vertex)
            endpoints.append(target)
    ends = np.array(endpoints, dtype=np.int64)
    return ends[0::2], ends[1::2]


def _attach_on_words(
    num_vertices: int, k: int, generator: random.Random
) -> np.ndarray:
    """The endpoints list of the loop above, drawn by the native kernel."""
    endpoints = np.empty(2 * k * (num_vertices - k), dtype=np.int64)
    # The target set never grows past the smallest power of two above
    # 4k slots; k more entries hold its keys while it resizes.
    slots = 8
    while slots <= 4 * k:
        slots *= 2
    table = np.empty(slots + k, dtype=np.int64)
    # About 1.45 words per target draw at 10^5 and 10^6 vertices.
    draws = k * (num_vertices - k - 1)
    run_on_words(
        generator,
        draws * 3 // 2 + 1024,
        lambda words: _native.ba_attach(words, num_vertices, k, endpoints, table),
    )
    return endpoints
