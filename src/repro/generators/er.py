"""Erdős–Rényi random graphs: G(n, p) and G(n, m)."""

from __future__ import annotations

import math
from array import array
from typing import Tuple

import numpy as np

from repro.graph.csr import graph_from_edge_sequence
from repro.graph.graph import Graph
from repro.util.rng import RngLike, ensure_rng


def erdos_renyi_gnp(num_vertices: int, p: float, rng: RngLike = None) -> Graph:
    """G(n, p): each of the C(n, 2) possible edges appears independently.

    Uses the geometric skipping trick so the cost is proportional to the
    number of realized edges rather than n^2 when ``p`` is small.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    generator = ensure_rng(rng)
    graph = Graph(num_vertices)
    if p == 0.0 or num_vertices < 2:
        return graph
    if p == 1.0:
        for u in range(num_vertices):
            for v in range(u + 1, num_vertices):
                graph.add_edge(u, v)
        return graph

    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < num_vertices:
        r = generator.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < num_vertices:
            w -= v
            v += 1
        if v < num_vertices:
            graph.add_edge(v, w)
    return graph


def gnm_edges(
    num_vertices: int, num_edges: int, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The G(n, m) edge sequence: ``(heads, tails)`` of ``num_edges``
    distinct edges in draw order, uniform over edge sets.

    Each edge is a pair of ``randrange`` draws; loops and repeats are
    drawn again.
    """
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges < 0 or num_edges > max_edges:
        raise ValueError(
            f"num_edges must be in [0, {max_edges}] for n={num_vertices},"
            f" got {num_edges}"
        )
    randrange = ensure_rng(rng).randrange
    heads = array("q")
    tails = array("q")
    seen = set()
    while len(seen) < num_edges:
        u = randrange(num_vertices)
        v = randrange(num_vertices)
        key = u * num_vertices + v if u < v else v * num_vertices + u
        if u != v and key not in seen:
            seen.add(key)
            heads.append(u)
            tails.append(v)
    return np.frombuffer(heads, dtype=np.int64), np.frombuffer(tails, dtype=np.int64)


def erdos_renyi_gnm(num_vertices: int, num_edges: int, rng: RngLike = None) -> Graph:
    """G(n, m): exactly ``num_edges`` distinct edges, uniform over sets."""
    heads, tails = gnm_edges(num_vertices, num_edges, rng)
    return graph_from_edge_sequence(heads, tails, num_vertices)
