"""Erdős–Rényi random graphs: G(n, p) and G(n, m)."""

from __future__ import annotations

import math
import random
from array import array
from typing import Tuple

import numpy as np

from repro.graph.csr import graph_from_edge_sequence
from repro.graph.graph import Graph
from repro.sampling import _native
from repro.util.rng import RngLike, ensure_rng, randrange_on_words, run_on_words


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
    drawn again.  With native kernels and a plain
    :class:`random.Random`, the loop runs in C on the generator's own
    words and draws the same edges; the loop below is its reference.
    """
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges < 0 or num_edges > max_edges:
        raise ValueError(
            f"num_edges must be in [0, {max_edges}] for n={num_vertices},"
            f" got {num_edges}"
        )
    generator = ensure_rng(rng)
    if randrange_on_words(generator, num_vertices) and _native.available():
        return _edges_on_words(num_vertices, num_edges, generator)
    randrange = generator.randrange
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


def _edges_on_words(
    num_vertices: int, num_edges: int, generator: random.Random
) -> Tuple[np.ndarray, np.ndarray]:
    """The edges of the loop above, drawn by the native kernel."""
    heads = np.empty(num_edges, dtype=np.int64)
    tails = np.empty(num_edges, dtype=np.int64)
    slots = 2
    while slots <= 2 * num_edges:
        slots *= 2
    table = np.empty(slots, dtype=np.int64)
    # A draw below n takes 2^bits / n words on average; dense graphs
    # redraw many repeats and may run out, which only costs a re-run.
    words_per_draw = (1 << num_vertices.bit_length()) / max(num_vertices, 1)
    run_on_words(
        generator,
        int(2 * num_edges * words_per_draw * 1.05) + 1024,
        lambda words: _native.gnm_edges(words, num_vertices, heads, tails, table),
    )
    return heads, tails


def erdos_renyi_gnm(num_vertices: int, num_edges: int, rng: RngLike = None) -> Graph:
    """G(n, m): exactly ``num_edges`` distinct edges, uniform over sets."""
    heads, tails = gnm_edges(num_vertices, num_edges, rng)
    return graph_from_edge_sequence(heads, tails, num_vertices)
