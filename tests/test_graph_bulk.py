"""The bulk constructor against sequential ``Graph.add_edge``.

``graph_from_edge_sequence`` and ``CSRGraph.to_graph`` build a whole
graph in one pass.  They must produce exactly what the per-edge loops
they replace produce: the same neighbor order, membership answers,
mutation counter and CSR arrays, also after later mutations and a
pickle round trip (the membership sets are built lazily).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, get_csr, graph_from_edge_sequence
from repro.graph.graph import Graph


@st.composite
def edge_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            unique_by=lambda e: (min(e), max(e)),
            max_size=80,
        )
    )
    return n, edges


def _sequential(n, edges):
    graph = Graph(n)
    for u, v in edges:
        assert graph.add_edge(u, v)
    return graph


def _bulk(n, edges):
    heads = np.array([u for u, _ in edges], dtype=np.int64)
    tails = np.array([v for _, v in edges], dtype=np.int64)
    return graph_from_edge_sequence(heads, tails, n)


def _assert_same_rows(graph, expected):
    assert graph.num_vertices == expected.num_vertices
    assert graph.num_edges == expected.num_edges
    assert graph.version == expected.version
    for v in expected.vertices():
        assert list(graph.neighbors(v)) == list(expected.neighbors(v))
    ours, theirs = get_csr(graph), get_csr(expected)
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)


def _assert_same_membership(graph, expected):
    for u in expected.vertices():
        assert graph.neighbor_set(u) == expected.neighbor_set(u)
        for v in expected.vertices():
            assert graph.has_edge(u, v) == expected.has_edge(u, v)


@given(
    case=edge_sequences(),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 10**6)),
        max_size=30,
    ),
)
@settings(max_examples=150, deadline=None)
def test_bulk_equals_sequential_add_edge(case, ops):
    n, edges = case
    expected = _sequential(n, edges)
    graph = _bulk(n, edges)
    _assert_same_rows(graph, expected)
    # A pickled graph whose sets were never built must rebuild them.
    graph = pickle.loads(pickle.dumps(graph))
    _assert_same_rows(graph, expected)
    _assert_same_membership(graph, expected)

    # ``fresh`` meets its first mutation with no sets built; ``graph``
    # has them from the membership checks above.
    fresh = _bulk(n, edges)
    for add, a, b in ops:
        u, v = a % n, b % n
        if u == v:
            continue
        method = "add_edge" if add else "remove_edge"
        want = getattr(expected, method)(u, v)
        assert getattr(fresh, method)(u, v) == want
        assert getattr(graph, method)(u, v) == want
    for mutated in (fresh, graph):
        _assert_same_rows(mutated, expected)
        _assert_same_membership(mutated, expected)
        _assert_same_rows(pickle.loads(pickle.dumps(mutated)), expected)


def test_bulk_graph_carries_its_csr():
    graph = _bulk(4, [(0, 1), (2, 1), (3, 0)])
    csr = get_csr(graph)
    assert graph._csr_cache == (graph.version, csr)
    assert csr.indptr.tolist() == [0, 2, 4, 5, 6]
    assert csr.indices.tolist() == [1, 3, 0, 2, 1, 0]


def test_bulk_rows_share_one_int_per_vertex():
    edges = [(v, v + 500) for v in range(500)]
    edges += [(v + 500, (v + 1) % 500) for v in range(500)]
    graph = _bulk(1000, edges)
    first = {}
    for v in graph.vertices():
        for w in graph.neighbors(v):
            assert first.setdefault(w, w) is w


def test_bulk_empty_and_edgeless():
    for n in (0, 3):
        graph = _bulk(n, [])
        assert graph.num_vertices == n
        assert graph.num_edges == 0
        assert graph.version == 0
        _assert_same_rows(graph, Graph(n))


@pytest.mark.parametrize(
    "heads, tails, error",
    [
        ([0, 2], [1, 2], ValueError),
        ([0], [3], IndexError),
        ([-1], [0], IndexError),
        ([0, 1], [1], ValueError),
    ],
)
def test_bulk_rejects_bad_edges(heads, tails, error):
    with pytest.raises(error):
        graph_from_edge_sequence(np.array(heads), np.array(tails), 3)


def _old_to_graph(csr):
    """``CSRGraph.to_graph`` as it was: one ``add_edge`` per ``u < v``."""
    graph = Graph(csr.num_vertices)
    indptr, indices = csr.indptr, csr.indices
    for u in range(csr.num_vertices):
        for v in indices[indptr[u] : indptr[u + 1]]:
            if u < v:
                graph.add_edge(u, int(v))
    return graph


@given(
    n=st.integers(min_value=1, max_value=20),
    pairs=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_to_graph_matches_the_add_edge_loop(n, pairs, seed):
    # Symmetric rows in shuffled order, with repeated neighbors and
    # self-loops, as a raw CSR may hold them.
    rows = [[] for _ in range(n)]
    for a, b in pairs:
        u, v = a % n, b % n
        rows[u].append(v)
        rows[v].append(u)
    shuffle = random.Random(seed).shuffle
    for row in rows:
        shuffle(row)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    csr = CSRGraph(indptr, np.array(sum(rows, []), dtype=np.int64))
    _assert_same_rows(csr.to_graph(), _old_to_graph(csr))
