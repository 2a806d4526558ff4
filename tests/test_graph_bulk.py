"""The bulk constructor against sequential ``Graph.add_edge``.

``graph_from_edge_sequence`` and ``CSRGraph.to_graph`` build a whole
graph in one pass.  They must produce exactly what the per-edge loops
they replace produce: the same neighbor order, membership answers,
mutation counter and CSR arrays, also after later mutations, copies and
a pickle round trip.  The adjacency lists are sliced from the CSR on
first use and the membership sets are built from the lists on first
use, so both are checked before and after they exist.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.ba import ba_edges, barabasi_albert
from repro.generators.er import erdos_renyi_gnm
from repro.graph.components import induced_subgraph, largest_connected_component
from repro.graph.csr import CSRGraph, _interleaved, get_csr, graph_from_edge_sequence
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


def _unbuilt(graph):
    """True while ``graph`` holds no adjacency lists."""
    return "_adj" not in vars(graph)


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

    # ``fresh`` meets its first mutation with no lists or sets built;
    # ``graph`` has them from the checks above.
    fresh = _bulk(n, edges)
    assert _unbuilt(fresh)
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


def _ba_lcc():
    graph = barabasi_albert(10**4, 3, rng=11)
    lcc, _ = largest_connected_component(graph)
    return [graph, lcc]


def _induced():
    graph = barabasi_albert(300, 2, rng=12)
    cut, _ = induced_subgraph(graph, range(0, 300, 3))
    return [graph, cut]


#: Bulk builds, each giving the graphs it made, the result last.
BULK_BUILDS = {
    "barabasi_albert-lcc": _ba_lcc,
    "erdos_renyi_gnm": lambda: [erdos_renyi_gnm(500, 1500, rng=13)],
    "induced_subgraph": _induced,
    "to_graph": lambda: [
        CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)], 6).to_graph()
    ],
}


@pytest.mark.parametrize("build", sorted(BULK_BUILDS))
def test_bulk_builds_no_lists(build):
    graphs = BULK_BUILDS[build]()
    graph = graphs[-1]
    csr = get_csr(graph)
    assert graph.num_vertices == csr.num_vertices
    assert graph.vertices() == range(csr.num_vertices)
    assert graph.num_edges == graph.version == csr.num_edges
    assert graph.volume() == csr.indices.size
    assert get_csr(graph) is csr
    assert all(_unbuilt(each) for each in graphs)


#: A small graph with an isolated vertex (11) and a vertex of degree 4.
SMALL = (
    12,
    [(0, 1), (2, 1), (3, 0), (4, 2), (1, 5), (5, 6), (6, 0), (7, 3),
     (8, 2), (9, 8), (10, 4), (1, 3)],
)


def _rows(graph):
    return graph.version, [list(graph.neighbors(v)) for v in graph.vertices()]


def _random_neighbors(graph):
    rng = random.Random(5)
    return [graph.random_neighbor(v, rng) for v in list(range(11)) * 4]


def _random_edges(graph):
    rng = random.Random(6)
    return [graph.random_edge(rng) for _ in range(40)]


#: Calls that read a row or mutate the graph, so they build its lists.
QUERIES = {
    "neighbors": lambda g: [list(g.neighbors(v)) for v in g.vertices()],
    "degree": lambda g: [g.degree(v) for v in g.vertices()],
    "degrees": lambda g: g.degrees(),
    "edges": lambda g: list(g.edges()),
    "directed_edges": lambda g: list(g.directed_edges()),
    "has_edge": lambda g: [g.has_edge(u, v) for u in g.vertices() for v in g.vertices()],
    "neighbor_set": lambda g: [g.neighbor_set(v) for v in g.vertices()],
    "isolated_vertices": lambda g: g.isolated_vertices(),
    "max_degree": lambda g: g.max_degree(),
    "copy": lambda g: _rows(g.copy()),
    "random_neighbor": _random_neighbors,
    "random_edge": _random_edges,
    "add_vertex": lambda g: (g.add_vertex(), _rows(g)),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_unbuilt_graph_answers_as_the_add_edge_build(query):
    n, edges = SMALL
    graph, expected = _bulk(n, edges), _sequential(n, edges)
    assert _unbuilt(graph)
    assert QUERIES[query](graph) == QUERIES[query](expected)
    assert not _unbuilt(graph)
    _assert_same_rows(graph, expected)


COPIERS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_unbuilt_copies_carry_the_csr_and_no_lists(copier):
    n, edges = SMALL
    graph = _bulk(n, edges)
    clone = COPIERS[copier](graph)
    assert _unbuilt(graph) and _unbuilt(clone)
    ours, theirs = get_csr(clone), get_csr(graph)
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert _unbuilt(clone)
    _assert_same_rows(clone, _sequential(n, edges))
    assert _unbuilt(graph)


def test_threads_racing_on_the_first_build_share_one():
    n = 3000
    heads, tails = ba_edges(n, 3, rng=17)
    graph = graph_from_edge_sequence(heads, tails, n)
    expected = _sequential(n, zip(heads.tolist(), tails.tolist()))
    barrier = threading.Barrier(8)
    rows = [None] * 8

    def touch(slot):
        barrier.wait(timeout=30)
        rows[slot] = graph.neighbors(0)

    threads = [threading.Thread(target=touch, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(row is graph.neighbors(0) for row in rows)
    assert rows[0] == list(expected.neighbors(0))


def _layouts(heads, tails):
    """One edge sequence in each layout ``from_edge_sequence`` accepts,
    with whether it is read without a copy."""
    buffer = np.empty(2 * heads.size, dtype=np.int64)
    buffer[0::2], buffer[1::2] = heads, tails
    pairs = np.column_stack((heads, tails))
    swapped = np.column_stack((tails, heads)).ravel()
    spread = np.zeros(2 * buffer.size, dtype=np.int64)
    spread[::2] = buffer
    return {
        "one buffer": (buffer[0::2], buffer[1::2], True),
        "columns": (pairs[:, 0], pairs[:, 1], True),
        "swapped views": (swapped[1::2], swapped[0::2], False),
        "non-contiguous": (spread[::2][0::2], spread[::2][1::2], False),
        "two buffers": (heads.copy(), tails.copy(), False),
    }


@pytest.mark.parametrize(
    "layout", ["one buffer", "columns", "swapped views", "non-contiguous", "two buffers"]
)
def test_from_edge_sequence_reads_every_layout(layout):
    n = 200
    heads, tails = (np.array(ends) for ends in ba_edges(n, 3, rng=19))
    ours, theirs, in_place = _layouts(heads, tails)[layout]
    assert (_interleaved(ours, theirs) is not None) == in_place
    before = (ours.copy(), theirs.copy())
    csr = CSRGraph.from_edge_sequence(ours, theirs, n)
    assert np.array_equal(ours, before[0]) and np.array_equal(theirs, before[1])
    expected = get_csr(_sequential(n, zip(heads.tolist(), tails.tolist())))
    assert np.array_equal(csr.indptr, expected.indptr)
    assert np.array_equal(csr.indices, expected.indices)


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
