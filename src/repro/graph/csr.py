"""Compressed-sparse-row (CSR) graph — the fast-path substrate.

The paper's pitch is that Frontier Sampling scales to graphs too large
to crawl exhaustively; the adjacency-*list* :class:`~repro.graph.graph.Graph`
is convenient for construction and small reproductions but every
operation on it is interpreted Python.  :class:`CSRGraph` stores the
same symmetric simple graph as two numpy arrays:

- ``indptr``  — int64, length ``n + 1``; vertex ``v``'s neighbor row is
  ``indices[indptr[v]:indptr[v + 1]]``.
- ``indices`` — int64, length ``2 |E|``; both orientations of every
  edge, so ``deg(v) == indptr[v + 1] - indptr[v]``.

Degree lookups are O(1) pointer arithmetic, the full degree sequence is
one vectorized ``diff``, and uniform neighbor draws index straight into
a row slice.  The batch-walker engine
(:mod:`repro.sampling.vectorized`) runs SRW, MHRW and m-dimensional FS
directly over these arrays, through a native kernel when one is
available.

``from_graph`` preserves the adjacency-list neighbor *order*, which is
what makes list-backend and csr-backend walks bit-for-bit comparable
under a shared random stream.  :func:`graph_from_edge_sequence` runs the
other way in bulk: it turns an edge sequence into the rows sequential
``Graph.add_edge`` calls would build, and hands back a :class:`Graph`
over those rows with the CSR attached.  That :class:`Graph` slices its
adjacency lists from the CSR only when a list is first asked for, so a
caller that only walks and scores it on its CSR never builds them.
:meth:`CSRGraph.from_edge_sequence` and :func:`induced_csr` give the
same rows as a :class:`CSRGraph`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.graph import Edge, Graph


class CSRGraph:
    """Symmetric simple graph in compressed-sparse-row form.

    Immutable by design: build it from a :class:`Graph`, an edge list,
    or raw ``(indptr, indices)`` arrays.  Mutation workflows stay on
    :class:`Graph`; convert once when the crawl/generation phase ends.

    Because the arrays never change, what the walk layer derives from
    them — plain-list views, the walkable vertex ids, and the native
    kernels' array pointers (``_pointers``, built and filled by
    :mod:`repro.sampling._native`) — is built on first use and kept on
    the graph.  Pickles and copies carry none of it (ctypes pointers
    cannot be pickled), and rebuild it on demand.
    """

    __slots__ = (
        "indptr", "indices", "mmap_stem",
        "_list_cache", "_walkable", "_pointers",
    )

    #: Slots holding caches derived from the arrays.
    _DERIVED = ("_list_cache", "_walkable", "_pointers")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0:
            raise ValueError("indptr must start with 0")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1] ({int(indptr[-1])}) must equal"
                f" len(indices) ({indices.size})"
            )
        if indices.size % 2 != 0:
            raise ValueError(
                "indices length must be even (both orientations of"
                " every undirected edge)"
            )
        # The O(n + |E|) content scans are skippable for trusted input:
        # mmap'd loads of files this library wrote would otherwise page
        # the entire indices file in before the first walk step.
        # The library's own constructors build symmetric, in-range
        # arrays and pass validate=False.
        if validate:
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if indices.size and (
                indices.min() < 0 or indices.max() >= indptr.size - 1
            ):
                raise ValueError("indices contain out-of-range vertex ids")
            _check_symmetric(indptr, indices)
        self.indptr = indptr
        self.indices = indices
        #: Stem of the ``.npy`` pair this graph was mmap'd from, if any
        #: (set by :func:`repro.graph.io.load_csr_npy`); lets worker
        #: processes reopen the same read-only buffers instead of
        #: pickling the arrays.
        self.mmap_stem: Optional[str] = None
        self._clear_derived()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert an adjacency-list graph, preserving neighbor order."""
        n = graph.num_vertices
        adjacency = [graph.neighbors(v) for v in graph.vertices()]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(
                np.fromiter(
                    (len(row) for row in adjacency), dtype=np.int64, count=n
                ),
                out=indptr[1:],
            )
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        position = 0
        for row in adjacency:
            indices[position : position + len(row)] = row
            position += len(row)
        return cls(indptr, indices, validate=False)

    @classmethod
    def from_edge_sequence(
        cls, heads: np.ndarray, tails: np.ndarray, num_vertices: int
    ) -> "CSRGraph":
        """The rows ``add_edge(heads[i], tails[i])`` for ``i = 0, 1, ...``
        would build on an empty ``Graph(num_vertices)``.

        The edges must be distinct; self-loops and out-of-range ids
        raise.  ``add_edge`` appends ``tails[i]`` to row ``heads[i]`` and
        ``heads[i]`` to row ``tails[i]``, so sorting the interleaved
        half-edges by source vertex, ties by position, lays every row
        out in insertion order.  When ``heads`` and ``tails`` are the
        even and odd views of one contiguous int64 buffer, as
        :func:`repro.generators.ba.ba_edges` returns them, that buffer
        is read as it is; other inputs are interleaved into a copy.
        The sort runs in place on the distinct keys
        ``end * 2E + position``, which must fit in int64:
        ``num_vertices * 2E`` above ``2**63`` raises :class:`ValueError`
        before anything is allocated.
        """
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        if heads.ndim != 1 or heads.shape != tails.shape:
            raise ValueError("heads and tails must be 1-D arrays of equal length")
        if heads.size and (
            min(heads.min(), tails.min()) < 0
            or max(heads.max(), tails.max()) >= num_vertices
        ):
            raise IndexError(f"edge endpoint out of range [0, {num_vertices})")
        if np.any(heads == tails):
            loop = int(heads[np.argmax(heads == tails)])
            raise ValueError(f"self-loops are not allowed (vertex {loop})")
        half_edges = 2 * heads.size
        if int(num_vertices) * half_edges > 2**63:
            raise ValueError(
                f"{num_vertices} vertices and {heads.size} edges overflow"
                " the int64 row keys (num_vertices * 2E > 2**63)"
            )
        interleaved = _interleaved(heads, tails)
        if interleaved is None:
            interleaved = np.column_stack((heads, tails)).ravel()
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(interleaved, minlength=num_vertices), out=indptr[1:])
        # The keys end * 2E + position are a fresh array, so the
        # caller's buffer is never written.  They are distinct, so an
        # unstable sort orders them as a stable sort by end would, and
        # the remainder is the position.  The other end of half-edge p
        # is half-edge p ^ 1.
        order = interleaved * half_edges
        order += np.arange(half_edges, dtype=np.int64)
        order.sort()
        order %= half_edges
        order ^= 1
        return cls(indptr, interleaved[order], validate=False)

    @classmethod
    def from_edges(
        cls,
        edges: Union[np.ndarray, Iterable[Edge]],
        num_vertices: Optional[int] = None,
    ) -> "CSRGraph":
        """Build directly from an edge array — no adjacency sets.

        Single vectorized pass: parallel edges collapse and self-loops
        are dropped *before* the vertex count is inferred (mirroring
        the edge-list readers, which skip them; ``Graph.from_edges``
        instead raises on self-loops).
        Neighbor rows come out sorted ascending (canonical CSR order),
        which differs from :class:`Graph`'s insertion order — use
        :meth:`from_graph` when walk-for-walk comparability against a
        list-backed graph matters.
        """
        array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if array.size == 0:
            array = array.reshape(0, 2)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError(
                f"edges must be an (E, 2) array, got shape {array.shape}"
            )
        if array.size and array.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        # Drop self-loops before inferring the vertex count, so the
        # result matches filtering them out ahead of construction (the
        # edge-list readers' behavior on either backend).
        array = array[array[:, 0] != array[:, 1]]
        inferred = int(array.max()) + 1 if array.size else 0
        n = inferred if num_vertices is None else num_vertices
        if n < inferred:
            raise ValueError(
                f"num_vertices={n} but edges mention vertex {inferred - 1}"
            )
        # Collapse parallel edges on the canonical (min, max) key.
        low = np.minimum(array[:, 0], array[:, 1])
        high = np.maximum(array[:, 0], array[:, 1])
        if low.size:
            unique = np.unique(low * np.int64(n) + high)
            low, high = unique // n, unique % n
        src = np.concatenate([low, high])
        dst = np.concatenate([high, low])
        order = np.lexsort((dst, src))
        counts = np.bincount(src, minlength=n) if n else np.zeros(0, np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst[order], validate=False)

    def to_graph(self) -> Graph:
        """Expand back into an adjacency-list :class:`Graph`.

        Neighbor order is that of inserting each edge ``u < v`` in
        row-major order; self-loops are skipped and repeated neighbors
        collapse.
        """
        return induced_graph(self, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    def vertices(self) -> range:
        return range(self.num_vertices)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree sequence as one vectorized diff (no Python loop)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor row of ``v`` (a read-only array view)."""
        self._check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(v)
        return bool(np.any(self.neighbors(u) == v))

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, as ``(min, max)`` pairs."""
        indptr, indices = self.indptr, self.indices
        for u in range(self.num_vertices):
            for v in indices[indptr[u] : indptr[u + 1]]:
                if u < v:
                    yield (u, int(v))

    def volume(self, vertices: Optional[Iterable[int]] = None) -> int:
        """Sum of degrees over ``vertices`` (all vertices by default)."""
        if vertices is None:
            return int(self.indices.size)
        ids = np.asarray(list(vertices), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vertices):
            raise IndexError("vertex id out of range")
        return int(np.sum(self.indptr[ids + 1] - self.indptr[ids]))

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            raise ValueError("average degree of the empty graph is undefined")
        return self.indices.size / self.num_vertices

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return int(self.degrees().max())

    def isolated_vertices(self) -> List[int]:
        """Vertices with no incident edge."""
        return np.flatnonzero(self.degrees() == 0).tolist()

    # ------------------------------------------------------------------
    # random primitives (numpy-Generator protocol)
    # ------------------------------------------------------------------
    def random_vertex(self, rng: np.random.Generator) -> int:
        """A vertex uniform over V."""
        if self.num_vertices == 0:
            raise ValueError("graph has no vertices")
        return int(rng.integers(0, self.num_vertices))

    def random_neighbor(self, v: int, rng: np.random.Generator) -> int:
        """A neighbor of ``v`` chosen uniformly (one RW step)."""
        degree = self.degree(v)
        if degree == 0:
            raise ValueError(f"vertex {v} has no neighbors to walk to")
        return int(self.indices[self.indptr[v] + rng.integers(0, degree)])

    def _rows(self) -> List[List[int]]:
        """The rows as a :class:`Graph`'s adjacency lists, over one
        shared int object per vertex id."""
        flat = np.arange(self.num_vertices, dtype=object)[self.indices].tolist()
        bounds = self.indptr.tolist()
        return [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    # derived caches (built on first use; never pickled or copied)
    # ------------------------------------------------------------------
    def as_lists(self) -> Tuple[List[int], List[int]]:
        """Plain-list ``(indptr, indices)`` for the pure-Python kernels
        (Python list indexing beats numpy scalar indexing in
        interpreted loops)."""
        if self._list_cache is None:
            self._list_cache = (self.indptr.tolist(), self.indices.tolist())
        return self._list_cache

    def walkable(self) -> np.ndarray:
        """Ids of the vertices a walker can occupy (degree >= 1),
        ascending: what uniform seeding draws from."""
        if self._walkable is None:
            self._walkable = np.flatnonzero(self.degrees() > 0)
        return self._walkable

    def _clear_derived(self) -> None:
        self._list_cache: Optional[Tuple[List[int], List[int]]] = None
        self._walkable: Optional[np.ndarray] = None
        self._pointers: Optional[Tuple[Any, Any]] = None

    def __getstate__(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._DERIVED
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._clear_derived()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_vertices={self.num_vertices},"
            f" num_edges={self.num_edges})"
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise IndexError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )


def _check_symmetric(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise unless every ``(u, v)`` occurs as often as ``(v, u)``."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    forward = np.sort(rows * n + indices)
    backward = np.sort(indices * n + rows)
    differ = np.flatnonzero(forward != backward)
    if differ.size == 0:
        return
    # Below the first difference both multisets agree, so the smaller
    # key there occurs more often on its own side than on the other.
    f, b = int(forward[differ[0]]), int(backward[differ[0]])
    if f < b:
        u, v = divmod(f, n)
    else:
        v, u = divmod(b, n)

    def count(keys: np.ndarray, key: int) -> int:
        return int(np.searchsorted(keys, key, "right") - np.searchsorted(keys, key))

    raise ValueError(
        f"CSR is not symmetric: ({u}, {v}) occurs {count(forward, u * n + v)}"
        f" time(s) but ({v}, {u}) {count(forward, v * n + u)}"
    )


def _interleaved(heads: np.ndarray, tails: np.ndarray) -> Optional[np.ndarray]:
    """The contiguous buffer ``h0, t0, h1, t1, ...`` whose even and odd
    entries ``heads`` and ``tails`` view (same address, shape, strides
    and dtype), flat; else ``None``."""
    buffer = heads.base
    if not isinstance(buffer, np.ndarray) or not buffer.flags.c_contiguous:
        return None
    flat = buffer.reshape(-1)
    if (
        heads.__array_interface__ == flat[0::2].__array_interface__
        and tails.__array_interface__ == flat[1::2].__array_interface__
    ):
        return flat
    return None


def graph_from_edge_sequence(
    heads: np.ndarray, tails: np.ndarray, num_vertices: int
) -> Graph:
    """The :class:`Graph` that ``add_edge(heads[i], tails[i])`` for
    ``i = 0, 1, ...`` builds on ``Graph(num_vertices)``, in bulk.

    Same neighbor lists, same ``version``, and
    :meth:`CSRGraph.from_edge_sequence` attached as the :func:`get_csr`
    cache.  The edges must be distinct.  The adjacency lists are sliced
    from the CSR on first use, each referring to one shared int object
    per vertex id, and the membership sets are built from the lists on
    first use, so a graph that is only walked on its CSR costs little
    more than the CSR.
    """
    return _graph_over(CSRGraph.from_edge_sequence(heads, tails, num_vertices))


def _graph_over(csr: CSRGraph) -> Graph:
    """The :class:`Graph` whose neighbor lists are ``csr``'s rows, with
    ``csr`` attached as its :func:`get_csr` cache.

    It holds no lists: the first call that reads a row or mutates the
    graph slices them from ``csr`` (``Graph.__getattr__``).
    """
    graph = Graph()
    del graph._adj
    graph._num_edges = graph._version = csr.num_edges
    graph._csr_cache = (graph.version, csr)
    return graph


def induced_csr(csr: CSRGraph, keep: Optional[np.ndarray]) -> CSRGraph:
    """The subgraph induced by the vertices where ``keep`` is true (all
    vertices for ``None``), relabeled densely in id order.

    Its rows are those the loop ``for u in kept: for v in row(u): if
    u < v and v kept: add_edge(new[u], new[v])`` would build, laid out
    in one bulk pass.
    """
    size = csr.num_vertices
    rows = np.repeat(np.arange(size, dtype=np.int64), np.diff(csr.indptr))
    inside = rows < csr.indices
    if keep is not None:
        inside &= keep[rows] & keep[csr.indices]
    heads, tails = rows[inside], csr.indices[inside]
    if keep is not None:
        size = int(np.count_nonzero(keep))
        new_id = np.cumsum(keep, dtype=np.int64) - 1
        heads, tails = new_id[heads], new_id[tails]
    keys = heads * size + tails
    if np.any(np.diff(np.sort(keys)) == 0):
        # add_edge keeps the first copy of a repeated neighbor.
        _, first = np.unique(keys, return_index=True)
        first.sort()
        heads, tails = heads[first], tails[first]
    return CSRGraph.from_edge_sequence(heads, tails, size)


def induced_graph(csr: CSRGraph, keep: Optional[np.ndarray]) -> Graph:
    """:func:`induced_csr` as a :class:`Graph` over the same rows."""
    return _graph_over(induced_csr(csr, keep))


def get_csr(graph: Union[Graph, CSRGraph]) -> CSRGraph:
    """Return ``graph`` as a :class:`CSRGraph`, caching conversions.

    The cache lives on the :class:`Graph` instance and is tagged with
    its mutation counter, so converting the same (unmodified) graph
    repeatedly — e.g. once per Monte Carlo replication — costs one
    conversion total.
    """
    if isinstance(graph, CSRGraph):
        return graph
    if not isinstance(graph, Graph):
        raise TypeError(f"expected Graph or CSRGraph, got {type(graph)!r}")
    cached = getattr(graph, "_csr_cache", None)
    version = graph.version
    if cached is not None and cached[0] == version:
        return cached[1]
    csr = CSRGraph.from_graph(graph)
    graph._csr_cache = (version, csr)
    return csr
