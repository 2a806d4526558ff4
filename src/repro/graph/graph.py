"""Symmetric (undirected) simple graph over integer vertices.

This is the structure the paper's random walks operate on: the
"symmetric counterpart" ``G = (V, E)`` of the crawled directed graph
(Section 2).  Vertices are dense integers ``0 .. n-1`` so that degree
lookups, uniform neighbor selection and degree-proportional seeding are
all array operations.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]


class Graph:
    """Undirected simple graph stored as adjacency lists.

    Self-loops are rejected (a walker crossing a self-loop would be a
    no-op and the paper's graphs contain none); parallel edges collapse
    to one.  The class maintains, per vertex, both an adjacency *list*
    (for O(1) uniform neighbor draws) and an adjacency *set* (for O(1)
    membership tests), trading memory for the query mix the samplers
    need.  Both are built on first use.  A graph built in bulk over a
    CSR (:func:`repro.graph.csr.graph_from_edge_sequence`) slices its
    lists from that CSR on the first call that reads a row or mutates
    the graph; ``num_vertices``, ``vertices()``, ``num_edges``,
    ``version``, ``volume()`` and ``get_csr`` answer without them.  The
    sets are built from the lists on the first membership query or
    mutation.  A bulk-built graph that is only walked on its CSR pays
    for neither.
    """

    def __init__(self, num_vertices: int = 0):
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self._adj: List[List[int]] = [[] for _ in range(num_vertices)]
        self._adj_sets: Optional[List[Set[int]]] = None
        self._num_edges = 0
        # Monotone mutation counter; lets derived representations
        # (e.g. the cached CSR conversion) detect staleness cheaply.
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], num_vertices: Optional[int] = None
    ) -> "Graph":
        """Build a graph from an iterable of undirected edges.

        If ``num_vertices`` is omitted the vertex count is one more than
        the largest endpoint mentioned.
        """
        edge_list = list(edges)
        if num_vertices is None:
            num_vertices = (
                max((max(u, v) for u, v in edge_list), default=-1) + 1
            )
        graph = cls(num_vertices)
        for u, v in edge_list:
            graph.add_edge(u, v)
        return graph

    def __getattr__(self, name: str) -> List[List[int]]:
        # Python calls this only for a name the instance lacks: the
        # lists of a graph built over a CSR (repro.graph.csr._graph_over)
        # before their first use.  State is read through __dict__ and no
        # other name is answered, so a half-restored instance (while
        # unpickling or copying) cannot recurse here.  Threads that race
        # on the first build all get the first finished one.
        state = self.__dict__
        if name != "_adj" or "_csr_cache" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return state.setdefault("_adj", state["_csr_cache"][1]._rows())

    def _sets(self) -> List[Set[int]]:
        # Threads that race on the first call each build equal sets;
        # the last assignment wins.
        sets = self._adj_sets
        if sets is None:
            sets = self._adj_sets = [set(nbrs) for nbrs in self._adj]
        return sets

    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        self._adj.append([])
        if self._adj_sets is not None:
            self._adj_sets.append(set())
        self._version += 1
        return len(self._adj) - 1

    def add_vertices(self, count: int) -> None:
        """Append ``count`` isolated vertices."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        for _ in range(count):
            self.add_vertex()

    def add_edge(self, u: int, v: int) -> bool:
        """Insert undirected edge ``{u, v}``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed (parallel edges collapse).  Raises on self-loops.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        sets = self._sets()
        if v in sets[u]:
            return False
        self._adj[u].append(v)
        self._adj[v].append(u)
        sets[u].add(v)
        sets[v].add(u)
        self._num_edges += 1
        self._version += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete undirected edge ``{u, v}``; returns ``True`` if it
        existed.  O(deg) — intended for rewiring passes, not hot loops.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        sets = self._sets()
        if v not in sets[u]:
            return False
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        sets[u].discard(v)
        sets[v].discard(u)
        self._num_edges -= 1
        self._version += 1
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        adj = self.__dict__.get("_adj")
        if adj is None:
            return self._csr_cache[1].num_vertices
        return len(adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter (bumps on any structural change)."""
        return self._version

    def vertices(self) -> range:
        return range(self.num_vertices)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> List[int]:
        """Degree sequence indexed by vertex id."""
        return [len(nbrs) for nbrs in self._adj]

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbors of ``v`` (do not mutate the returned list)."""
        self._check_vertex(v)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._sets()[u]

    def neighbor_set(self, v: int) -> Set[int]:
        """Neighbors of ``v`` as a set (do not mutate)."""
        self._check_vertex(v)
        return self._sets()[v]

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, as ``(min, max)`` pairs."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def directed_edges(self) -> Iterator[Edge]:
        """Iterate both orientations of every edge (the paper's ``E``)."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                yield (u, v)

    def volume(self, vertices: Optional[Iterable[int]] = None) -> int:
        """Sum of degrees over ``vertices`` (all vertices by default).

        ``vol(V) == 2 |E|`` for the whole graph.
        """
        if vertices is None:
            return 2 * self._num_edges
        return sum(self.degree(v) for v in vertices)

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            raise ValueError("average degree of the empty graph is undefined")
        return self.volume() / self.num_vertices

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return max(self.degrees())

    def isolated_vertices(self) -> List[int]:
        """Vertices with no incident edge."""
        return [v for v, nbrs in enumerate(self._adj) if not nbrs]

    # ------------------------------------------------------------------
    # random primitives used by the samplers
    # ------------------------------------------------------------------
    def random_vertex(self, rng: random.Random) -> int:
        """A vertex uniform over V (random vertex sampling)."""
        if self.num_vertices == 0:
            raise ValueError("graph has no vertices")
        return rng.randrange(self.num_vertices)

    def random_neighbor(self, v: int, rng: random.Random) -> int:
        """A neighbor of ``v`` chosen uniformly (one RW step)."""
        nbrs = self._adj[v]
        if not nbrs:
            raise ValueError(f"vertex {v} has no neighbors to walk to")
        return nbrs[rng.randrange(len(nbrs))]

    def random_edge(self, rng: random.Random) -> Edge:
        """A *directed* edge ``(u, v)`` uniform over the 2|E| orientations.

        Sampling an orientation uniformly is exactly how a stationary
        random walk samples edges, and is what random edge sampling in
        the paper means for estimator purposes.
        """
        if self._num_edges == 0:
            raise ValueError("graph has no edges")
        # Draw u proportional to degree, then a uniform neighbor.
        # This equals uniform over directed edges without materializing
        # the edge list: P(u) = deg(u)/2|E|, P(v|u) = 1/deg(u).
        u = self._degree_proportional_vertex(rng)
        v = self.random_neighbor(u, rng)
        return (u, v)

    def _degree_proportional_vertex(self, rng: random.Random) -> int:
        target = rng.randrange(2 * self._num_edges)
        # Linear scan fallback; samplers that need this repeatedly use
        # an AliasTable built once from self.degrees().
        acc = 0
        for v, nbrs in enumerate(self._adj):
            acc += len(nbrs)
            if target < acc:
                return v
        raise AssertionError("unreachable: degree scan exhausted")

    def copy(self) -> "Graph":
        """Deep copy."""
        clone = Graph(self.num_vertices)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise IndexError(
                f"vertex {v} out of range [0, {len(self._adj)})"
            )
