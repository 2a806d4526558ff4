"""Batch walker engine over CSR arrays — the ``csr`` backend.

Runs SRW, MHRW and m-dimensional FS against a
:class:`~repro.graph.csr.CSRGraph` with a fixed *draw protocol*: all
randomness is pre-drawn in blocks from a :class:`numpy.random.Generator`
and every step consumes a protocol-defined number of uniforms, scaled
onto integer ranges with ``int(u * range)``.  All weight arithmetic is
exact int64, so the two interchangeable kernel implementations —

- the native C kernels (:mod:`repro.sampling._native`), used when a
  compiler is available, and
- the pure-Python loops below running over the CSR arrays, the C
  kernels' reference and the fallback when ``REPRO_NO_NATIVE`` is set
  or no compiler is found

produce **bit-for-bit identical traces** from the same seeded
generator; ``REPRO_NO_NATIVE`` is the only switch between them.  FS's
degree-proportional walker pick scales one uniform onto the frontier's
total degree; the walker's slice of the concatenated incident-edge
lists it lands in *is* the degree-proportional walker pick plus a
uniform neighbor pick (Lemma 5.1's edge-frontier view).  The C kernel
finds that slice by an O(log m) Fenwick descent over the frontier
degree vector, the Python loops by a linear cumulative-degree scan;
degrees are exact int64, so both pick the same walker and edge offset.

There is one runner per walk, and it serves both statistics paths:
without a :class:`~repro.sampling.fused.FusedBlock` it returns the step
record (the trace path); handed one, it folds the eq. (7)/(9) counts
into the block instead (the block path).  The walk, and the walker
state it leaves behind, is the same either way.  The runners are the
kernels of the csr sessions (:mod:`repro.sampling.session`); a walk
starts through its sampler's ``start()``, which draws the seeds.

Draw protocol (per session): seed uniforms first — one per seed,
against the walkable-vertex count (uniform seeding) or the total
degree (stationary seeding) — then step uniforms: SRW one per step;
FS one per step (degree selection) or two (uniform selection); MHRW
two per step (proposal, accept); MultipleRW one walker-major block of
``walkers * steps`` uniforms per advance, walker ``w`` reading its
``steps`` uniforms at offset ``w * steps`` (the stream one ``steps``
block per walker would draw), all walkers advanced in one kernel call.

A step from a zero-degree vertex — reachable only on an unvalidated
CSR — raises the same ``ValueError`` on both kernel paths, naming the
vertex; the kernels check every step, so the runners do not pre-check
starts.  Only the error is the same, not the state left behind: a
native kernel has already folded the steps before the stuck one into
the walkers and the block, the mirror none of them, and the session
may have moved its generator and drained its retained record.  After
that error, discard the block and the session.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, get_csr
from repro.graph.graph import Graph
from repro.sampling import _native
from repro.sampling._native import Record
from repro.sampling.base import Edge, WalkTrace
from repro.sampling.fused import FusedBlock

GraphLike = Union[Graph, CSRGraph]


# ----------------------------------------------------------------------
# traces backed by arrays (lazy list materialization)
# ----------------------------------------------------------------------
class ArrayWalkTrace(WalkTrace):
    """A :class:`WalkTrace` whose step record lives in int64 arrays.

    ``edges`` / ``per_walker`` / ``walker_indices`` /
    ``visited_vertices`` materialize their list forms lazily on *first*
    access and cache them (each is an O(num_steps) conversion), so hot
    paths that only need the arrays — or only need the trace recorded —
    never pay for a million tuple allocations.  The cached lists are
    returned by reference and must be treated as read-only — mutating
    one corrupts every later read.  Internal consumers (the estimator
    layer dispatches via :mod:`repro.estimators._vectorized`) read
    :attr:`step_sources` / :attr:`step_targets` directly and never
    touch the list views.
    """

    def __init__(
        self,
        method: str,
        step_sources: np.ndarray,
        step_targets: np.ndarray,
        initial_vertices: List[int],
        budget: float,
        seed_cost: float,
        step_walkers: Optional[np.ndarray] = None,
    ):
        self.method = method
        self.initial_vertices = initial_vertices
        self.budget = budget
        self.seed_cost = seed_cost
        #: int64 arrays: sources/targets of step i; optionally which
        #: walker made step i.
        self.step_sources = step_sources
        self.step_targets = step_targets
        self.step_walkers = step_walkers
        self._edges: Optional[List[Edge]] = None
        self._per_walker: Optional[List[List[Edge]]] = None
        self._walker_indices: Optional[List[int]] = None
        self._visited_vertices: Optional[List[int]] = None

    @property
    def edges(self) -> List[Edge]:
        if self._edges is None:
            self._edges = list(
                zip(self.step_sources.tolist(), self.step_targets.tolist())
            )
        return self._edges

    @property
    def walker_indices(self) -> Optional[List[int]]:
        if self.step_walkers is None:
            return None
        if self._walker_indices is None:
            self._walker_indices = self.step_walkers.tolist()
        return self._walker_indices

    @property
    def per_walker(self) -> Optional[List[List[Edge]]]:
        if self.step_walkers is None:
            return None
        if self._per_walker is None:
            walkers = len(self.initial_vertices)
            order = np.argsort(self.step_walkers, kind="stable")
            sources = self.step_sources[order]
            targets = self.step_targets[order]
            bounds = np.searchsorted(
                self.step_walkers[order], np.arange(walkers + 1)
            )
            self._per_walker = [
                list(
                    zip(
                        sources[bounds[i] : bounds[i + 1]].tolist(),
                        targets[bounds[i] : bounds[i + 1]].tolist(),
                    )
                )
                for i in range(walkers)
            ]
        return self._per_walker

    @property
    def num_steps(self) -> int:
        return int(self.step_sources.size)

    @property
    def visited_vertices(self) -> List[int]:
        if self._visited_vertices is None:
            self._visited_vertices = self.step_targets.tolist()
        return self._visited_vertices

    def spent(self) -> float:
        return (
            self.seed_cost * len(self.initial_vertices)
            + self.step_sources.size
        )


class ArrayMetropolisTrace(ArrayWalkTrace):
    """Array-backed MH trace: accepted edges plus full visit sequence."""

    def __init__(self, *args, visited_array: np.ndarray, **kwargs):
        super().__init__(*args, **kwargs)
        self.visited_array = visited_array
        self._visited: Optional[List[int]] = None

    @property
    def visited(self) -> List[int]:
        """Visited-vertex sequence including rejection holds."""
        if self._visited is None:
            self._visited = self.visited_array.tolist()
        return self._visited

    def spent(self) -> float:
        """Seeds plus one unit per proposal (rejections cost too)."""
        return (
            self.seed_cost * len(self.initial_vertices)
            + self.visited_array.size
        )


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def degrees_array(graph: GraphLike) -> np.ndarray:
    """Degree sequence of either representation as an int64 array."""
    if isinstance(graph, CSRGraph):
        return graph.degrees()
    return np.asarray(graph.degrees(), dtype=np.int64)


def _scale(u: float, range_: int) -> int:
    """``int(u * range_)`` with the same clamp the C kernels apply."""
    value = int(u * range_)
    return range_ - 1 if value >= range_ else value


def _accessors(graph: CSRGraph):
    """(degree, neighbor-at-offset) closures for the Python kernels."""
    indptr, indices = graph.as_lists()

    def degree_of(v: int) -> int:
        return indptr[v + 1] - indptr[v]

    def neighbor_at(v: int, offset: int) -> int:
        return indices[indptr[v] + offset]

    return degree_of, neighbor_at


def uniform_seeds_np(
    degrees: np.ndarray, count: int, rng: np.random.Generator
) -> List[int]:
    """``count`` uniform draws over the walkable (degree >= 1) vertices."""
    return _draw_uniform(np.flatnonzero(degrees > 0), count, rng)


def _draw_uniform(
    walkable: np.ndarray, count: int, rng: np.random.Generator
) -> List[int]:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if walkable.size == 0:
        raise ValueError("graph has no vertices with positive degree")
    positions = (rng.random(count) * walkable.size).astype(np.int64)
    np.minimum(positions, walkable.size - 1, out=positions)
    return walkable[positions].tolist()


def stationary_seeds_np(
    degrees: np.ndarray, count: int, rng: np.random.Generator
) -> List[int]:
    """``count`` degree-proportional draws (steady-state seeding)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cumulative = np.cumsum(degrees, dtype=np.int64)
    total = int(cumulative[-1]) if cumulative.size else 0
    if total == 0:
        raise ValueError("graph has no edges; stationary law is undefined")
    targets = (rng.random(count) * total).astype(np.int64)
    np.minimum(targets, total - 1, out=targets)
    return np.searchsorted(cumulative, targets, side="right").tolist()


def make_seeds_np(
    graph: GraphLike, count: int, mode: str, rng: np.random.Generator
) -> List[int]:
    """Dispatch on the seeding mode (numpy draw protocol).

    Uniform seeding draws from the graph's cached walkable set.
    """
    if mode == "uniform":
        return _draw_uniform(get_csr(graph).walkable(), count, rng)
    if mode == "stationary":
        return stationary_seeds_np(degrees_array(graph), count, rng)
    raise ValueError(
        f"seeding must be one of ('uniform', 'stationary'), got {mode!r}"
    )


# ----------------------------------------------------------------------
# step kernels (native dispatch + pure-Python mirrors)
# ----------------------------------------------------------------------
def _check_frontier_start(graph: CSRGraph, positions: np.ndarray) -> None:
    """Reject isolated frontier seeds, vectorized.

    Sessions re-enter the frontier runners once per advance, so a
    per-walker Python loop of numpy scalar reads would tax every chunk.
    """
    start_degrees = graph.indptr[positions + 1] - graph.indptr[positions]
    if positions.size and not start_degrees.all():
        isolated = int(positions[int(np.argmin(start_degrees != 0))])
        raise ValueError(
            f"initial vertex {isolated} is isolated; FS cannot walk from it"
        )


def _fold(
    graph: CSRGraph, block: Optional[FusedBlock], record: Record
) -> Optional[Record]:
    """Finish a pure-Python run: hand ``record`` back on the trace path,
    or fold its ``(sources, targets, ...)`` into ``block`` (returning
    ``None``), the vectorized mirror of the kernels' block path."""
    if block is None:
        return record
    block.fold_step_arrays(degrees_array(graph), record[0], record[1])
    return None


def run_random_walk(
    graph: CSRGraph,
    walkers: Sequence[int],
    steps: int,
    rng: np.random.Generator,
    block: Optional[FusedBlock] = None,
) -> Tuple[List[int], Optional[Record]]:
    """SRW: ``steps`` steps for each of ``walkers`` (start vertices; a
    bare vertex is one walker), walker by walker — SingleRW is one
    walker, MultipleRW many.

    One ``rng.random(len(walkers) * steps)`` block feeds the walk,
    walker ``w`` reading the ``steps`` uniforms at ``w * steps``.
    Returns ``(final_walkers, record)`` with the walker-major step
    record ``(sources, targets)`` — or ``None`` when a ``block`` is
    given, the steps then being folded into it.  ``walkers`` itself is
    never modified.

    A step from a zero-degree vertex raises ``ValueError`` naming it;
    the ``block`` and the calling session must then be discarded (see
    the module docstring).
    """
    positions = np.array(walkers, dtype=np.int64, ndmin=1)
    uniforms = rng.random(positions.size * steps)
    if _native.available():
        record = _native.rw_steps_acc(
            graph, positions, uniforms, positions.size * steps, block
        )
        return positions.tolist(), record
    degree_of, neighbor_at = _accessors(graph)
    draws = uniforms.tolist()
    finals: List[int] = []
    sources: List[int] = []
    targets: List[int] = []
    for w, current in enumerate(positions.tolist()):
        for u in draws[w * steps : (w + 1) * steps]:
            degree = degree_of(current)
            if degree <= 0:
                raise _native.isolated(current)
            nxt = neighbor_at(current, _scale(u, degree))
            sources.append(current)
            targets.append(nxt)
            current = nxt
        finals.append(current)
    record = (
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
    )
    return finals, _fold(graph, block, record)


def run_frontier(
    graph: CSRGraph,
    frontier: Sequence[int],
    steps: int,
    rng: np.random.Generator,
    walker_selection: str = "degree",
    block: Optional[FusedBlock] = None,
) -> Tuple[List[int], Optional[Record]]:
    """FS from ``frontier`` (never modified; the walk runs on a copy).

    Returns ``(final_frontier, record)`` with the step record
    ``(sources, targets, walker_indices)`` — or ``None`` when a
    ``block`` is given, the steps then being folded into it.  Degree
    selection consumes one uniform per step, found by a linear
    cumulative-degree scan here and by the kernel's Fenwick descent,
    which pick the same walker; the uniform-walker ablation consumes
    two.

    Degree selection raises ``ValueError`` once the frontier's total
    degree is zero; uniform selection raises one naming the vertex when
    it picks a walker standing on a zero-degree vertex.  The ``block``
    and the calling session must then be discarded.
    """
    if walker_selection not in ("degree", "uniform"):
        raise ValueError(
            "walker_selection must be 'degree' or 'uniform',"
            f" got {walker_selection!r}"
        )
    positions_array = np.array(frontier, dtype=np.int64)
    _check_frontier_start(graph, positions_array)
    degree_selection = walker_selection == "degree"
    uniforms = rng.random(steps if degree_selection else 2 * steps)
    if _native.available():
        record = _native.fs_steps_acc(
            graph, positions_array, uniforms, steps, degree_selection, block
        )
        return positions_array.tolist(), record
    degree_of, neighbor_at = _accessors(graph)
    draws = uniforms.tolist()
    positions = positions_array.tolist()
    m = len(positions)
    total = sum(degree_of(v) for v in positions)
    sources: List[int] = []
    targets: List[int] = []
    walker_of: List[int] = []
    for k in range(steps):
        if degree_selection:
            if total <= 0:
                raise ValueError(
                    "frontier reached a state with zero total degree"
                )
            target = _scale(draws[k], total)
            acc = 0
            idx = 0
            while True:
                degree = degree_of(positions[idx])
                if target < acc + degree:
                    offset = target - acc
                    break
                acc += degree
                idx += 1
        else:
            idx = _scale(draws[2 * k], m)
            degree = degree_of(positions[idx])
            if degree <= 0:
                raise _native.isolated(positions[idx])
            offset = _scale(draws[2 * k + 1], degree)
        current = positions[idx]
        old_degree = degree_of(current)
        nxt = neighbor_at(current, offset)
        sources.append(current)
        targets.append(nxt)
        walker_of.append(idx)
        positions[idx] = nxt
        total += degree_of(nxt) - old_degree
    record = (
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(walker_of, dtype=np.int64),
    )
    return positions, _fold(graph, block, record)


def run_metropolis(
    graph: CSRGraph,
    start: int,
    steps: int,
    rng: np.random.Generator,
    block: Optional[FusedBlock] = None,
) -> Tuple[int, Optional[Record]]:
    """MH from ``start``; two uniforms per step.

    Returns ``(final, record)`` with the step record ``(edge_sources,
    edge_targets, visited)``: accepted transitions only appear in the
    edge arrays, while ``visited`` records the position after every
    step.  With a ``block`` the accepted transitions fold into it
    instead (``block.steps`` grows by the accepted count, mirroring
    ``ArrayMetropolisTrace.step_targets``) and ``record`` is ``None``.

    A step from a zero-degree vertex raises ``ValueError`` naming it;
    the ``block`` and the calling session must then be discarded.
    """
    uniforms = rng.random(2 * steps)
    if _native.available():
        return _native.mh_steps_acc(graph, start, uniforms, steps, block)
    degree_of, neighbor_at = _accessors(graph)
    draws = uniforms.tolist()
    edge_sources: List[int] = []
    edge_targets: List[int] = []
    visited: List[int] = []
    current = int(start)
    for k in range(steps):
        degree_u = degree_of(current)
        if degree_u <= 0:
            raise _native.isolated(current)
        proposal = neighbor_at(current, _scale(draws[2 * k], degree_u))
        degree_v = degree_of(proposal)
        if draws[2 * k + 1] * degree_v < degree_u:
            edge_sources.append(current)
            edge_targets.append(proposal)
            current = proposal
        visited.append(current)
    record = (
        np.asarray(edge_sources, dtype=np.int64),
        np.asarray(edge_targets, dtype=np.int64),
        np.asarray(visited, dtype=np.int64),
    )
    return current, _fold(graph, block, record)
