"""Sampler contract, traces, budgets and walker seeding.

Budget semantics follow the paper (Section 2): every vertex query has
unit cost and the total budget is ``B``.  One random-walk step is one
query.  Sampling one uniform random vertex costs ``seed_cost`` (the
paper's ``c``), which exceeds 1 when the user-id space is sparse — the
hit-ratio experiments of Section 6.4 set ``seed_cost = 1 / hit_ratio``.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.graph.csr import CSRGraph, get_csr
from repro.graph.graph import Graph
from repro.util.alias import AliasTable
from repro.util.backends import check_backend_name
from repro.util.rng import RngLike

Edge = Tuple[int, int]

#: How walkers choose their initial vertices.
#: - "uniform": independent uniform vertices (what a practitioner can
#:   actually do; the regime where FS shines).
#: - "stationary": independent degree-proportional vertices (walkers
#:   start in steady state; used by Figure 11).
SeedingMode = str

_VALID_SEEDING = ("uniform", "stationary")

#: Which execution substrate a sampler runs on.
#: - "list": the interpreted per-step walkers over adjacency-list
#:   graphs (the original, paper-literal implementation).
#: - "csr": the batch engine over CSR arrays
#:   (:mod:`repro.sampling.vectorized`), native-accelerated when a C
#:   compiler is available.  Uses the numpy block-draw protocol, so
#:   its streams differ from the list backend's for the same seed.
Backend = str


def check_backend(backend: Optional[Backend]) -> Optional[Backend]:
    """Validate a backend choice early (``None`` = decide by graph type).

    Names are checked by :func:`repro.util.backends.check_backend_name`,
    the one validation point the graph-I/O and dataset layers share.
    """
    return None if backend is None else check_backend_name(backend)


def resolve_backend(backend: Optional[Backend], graph=None) -> Backend:
    """The backend a ``sample`` call should run on.

    An explicit sampler setting wins; otherwise the graph's type
    decides: "csr" for a :class:`~repro.graph.csr.CSRGraph`, "list"
    for anything else.  A ``CSRGraph`` input conflicts loudly with an
    explicit "list" request (the interpreted walkers cannot run on
    packed arrays).
    """
    check_backend(backend)
    if isinstance(graph, CSRGraph):
        if backend == "list":
            raise TypeError(
                "backend='list' cannot sample a CSRGraph; convert with"
                " to_graph() or drop the explicit backend"
            )
        return "csr"
    return backend or "list"


@dataclass
class WalkTrace:
    """Output of an edge-sampling (random-walk family) run.

    ``edges[i] = (u_i, v_i)`` is the i-th sampled edge in the order the
    coordinated process emitted it; ``v_i`` is the walker's position
    after the step.  ``per_walker`` optionally groups the same edges by
    the walker that produced them (diagnostics; estimators use the flat
    sequence).
    """

    method: str
    edges: List[Edge]
    initial_vertices: List[int]
    budget: float
    seed_cost: float
    per_walker: Optional[List[List[Edge]]] = None
    #: For coordinated multi-walker samplers (FS, DFS): which walker
    #: made step i.  Lets analyses replay the exact frontier state
    #: sequence.  None for samplers without that notion.
    walker_indices: Optional[List[int]] = None

    @property
    def num_steps(self) -> int:
        return len(self.edges)

    @property
    def visited_vertices(self) -> List[int]:
        """The walker-position sequence ``v_1, ..., v_B`` (estimator input)."""
        return [v for _, v in self.edges]

    def spent(self) -> float:
        """Budget consumed: seeds plus one unit per step."""
        return self.seed_cost * len(self.initial_vertices) + len(self.edges)


@dataclass
class VertexTrace:
    """Output of independent random vertex sampling.

    ``vertices`` holds only the *valid* hits; the budget also paid for
    the misses implied by the hit ratio.
    """

    method: str
    vertices: List[int]
    budget: float
    cost_per_sample: float

    @property
    def num_samples(self) -> int:
        return len(self.vertices)


class Sampler(abc.ABC):
    """A sampling method runnable on any :class:`Graph`.

    The primary entry point is :meth:`start`, which returns a
    :class:`~repro.sampling.session.SamplerSession` — a resumable,
    incremental run whose walkers keep their state between calls.
    :meth:`sample` is a thin convenience wrapper (start, advance to the
    budget, return the trace) kept for one-shot callers; both paths
    consume the random stream identically, so ``sample`` produces the
    exact trace the pre-session API did.
    """

    #: Human-readable method name used in result tables.
    name: str = "sampler"

    @abc.abstractmethod
    def start(self, graph: Graph, rng: RngLike = None):
        """Begin an incremental sampling session on ``graph``.

        Draws the initial walker positions (paying their ``seed_cost``)
        and returns a :class:`~repro.sampling.session.SamplerSession`
        ready to :meth:`~repro.sampling.session.SamplerSession.advance`.
        """

    def sample(self, graph: Graph, budget: float, rng: RngLike = None):
        """Spend ``budget`` vertex-query units sampling ``graph``.

        Equivalent to ``start(graph, rng)`` followed by one
        ``advance_budget(budget)``; returns the session's
        :class:`WalkTrace` or :class:`VertexTrace`.
        """
        session = self.start(graph, rng=rng)
        session.advance_budget(budget)
        return session.trace()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def uniform_seeds(graph: Graph, count: int, rng: random.Random) -> List[int]:
    """``count`` independent uniform vertices (with replacement).

    Uniform over the walkable (degree >= 1) vertices, matching the
    paper's random vertex sampling of valid user ids: isolated ids can
    never be walked from.  They are read, ascending, off the graph's
    cached CSR (:meth:`~repro.graph.csr.CSRGraph.walkable`).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    walkable = get_csr(graph).walkable()
    if walkable.size == 0:
        raise ValueError("graph has no vertices with positive degree")
    return walkable[[rng.randrange(walkable.size) for _ in range(count)]].tolist()


def stationary_seeds(graph: Graph, count: int, rng: random.Random) -> List[int]:
    """``count`` independent degree-proportional vertices.

    Starting a walker at a vertex drawn with probability
    ``deg(v)/vol(V)`` is exactly starting it in steady state
    (Section 4.5's ideal, realized by Figure 11's experiment).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if graph.num_edges == 0:
        raise ValueError("graph has no edges; stationary law is undefined")
    table = AliasTable(graph.degrees())
    return [table.sample(rng) for _ in range(count)]


def make_seeds(
    graph: Graph, count: int, mode: SeedingMode, rng: random.Random
) -> List[int]:
    """Dispatch on the seeding mode."""
    if mode == "uniform":
        return uniform_seeds(graph, count, rng)
    if mode == "stationary":
        return stationary_seeds(graph, count, rng)
    raise ValueError(
        f"seeding must be one of {_VALID_SEEDING}, got {mode!r}"
    )


def check_pinned_seeds(initial_vertices, dimension: int) -> None:
    """Validate explicitly pinned walker seeds against the dimension.

    Shared by FS and DFS ``start(initial_vertices=...)`` so the
    pinned-seed contract lives in one place.
    """
    if len(initial_vertices) != dimension:
        raise ValueError(
            f"expected {dimension} initial vertices,"
            f" got {len(initial_vertices)}"
        )


def require_walkable_seeds(
    graph, vertices, reason: str = "cannot walk from it"
) -> None:
    """Raise if any seed is isolated (works on either graph backend)."""
    for v in vertices:
        if graph.degree(v) == 0:
            raise ValueError(f"initial vertex {v} is isolated; {reason}")


def check_seeding(mode: SeedingMode) -> SeedingMode:
    """Validate a seeding mode early (at sampler construction)."""
    if mode not in _VALID_SEEDING:
        raise ValueError(
            f"seeding must be one of {_VALID_SEEDING}, got {mode!r}"
        )
    return mode


def steps_within_budget(
    budget: float,
    num_walkers: int = 1,
    seed_cost: float = 1.0,
    split: bool = False,
) -> int:
    """The audited budget→steps rule every sampler and session shares.

    Budget semantics follow the paper (Section 2): each of the ``m``
    walkers' seeds costs ``c = seed_cost`` and every walk step costs one
    unit.

    - ``split=False`` (coordinated walkers — SingleRW, FS, DFS, MRW):
      the walkers share the budget, so the *total* step allowance is
      ``int(B - m*c)``, floored at 0 (Algorithm 1's ``until n >= B - mc``).
    - ``split=True`` (independent walkers — MultipleRW): the budget is
      divided evenly and each walker pays its own seed, so the
      *per-walker* allowance is ``int(B/m - c)``, floored at 0
      (Section 4.4).

    Truncation (not rounding) matches a crawler that cannot afford a
    fraction of a query; fractional budgets and seed costs are
    therefore legal inputs and simply leave change unspent.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if num_walkers < 1:
        raise ValueError(f"num_walkers must be >= 1, got {num_walkers}")
    if seed_cost < 0:
        raise ValueError(f"seed_cost must be >= 0, got {seed_cost}")
    if split:
        return max(0, int(budget / num_walkers - seed_cost))
    return max(0, int(budget - num_walkers * seed_cost))


def walk_steps(budget: float, num_walkers: int, seed_cost: float) -> int:
    """Total steps for walkers sharing a budget: ``int(B - m*c)``.

    Thin alias of :func:`steps_within_budget` kept for callers of the
    historical name.
    """
    return steps_within_budget(budget, num_walkers, seed_cost)


def multiple_walk_steps(
    budget: float, num_walkers: int, seed_cost: float
) -> int:
    """Steps *per walker* for independent walkers splitting a budget.

    Thin alias of :func:`steps_within_budget(..., split=True)` kept for
    callers of the historical name.
    """
    return steps_within_budget(budget, num_walkers, seed_cost, split=True)
