"""Single random walk (the paper's SingleRW, Section 4).

At each step the walker at ``v`` picks an incident edge uniformly at
random and crosses it.  On the symmetric graph ``G`` this chain's
stationary law samples *edges* uniformly, hence vertices proportional
to degree.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.graph import Graph
from repro.sampling.base import (
    Backend,
    Sampler,
    SeedingMode,
    check_backend,
    check_pinned_seeds,
    check_seeding,
    resolve_backend,
)
from repro.util.rng import RngLike


class SingleRandomWalk(Sampler):
    """One walker, seeded uniformly (default) or in steady state.

    The single uniform seed costs ``seed_cost`` budget units; the rest
    of the budget is spent on walk steps.
    """

    name = "SingleRW"

    def __init__(
        self,
        seeding: SeedingMode = "uniform",
        seed_cost: float = 1.0,
        backend: Optional[Backend] = None,
    ):
        self.seeding = check_seeding(seeding)
        if seed_cost < 0:
            raise ValueError(f"seed_cost must be >= 0, got {seed_cost}")
        self.seed_cost = seed_cost
        self.backend = check_backend(backend)

    def start(
        self,
        graph: Graph,
        rng: RngLike = None,
        initial_vertices: Optional[List[int]] = None,
    ):
        """Seed one walker and return its incremental session.

        ``initial_vertices`` (a single-element list) pins the walker's
        start instead of drawing a seed — no seed uniforms are
        consumed, matching a walk launched from a known vertex.
        """
        from repro.sampling.session import (
            ArraySingleSession,
            SingleWalkSession,
        )

        if initial_vertices is not None:
            check_pinned_seeds(initial_vertices, 1)
        if resolve_backend(self.backend, graph) == "csr":
            return ArraySingleSession(
                self, graph, rng, initial_vertices=initial_vertices
            )
        return SingleWalkSession(
            self, graph, rng, initial_vertices=initial_vertices
        )

    def __repr__(self) -> str:
        return (
            f"SingleRandomWalk(seeding={self.seeding!r},"
            f" seed_cost={self.seed_cost}, backend={self.backend!r})"
        )
