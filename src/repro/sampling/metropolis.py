"""Metropolis–Hastings random walk (MRW) — uniform-vertex baseline.

Section 7 notes that MRW samples *vertices* uniformly (not edges) by
accepting a proposed move from ``u`` to ``v`` with probability
``min(1, deg(u)/deg(v))`` and staying put otherwise.  The paper cites
[15, 29] showing plain RW estimates beat MRW's; the ablation benchmark
reproduces that comparison.

Because MRW's vertex samples are already uniform, vertex label density
is estimated by the *plain average* over visited vertices — no ``1/deg``
reweighting (see :func:`repro.estimators.vertex_density.vertex_label_density_from_vertices`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.graph import Graph
from repro.sampling.base import (
    Backend,
    Sampler,
    SeedingMode,
    WalkTrace,
    check_backend,
    check_seeding,
    resolve_backend,
)
from repro.util.rng import RngLike


class MetropolisHastingsWalk(Sampler):
    """MH walk targeting the uniform distribution over vertices.

    Rejected proposals re-record the current vertex (a self-transition)
    and consume one budget unit, mirroring the real crawl cost of the
    rejected neighbor query.  The trace stores the *visited vertex*
    sequence via self-edges ``(v, v)`` replaced by the convention of
    recording the proposal edge only on acceptance; estimator code uses
    :attr:`visited` for vertex-level estimates.
    """

    name = "MRW"

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

    def start(self, graph: Graph, rng: RngLike = None):
        """Seed the MH walker and return its incremental session."""
        from repro.sampling.session import (
            ArrayMetropolisSession,
            MetropolisWalkSession,
        )

        if resolve_backend(self.backend, graph) == "csr":
            return ArrayMetropolisSession(self, graph, rng)
        return MetropolisWalkSession(self, graph, rng)

    def __repr__(self) -> str:
        return (
            f"MetropolisHastingsWalk(seeding={self.seeding!r},"
            f" seed_cost={self.seed_cost}, backend={self.backend!r})"
        )


class MetropolisTrace(WalkTrace):
    """WalkTrace plus the full visited-vertex sequence (incl. holds)."""

    visited: List[int]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.visited = []

    def spent(self) -> float:
        """Budget consumed: seeds plus one unit per *proposal*.

        ``edges`` holds only accepted transitions, but a rejected
        proposal still costs its neighbor query (one entry in
        ``visited`` either way), so the count must come from the visit
        sequence, not the edge list.
        """
        return self.seed_cost * len(self.initial_vertices) + len(self.visited)
