"""Walks that reach a vertex with no neighbours.

A validated graph is symmetric, so every vertex a walker reaches can be
left again.  ``CSRGraph(..., validate=False)`` — the form an unvalidated
mmap load yields — skips that check, and a walker can then arrive on a
zero-degree vertex.  Stepping from it would index before its row; every
walk must instead raise a ``ValueError`` naming the vertex, on both
kernel paths and on both the trace and the block path.

A walk of several independent chains (the walkers of MultipleRW, the
replicates of a batch) names the vertex of the lowest-indexed stuck
chain, replicate first, then walker: the chain a walk of the chains
one after another stops at, whichever chain gets stuck first in time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.sampling import _native
from repro.sampling import vectorized as vec
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import FusedBlock, FusedNeeds
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.session import record_checkpoints
from repro.sampling.single import SingleRandomWalk

PATHS = ["csr-python"] + (["csr-native"] if _native.available() else [])


@pytest.fixture(params=PATHS)
def kernel(request, monkeypatch):
    """Run the test on one kernel path (``REPRO_NO_NATIVE`` switches)."""
    if request.param == "csr-python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    return request.param


def dead_end() -> CSRGraph:
    """Arcs 2 -> 1 -> 0; vertex 0 has no neighbours."""
    return CSRGraph(np.array([0, 0, 1, 2]), np.array([0, 1]), validate=False)


def triangle_and_dead_ends() -> CSRGraph:
    """Triangle 3-4-5, arcs 2 -> 1 -> 0 and 7 -> 6 (twice); vertices 0
    and 6 have no neighbours."""
    return CSRGraph(
        np.array([0, 0, 1, 2, 4, 6, 8, 8, 10]),
        np.array([0, 1, 4, 5, 3, 5, 3, 4, 6, 6]),
        validate=False,
    )


def _block(graph: CSRGraph) -> FusedBlock:
    needs = FusedNeeds(degree_counts=True, visit_counts=True, edge_keys=True)
    return FusedBlock(needs, graph.num_vertices, graph.max_degree())


def test_single_walk(kernel):
    session = SingleRandomWalk(backend="csr").start(
        dead_end(), rng=1, initial_vertices=[2]
    )
    with pytest.raises(ValueError, match="isolated vertex 0"):
        session.advance(5)


@pytest.mark.parametrize(
    "starts, stuck", [([2, 3], 0), ([3, 7], 6), ([7, 2], 6), ([2, 7], 0)]
)
def test_multiple_walk_names_the_stuck_walkers_vertex(kernel, starts, stuck):
    # In ([2, 7], 0) walker 1 is stuck at step 1 and walker 0 at step 2.
    session = MultipleRandomWalk(2, backend="csr").start(
        triangle_and_dead_ends(), rng=1, initial_vertices=starts
    )
    with pytest.raises(ValueError, match=f"isolated vertex {stuck}"):
        session.advance(5)


@pytest.mark.parametrize("with_block", [False, True])
def test_batch_names_the_lowest_stuck_replicate(kernel, with_block):
    """Replicate 1 (from 7) is stuck at step 1, before replicate 0 (from
    2) is stuck at step 2; the error names replicate 0's vertex."""
    graph = triangle_and_dead_ends()
    rngs = [np.random.default_rng(seed) for seed in (0, 1)]
    blocks = [_block(graph), _block(graph)] if with_block else None
    with pytest.raises(ValueError, match="isolated vertex 0"):
        vec.run_random_walk(graph, [[2], [7]], 5, rngs, blocks)
    with pytest.raises(ValueError, match="isolated vertex 0"):
        vec.run_random_walk(graph, [[2, 3], [7, 3]], 5, rngs, blocks)
    with pytest.raises(ValueError, match="isolated vertex 0"):
        vec.run_metropolis(graph, [2, 7], 5, rngs, blocks)


@pytest.mark.parametrize("needs", [None, FusedNeeds(degree_counts=True)])
def test_session_batch_names_the_lowest_stuck_replicate(kernel, needs):
    graph = triangle_and_dead_ends()
    sessions = [
        MultipleRandomWalk(2, backend="csr").start(
            graph, rng=seed, initial_vertices=starts
        )
        for seed, starts in enumerate(([3, 2], [7, 3]))
    ]
    with pytest.raises(ValueError, match="isolated vertex 0"):
        record_checkpoints(sessions, "steps", [5], needs)


def test_metropolis_walk(kernel):
    # Any seed reaches 0: proposals onto a zero-degree vertex are
    # always accepted.
    session = MetropolisHastingsWalk(backend="csr").start(dead_end(), rng=1)
    with pytest.raises(ValueError, match="isolated vertex 0"):
        session.advance(5)


@pytest.mark.parametrize("with_block", [False, True])
def test_runners(kernel, with_block):
    graph = dead_end()
    block = _block(graph) if with_block else None
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="isolated vertex 0"):
        vec.run_random_walk(graph, [2], 5, rng, block)
    with pytest.raises(ValueError, match="isolated vertex 0"):
        vec.run_metropolis(graph, 2, 5, rng, block)


@pytest.mark.parametrize(
    "selection, error",
    [("degree", "zero total degree"), ("uniform", "isolated vertex 0")],
    ids=["degree", "uniform"],
)
def test_frontier_regression(kernel, selection, error):
    """Degree selection never picks a zero-degree walker and fails once
    the frontier's total degree is zero; uniform selection can pick a
    stuck walker, and the step from it fails naming the vertex."""
    session = FrontierSampler(
        2, walker_selection=selection, backend="csr"
    ).start(dead_end(), rng=1, initial_vertices=[2, 2])
    with pytest.raises(ValueError, match=error):
        session.advance(5)
