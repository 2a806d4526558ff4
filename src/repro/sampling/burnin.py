"""Burn-in handling (Section 4.3).

The MCMC literature's standard transient mitigation is to discard the
first ``w`` samples of a walk.  The paper points out two problems with
it — it only addresses non-stationarity (not trapping), and ``w`` is
hard to choose when the graph is unknown — and proposes FS instead.
These helpers make burn-in available so the comparison can be run (the
burn-in ablation benchmark quantifies both problems).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Union

import numpy as np

from repro.sampling.base import WalkTrace
from repro.sampling.metropolis import MetropolisTrace
from repro.sampling.vectorized import ArrayMetropolisTrace, ArrayWalkTrace


def _accepted_within(start: int, visited: Sequence[int], proposals: int) -> int:
    """How many of a Metropolis walk's first ``proposals`` proposals
    were accepted.  Graphs have no self-loops, so a proposal was
    accepted exactly when the walker's position changed."""
    positions = np.asarray(visited[:proposals], dtype=np.int64)
    previous = np.concatenate(([start], positions))[:-1]
    return int(np.count_nonzero(positions != previous))


def _discard_array(trace: ArrayWalkTrace, burn_in: int) -> ArrayWalkTrace:
    """:func:`discard_burn_in` on the csr backend's array traces."""
    if isinstance(trace, ArrayMetropolisTrace):
        accepted = _accepted_within(
            trace.initial_vertices[0], trace.visited_array, burn_in
        )
        return ArrayMetropolisTrace(
            trace.method,
            trace.step_sources[accepted:],
            trace.step_targets[accepted:],
            list(trace.initial_vertices),
            trace.budget,
            trace.seed_cost,
            visited_array=trace.visited_array[burn_in:],
        )
    walkers = trace.step_walkers
    kept: Union[slice, np.ndarray] = slice(burn_in, None)
    if walkers is not None:
        # Each walker's steps in walker-major order, as the list path
        # groups them, minus that walker's first ``per_walker_burn``.
        per_walker_burn = max(1, burn_in // len(trace.initial_vertices))
        order = np.argsort(walkers, kind="stable")
        grouped = walkers[order]
        starts = np.searchsorted(grouped, grouped)
        kept = order[np.arange(grouped.size) - starts >= per_walker_burn]
    return ArrayWalkTrace(
        trace.method,
        trace.step_sources[kept],
        trace.step_targets[kept],
        list(trace.initial_vertices),
        trace.budget,
        trace.seed_cost,
        step_walkers=None if walkers is None else walkers[kept],
    )


def discard_burn_in(trace: WalkTrace, burn_in: int) -> WalkTrace:
    """A copy of ``trace`` with its first ``burn_in`` samples removed.

    For multi-walker traces the *per-walker* prefixes are dropped
    proportionally (each walker discards ``burn_in / m`` of its own
    steps, at least one), matching how a practitioner would burn in m
    independent chains; the kept steps are grouped walker by walker,
    and ``walker_indices`` names each one's walker.  A Metropolis trace
    burns in proposals: ``visited`` keeps its entries from proposal
    ``burn_in`` on, and the edges only the transitions accepted there.
    Both backends' traces are accepted and keep their type.  The
    returned trace's budget still reflects the full spend — burned
    samples are paid for, just not used.
    """
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if burn_in == 0:
        return trace
    if isinstance(trace, ArrayWalkTrace):
        return _discard_array(trace, burn_in)
    if isinstance(trace, MetropolisTrace):
        accepted = _accepted_within(
            trace.initial_vertices[0], trace.visited, burn_in
        )
        burned = MetropolisTrace(
            method=trace.method,
            edges=trace.edges[accepted:],
            initial_vertices=list(trace.initial_vertices),
            budget=trace.budget,
            seed_cost=trace.seed_cost,
        )
        burned.visited = trace.visited[burn_in:]
        return burned
    if trace.per_walker is None:
        return replace(
            trace,
            edges=trace.edges[burn_in:],
            per_walker=None,
            walker_indices=None,
        )
    num_walkers = len(trace.per_walker)
    per_walker_burn = max(1, burn_in // num_walkers)
    kept_per_walker: List[List] = [
        edges[per_walker_burn:] for edges in trace.per_walker
    ]
    return replace(
        trace,
        edges=[e for edges in kept_per_walker for e in edges],
        per_walker=kept_per_walker,
        walker_indices=[
            w for w, edges in enumerate(kept_per_walker) for _ in edges
        ],
    )


def effective_sample_count(trace: WalkTrace, burn_in: int) -> int:
    """Samples left after burn-in (0 when burn-in eats everything)."""
    return max(0, trace.num_steps - burn_in)
