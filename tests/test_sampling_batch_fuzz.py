"""Batched walks against lone sessions, fuzzed on degenerate graphs.

``record_checkpoints`` walks a batch of sessions of one type on one CSR
with one kernel call per checkpoint, the kernels stepping the batch's
independent chains in lockstep.  Every replicate of a batch must come
out exactly as its session run alone: the same items (block counts and
edge keys, or the step record), the same final walker state and the
same generator state.  The reference is each session run alone on the
pure-Python kernels; the batch runs on both kernel paths.

The graphs are the shapes where index arithmetic goes wrong: paths,
stars, a single edge, cycles, and frontiers or walker sets larger than
the graph.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.generators.classic import cycle_graph, path_graph, star_graph
from repro.graph.csr import get_csr
from repro.sampling import _native
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import FusedBlock, FusedNeeds
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.session import record_checkpoints
from repro.sampling.single import SingleRandomWalk

PATHS = ["csr-python"] + (["csr-native"] if _native.available() else [])
ALL_STATS = FusedNeeds(degree_counts=True, visit_counts=True, edge_keys=True)

GRAPHS = {
    "single-edge": lambda size: path_graph(2),
    "path": lambda size: path_graph(size),
    "star": lambda size: star_graph(size - 1),
    "cycle": lambda size: cycle_graph(max(3, size)),
}


@contextlib.contextmanager
def kernel_path(label):
    with pytest.MonkeyPatch.context() as patch:
        if label == "csr-python":
            patch.setenv("REPRO_NO_NATIVE", "1")
        else:
            patch.delenv("REPRO_NO_NATIVE", raising=False)
        yield


def _sampler(kind: str, walkers: int):
    if kind == "srw":
        return SingleRandomWalk(backend="csr")
    if kind == "mrw":
        return MultipleRandomWalk(walkers, backend="csr")
    if kind == "mhrw":
        return MetropolisHastingsWalk(backend="csr")
    selection = "degree" if kind == "fs-degree" else "uniform"
    return FrontierSampler(walkers, walker_selection=selection, backend="csr")


def _state(session):
    """A session's walker state and generator state."""
    walkers = getattr(session, "frontier", None)
    if walkers is None:
        walkers = getattr(session, "positions", None)
    if walkers is None:
        walkers = [session.position]
    return list(walkers), session.rng.bit_generator.state


def _item(item):
    """An item's contents as comparable plain values."""
    if isinstance(item, FusedBlock):
        return (
            item.steps,
            item.deg_counts.tolist(),
            item.visit_counts.tolist(),
            item.edge_key_array().tolist(),
        )
    visited = getattr(item, "visited_array", None)
    return (
        item.step_sources.tolist(),
        item.step_targets.tolist(),
        None if item.step_walkers is None else item.step_walkers.tolist(),
        None if visited is None else visited.tolist(),
    )


def _run(sessions, checkpoints, needs):
    rows = record_checkpoints(sessions, "steps", checkpoints, needs)
    return [
        ([_item(item) for item in items], steps, _state(session))
        for (items, steps), session in zip(rows, sessions)
    ]


@settings(max_examples=150, deadline=None)
@example("star", 5, "fs-degree", 3, 3, [20], True, 0)
@example("path", 6, "fs-uniform", 9, 9, [7, 0, 11], False, 1)
@example("single-edge", 2, "mrw", 12, 8, [4, 9], True, 2)
@example("cycle", 3, "mhrw", 1, 9, [25], False, 3)
@given(
    graph_name=st.sampled_from(sorted(GRAPHS)),
    size=st.integers(min_value=2, max_value=7),
    kind=st.sampled_from(["srw", "mrw", "mhrw", "fs-degree", "fs-uniform"]),
    walkers=st.integers(min_value=1, max_value=12),
    batch=st.integers(min_value=1, max_value=9),
    increments=st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=3
    ),
    block_path=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_equals_lone_sessions(
    graph_name, size, kind, walkers, batch, increments, block_path, seed
):
    csr = get_csr(GRAPHS[graph_name](size))
    sampler = _sampler(kind, walkers)
    checkpoints = np.cumsum(increments).tolist()
    needs = ALL_STATS if block_path else None
    seeds = [seed + index for index in range(batch)]
    with kernel_path("csr-python"):
        expected = [
            _run([sampler.start(csr, rng=s)], checkpoints, needs)[0]
            for s in seeds
        ]
    for label in PATHS:
        with kernel_path(label):
            sessions = [sampler.start(csr, rng=s) for s in seeds]
            assert _run(sessions, checkpoints, needs) == expected, label


@pytest.mark.parametrize("label", PATHS)
def test_mixed_batches_split_into_kernel_calls(label):
    """Sessions of different types, walker counts or step deltas in
    one batch each still equal their lone runs."""
    csr = get_csr(cycle_graph(6))
    samplers = [
        SingleRandomWalk(backend="csr"),
        MultipleRandomWalk(2, backend="csr"),
        MultipleRandomWalk(3, backend="csr"),
        FrontierSampler(2, backend="csr"),
        FrontierSampler(2, walker_selection="uniform", backend="csr"),
    ]
    with kernel_path("csr-python"):
        expected = []
        for index, sampler in enumerate(samplers):
            session = sampler.start(csr, rng=index)
            session.advance(index)
            expected.append(_run([session], [10, 12], ALL_STATS)[0])
    with kernel_path(label):
        sessions = []
        for index, sampler in enumerate(samplers):
            session = sampler.start(csr, rng=index)
            session.advance(index)
            sessions.append(session)
        assert _run(sessions, [10, 12], ALL_STATS) == expected
