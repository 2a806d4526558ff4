"""The block path and the trace path share one walk.

Every csr walk has one runner and one kernel; whether a session hands
its accumulators a ``FusedBlock`` (the block path) or a
``take_trace()`` increment (the trace path) depends only on their
``fused_needs()``.  The contracts pinned here:

- a rejected ``advance_into`` changes nothing — not the walkers, not
  the retained record, not the accumulators — on the csr, list and
  sharded sessions, whichever path it would have taken;
- a record retained from plain ``advance`` calls joins the next block,
  so mixing ``advance`` and ``advance_into`` matches a drained twin;
- every ``advance_into`` call hands over exactly one item, which is
  what ``record_checkpoints`` (the engine's and the pool workers'
  checkpoint loop) returns per checkpoint;
- the FS runner walks a copy of its caller's frontier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators.streaming import (
    StreamingAverageDegree,
    StreamingDegreePMF,
    StreamingEdgeFunctional,
)
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    SingleRandomWalk,
)
from repro.sampling import vectorized
from repro.sampling.fused import FusedBlock, FusedNeeds, fusion_disabled
from repro.sampling.session import record_checkpoints
from repro.sampling.sharded import ShardedFrontierSampler

_GRAPH = None


def path_graph():
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = barabasi_albert(300, 2, rng=5)
    return _GRAPH


class Spy:
    """Records every item an ``advance_into`` call hands over."""

    def __init__(self, needs):
        self.needs = needs
        self.items = []

    def fused_needs(self):
        return self.needs

    def update(self, increment):
        self.items.append(increment)

    def absorb_block(self, block):
        self.items.append(block)


SESSIONS = {
    "csr-srw": lambda g: SingleRandomWalk(backend="csr").start(g, rng=1),
    "csr-fs": lambda g: FrontierSampler(4, backend="csr").start(g, rng=1),
    "list-fs": lambda g: FrontierSampler(4, backend="list").start(g, rng=1),
    "sharded": lambda g: ShardedFrontierSampler(4, procs=1).start(g, rng=1),
}

REJECTED_CALLS = [
    {"steps": -1},
    {"budget": -1.0},
    {},
    {"steps": 5, "budget": 10.0},
]


@pytest.mark.parametrize("needs", [None, FusedNeeds(degree_counts=True)])
@pytest.mark.parametrize("kind", sorted(SESSIONS))
def test_rejected_advance_into_changes_nothing(kind, needs):
    session = SESSIONS[kind](path_graph())
    session.advance(40)
    before = session.trace()
    spy = Spy(needs)
    for call in REJECTED_CALLS:
        with pytest.raises(ValueError):
            session.advance_into(spy, **call)
    assert spy.items == []
    assert session.steps_taken == 40
    assert session.trace().edges == before.edges
    # The retained 40 steps are still there for the next valid call.
    session.advance_into(spy, steps=0)
    assert len(spy.items) == 1
    item = spy.items[0]
    folded = item.steps if isinstance(item, FusedBlock) else item.num_steps
    assert folded == len(before.edges)


def estimates(parts):
    return [part.estimate() for part in parts]


def make_parts(graph):
    return [
        StreamingDegreePMF(graph),
        StreamingAverageDegree(graph),
        StreamingEdgeFunctional(lambda u, v: float(2 * u + v)),
    ]


CSR_SAMPLERS = {
    "srw": lambda: SingleRandomWalk(backend="csr"),
    "mhrw": lambda: MetropolisHastingsWalk(backend="csr"),
    "fs": lambda: FrontierSampler(6, backend="csr"),
    "mrw": lambda: MultipleRandomWalk(4, backend="csr"),
}


@pytest.mark.parametrize("key", sorted(CSR_SAMPLERS))
def test_retained_record_joins_the_block(key):
    graph = path_graph()
    fused = CSR_SAMPLERS[key]().start(graph, rng=7)
    drained = CSR_SAMPLERS[key]().start(graph, rng=7)
    fused_parts, drained_parts = make_parts(graph), make_parts(graph)
    fused.advance(40)
    assert fused.advance_into(fused_parts, steps=30) == 30
    drained.advance(40)
    drained.advance(30)
    increment = drained.take_trace()
    for part in drained_parts:
        part.update(increment)
    assert estimates(fused_parts) == estimates(drained_parts)
    assert fused.trace().num_steps == 0


@pytest.mark.parametrize("needs", [None, FusedNeeds(degree_counts=True)])
def test_record_checkpoints_returns_one_item_per_checkpoint(needs):
    session = FrontierSampler(4, backend="csr").start(path_graph(), rng=3)
    items, steps = record_checkpoints(session, "steps", [10, 10, 25], needs)
    assert steps == 25
    if needs is None:
        assert [item.num_steps for item in items] == [10, 0, 15]
    else:
        assert all(isinstance(item, FusedBlock) for item in items)
        assert [item.steps for item in items] == [10, 0, 15]


@pytest.mark.parametrize("with_block", [False, True])
@pytest.mark.parametrize("no_native", [False, True])
def test_run_frontier_walks_a_copy(monkeypatch, no_native, with_block):
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    csr = get_csr(path_graph())
    frontier = np.array([0, 5, 9], dtype=np.int64)
    block = (
        FusedBlock(
            FusedNeeds(degree_counts=True),
            csr.num_vertices,
            int(csr.degrees().max()),
        )
        if with_block
        else None
    )
    final, record = vectorized.run_frontier(
        csr, frontier, 50, np.random.default_rng(0), block=block
    )
    assert frontier.tolist() == [0, 5, 9]
    assert len(final) == 3
    assert (record is None) == with_block


def test_fusion_cannot_be_disabled():
    assert fusion_disabled() is False
