"""Table 4's final edge, read off blocks of edge keys.

Table 4 records each replicate's last sampled edge.  On the csr
sessions the engine hands its final-edge accumulator one block of edge
keys per checkpoint, and the accumulator reads the block's last key.
The contracts pinned here:

- after every checkpoint, that edge equals the last edge of the trace
  path's increments so far: SRW's last step, MultipleRW's last
  walker's last step, MHRW's last accepted proposal, FS's last step
  under either walker selection — for batches of 1–9 replicates, on
  both kernel paths;
- a replicate whose budget buys no step has no final edge (``None``);
- Table 4 on the csr sessions calls ``take_trace`` zero times and
  builds no ``TraceCollector``; on the list walkers it reads traces.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import tables
from repro.experiments.engine import TraceCollector
from repro.experiments.tables import _FinalEdge
from repro.generators.classic import cycle_graph, path_graph, star_graph
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.sampling import _native
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import FusedNeeds
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.session import SamplerSession, record_checkpoints
from repro.sampling.single import SingleRandomWalk

PATHS = ["csr-python"] + (["csr-native"] if _native.available() else [])
EDGE_KEYS = FusedNeeds(edge_keys=True)

GRAPHS = {
    "path": lambda size: path_graph(size),
    "star": lambda size: star_graph(size - 1),
    "cycle": lambda size: cycle_graph(max(3, size)),
    "ba": lambda size: barabasi_albert(10 * size, 2, rng=size),
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


def trace_last_edges(increments):
    """The last edge of the trace increments so far, per checkpoint."""
    last, edges = None, []
    for increment in increments:
        if increment.step_targets.size:
            last = (
                int(increment.step_sources[-1]),
                int(increment.step_targets[-1]),
            )
        edges.append(last)
    return edges


def block_final_edges(blocks):
    """The final-edge accumulator's snapshot after each block."""
    final = _FinalEdge()
    return [final.absorb_block(block).edge for block in blocks]


@settings(max_examples=120, deadline=None)
@example("star", 5, "mrw", 3, 9, [4, 0, 7], 0)
@example("path", 4, "mhrw", 1, 5, [0, 6], 1)
@example("cycle", 6, "fs-uniform", 9, 1, [3, 3], 2)
@example("ba", 5, "fs-degree", 6, 8, [10, 1, 20], 3)
@given(
    graph_name=st.sampled_from(sorted(GRAPHS)),
    size=st.integers(min_value=2, max_value=7),
    kind=st.sampled_from(["srw", "mrw", "mhrw", "fs-degree", "fs-uniform"]),
    walkers=st.integers(min_value=1, max_value=10),
    batch=st.integers(min_value=1, max_value=9),
    increments=st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=4
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_final_edge_of_blocks_is_the_trace_last_edge(
    graph_name, size, kind, walkers, batch, increments, seed
):
    csr = get_csr(GRAPHS[graph_name](size))
    sampler = _sampler(kind, walkers)
    checkpoints = np.cumsum(increments).tolist()
    seeds = [seed + index for index in range(batch)]
    for label in PATHS:
        with kernel_path(label):
            traced = record_checkpoints(
                [sampler.start(csr, rng=s) for s in seeds],
                "steps",
                checkpoints,
                None,
            )
            blocked = record_checkpoints(
                [sampler.start(csr, rng=s) for s in seeds],
                "steps",
                checkpoints,
                EDGE_KEYS,
            )
        for (trace_items, _), (blocks, _) in zip(traced, blocked):
            expected = trace_last_edges(trace_items)
            assert block_final_edges(blocks) == expected, label


@pytest.mark.parametrize("label", PATHS)
def test_replicate_without_a_step_has_no_final_edge(label):
    """Four FS seeds cost 4 budget units: budgets 2 and 4 buy no step."""
    csr = get_csr(cycle_graph(6))
    sampler = FrontierSampler(4, backend="csr")
    with kernel_path(label):
        rows = record_checkpoints(
            [sampler.start(csr, rng=seed) for seed in range(3)],
            "budget",
            [2.0, 4.0, 9.0],
            EDGE_KEYS,
        )
    for blocks, steps in rows:
        assert steps == 5
        edges = block_final_edges(blocks)
        assert edges[:2] == [None, None]
        assert edges[2] is not None


@pytest.mark.parametrize(
    "kwargs,reads_traces",
    [({"procs": 1}, False), ({"backend": "csr"}, False), ({}, True)],
)
def test_table4_reads_traces_only_on_the_list_walkers(
    monkeypatch, kwargs, reads_traces
):
    calls = {"take_trace": 0, "collectors": 0}
    take_trace = SamplerSession.take_trace
    collector_init = TraceCollector.__init__

    def spy_take_trace(self):
        calls["take_trace"] += 1
        return take_trace(self)

    def spy_collector_init(self):
        calls["collectors"] += 1
        collector_init(self)

    monkeypatch.setattr(SamplerSession, "take_trace", spy_take_trace)
    monkeypatch.setattr(TraceCollector, "__init__", spy_collector_init)
    result = tables.table4(graph_size=40, num_walkers=4, mc_runs=20, **kwargs)
    assert len(result.rows) == 3
    assert calls["collectors"] == 0
    assert (calls["take_trace"] > 0) == reads_traces
