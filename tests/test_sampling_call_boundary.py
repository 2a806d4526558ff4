"""The csr walk layer's call boundary.

- MultipleRW advances all of its walkers in one kernel call, whose
  ``steps`` argument (the 4th positional one) is the call's total.
- A walk reads ``REPRO_NO_NATIVE`` once per call, in the runner.
- A ``CSRGraph`` binds its kernel pointers and walkable set once and
  keeps them, but pickles and copies carry none of its derived caches;
  a session resumed on such a copy continues bit-identically.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.generators.ba import barabasi_albert
from repro.graph.csr import CSRGraph, get_csr
from repro.sampling import _native
from repro.sampling.fused import FusedNeeds
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.session import load_session, record_checkpoints
from repro.sampling.single import SingleRandomWalk

NATIVE = _native.available()
PATHS = ["csr-python"] + (["csr-native"] if NATIVE else [])
needs_native = pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")


@pytest.fixture(params=PATHS)
def kernel(request, monkeypatch):
    """Run the test on one kernel path (``REPRO_NO_NATIVE`` switches)."""
    if request.param == "csr-python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    return request.param


@pytest.fixture
def graph():
    return barabasi_albert(60, 2, rng=5)


def _spy(monkeypatch, name):
    """Record the 4th positional argument of every ``_native.<name>`` call."""
    real = getattr(_native, name)
    steps = []

    def spy(*args, **kwargs):
        steps.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(_native, name, spy)
    return steps


@needs_native
def test_one_kernel_call_per_multiple_advance(monkeypatch, graph):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    steps = _spy(monkeypatch, "rw_steps_acc")
    session = MultipleRandomWalk(4, backend="csr").start(graph, rng=3)
    session.advance(7)
    assert steps == [28]
    needs = FusedNeeds(degree_counts=True, edge_keys=True)
    record_checkpoints(session, "steps", [10], needs)
    assert steps == [28, 12]
    assert session.trace().num_steps == 0  # drained into the block


@needs_native
def test_one_kernel_call_per_single_advance(monkeypatch, graph):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    steps = _spy(monkeypatch, "rw_steps_acc")
    SingleRandomWalk(backend="csr").sample(graph, 40, rng=3)
    assert steps == [39]


@needs_native
def test_switch_read_once_per_call(monkeypatch, graph):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    session = MultipleRandomWalk(4, backend="csr").start(graph, rng=3)
    reads = []
    real = _native.load
    monkeypatch.setattr(_native, "load", lambda: reads.append(1) or real())
    session.advance(5)
    assert len(reads) == 1


def _walked_csr(graph) -> CSRGraph:
    csr = get_csr(graph)
    MultipleRandomWalk(4, backend="csr").sample(csr, 40, rng=1)
    csr.as_lists()
    csr.walkable()
    _native._graph_pointers(csr)
    for name in CSRGraph._DERIVED:
        assert getattr(csr, name) is not None, name
    return csr


def _assert_fresh_copy(clone: CSRGraph, original: CSRGraph) -> None:
    assert clone is not original
    np.testing.assert_array_equal(clone.indptr, original.indptr)
    np.testing.assert_array_equal(clone.indices, original.indices)
    assert clone.mmap_stem == original.mmap_stem
    for name in CSRGraph._DERIVED:
        assert getattr(clone, name) is None, name


COPIERS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_csr_copies_carry_no_derived_cache(graph, copier):
    csr = _walked_csr(graph)
    _assert_fresh_copy(COPIERS[copier](csr), csr)


@pytest.mark.parametrize("copier", ["pickle", "deepcopy"])
def test_graph_copies_carry_no_csr_cache(graph, copier):
    csr = _walked_csr(graph)
    clone = COPIERS[copier](graph)
    _assert_fresh_copy(get_csr(clone), csr)


def test_derived_caches_are_built_once(graph):
    csr = get_csr(graph)
    assert _native._graph_pointers(csr) is _native._graph_pointers(csr)
    assert csr.walkable() is csr.walkable()
    np.testing.assert_array_equal(
        csr.walkable(), np.flatnonzero(csr.degrees())
    )


def _arrays(trace):
    return (trace.step_sources, trace.step_targets, trace.step_walkers)


@pytest.mark.parametrize("as_csr", [False, True])
def test_resume_on_unpickled_graph(kernel, graph, tmp_path, as_csr):
    target = _walked_csr(graph) if as_csr else graph
    session = MultipleRandomWalk(4, backend="csr").start(target, rng=21)
    session.advance(6)
    path = tmp_path / "session.ckpt"
    session.save(path)
    resumed = load_session(path, pickle.loads(pickle.dumps(target)))
    for steps in (5, 2):
        session.advance(steps)
        resumed.advance(steps)
    for ours, theirs in zip(_arrays(session.trace()), _arrays(resumed.trace())):
        np.testing.assert_array_equal(ours, theirs)
    assert resumed.positions == session.positions
