"""The native BA and G(n, m) kernels against the draw loops they replace.

The kernels read the caller's own Mersenne Twister words, so on a plain
``random.Random`` they must build the loops' graphs edge for edge and
leave the generator exactly where the loops leave it, ``gauss_next``
included.  A ``random.Random`` subclass takes the loops: its class
may draw differently.  An empty subclass draws exactly like its base,
which makes it the loop reference here.  The size accumulator's
running collision total is checked against the sum it replaces.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.streaming import StreamingGraphSize
from repro.generators.ba import barabasi_albert
from repro.generators.er import gnm_edges
from repro.graph.csr import get_csr
from repro.sampling import _native
from repro.util import rng as rng_util
from repro.util.rng import randrange_on_words, run_on_words

NATIVE = _native.available()
needs_native = pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")


class _Loop(random.Random):
    """Draws exactly like ``random.Random``, but takes the loops."""


def _generators(seed: int, pre_draws: int, gauss: bool):
    """A plain generator and its loop twin, in the same state."""
    pair = []
    for cls in (random.Random, _Loop):
        generator = cls(seed)
        for _ in range(pre_draws):
            generator.random()
        if gauss:
            generator.gauss(0.0, 1.0)  # caches gauss_next
        pair.append(generator)
    return pair


def _edges(graph):
    csr = get_csr(graph)
    return csr.indptr, csr.indices


def _assert_same_ba(n, k, seed, pre_draws=0, gauss=False):
    native, loop = _generators(seed, pre_draws, gauss)
    built = _edges(barabasi_albert(n, k, rng=native))
    reference = _edges(barabasi_albert(n, k, rng=loop))
    assert all(np.array_equal(a, b) for a, b in zip(built, reference))
    assert native.getstate() == loop.getstate()


def _assert_same_gnm(n, m, seed, pre_draws=0, gauss=False):
    native, loop = _generators(seed, pre_draws, gauss)
    built = gnm_edges(n, m, rng=native)
    reference = gnm_edges(n, m, rng=loop)
    assert all(np.array_equal(a, b) for a, b in zip(built, reference))
    assert native.getstate() == loop.getstate()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the native kernel runs (re-runs included) per generator."""
    calls = {"ba": 0, "gnm": 0}

    def counting(name, kernel):
        def run(*args):
            calls[name] += 1
            return kernel(*args)

        return run

    monkeypatch.setattr(_native, "ba_attach", counting("ba", _native.ba_attach))
    monkeypatch.setattr(_native, "gnm_edges", counting("gnm", _native.gnm_edges))
    return calls


# ----------------------------------------------------------------------
# the word stream
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 2**32 - 1),
    pre_draws=st.integers(0, 700),
    used=st.integers(0, 3000),
    gauss=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_words_are_the_generators_next_words(seed, pre_draws, used, gauss):
    stream, twin = _generators(seed, pre_draws, gauss)
    seen = []

    def kernel(words):
        if words.size < used:
            return -1
        seen.append(words[:used].copy())
        return used

    run_on_words(stream, 16, kernel)
    assert seen[0].tolist() == [twin.getrandbits(32) for _ in range(used)]
    assert stream.getstate() == twin.getstate()
    assert stream.gauss(0.0, 1.0) == twin.gauss(0.0, 1.0)


def test_skipping_spans_several_getrandbits_chunks():
    stream, twin = random.Random(3), random.Random(3)
    used = 2 * rng_util._SKIP_CHUNK + 5
    run_on_words(stream, used, lambda words: used)
    for _ in range(used):
        twin.getrandbits(32)
    assert stream.getstate() == twin.getstate()


def test_only_plain_generators_and_small_ranges_use_words():
    assert randrange_on_words(random.Random(1), 2**31 - 1)
    assert not randrange_on_words(random.Random(1), 2**31)
    assert not randrange_on_words(_Loop(1), 10)


# ----------------------------------------------------------------------
# kernels against loops
# ----------------------------------------------------------------------
@needs_native
@given(
    data=st.data(),
    k=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
    pre_draws=st.integers(0, 700),
    gauss=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_ba_kernel_matches_the_loop(data, k, seed, pre_draws, gauss):
    n = data.draw(st.integers(k + 1, 3000), label="n")
    _assert_same_ba(n, k, seed, pre_draws, gauss)


@needs_native
@given(
    data=st.data(),
    n=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    pre_draws=st.integers(0, 700),
    gauss=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_gnm_kernel_matches_the_loop(data, n, seed, pre_draws, gauss):
    m = data.draw(st.integers(0, n * (n - 1) // 2), label="m")
    _assert_same_gnm(n, m, seed, pre_draws, gauss)


@needs_native
@given(
    n=st.sampled_from([2**10, 2**12, 3000, 5000]),
    per_vertex=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_sparse_gnm_kernel_matches_the_loop(n, per_vertex, seed):
    _assert_same_gnm(n, per_vertex * n, seed)


@needs_native
@pytest.mark.parametrize("k", [4, 5, 18, 19, 20, 77])
def test_ba_kernel_across_set_resizes(k):
    # k = 5 and k = 19 resize the target set on their last insert; 77
    # takes it to 512 slots.
    _assert_same_ba(400, k, seed=k, pre_draws=3, gauss=True)


@needs_native
def test_first_estimate_running_out_reruns_on_more_words(kernel_calls):
    _assert_same_ba(300, 250, seed=11)
    _assert_same_gnm(100, 4950, seed=12)
    assert kernel_calls["ba"] > 1
    assert kernel_calls["gnm"] > 1


@needs_native
def test_sparse_builds_run_the_kernel_once(kernel_calls):
    barabasi_albert(20_000, 2, rng=1)
    gnm_edges(20_000, 60_000, rng=2)
    assert kernel_calls == {"ba": 1, "gnm": 1}


@pytest.fixture
def no_kernels(monkeypatch):
    def refuse(*args):
        raise AssertionError("the native kernel ran")

    monkeypatch.setattr(_native, "ba_attach", refuse)
    monkeypatch.setattr(_native, "gnm_edges", refuse)


def test_subclasses_take_the_loops(no_kernels):
    barabasi_albert(200, 3, rng=_Loop(1))
    gnm_edges(200, 400, rng=_Loop(2))
    # repro-lint: disable=RPL001 -- the OS-entropy subclass must take the loop
    barabasi_albert(50, 2, rng=random.SystemRandom())


def test_no_native_takes_the_loops(no_kernels, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    barabasi_albert(200, 3, rng=1)
    gnm_edges(200, 400, rng=2)


# ----------------------------------------------------------------------
# the size accumulator's collision total
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    return barabasi_albert(50, 2, rng=4)


def _merged_collisions(blocks, n):
    merged = np.zeros(n, dtype=np.int64)
    for vertices, counts in blocks:
        np.add.at(merged, vertices, counts)
    return sum(int(c) * (int(c) - 1) // 2 for c in merged)


@given(seed=st.integers(0, 2**32 - 1), num_blocks=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_collision_total_equals_the_sum_over_merged_counts(
    small_graph, seed, num_blocks
):
    generator = np.random.default_rng(seed)
    size = StreamingGraphSize(small_graph)
    blocks = []
    for _ in range(num_blocks):
        vertices = np.unique(generator.integers(0, 50, generator.integers(1, 30)))
        counts = generator.integers(1, 9, vertices.size)
        size._absorb_visit_counts(vertices, counts)
        blocks.append((vertices, counts))
    assert size._collisions == _merged_collisions(blocks, 50)
    assert size._samples == sum(int(c.sum()) for _, c in blocks)


def test_collision_total_stays_exact_past_int64_products(small_graph):
    size = StreamingGraphSize(small_graph)
    huge = np.array([5_000_000_000, 7_000_000_000], dtype=np.int64)
    vertices = np.array([3, 8])
    size._absorb_visit_counts(vertices, huge)
    size._absorb_visit_counts(vertices, huge)
    doubled = [2 * int(c) for c in huge]
    assert size._collisions == sum(c * (c - 1) // 2 for c in doubled)


def test_pickle_round_trip_keeps_estimating_bit_identically(small_graph):
    size = StreamingGraphSize(small_graph)
    size._absorb_visit_counts(np.array([1, 2, 5]), np.array([3, 1, 2]))
    resumed = pickle.loads(pickle.dumps(size))
    resumed.attach(small_graph)
    more = (np.array([2, 5, 9]), np.array([2, 2, 1]))
    size._absorb_visit_counts(*more)
    resumed._absorb_visit_counts(*more)
    assert repr(resumed.num_vertices()) == repr(size.num_vertices())
    assert repr(resumed.volume()) == repr(size.volume())


def test_an_older_layout_fails_readably(small_graph):
    # The state an accumulator pickled before the dense counts had.
    old = {
        "graph": None,
        "_inverse_sum": 1.5,
        "_degree_sum": 12.0,
        "_samples": 4,
        "_visits": {1: 3, 2: 1},
    }
    size = StreamingGraphSize.__new__(StreamingGraphSize)
    with pytest.raises(ValueError, match="another version of the code"):
        size.__setstate__(old)
