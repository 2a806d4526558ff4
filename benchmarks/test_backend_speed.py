"""Backend speed: vectorized CSR fast path vs the interpreted walker.

Times 10^5 Frontier Sampling steps over a ~100k-node Barabasi-Albert
graph on both backends from the same pinned walker seeds, records both
into the pytest-benchmark report, and gates the regression: the CSR
backend must stay >= 5x faster than the list backend whenever the
native kernels are available (CI always has a C compiler).

The estimator layer is gated too: eq. (7) degree reweighting over the
``ArrayWalkTrace`` arrays must stay >= 10x faster than the tuple-loop
estimator on the same FS trace, and the two must agree to 1e-12 —
otherwise the walk speedup evaporates the moment anything is estimated.

``REPRO_BENCH_SCALE`` shrinks the graph and the step count together
for smoke runs (CI uses 0.05).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.estimators.degree import degree_pmf_from_trace
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.sampling import _native
from repro.sampling.base import WalkTrace
from repro.sampling.frontier import FrontierSampler

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
NUM_VERTICES = max(2_000, int(100_000 * SCALE))
NUM_STEPS = max(2_000, int(100_000 * SCALE))
DIMENSION = 64
SPEEDUP_FLOOR = 5.0
ESTIMATOR_SPEEDUP_FLOOR = 10.0
#: A chunked session advance may cost at most this much of one-shot
#: sample() — the anytime protocol must not tax the kernel hot path.
SESSION_OVERHEAD_CEILING = 1.3
#: Stride scales with the step count so the gate always exercises
#: ~12 advances — a fixed stride would collapse to a single (gate-less)
#: advance at CI's reduced REPRO_BENCH_SCALE.
SESSION_CHUNKS = 12
SESSION_CHUNK = max(256, NUM_STEPS // SESSION_CHUNKS)
#: At smoke scale the walk itself takes ~0.3 ms, so fixed per-advance
#: costs (one kernel invocation, chunk bookkeeping) dominate any ratio;
#: there the gate bounds the absolute overhead per advance instead.
PER_ADVANCE_OVERHEAD_CEILING = 150e-6  # seconds


@pytest.fixture(scope="module")
def ba_graph():
    graph = barabasi_albert(NUM_VERTICES, 3, rng=1)
    get_csr(graph)  # pay the one-off CSR conversion outside the timings
    return graph


@pytest.fixture(scope="module")
def walker_seeds():
    picker = random.Random(3)
    return [picker.randrange(NUM_VERTICES) for _ in range(DIMENSION)]


def run_list_backend(graph, seeds):
    sampler = FrontierSampler(DIMENSION, backend="list")
    return sampler.sample_from(graph, seeds, NUM_STEPS, rng=7)


def run_csr_backend(graph, seeds):
    sampler = FrontierSampler(DIMENSION, backend="csr")
    return sampler.sample_from(get_csr(graph), seeds, NUM_STEPS, rng=7)


def run_csr_session(graph, seeds):
    """The same walk, advanced through a session in array-sized strides."""
    sampler = FrontierSampler(DIMENSION, backend="csr")
    session = sampler.start(get_csr(graph), rng=7, initial_vertices=seeds)
    remaining = NUM_STEPS
    while remaining:
        stride = min(SESSION_CHUNK, remaining)
        session.advance(stride)
        remaining -= stride
    return session.trace()


def test_fs_list_backend(benchmark, ba_graph, walker_seeds):
    trace = benchmark.pedantic(
        run_list_backend, args=(ba_graph, walker_seeds), rounds=2,
        iterations=1,
    )
    assert trace.num_steps == NUM_STEPS


def test_fs_csr_backend(benchmark, ba_graph, walker_seeds):
    trace = benchmark.pedantic(
        run_csr_backend, args=(ba_graph, walker_seeds), rounds=5,
        iterations=1,
    )
    assert trace.num_steps == NUM_STEPS


def test_csr_backend_speedup(ba_graph, walker_seeds, save_result):
    def best_of(repeats, fn):
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn(ba_graph, walker_seeds)
            timings.append(time.perf_counter() - started)
        return min(timings)

    list_seconds = best_of(2, run_list_backend)
    csr_seconds = best_of(5, run_csr_backend)
    speedup = list_seconds / csr_seconds
    per_step = 1e6 / NUM_STEPS
    save_result(
        "backend_speed",
        "\n".join(
            [
                f"FS backend speed ({NUM_STEPS} steps, m={DIMENSION},"
                f" BA n={NUM_VERTICES})",
                f"  list backend: {list_seconds:.3f}s"
                f" ({list_seconds * per_step:.2f} us/step)",
                f"  csr backend:  {csr_seconds:.3f}s"
                f" ({csr_seconds * per_step:.2f} us/step)",
                f"  speedup: {speedup:.1f}x"
                f" (native kernels: {_native.available()})",
            ]
        ),
    )
    if not _native.available():
        pytest.skip(
            "no C compiler: csr backend runs its pure-Python fallback,"
            f" measured {speedup:.1f}x vs list"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"csr backend regressed: only {speedup:.1f}x faster than the"
        f" list backend (floor {SPEEDUP_FLOOR}x)"
    )


def test_fs_session_overhead(benchmark, ba_graph, walker_seeds, save_result):
    """Chunked session advance vs one-shot sample on the same FS walk.

    The incremental protocol (seed once, then ``advance`` in
    ``SESSION_CHUNK``-step strides, then materialize the trace) must
    stay within ``SESSION_OVERHEAD_CEILING`` of the single-kernel-call
    path — and, the draw protocol being chunking-invariant, produce the
    bit-identical trace.
    """
    session_trace = run_csr_session(ba_graph, walker_seeds)
    one_shot_trace = run_csr_backend(ba_graph, walker_seeds)
    assert session_trace.num_steps == NUM_STEPS
    assert (
        session_trace.step_sources == one_shot_trace.step_sources
    ).all()
    assert (
        session_trace.step_targets == one_shot_trace.step_targets
    ).all()
    assert (
        session_trace.step_walkers == one_shot_trace.step_walkers
    ).all()

    benchmark.pedantic(
        run_csr_session, args=(ba_graph, walker_seeds), rounds=3,
        iterations=1,
    )
    # Alternate the two paths, best of 5 each, so a host slowdown
    # lasting a few seconds lands on both sides, not on one.
    timings = {run_csr_backend: [], run_csr_session: []}
    for _ in range(5):
        for fn, seconds in timings.items():
            started = time.perf_counter()
            fn(ba_graph, walker_seeds)
            seconds.append(time.perf_counter() - started)
    one_shot_seconds = min(timings[run_csr_backend])
    session_seconds = min(timings[run_csr_session])
    overhead = session_seconds / one_shot_seconds
    chunks = -(-NUM_STEPS // SESSION_CHUNK)
    per_advance = max(0.0, session_seconds - one_shot_seconds) / chunks
    save_result(
        "session_overhead",
        "\n".join(
            [
                f"FS session overhead ({NUM_STEPS} steps, m={DIMENSION},"
                f" chunk={SESSION_CHUNK} x{chunks}, BA n={NUM_VERTICES})",
                f"  one-shot sample(): {one_shot_seconds * 1e3:.2f} ms",
                f"  chunked session:   {session_seconds * 1e3:.2f} ms",
                f"  overhead: {overhead:.2f}x"
                f" (ceiling {SESSION_OVERHEAD_CEILING}x)"
                f" / {per_advance * 1e6:.0f} us per advance"
                f" (ceiling {PER_ADVANCE_OVERHEAD_CEILING * 1e6:.0f} us)",
            ]
        ),
    )
    # At full scale the relative ceiling bites; at smoke scale the walk
    # is so short that only the absolute per-advance bound is
    # meaningful.  A regression must clear BOTH to ship.
    assert (
        overhead <= SESSION_OVERHEAD_CEILING
        or per_advance <= PER_ADVANCE_OVERHEAD_CEILING
    ), (
        f"chunked session advance costs {overhead:.2f}x one-shot"
        f" sample() (ceiling {SESSION_OVERHEAD_CEILING}x) and"
        f" {per_advance * 1e6:.0f} us per advance (ceiling"
        f" {PER_ADVANCE_OVERHEAD_CEILING * 1e6:.0f} us)"
    )


def test_vectorized_estimator_speedup(ba_graph, walker_seeds, save_result):
    """Eq. (7) reweighting over trace arrays vs the tuple loop.

    Both paths run through the same public function —
    ``degree_pmf_from_trace`` dispatches on the trace type — so this
    measures exactly what an experiment pipeline pays per estimate.
    """
    array_trace = run_csr_backend(ba_graph, walker_seeds)
    # The tuple-loop twin: identical steps, list-backed trace.  Built
    # (and its lazy tuple list materialized) outside the timings.
    tuple_trace = WalkTrace(
        method=array_trace.method,
        edges=list(array_trace.edges),
        initial_vertices=array_trace.initial_vertices,
        budget=array_trace.budget,
        seed_cost=array_trace.seed_cost,
    )

    vectorized_pmf = degree_pmf_from_trace(ba_graph, array_trace)  # warm
    tuple_pmf = degree_pmf_from_trace(ba_graph, tuple_trace)
    assert set(vectorized_pmf) == set(tuple_pmf)
    mismatch = max(
        abs(vectorized_pmf[k] - tuple_pmf[k]) for k in tuple_pmf
    )
    assert mismatch <= 1e-12, (
        f"vectorized estimator drifted from the tuple loop by {mismatch:.2e}"
    )

    def best_of(repeats, trace):
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            degree_pmf_from_trace(ba_graph, trace)
            timings.append(time.perf_counter() - started)
        return min(timings)

    tuple_seconds = best_of(3, tuple_trace)
    vectorized_seconds = best_of(5, array_trace)
    speedup = tuple_seconds / vectorized_seconds
    save_result(
        "estimator_speed",
        "\n".join(
            [
                f"degree PMF estimation ({NUM_STEPS} FS steps,"
                f" BA n={NUM_VERTICES})",
                f"  tuple loop: {tuple_seconds * 1e3:.2f} ms",
                f"  vectorized: {vectorized_seconds * 1e3:.2f} ms",
                f"  speedup: {speedup:.1f}x"
                f" (max |pmf diff|: {mismatch:.1e})",
            ]
        ),
    )
    assert speedup >= ESTIMATOR_SPEEDUP_FLOOR, (
        f"vectorized estimator regressed: only {speedup:.1f}x faster"
        f" than the tuple loop (floor {ESTIMATOR_SPEEDUP_FLOOR}x)"
    )
