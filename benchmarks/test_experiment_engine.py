"""Experiment-engine gates: single-walk sweeps and replicate fan-out.

Two acceptance gates for the session-native replication engine, both
on the paper's wide-frontier FS regime over a ~100k-node
Barabasi-Albert graph.  Like ``test_sharded_speed.py`` this file pins
its scale — the gates are defined on these workloads, so
``REPRO_BENCH_SCALE`` does not shrink them:

- ``test_fs_engine_budget_sweep`` — a fig4-style 8-point budget sweep
  through :func:`degree_error_budget_sweep` (one resumed session per
  replicate) must beat the pre-engine path (re-sampling the full
  budget at every point through ``degree_error_experiment``) by >= 2x.
  This is algorithmic — a k-point linear schedule costs ~(k+1)/2 more
  walking when re-sampled — so it is asserted whenever the native
  kernels are available.  The engine timing is also recorded by
  pytest-benchmark, which puts it under the CI trend gate
  (``tools/check_bench_trend.py``, pattern ``test_fs_``).
- ``test_fs_engine_procs_scaling`` — the same sweep shape with a
  heavier per-replicate walk, fanned with ``procs=4``, must run
  >= 1.5x faster than the engine at ``procs=1`` (inline pooled path,
  identical streams).  Asserted only with >= 4 CPU cores and native
  kernels (on fewer cores the spawn tax has nothing to amortize
  against — a 1-core box measures ~0.8x); measured and recorded
  regardless.
- ``test_fs_engine_thread_fanout`` — the same fan-out workload at 4
  workers, ``executor="thread"`` vs ``executor="spawn"``.  The thread
  backend pays no spawn startup, no graph spill and no pickle
  round-trips, so it must be >= 2x faster than spawn; asserted only
  with >= 4 CPU cores and native kernels (the gate is about overlap,
  which needs real cores and GIL-releasing kernels).  The thread
  timing is recorded by pytest-benchmark, which puts it under the CI
  trend gate (``tools/check_bench_trend.py``, pattern ``test_fs_``).

- ``test_fs_fused_checkpoint_drain`` — a fig4-style 8-point anytime
  sweep (10^5 FS steps per replicate, degree-PMF + average-degree
  accumulators) run through the engine's block path vs the same plan
  with a drain-only accumulator (no ``fused_needs``), which takes the
  ``take_trace()``/``update()`` trace path.  The block path never
  materializes the O(steps) trace increments — its per-checkpoint
  scratch is the O(max_degree) count block.  Both paths run the same
  kernel, Fenwick walker pick included, so their timing ratio is
  recorded only; the rows must match bit for bit.
- ``test_fs_walker_pick_is_log_m`` — trace-path FS (``advance`` +
  ``take_trace``) ns/step at m=1000 must stay within 2.5x of m=10:
  the kernel's walker pick is an O(log m) Fenwick descent, not an
  O(m) scan (which measures ~5x).  Asserted with native kernels.

Results land in ``results/engine_speed.txt``; bit-equality of the
thread, spawn and inline sweeps is asserted unconditionally.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.estimators.streaming import (
    StreamingAverageDegree,
    StreamingDegreePMF,
)
from repro.experiments.degree_errors import (
    degree_error_budget_sweep,
    degree_error_experiment,
)
from repro.experiments.engine import ExperimentPlan, default_budget_schedule, run_plan
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.sampling import _native
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import FusedNeeds, merge_needs

from conftest import run_once

NUM_VERTICES = 100_000
SWEEP_DIMENSION = 1_000
SWEEP_BUDGET = 40_000.0
SWEEP_POINTS = 8
SWEEP_REPLICATES = 8
SWEEP_FLOOR = 2.0

FUSED_DIMENSION = 1_000
FUSED_STEPS = 100_000
FUSED_POINTS = 8
FUSED_REPLICATES = 4

PICK_STEPS = 100_000
PICK_DIMENSIONS = (10, 1_000)
PICK_CEILING = 2.5

PROCS = 4
PROCS_DIMENSION = 3_000
PROCS_BUDGET = 400_000.0
PROCS_REPLICATES = 8
PROCS_FLOOR = 1.5
THREAD_FLOOR = 2.0


@pytest.fixture(scope="module")
def ba_graph():
    return get_csr(barabasi_albert(NUM_VERTICES, 3, rng=1))


def test_fs_engine_budget_sweep(benchmark, ba_graph, save_result):
    """Engine sweep (one walk per replicate) vs per-point re-sampling."""
    budgets = default_budget_schedule(SWEEP_BUDGET, SWEEP_POINTS)
    samplers = {"FS": FrontierSampler(SWEEP_DIMENSION)}

    def engine_sweep():
        return degree_error_budget_sweep(
            ba_graph,
            samplers,
            budgets,
            runs=SWEEP_REPLICATES,
            root_seed=7,
            backend="csr",
        )

    started = time.perf_counter()
    sweep = run_once(benchmark, engine_sweep)
    engine_seconds = time.perf_counter() - started

    started = time.perf_counter()
    per_point = {
        budget: degree_error_experiment(
            ba_graph,
            samplers,
            budget,
            runs=SWEEP_REPLICATES,
            root_seed=7,
            backend="csr",
        )
        for budget in budgets
    }
    resample_seconds = time.perf_counter() - started
    ratio = resample_seconds / engine_seconds

    # Same statistics at the final budget (FS sessions are
    # chunk-invisible, so the sweep's last point IS the one-shot run).
    final = budgets[-1]
    for degree, value in per_point[final].curves["FS"].items():
        assert abs(value - sweep.at(final).curves["FS"][degree]) <= 1e-9

    save_result(
        "engine_speed",
        "\n".join(
            [
                f"Experiment engine, fig4-style sweep ({SWEEP_POINTS}"
                f" budget points to B={SWEEP_BUDGET:.0f},"
                f" m={SWEEP_DIMENSION}, {SWEEP_REPLICATES} replicates,"
                f" BA n={NUM_VERTICES},"
                f" native kernels: {_native.available()})",
                f"  per-point re-sampling:   {resample_seconds * 1e3:8.1f} ms",
                f"  engine single-walk:      {engine_seconds * 1e3:8.1f} ms"
                f" ({ratio:.2f}x, floor {SWEEP_FLOOR}x)",
                f"  steps walked (engine):   {sweep.steps_walked['FS']:,}",
            ]
        ),
    )
    if not _native.available():
        pytest.skip(
            "no native kernels: the interpreted fallback's constant"
            f" factors dominate; measured {ratio:.2f}x (not gated)"
        )
    assert ratio >= SWEEP_FLOOR, (
        f"engine sweep is only {ratio:.2f}x the per-point re-sampling"
        f" path (floor {SWEEP_FLOOR}x)"
    )


def test_fs_engine_procs_scaling(ba_graph, results_dir):
    """Engine at 4 worker processes vs the inline procs=1 path."""
    budgets = [PROCS_BUDGET / 2, PROCS_BUDGET]
    samplers = {"FS": FrontierSampler(PROCS_DIMENSION)}

    def sweep(procs):
        return degree_error_budget_sweep(
            ba_graph,
            samplers,
            budgets,
            runs=PROCS_REPLICATES,
            root_seed=7,
            procs=procs,
        )

    started = time.perf_counter()
    inline = sweep(1)
    inline_seconds = time.perf_counter() - started

    started = time.perf_counter()
    pooled = sweep(PROCS)
    pooled_seconds = time.perf_counter() - started
    ratio = inline_seconds / pooled_seconds

    # procs is a deployment knob: identical error curves, bit for bit.
    for budget in budgets:
        assert inline.at(budget).curves == pooled.at(budget).curves
    assert inline.steps_walked == pooled.steps_walked

    cores = os.cpu_count() or 1
    gated = _native.available() and cores >= PROCS
    report = "\n".join(
        [
            "",
            f"Engine replicate fan-out (B={PROCS_BUDGET:.0f},"
            f" m={PROCS_DIMENSION}, {PROCS_REPLICATES} replicates,"
            f" {cores} cores)",
            f"  engine, procs=1 inline:  {inline_seconds * 1e3:8.1f} ms",
            f"  engine, procs={PROCS} spawn:   {pooled_seconds * 1e3:8.1f} ms"
            f" ({ratio:.2f}x, floor {PROCS_FLOOR}x"
            f"{'' if gated else ', record only'})",
        ]
    )
    path = results_dir / "engine_speed.txt"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(report + "\n")

    if not _native.available():
        pytest.skip(
            "no native kernels: worker processes run the pure-Python"
            f" fallback; measured {ratio:.2f}x (not comparable)"
        )
    if cores < PROCS:
        pytest.skip(
            f"only {cores} CPU core(s): the {PROCS}-process gate needs"
            f" {PROCS}; measured {ratio:.2f}x"
        )
    assert ratio >= PROCS_FLOOR, (
        f"engine at {PROCS} procs is only {ratio:.2f}x the inline"
        f" procs=1 sweep (floor {PROCS_FLOOR}x)"
    )


def test_fs_engine_thread_fanout(benchmark, ba_graph, results_dir):
    """Thread executor vs spawn executor on the same 4-worker fan-out."""
    budgets = [PROCS_BUDGET / 2, PROCS_BUDGET]
    samplers = {"FS": FrontierSampler(PROCS_DIMENSION)}

    def sweep(procs, executor=None):
        return degree_error_budget_sweep(
            ba_graph,
            samplers,
            budgets,
            runs=PROCS_REPLICATES,
            root_seed=7,
            procs=procs,
            executor=executor,
        )

    started = time.perf_counter()
    threaded = run_once(benchmark, lambda: sweep(PROCS, executor="thread"))
    thread_seconds = time.perf_counter() - started

    started = time.perf_counter()
    spawned = sweep(PROCS, executor="spawn")
    spawn_seconds = time.perf_counter() - started
    ratio = spawn_seconds / thread_seconds

    inline = sweep(1)

    # The executor moves work between workers; it never draws.  All
    # three backends must produce the same sweep, bit for bit.
    for budget in budgets:
        assert threaded.at(budget).curves == spawned.at(budget).curves
        assert threaded.at(budget).curves == inline.at(budget).curves
    assert threaded.steps_walked == spawned.steps_walked
    assert threaded.steps_walked == inline.steps_walked

    cores = os.cpu_count() or 1
    gated = _native.available() and cores >= PROCS
    report = "\n".join(
        [
            "",
            f"Engine thread fan-out (B={PROCS_BUDGET:.0f},"
            f" m={PROCS_DIMENSION}, {PROCS_REPLICATES} replicates,"
            f" procs={PROCS}, {cores} cores,"
            f" native kernels: {_native.available()})",
            f"  engine, executor=thread: {thread_seconds * 1e3:8.1f} ms",
            f"  engine, executor=spawn:  {spawn_seconds * 1e3:8.1f} ms"
            f" ({ratio:.2f}x, floor {THREAD_FLOOR}x"
            f"{'' if gated else ', record only'})",
        ]
    )
    path = results_dir / "engine_speed.txt"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(report + "\n")

    if not _native.available():
        pytest.skip(
            "no native kernels: threads serialize on the GIL in the"
            f" pure-Python fallback; measured {ratio:.2f}x (not gated)"
        )
    if cores < PROCS:
        pytest.skip(
            f"only {cores} CPU core(s): thread-vs-spawn overlap needs"
            f" {PROCS}; measured {ratio:.2f}x"
        )
    assert ratio >= THREAD_FLOOR, (
        f"thread executor is only {ratio:.2f}x the spawn executor on"
        f" the {PROCS}-worker fan-out (floor {THREAD_FLOOR}x)"
    )


class _DegreeBundle:
    """The paper's fig4 accumulator pair, as one fuse-capable part."""

    def __init__(self, graph):
        self.pmf = StreamingDegreePMF(graph)
        self.average = StreamingAverageDegree(graph)

    def update(self, increment):
        self.pmf.update(increment)
        self.average.update(increment)
        return self

    def fused_needs(self):
        return merge_needs((self.pmf, self.average))

    def absorb_block(self, block):
        self.pmf.absorb_block(block)
        self.average.absorb_block(block)
        return self


class _DrainOnlyBundle(_DegreeBundle):
    """The same pair without ``fused_needs``: the trace path."""

    fused_needs = None


def test_fs_fused_checkpoint_drain(benchmark, ba_graph, results_dir):
    """Block-path advance_into vs the take_trace()/update() trace path."""
    checkpoints = [
        FUSED_STEPS * (i + 1) // FUSED_POINTS for i in range(FUSED_POINTS)
    ]

    def snapshot(method, bundle, checkpoint):
        return (bundle.average.estimate(), bundle.pmf.estimate())

    plan = ExperimentPlan(
        title="fused-checkpoint-drain",
        graph=ba_graph,
        samplers={"FS": FrontierSampler(FUSED_DIMENSION)},
        budgets=checkpoints,
        accumulator=lambda method: _DegreeBundle(ba_graph),
        snapshot=snapshot,
        schedule="steps",
        root_seed=7,
    )

    # The degree-statistics bundle needs only the per-degree counts, so
    # every block the engine folds is the (max_degree + 1) int64 array —
    # O(max_degree) peak increment scratch, not an O(steps) trace.
    assert _DegreeBundle(ba_graph).fused_needs() == FusedNeeds(
        degree_counts=True
    )

    started = time.perf_counter()
    fused = run_once(
        benchmark, lambda: run_plan(plan, replicates=FUSED_REPLICATES)
    )
    fused_seconds = time.perf_counter() - started

    drain_plan = replace(
        plan, accumulator=lambda method: _DrainOnlyBundle(ba_graph)
    )
    started = time.perf_counter()
    drained = run_plan(drain_plan, replicates=FUSED_REPLICATES)
    drained_seconds = time.perf_counter() - started
    ratio = drained_seconds / fused_seconds

    # The block path is a memory knob, never a statistics change: every
    # snapshot (average-degree estimate and full PMF dict) matches the
    # trace path bit for bit.
    assert fused.methods["FS"].rows == drained.methods["FS"].rows
    assert (
        fused.methods["FS"].steps_taken == drained.methods["FS"].steps_taken
    )

    report = "\n".join(
        [
            "",
            f"Fused checkpoint sweep ({FUSED_POINTS} points to"
            f" {FUSED_STEPS:,} FS steps, m={FUSED_DIMENSION},"
            f" {FUSED_REPLICATES} replicates,"
            f" native kernels: {_native.available()})",
            f"  drain (take_trace/update): {drained_seconds * 1e3:8.1f} ms",
            f"  fused advance_into:        {fused_seconds * 1e3:8.1f} ms"
            f" ({ratio:.2f}x, record only)",
        ]
    )
    path = results_dir / "engine_speed.txt"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(report + "\n")


def test_fs_walker_pick_is_log_m(ba_graph, results_dir):
    """Trace-path FS cost per step at m=1000 vs m=10."""

    def ns_per_step(dimension):
        sampler = FrontierSampler(dimension, backend="csr")
        best = float("inf")
        for seed in range(5):
            session = sampler.start(ba_graph, rng=seed)
            started = time.perf_counter()
            session.advance(PICK_STEPS)
            session.take_trace()
            best = min(best, time.perf_counter() - started)
        return best / PICK_STEPS * 1e9

    narrow, wide = (ns_per_step(m) for m in PICK_DIMENSIONS)
    ratio = wide / narrow
    report = "\n".join(
        [
            "",
            f"FS walker pick ({PICK_STEPS:,} trace-path steps,"
            f" native kernels: {_native.available()})",
            f"  m={PICK_DIMENSIONS[0]}: {narrow:7.1f} ns/step",
            f"  m={PICK_DIMENSIONS[1]}: {wide:7.1f} ns/step"
            f" ({ratio:.2f}x, ceiling {PICK_CEILING}x)",
        ]
    )
    path = results_dir / "engine_speed.txt"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(report + "\n")

    if not _native.available():
        pytest.skip(
            "no native kernels: the Python mirror scans the frontier"
            f" linearly; measured {ratio:.2f}x (not gated)"
        )
    assert ratio <= PICK_CEILING, (
        f"FS ns/step at m={PICK_DIMENSIONS[1]} is {ratio:.2f}x that at"
        f" m={PICK_DIMENSIONS[0]} (ceiling {PICK_CEILING}x): the walker"
        " pick is no longer O(log m)"
    )
