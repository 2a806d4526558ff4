"""The repo's layers as the traced run sees them.

:data:`TARGETS` names every traced callable, at the name its callers
look up, with the span it records and the exact counters it adds.
:func:`layer_metrics` reduces traced sections' spans and counters
to the per-layer metrics listed in ``BENCHMARK.json``.

Layer times come in two forms.  Layers that run in every workload
report seconds (``*_s``) or per-call and per-step costs (``*_us_*``,
``*_ns_*``).  Layers that run in only some workloads report their share
of the traced wall time (``*_frac``, summed over threads), which is 0
where the layer does not run.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import SpanRecorder

KERNELS = (
    "rw_steps",
    "fs_steps",
    "mh_steps",
    "rw_steps_acc",
    "fs_steps_acc",
    "mh_steps_acc",
)


def _array_bytes(obj: Any) -> int:
    """Bytes held by the numpy arrays among ``obj``'s attributes."""
    return sum(
        value.nbytes for value in vars(obj).values() if isinstance(value, np.ndarray)
    )


def _count_kernel(kernel: str):
    def count(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        steps = int(kwargs["steps"]) if "steps" in kwargs else int(args[3])
        tally["native.calls"] += 1
        tally[f"native.{kernel}.calls"] += 1
        tally["native.steps"] += steps

    return count


def _count_start(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    tally["sampling.starts"] += 1


def _count_trace(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    tally["sampling.trace_bytes"] += _array_bytes(result)


def _count_block(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    block = args[0]
    tally["sampling.block_bytes"] += sum(
        array.nbytes
        for array in (block.deg_counts, block.visit_counts)
        if array is not None
    )


def _count_csr(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    tally["graph.csr_bytes"] += result.indptr.nbytes + result.indices.nbytes


def _count_update(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    tally["estimators.update_calls"] += 1


def _count_plan(tally: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    plan = args[0]
    replicates = int(kwargs["replicates"]) if "replicates" in kwargs else int(args[1])
    tally["engine.replicates"] += replicates * len(plan.samplers)
    procs = kwargs.get("procs") if len(args) < 3 else args[2]
    tally["engine.procs"] = max(tally["engine.procs"], int(procs or 0))


_SAMPLERS = (
    "repro.sampling.frontier:FrontierSampler",
    "repro.sampling.single:SingleRandomWalk",
    "repro.sampling.multiple:MultipleRandomWalk",
    "repro.sampling.metropolis:MetropolisHastingsWalk",
)

#: ``(target, span name, counter)``: a target is ``module:attribute`` or
#: ``module:Class.method``, patched where callers look it up.
TARGETS: List[Tuple[str, str, Any]] = [
    # graph generation and conversion
    ("repro.experiments.suite:Scenario.build_graph", "generators.build", None),
    ("repro.generators.ba:barabasi_albert", "generators.build", None),
    ("repro.generators.social:social_network", "generators.build", None),
    ("repro.generators.configuration:configuration_model", "generators.build", None),
    (
        "repro.generators.configuration:power_law_degree_sequence",
        "generators.build",
        None,
    ),
    ("repro.experiments.suite:largest_connected_component", "graph.lcc", None),
    ("repro.experiments.tables:largest_connected_component", "graph.lcc", None),
    ("repro.graph.components:largest_connected_component", "graph.lcc", None),
    ("repro.graph.csr:CSRGraph.from_graph", "graph.to_csr", _count_csr),
    # sessions
    *[(f"{sampler}.start", "sampling.start", _count_start) for sampler in _SAMPLERS],
    ("repro.sampling.session:SamplerSession.advance", "sampling.advance", None),
    ("repro.sampling.session:SamplerSession.advance_budget", "sampling.advance", None),
    ("repro.sampling.session:SamplerSession.take_trace", "sampling.take_trace", _count_trace),
    (
        "repro.sampling.session:_ArraySession.advance_into",
        "sampling.advance_into",
        None,
    ),
    ("repro.sampling.fused:FusedBlock.__init__", "sampling.block", _count_block),
    ("repro.sampling.sharded:drain_session_checkpoints", "sampling.drain", None),
    ("repro.experiments.engine:drain_session_checkpoints", "sampling.drain", None),
    # the ctypes boundary (the kernels themselves are wrapped on the library)
    *[
        (f"repro.sampling._native:{kernel}", f"native.{kernel}", _count_kernel(kernel))
        for kernel in KERNELS
    ],
    # accumulators
    ("repro.estimators.streaming:StreamingEstimator.update", "estimators.update", _count_update),
    ("repro.experiments.engine:TraceCollector.update", "estimators.update", _count_update),
    (
        "repro.estimators.streaming:StreamingEstimator.absorb_block",
        "estimators.absorb_block",
        None,
    ),
    ("repro.estimators.streaming:StreamingDegreePMF.estimate", "estimators.estimate", None),
    ("repro.estimators.streaming:StreamingDegreePMF.ccdf", "estimators.estimate", None),
    ("repro.estimators.streaming:StreamingAverageDegree.estimate", "estimators.estimate", None),
    ("repro.estimators.streaming:StreamingGraphSize.num_vertices", "estimators.estimate", None),
    ("repro.experiments.engine:TraceCollector.trace", "estimators.estimate", None),
    ("repro.experiments.tables:_final_edge_snapshot", "estimators.estimate", None),
    # replication and fan-out
    ("repro.experiments.engine:run_plan", "engine.run_plan", _count_plan),
    ("repro.experiments.suite:run_plan", "engine.run_plan", _count_plan),
    ("repro.experiments.tables:run_plan", "engine.run_plan", _count_plan),
    ("repro.sampling.sharded:_anytime_task", "sharded.task", None),
    # suite scoring and reports
    ("repro.experiments.suite:run_suite", "suite.run", None),
    ("repro.experiments.suite:run_scenario", "suite.score", None),
    ("repro.experiments.report:write_report", "report.write", None),
    # Markov-chain aggregation
    ("repro.markov.transient:final_edge_gap_from_edges", "markov.edge_gap", None),
]

#: ctypes symbol on the kernel library -> span name.
FOREIGN = {f"repro_{kernel}": f"kernel.{kernel}" for kernel in KERNELS}

#: Span names that belong to the benchmark, not to a layer.
ROOTS = ("bench.setup", "bench.op")


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q) * 1e6) if durations.size else 0.0


def layer_metrics(
    sections: Sequence[SpanRecorder], untraced_wall: Optional[float] = None
) -> Dict[str, float]:
    """Per-layer metrics over traced sections (a setup and an operation).

    ``untraced_wall`` is the untraced operation's wall time; the traced
    operation's excess over it is ``trace.overhead_frac``.
    """
    self_by_name: Counter = Counter()
    busy_by_name: Counter = Counter()
    counters: Counter = Counter()
    durations_by_name: Dict[str, List[np.ndarray]] = {}
    span_count = 0
    for recorder in sections:
        spans = recorder.spans()
        ids = spans["name"]
        durations = spans["end"] - spans["start"]
        span_count += int(ids.size)
        self_sums = np.bincount(ids, weights=spans["self"], minlength=len(recorder.names))
        busy_sums = np.bincount(ids, weights=durations, minlength=len(recorder.names))
        for index, name in enumerate(recorder.names):
            self_by_name[name] += float(self_sums[index])
            busy_by_name[name] += float(busy_sums[index])
            durations_by_name.setdefault(name, []).append(durations[ids == index])
        counters.update(recorder.counters())

    def matching(*prefixes: str) -> List[str]:
        return [
            name
            for name in busy_by_name
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        ]

    def self_s(*prefixes: str) -> float:
        return sum(self_by_name[name] for name in matching(*prefixes))

    def busy_s(*prefixes: str) -> float:
        return sum(busy_by_name[name] for name in matching(*prefixes))

    def span_durations(*prefixes: str) -> np.ndarray:
        parts = [d for name in matching(*prefixes) for d in durations_by_name[name]]
        return np.concatenate(parts) if parts else np.empty(0)

    wall = busy_s(*ROOTS)

    def share(seconds: float) -> float:
        return seconds / wall if wall else 0.0

    wrappers = [f"native.{kernel}" for kernel in KERNELS]
    calls = int(counters["native.calls"])
    steps = int(counters["native.steps"])
    pooled = busy_s("sharded.task") > 0
    # run_plan never nests, so its spans' durations add up to its wall.
    run_plan_s = busy_s("engine.run_plan")
    procs = int(counters["engine.procs"])
    engine_self = self_s("engine")
    op_wall = busy_s("bench.op")

    metrics: Dict[str, float] = {
        "generators.build_s": self_s("generators"),
        "graph.to_csr_s": self_s("graph.to_csr"),
        "graph.lcc_s": self_s("graph.lcc"),
        "graph.csr_bytes": int(counters["graph.csr_bytes"]),
        "sampling.starts": int(counters["sampling.starts"]),
        "sampling.start_us_p50": _percentile_us(span_durations("sampling.start"), 50),
        "sampling.start_us_p99": _percentile_us(span_durations("sampling.start"), 99),
        "sampling.self_s": self_s("sampling"),
        "sampling.take_trace_frac": share(self_s("sampling.take_trace")),
        "sampling.trace_bytes": int(counters["sampling.trace_bytes"]),
        "sampling.advance_into_frac": share(self_s("sampling.advance_into")),
        "sampling.block_bytes": int(counters["sampling.block_bytes"]),
        "native.calls": calls,
        "native.call_us_p50": _percentile_us(span_durations(*wrappers), 50),
        "native.call_us_p99": _percentile_us(span_durations(*wrappers), 99),
        "native.overhead_us_per_call": (
            self_s(*wrappers) / calls * 1e6 if calls else 0.0
        ),
        "native.steps_per_call": steps / calls if calls else 0.0,
        "native.steps": steps,
        "native.ns_per_step": self_s("kernel") / steps * 1e9 if steps else 0.0,
    }
    for kernel in KERNELS:
        metrics[f"native.{kernel}.calls"] = int(counters[f"native.{kernel}.calls"])
        metrics[f"native.{kernel}.frac"] = share(self_s(f"kernel.{kernel}"))
    metrics.update(
        {
            "estimators.update_frac": share(self_s("estimators.update")),
            "estimators.update_calls": int(counters["estimators.update_calls"]),
            "estimators.absorb_block_frac": share(self_s("estimators.absorb_block")),
            "estimators.estimate_s": self_s("estimators.estimate"),
            "engine.run_plan_s": run_plan_s,
            "engine.self_s": engine_self,
            "engine.replicates": int(counters["engine.replicates"]),
            "engine.wait_frac": share(engine_self) if pooled else 0.0,
            "sharded.busy_frac": (
                busy_s("sharded.task") / (procs * run_plan_s)
                if pooled and procs and run_plan_s
                else 0.0
            ),
            "suite.score_frac": share(self_s("suite")),
            "report.write_frac": share(self_s("report")),
            "markov.edge_gap_frac": share(self_s("markov")),
            "trace.wall_s": wall,
            "trace.spans": span_count,
            "trace.unattributed_frac": share(self_s(*ROOTS)),
            "trace.overhead_frac": (
                op_wall / untraced_wall - 1.0 if untraced_wall else 0.0
            ),
        }
    )
    return metrics
