"""The replication engine every figure, table and ablation runs on.

The paper's entire evaluation is one computation: replicate a sampler
``N`` times, estimate something from each replicate, aggregate across
replicates.  An :class:`ExperimentPlan` declares that computation —
graph (or graph factory), sampler grid, budget schedule, accumulator
and snapshot hooks — and :func:`run_plan` executes it:

- **one resumable session per replicate**: each replicate opens a
  :class:`~repro.sampling.session.SamplerSession` and advances it
  through the ascending budget (or step) checkpoints, so a sweep over
  ``k`` budget points walks ``budget_k`` steps total instead of
  ``sum_i budget_i`` (the pre-engine drivers re-sampled the full
  budget at every point).  A method's replicates advance in
  contiguous batches of at most 8, one kernel call per batch and
  checkpoint for the csr sessions;
- **streaming estimation**: every checkpoint is one
  ``SamplerSession.advance_into`` step per replicate, whose item — a
  :class:`~repro.sampling.fused.FusedBlock` of eq. (7)/(9) counts
  folded by the walk kernels when the plan's accumulator (typically
  one of :mod:`repro.estimators.streaming`) declares ``fused_needs()``,
  the ``take_trace()`` increment otherwise — reaches the accumulator
  through ``absorb_block`` or ``update``; the plan's ``snapshot`` hook
  then records the measurement.  Both paths give bit-identical rows;
- **multi-process fan-out**: ``run_plan(plan, replicates, procs=N)``
  with ``N > 1`` ships the replicates of pool-capable samplers to a
  spawn-safe :class:`~repro.sampling.sharded.ShardedSessionPool`
  sharing the graph through mmap'd read-only CSR buffers; its workers
  run the same checkpoint loop and return the items (blocks of counts
  rather than O(steps) traces whenever the accumulator fuses).  Every
  replicate derives its RNG as ``child_rng(seed, index)`` no matter
  which process runs it, and accumulation always happens in the parent
  in replicate order, so ``procs=1`` and ``procs=8`` are bit-identical
  — parallelism is a deployment knob, never a statistics change.

Replicate seeding matches the historical drivers exactly: method
``i`` of the sorted grid replicates with child streams of
``root_seed + METHOD_SEED_STRIDE * i`` unless the plan overrides
``method_seed``, so every ported driver reproduces its pre-engine
output bit for bit (or to float-summation noise where a streaming
accumulator replaces a batch estimator) at ``procs=None``.

Substrate semantics.  A session runs on what its sampler's
``backend=`` and the graph it is opened on say, and nothing else:

- a pool-capable sampler (SRW, MHRW, MultipleRW or FS not pinned to
  ``backend="list"``) opens on the graph's CSR
  (:func:`~repro.graph.csr.get_csr`) when ``plan.backend="csr"`` or
  ``procs`` is given.  The numpy draw protocol differs from the list
  backend's, so ``procs`` runs match ``plan.backend="csr"`` runs, not
  list-backend runs;
- every other sampler opens on the graph as given: the independent
  vertex/edge probes, anything pinned to ``backend="list"``, and
  :class:`~repro.sampling.sharded.ShardedFrontierSampler`, which fans
  out through its own ``procs``.  Their streams are the same for every
  ``procs`` value, so the procs-invariance guarantee holds method by
  method.

``procs=None`` and ``procs=1`` run one inline loop; a pool is built
only for ``procs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.graph.csr import get_csr
from repro.sampling.base import (
    Backend,
    Sampler,
    VertexTrace,
    WalkTrace,
    check_backend,
)
from repro.sampling.fused import FusedBlock, merge_needs
from repro.sampling.session import (
    _REPLICATE_BATCH,
    default_session_starter,
    record_checkpoints,
)
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk, MetropolisTrace
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk
from repro.sampling.vectorized import ArrayMetropolisTrace, ArrayWalkTrace

__all__ = [
    "METHOD_SEED_STRIDE",
    "ExperimentPlan",
    "MethodRun",
    "PlanResult",
    "TraceCollector",
    "concat_traces",
    "default_budget_schedule",
    "default_starter",
    "run_plan",
]

Checkpoints = Sequence[float]
#: ``starter(sampler, graph, seed, index) -> session`` — how one
#: replicate's session is opened.  Must be picklable (a module-level
#: function, or an instance of a module-level class) when the plan is
#: fanned out with ``procs``, since workers call it after spawn.
Starter = Callable[[Sampler, Any, int, int], Any]

#: Decorrelation stride between the sorted grid's method seeds — the
#: constant ``degree_error_experiment`` has used since the first
#: drivers, kept so ported drivers reproduce their historical streams.
METHOD_SEED_STRIDE = 7919

#: Sampler types whose sessions can run on the shared CSR, inline or
#: inside spawn workers.  Everything else opens on the graph as given
#: and replicates inline (deterministically, for any ``procs``).
_POOL_SAFE_TYPES = (
    SingleRandomWalk,
    MultipleRandomWalk,
    FrontierSampler,
    MetropolisHastingsWalk,
)


#: The engine's default starter IS the pool workers' default starter
#: (one definition in :mod:`repro.sampling.session`): the same
#: ``child_rng(root_seed, index)`` stream derivation, which is what
#: keeps inline and pooled replication bit-identical by construction.
default_starter = default_session_starter


def default_budget_schedule(budget: float, points: int = 8) -> List[float]:
    """Linearly spaced budget checkpoints ``budget/points .. budget``.

    The Section 4.4 style schedule: estimating at every point costs a
    single walk to ``budget`` under the engine, versus
    ``(points + 1)/2`` full-budget walks when re-sampling per point.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    return [budget * (i + 1) / points for i in range(points)]


def _pool_capable(sampler: Any) -> bool:
    """Whether ``sampler`` may run over the shared CSR (inline or in
    spawn workers)."""
    if not isinstance(sampler, _POOL_SAFE_TYPES):
        return False
    if getattr(sampler, "backend", None) == "list":
        return False
    return True


# ----------------------------------------------------------------------
# trace collection for batch estimators
# ----------------------------------------------------------------------
def concat_traces(traces: Sequence[Any]) -> Any:
    """Concatenate trace increments into one trace of the same type.

    Supports both backends' walk traces (including the Metropolis
    variants' visit sequences) and :class:`VertexTrace`.  ``budget``
    is taken from the last increment (the cumulative high-water
    value); ``initial_vertices``/``seed_cost`` from the first.
    """
    if not traces:
        raise ValueError("no traces to concatenate")
    first, last = traces[0], traces[-1]
    if isinstance(first, VertexTrace):
        return VertexTrace(
            method=first.method,
            vertices=[v for t in traces for v in t.vertices],
            budget=last.budget,
            cost_per_sample=first.cost_per_sample,
        )
    if isinstance(first, ArrayWalkTrace):
        sources = np.concatenate([t.step_sources for t in traces])
        targets = np.concatenate([t.step_targets for t in traces])
        walkers = (
            np.concatenate([t.step_walkers for t in traces])
            if all(t.step_walkers is not None for t in traces)
            else None
        )
        if isinstance(first, ArrayMetropolisTrace):
            return ArrayMetropolisTrace(
                first.method,
                sources,
                targets,
                list(first.initial_vertices),
                last.budget,
                first.seed_cost,
                step_walkers=walkers,
                visited_array=np.concatenate(
                    [t.visited_array for t in traces]
                ),
            )
        return ArrayWalkTrace(
            first.method,
            sources,
            targets,
            list(first.initial_vertices),
            last.budget,
            first.seed_cost,
            step_walkers=walkers,
        )
    edges = [e for t in traces for e in t.edges]
    indices = (
        [i for t in traces for i in t.walker_indices]
        if all(t.walker_indices is not None for t in traces)
        else None
    )
    per_walker = None
    if all(t.per_walker is not None for t in traces):
        walkers = len(first.per_walker)
        per_walker = [
            [e for t in traces for e in t.per_walker[w]]
            for w in range(walkers)
        ]
    merged = WalkTrace(
        method=first.method,
        edges=edges,
        initial_vertices=list(first.initial_vertices),
        budget=last.budget,
        seed_cost=first.seed_cost,
        per_walker=per_walker,
        walker_indices=indices,
    )
    if isinstance(first, MetropolisTrace):
        metropolis = MetropolisTrace(
            method=first.method,
            edges=edges,
            initial_vertices=list(first.initial_vertices),
            budget=last.budget,
            seed_cost=first.seed_cost,
        )
        metropolis.visited = [v for t in traces for v in t.visited]
        return metropolis
    return merged


class TraceCollector:
    """The accumulator for plans that read the trace itself.

    Plans whose measurement needs the walk, not its counts — sample
    path prefixes, a burn-in cut, the MH visit sequence — use this
    instead of a streaming accumulator: increments are retained and
    :meth:`trace` hands back the concatenated record.  Single-
    checkpoint plans get the session's one increment back unchanged,
    which is bit-identical to the one-shot ``Sampler.sample`` trace.

    Retaining the walk is the point, so this collector is *not* an
    O(chunk)-memory streaming accumulator: on a k-checkpoint schedule
    it holds the whole trace and re-concatenates at each snapshot
    (repeated ``trace()`` calls between updates are cached).  Plans
    sweeping many checkpoints should decompose their estimator into a
    running-sums accumulator (:mod:`repro.estimators.streaming`)
    instead.
    """

    def __init__(self) -> None:
        self._increments: List[Any] = []
        self._merged: Any = None

    def update(self, increment: Any) -> "TraceCollector":
        self._increments.append(increment)
        self._merged = None
        return self

    @property
    def increments(self) -> List[Any]:
        return list(self._increments)

    def trace(self) -> Any:
        if not self._increments:
            raise ValueError("no increments collected; cannot form a trace")
        if len(self._increments) == 1:
            return self._increments[0]
        if self._merged is None:
            self._merged = concat_traces(self._increments)
        return self._merged


def _collector_snapshot(method: str, accumulator: Any, checkpoint: float) -> Any:
    """Default snapshot: the cumulative trace at the checkpoint."""
    return accumulator.trace()


def _collector_accumulator(method: str) -> TraceCollector:
    return TraceCollector()


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass
class ExperimentPlan:
    """A declarative replicated experiment.

    ``graph`` may be the graph object itself or a zero-argument
    factory (resolved once per :func:`run_plan` call).  ``budgets``
    is the ascending checkpoint schedule — one sequence shared by
    every method, or a per-method mapping.  ``accumulator(method)``
    builds one fresh accumulator per replicate (anything with
    ``update(trace_increment)``; defaults to :class:`TraceCollector`),
    and ``snapshot(method, accumulator, checkpoint)`` records the
    measurement at each checkpoint (defaults to the collector's
    cumulative trace).  ``method_seed`` overrides the per-method
    replicate seed (mapping or ``(method, index) -> seed``); the
    default is ``root_seed + METHOD_SEED_STRIDE * index`` over the
    sorted grid.  ``starter`` overrides session construction (per
    method or globally) — see :data:`Starter` for the picklability
    contract under ``procs``.
    """

    title: str
    graph: Any
    samplers: Mapping[str, Sampler]
    budgets: Union[Checkpoints, Mapping[str, Checkpoints]] = ()
    accumulator: Optional[Callable[[str], Any]] = None
    snapshot: Optional[Callable[[str, Any, float], Any]] = None
    #: "budget" advances sessions with ``advance_budget(checkpoint)``;
    #: "steps" treats checkpoints as cumulative step counts and uses
    #: plain ``advance`` (per-walker steps for MultipleRW).
    schedule: str = "budget"
    root_seed: int = 0
    method_seed: Optional[
        Union[Mapping[str, int], Callable[[str, int], int]]
    ] = None
    starter: Optional[Union[Starter, Mapping[str, Starter]]] = None
    backend: Optional[Backend] = None

    def __post_init__(self) -> None:
        check_backend(self.backend)
        if self.schedule not in ("budget", "steps"):
            raise ValueError(
                f"schedule must be 'budget' or 'steps', got {self.schedule!r}"
            )

    def resolve_graph(self) -> Any:
        """The graph object (invokes a factory input exactly once)."""
        return self.graph() if callable(self.graph) else self.graph

    def methods(self) -> List[str]:
        """Grid methods in replication order (sorted, as the
        historical drivers iterated them)."""
        return sorted(self.samplers)

    def checkpoints_for(self, method: str) -> List[float]:
        """The validated ascending checkpoint schedule for ``method``."""
        schedule = (
            self.budgets[method]
            if isinstance(self.budgets, Mapping)
            else self.budgets
        )
        checkpoints = [float(b) for b in schedule]
        if not checkpoints or any(
            b > a for b, a in zip(checkpoints, checkpoints[1:])
        ):
            raise ValueError(
                "budgets must be a non-empty ascending sequence,"
                f" got {schedule!r} for method {method!r}"
            )
        return checkpoints

    def seed_for(self, method: str, method_index: int) -> int:
        if self.method_seed is None:
            return self.root_seed + METHOD_SEED_STRIDE * method_index
        if isinstance(self.method_seed, Mapping):
            return int(self.method_seed[method])
        return int(self.method_seed(method, method_index))

    def starter_for(self, method: str) -> Starter:
        if self.starter is None:
            return default_starter
        if isinstance(self.starter, Mapping):
            return self.starter.get(method, default_starter)
        return self.starter

    def accumulator_for(self, method: str) -> Any:
        factory = (
            self.accumulator
            if self.accumulator is not None
            else _collector_accumulator
        )
        return factory(method)

    def snapshot_hook(self) -> Callable[[str, Any, float], Any]:
        return (
            self.snapshot if self.snapshot is not None else _collector_snapshot
        )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class MethodRun:
    """One method's replicated measurements plus session accounting."""

    method: str
    checkpoints: List[float]
    #: ``rows[replicate][checkpoint_index]`` — the snapshot values.
    rows: List[List[Any]] = field(default_factory=list)
    #: Steps each replicate's *single* session took over the whole
    #: schedule (per-walker steps for MultipleRW).  A budget sweep that
    #: re-walked per point would show ~``sum_i steps_i`` here; the
    #: engine shows the final checkpoint's step count.
    steps_taken: List[int] = field(default_factory=list)
    #: Whether the sessions ran on the graph's shared CSR (inline or in
    #: pool workers) rather than on the graph as given.
    pooled: bool = False

    @property
    def replicates(self) -> int:
        return len(self.rows)

    @property
    def sessions_started(self) -> int:
        """Sessions opened == replicates: one walk per replicate."""
        return len(self.rows)

    def total_steps(self) -> int:
        return sum(self.steps_taken)

    def _index_of(self, checkpoint: Optional[float]) -> int:
        if checkpoint is None:
            return len(self.checkpoints) - 1
        return self.checkpoints.index(float(checkpoint))

    def measurements(self, checkpoint: Optional[float] = None) -> List[Any]:
        """The replicate-ordered column at one checkpoint (default:
        the final one)."""
        position = self._index_of(checkpoint)
        return [row[position] for row in self.rows]


@dataclass
class PlanResult:
    """Everything :func:`run_plan` produced, method by method."""

    title: str
    replicates: int
    graph: Any
    procs: Optional[int] = None
    executor: Optional[str] = None
    methods: Dict[str, MethodRun] = field(default_factory=dict)

    def run(self, method: str) -> MethodRun:
        return self.methods[method]

    def measurements(
        self, method: str, checkpoint: Optional[float] = None
    ) -> List[Any]:
        return self.methods[method].measurements(checkpoint)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_plan(
    plan: ExperimentPlan,
    replicates: int,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> PlanResult:
    """Execute ``plan`` with ``replicates`` independent sessions per
    method.

    A pool-capable sampler opens its sessions on the graph's CSR when
    ``plan.backend="csr"`` or ``procs`` is given; every other sampler
    opens on the graph as given (see the module docstring).
    ``procs=None`` and ``procs=1`` run every replicate inline.
    ``procs > 1`` fans the CSR sessions out by ``executor``:
    ``"spawn"`` (the default) ships them to worker processes,
    ``"thread"`` drives them from a thread pool over the in-process
    graph (no spill, no pickling; the native kernels release the GIL),
    ``"auto"`` picks threads exactly when they can scale (see
    :func:`repro.sampling.sharded.resolve_executor`).  Results are
    bit-identical for every ``procs`` value and executor at a fixed
    seed.  Accumulation and snapshots always run in the parent
    process, in replicate order.

    Inline, each method's CSR replicates run in contiguous batches of
    at most 8 through :func:`~repro.sampling.session.record_checkpoints`
    (every other sampler's, one at a time):
    the batch's sessions are opened first (a starter derives each
    replicate's stream from its index alone, so this changes no draw),
    then walk together, one kernel call per checkpoint.  Rows are
    produced lazily, one batch's items at a time.
    """
    graph = plan.resolve_graph()
    methods = plan.methods()
    if methods and replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if executor is not None:
        if procs is None:
            raise ValueError(
                "executor selects how the procs fan-out runs; pass"
                " procs=N alongside executor"
            )
        from repro.sampling.sharded import resolve_executor

        resolve_executor(executor)  # reject bad names before running
    if procs is not None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if plan.backend == "list":
            raise ValueError(
                "procs fan-out runs sessions over shared CSR buffers;"
                " a backend='list' plan cannot be pooled — use"
                " procs=None (or backend='csr')"
            )
    result = PlanResult(
        title=plan.title,
        replicates=replicates,
        graph=graph,
        procs=procs,
        executor=executor,
    )
    snapshot = plan.snapshot_hook()
    pool = None
    try:
        for method_index, method in enumerate(methods):
            sampler = plan.samplers[method]
            checkpoints = plan.checkpoints_for(method)
            seed = plan.seed_for(method, method_index)
            starter = plan.starter_for(method)
            on_csr = _pool_capable(sampler) and (
                plan.backend == "csr" or procs is not None
            )
            # Block statistics the plan's accumulator can absorb (probed
            # on a throwaway accumulator), or None for the trace path.
            needs = merge_needs((plan.accumulator_for(method),))
            run = MethodRun(
                method=method, checkpoints=checkpoints, pooled=on_csr
            )
            rows: Iterable[Tuple[List[Any], int]]
            if on_csr and procs is not None and procs > 1:
                if pool is None:
                    from repro.sampling.sharded import ShardedSessionPool

                    pool = ShardedSessionPool(
                        graph, procs=procs, executor=executor
                    )
                rows = pool.run_anytime(
                    sampler,
                    checkpoints,
                    replicates,
                    root_seed=seed,
                    schedule=plan.schedule,
                    starter=starter,
                    lazy=True,
                    needs=needs,
                )
            else:
                # The pool workers' loop, run inline over contiguous
                # batches of replicates that walk together: rows are
                # produced lazily, so one batch's items are held at a
                # time.  Sessions off the CSR cannot share a kernel
                # call, so they open one at a time (a sharded FS
                # session owns a worker pool while it is open).
                substrate = get_csr(graph) if on_csr else graph
                size = _REPLICATE_BATCH if on_csr else 1
                rows = (
                    row
                    for first in range(0, replicates, size)
                    for row in record_checkpoints(
                        [
                            starter(sampler, substrate, seed, index)
                            for index in range(
                                first, min(first + size, replicates)
                            )
                        ],
                        plan.schedule,
                        checkpoints,
                        needs,
                    )
                )
            for items, steps in rows:
                accumulator = plan.accumulator_for(method)
                row: List[Any] = []
                for checkpoint, item in zip(checkpoints, items):
                    # List-backend sessions have no block path and hand
                    # back increments whatever the needs.
                    if isinstance(item, FusedBlock):
                        accumulator.absorb_block(item)
                    else:
                        accumulator.update(item)
                    row.append(snapshot(method, accumulator, checkpoint))
                run.rows.append(row)
                run.steps_taken.append(int(steps))
            result.methods[method] = run
    finally:
        if pool is not None:
            pool.close()
    return result
