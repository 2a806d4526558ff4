"""Multi-process frontier sharding over mmap'd CSR buffers.

Theorem 5.5 (Section 5.3) says FS needs no coordinator: ``m``
independent walkers with ``Exponential(deg(v))`` holding times produce,
when their jump streams are merged in time order, exactly the FS chain.
Independence is the whole point — so the frontier can be *sharded
across OS processes* with zero communication beyond the final merge.
This module assembles the pieces PR 3 built (picklable session state,
mmap'd ``save_csr_npy``/``load_csr_npy`` buffers, the batch walk
kernels) into that engine:

- :class:`ShardedFrontierSampler` — FS realized as per-process shards
  of exponential-clock walkers sharing the graph through read-only
  mmap'd CSR files (never pickled), merged into one time-ordered
  :class:`~repro.sampling.vectorized.ArrayWalkTrace`.  It is the
  repo's one implementation of Theorem 5.5: at ``procs=1`` the shards
  run inline, which is how the ablations, the suite's ``dfs`` kind and
  the CLI's ``--sampler dfs`` run it.
- :class:`ShardedSessionPool` — the generic fan-out: run many
  *independent* sampler sessions (SRW / MHRW / MultipleRW / FS
  replicates) across worker processes over one shared graph.

Determinism contract.  Every walker owns two private
``numpy.random.Generator`` streams derived from the root seed by
``SeedSequence`` spawn keys — ``(stream_tag, walker_index)`` — and
events are generated in fixed-size blocks of ``event_block`` steps
(one block = one contiguous ``rng.random`` draw for the walk plus one
``standard_exponential`` draw for the holdings, jump times accumulated
per block).  A walker's event stream is therefore a pure function of
``(seed, walker_index, graph, event_block)``: it does not depend on
the shard count, on which process generated it, on worker scheduling,
or on how a session's ``advance`` calls were chunked.  The merged
trace — the globally first ``n`` events in jump-time order — inherits
all four invariances, so a fixed ``(seed, n_procs)`` run is
bit-reproducible, and shard-count 1 and ``k`` produce identical
traces.

The clock realization also sidesteps Algorithm 1's per-step
degree-proportional walker pick (an O(log m) Fenwick descent in the
native FS kernel): each sharded walker advances in O(1) per event
through the SRW kernel, and the shards run in parallel once real cores
are available.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.graph.csr import CSRGraph, get_csr
from repro.graph.io import load_csr_npy, shared_csr_stem
from repro.sampling import _native
from repro.sampling.base import (
    Sampler,
    SeedingMode,
    check_pinned_seeds,
    check_seeding,
    require_walkable_seeds,
)
from repro.sampling.fused import FusedNeeds, block_from_arrays, merge_needs
from repro.sampling.session import (
    SamplerSession,
    _accumulator_parts,
    concat_chunks,
    default_session_starter,
    record_checkpoints,
)
from repro.sampling.vectorized import (
    ArrayWalkTrace,
    make_seeds_np,
    run_random_walk,
)
from repro.util.reentrancy import non_reentrant, thread_core
from repro.util.rng import NpRngLike

#: Default per-walker event-generation block (steps).  The block size
#: is part of the draw protocol: per-block time accumulation
#: (``clock + cumsum(holdings)``) is only bit-reproducible if block
#: boundaries fall at fixed per-walker event counts, so a session's
#: block size must never depend on shard count or advance chunking —
#: it is fixed at sampler construction (``event_block=``) and traces
#: are only comparable across runs with the same value.
EVENT_BLOCK = 128

#: SeedSequence spawn-key stream tags (first component of the key).
_SEED_STREAM = 0  # seed drawing, index 0
_WALK_STREAM = 1  # per-walker neighbor choices
_HOLD_STREAM = 2  # per-walker exponential holding times

#: Execution backends for the parallel coordinators.  ``None`` means
#: the legacy default (spawn).  The executor moves work around; it is
#: never part of the draw protocol — every replicate/walker stream is
#: a pure function of ``(root seed, index)``, so traces are
#: bit-identical across executors by construction.
VALID_EXECUTORS = ("auto", "thread", "spawn")


def threads_can_scale() -> bool:
    """Can a thread fan-out actually use more than one core?

    True when the native kernels are loadable — ``ctypes`` releases
    the GIL for the duration of every foreign call, so concurrent
    sessions overlap their kernel time — or when the interpreter
    itself runs without a GIL (a free-threaded 3.13+ build reports
    ``sys._is_gil_enabled() == False``).  The pure-Python kernels hold
    the GIL for their entire step loop, so without either escape hatch
    threads serialize and only add overhead.
    """
    if _native.available():
        return True
    gil_check = getattr(sys, "_is_gil_enabled", None)
    return gil_check is not None and not gil_check()


def resolve_executor(executor: Optional[str]) -> str:
    """Map an ``executor=`` argument to a concrete backend.

    ``None`` keeps the legacy spawn behavior.  ``"auto"`` picks
    ``"thread"`` exactly when :func:`threads_can_scale` says threads
    can overlap (native kernels available, or a no-GIL interpreter)
    and falls back to ``"spawn"`` otherwise — the documented heuristic
    for the pure-Python fallback, which cannot release the GIL.
    ``"thread"`` and ``"spawn"`` are always honored as given (an
    explicit thread request without native kernels is correct, just
    not faster).
    """
    if executor is None:
        return "spawn"
    if executor not in VALID_EXECUTORS:
        raise ValueError(
            f"executor must be one of {VALID_EXECUTORS} or None,"
            f" got {executor!r}"
        )
    if executor == "auto":
        return "thread" if threads_can_scale() else "spawn"
    return executor


def _root_entropy(rng: NpRngLike) -> int:
    """A 64-bit root entropy from any accepted RNG-ish input."""
    if rng is None:
        # repro-lint: disable=RPL005 -- rng=None explicitly requests a
        # fresh OS-entropy root; every deterministic path passes a seed.
        return int.from_bytes(os.urandom(8), "little")
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 1 << 63))
    if isinstance(rng, random.Random):
        return rng.getrandbits(64)
    if isinstance(rng, bool):  # bool is an int subclass; almost surely a bug
        raise TypeError(
            "rng must be an int seed, random.Random, numpy Generator,"
            " or None"
        )
    if isinstance(rng, int):
        return rng
    raise TypeError(
        "rng must be an int seed, random.Random, numpy Generator, or"
        f" None, got {type(rng)!r}"
    )


def _stream_rng(entropy: int, tag: int, index: int = 0) -> np.random.Generator:
    """The spawn-key-derived generator for one (stream, walker) slot."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(tag, index))
    )


@dataclass
class _WalkerClock:
    """One exponential-clock walker's spawn-safe, picklable state."""

    index: int
    position: int
    clock: float
    walk_rng: np.random.Generator
    hold_rng: np.random.Generator


def _advance_blocks(
    csr: CSRGraph,
    walker: _WalkerClock,
    blocks: int,
    block_size: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate ``blocks`` more event blocks for one walker.

    Returns ``(times, sources, targets)`` for the new events and
    advances the walker's position/clock/streams in place.  These are
    Theorem 5.5's semantics: leaving vertex ``u`` takes
    ``Exponential(deg(u))`` — including the initial holding at the
    seed — and the jump crosses a uniform incident edge.

    The random draws for all blocks happen in two contiguous stream
    reads (one walk, one holding) — stream-equivalent to block-by-block
    draws, so any run that reaches event ``j`` of this walker computes
    it bit-identically.  Jump times are still accumulated strictly per
    block (the clock hand-off between blocks is a scalar read of the
    previous block's last time), which pins their floating-point
    association to block boundaries regardless of how many blocks one
    call requests.
    """
    steps = blocks * block_size
    (final,), record = run_random_walk(
        csr, [walker.position], steps, walker.walk_rng
    )
    assert record is not None
    sources, targets = record
    indptr = csr.indptr
    rates = (indptr[sources + 1] - indptr[sources]).astype(np.float64)
    holdings = walker.hold_rng.standard_exponential(steps) / rates
    times = np.empty(steps, dtype=np.float64)
    clock = walker.clock
    for k in range(blocks):
        block = slice(k * block_size, (k + 1) * block_size)
        np.cumsum(holdings[block], out=times[block])
        times[block] += clock
        clock = float(times[(k + 1) * block_size - 1])
    walker.position = final
    walker.clock = clock
    return times, sources, targets


# ----------------------------------------------------------------------
# worker plumbing.  The core task functions take the graph as an
# explicit argument, so the inline and thread paths call them directly
# over the in-process CSR — no shared mutable module state, which is
# what lets many threads run tasks concurrently.  The spawn path wraps
# the same cores in module-level functions that read the per-process
# global the pool initializer pins (spawn start method; graph shared
# via mmap, never pickled).  Inline, thread and spawn therefore execute
# the identical task code; only the transport differs, never the draw
# protocol.
# ----------------------------------------------------------------------
_WORKER_CSR: Optional[CSRGraph] = None


@non_reentrant("writes the per-process worker globals (_WORKER_CSR)")
def _worker_init(stem: str) -> None:
    """Pool initializer: reopen the shared graph read-only via mmap."""
    global _WORKER_CSR
    _WORKER_CSR = load_csr_npy(stem, mmap=True)


@thread_core
def _shard_advance_task(
    csr: CSRGraph,
    task: Tuple[int, List[Tuple[_WalkerClock, int]]],
) -> List[Tuple[_WalkerClock, np.ndarray, np.ndarray, np.ndarray]]:
    """Advance each ``(walker, blocks)`` in the shard."""
    block_size, shard = task
    out = []
    for walker, blocks in shard:
        times, sources, targets = _advance_blocks(
            csr, walker, blocks, block_size
        )
        out.append((walker, times, sources, targets))
    return out


#: ``(starter, sampler, schedule, checkpoints, root_seed, index, needs)``.
_AnytimeArgs = Tuple[Any, Any, str, List[float], int, int, Optional[FusedNeeds]]


@thread_core
def _anytime_task(csr: CSRGraph, args: _AnytimeArgs) -> Tuple[List[Any], int]:
    """One anytime session advanced through every checkpoint.

    Returns ``(items, steps_taken)`` — one item per checkpoint (a
    :class:`~repro.sampling.fused.FusedBlock` when ``needs`` is given,
    the ``take_trace`` increment otherwise) and the session's final
    step count.  The checkpoint loop itself is
    :func:`~repro.sampling.session.record_checkpoints` — the same
    function the experiment engine's in-process path runs, so the
    pooled and in-process paths cannot drift apart.
    """
    starter, sampler, schedule, checkpoints, root_seed, index, needs = args
    session = starter(sampler, csr, root_seed, index)
    return record_checkpoints(session, schedule, checkpoints, needs)


def _shard_advance(
    task: Tuple[int, List[Tuple[_WalkerClock, int]]],
) -> List[Tuple[_WalkerClock, np.ndarray, np.ndarray, np.ndarray]]:
    """Spawn wrapper for :func:`_shard_advance_task`."""
    return _shard_advance_task(_WORKER_CSR, task)


def _pool_anytime_one(args: _AnytimeArgs) -> Tuple[List[Any], int]:
    """Spawn wrapper for :func:`_anytime_task`."""
    return _anytime_task(_WORKER_CSR, args)


def _partition(items: List[Any], shards: int) -> List[List[Any]]:
    """Split ``items`` into ``shards`` contiguous, near-even groups."""
    shards = max(1, min(shards, len(items)))
    bounds = np.linspace(0, len(items), shards + 1).astype(int)
    return [
        items[bounds[i] : bounds[i + 1]]
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]


class _SpawnPoolMixin:
    """Shared executor + graph-spill lifecycle for the coordinators.

    Holds at most one live fan-out vehicle: a spawn process pool (with
    the graph spilled to mmap'd files for the workers) or a
    ``ThreadPoolExecutor`` (which needs neither spill nor pickling —
    threads read the coordinator's own ``CSRGraph``).
    """

    def _init_sharing(
        self, procs: Optional[int], executor: Optional[str] = None
    ) -> None:
        if procs is not None and procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.procs = int(procs) if procs is not None else (os.cpu_count() or 1)
        self.executor = resolve_executor(executor)
        self._pool: Optional[Any] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self._spill_dir: Optional[Path] = None
        self._stem: Optional[Path] = None

    def _ensure_stem(self, csr: CSRGraph) -> Path:
        if self._stem is None:
            self._stem, self._spill_dir = shared_csr_stem(csr)
        return self._stem

    def _ensure_pool(self, csr: CSRGraph) -> Any:
        if self._pool is None:
            context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(
                self.procs,
                initializer=_worker_init,
                initargs=(str(self._ensure_stem(csr)),),
            )
        return self._pool

    def _ensure_threads(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.procs, thread_name_prefix="repro-shard"
            )
        return self._threads

    def close(self) -> None:
        """Shut down the workers and remove any temp-spilled graph."""
        pool, self._pool = getattr(self, "_pool", None), None
        if pool is not None:
            pool.terminate()
            pool.join()
        threads, self._threads = getattr(self, "_threads", None), None
        if threads is not None:
            threads.shutdown(wait=True, cancel_futures=True)
        spill, self._spill_dir = getattr(self, "_spill_dir", None), None
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)
        self._stem = None

    def __enter__(self) -> "_SpawnPoolMixin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# the sharded FS engine
# ----------------------------------------------------------------------
class ShardedFrontierSession(_SpawnPoolMixin, SamplerSession):
    """FS as per-process shards of exponential-clock walkers.

    ``advance(n)`` extends the *merged* jump sequence by ``n`` events:
    shards generate per-walker event blocks (in workers when
    ``procs > 1`` and processes are enabled, inline otherwise), the
    coordinator merges everything generated so far by ``(jump_time,
    walker_index)`` and commits the first ``n`` uncommitted events to
    the trace; overshoot events stay buffered for the next advance, so
    chunking never re-draws randomness.  See the module docstring for
    the invariances this buys.

    The pool, the spilled graph files and the CSR handle are excluded
    from pickling — a checkpointed session carries only walker clocks,
    stream states and buffered events, and rebuilds the rest lazily
    after :func:`~repro.sampling.session.load_session`.
    """

    _UNPICKLED = ("_csr", "_pool", "_threads", "_spill_dir", "_stem")

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: NpRngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        entropy = _root_entropy(rng)
        csr = get_csr(graph)
        if initial_vertices is None:
            seeds = make_seeds_np(
                csr,
                sampler.dimension,
                sampler.seeding,
                _stream_rng(entropy, _SEED_STREAM),
            )
        else:
            seeds = [int(v) for v in initial_vertices]
        super(_SpawnPoolMixin, self).__init__(sampler, graph, seeds)
        require_walkable_seeds(csr, seeds, "FS cannot walk from it")
        self.entropy = entropy
        self._init_sharing(sampler.procs, sampler.executor)
        self._use_processes = sampler.use_processes
        self.event_block = int(sampler.event_block)
        self._walkers = [
            _WalkerClock(
                index=i,
                position=int(v),
                clock=0.0,
                walk_rng=_stream_rng(entropy, _WALK_STREAM, i),
                hold_rng=_stream_rng(entropy, _HOLD_STREAM, i),
            )
            for i, v in enumerate(seeds)
        ]
        # Generated-but-uncommitted events (chunks of parallel arrays).
        self._pending_times: List[np.ndarray] = []
        self._pending_walkers: List[np.ndarray] = []
        self._pending_sources: List[np.ndarray] = []
        self._pending_targets: List[np.ndarray] = []
        # Committed trace record (chunks, concatenated lazily).
        self._time_chunks: List[np.ndarray] = []
        self._walker_chunks: List[np.ndarray] = []
        self._source_chunks: List[np.ndarray] = []
        self._target_chunks: List[np.ndarray] = []
        self._csr = csr

    # ------------------------------------------------------------------
    # event generation
    # ------------------------------------------------------------------
    def _generate(self, blocks_by_walker: Dict[int, int]) -> None:
        """Extend the named walkers' event streams by the given blocks."""
        items = [
            (self._walkers[index], blocks)
            for index, blocks in sorted(blocks_by_walker.items())
        ]
        run_parallel = self._use_processes is not False and self.procs > 1
        tasks = [
            (self.event_block, shard)
            for shard in _partition(items, self.procs)
        ]
        if not run_parallel:
            shard_results = [
                _shard_advance_task(self._csr, task) for task in tasks
            ]
        elif self.executor == "thread":
            shard_results = list(
                self._ensure_threads().map(
                    partial(_shard_advance_task, self._csr),
                    tasks,
                )
            )
        else:
            pool = self._ensure_pool(self._csr)
            shard_results = pool.map(_shard_advance, tasks)
        for result in shard_results:
            for walker, times, sources, targets in result:
                # The pool round-trips walker state by value; adopt the
                # advanced copy as the authoritative one.
                self._walkers[walker.index] = walker
                self._pending_times.append(times)
                self._pending_walkers.append(
                    np.full(times.size, walker.index, dtype=np.int64)
                )
                self._pending_sources.append(sources)
                self._pending_targets.append(targets)

    def _pending_size(self) -> int:
        return sum(chunk.size for chunk in self._pending_times)

    def _ensure_coverage(self, need: int) -> np.ndarray:
        """Generate until the first ``need`` merged events are final.

        The merged prefix is final once (a) at least ``need`` events
        are buffered and (b) every walker's clock has passed the
        ``need``-th smallest buffered time — then no walker can still
        produce an event that belongs in the prefix.  All decisions
        here use only global, deterministic state, so the generated
        streams are identical for any shard count.  Returns the
        concatenated buffered times so the caller's merge does not
        re-walk the buffer.
        """
        m = len(self._walkers)
        block = self.event_block
        while True:
            total = self._pending_size()
            if total < need:
                blocks = max(1, math.ceil((need - total) / (m * block)))
                self._generate({i: blocks for i in range(m)})
                continue
            times = np.concatenate(self._pending_times)
            horizon = float(np.partition(times, need - 1)[need - 1])
            lagging = {
                walker.index: 1
                for walker in self._walkers
                if walker.clock < horizon
            }
            if not lagging:
                return times
            self._generate(lagging)

    # ------------------------------------------------------------------
    # session protocol
    # ------------------------------------------------------------------
    def _advance(self, steps: int) -> None:
        times = self._ensure_coverage(steps)
        walkers = np.concatenate(self._pending_walkers)
        sources = np.concatenate(self._pending_sources)
        targets = np.concatenate(self._pending_targets)
        # Stable sort on jump time: each buffered chunk is already an
        # ascending run, which the stable (tim)sort exploits — and its
        # tie-break (buffer position == walker order within each
        # deterministic generation round) is itself shard-count- and
        # scheduling-invariant, so exact-tie times cannot wobble the
        # merge.
        order = np.argsort(times, kind="stable")
        take, keep = order[:steps], order[steps:]
        # Commit the merged prefix in time order...
        self._time_chunks.append(times[take])
        self._walker_chunks.append(walkers[take])
        self._source_chunks.append(sources[take])
        self._target_chunks.append(targets[take])
        # ...and re-buffer the overshoot (restored to generation order
        # so buffered chunks stay deterministic regardless of `steps`).
        keep = np.sort(keep)
        self._pending_times = [times[keep]]
        self._pending_walkers = [walkers[keep]]
        self._pending_sources = [sources[keep]]
        self._pending_targets = [targets[keep]]

    _concat = staticmethod(concat_chunks)

    def trace(self) -> ArrayWalkTrace:
        trace = ArrayWalkTrace(
            method=self.method,
            step_sources=self._concat(self._source_chunks),
            step_targets=self._concat(self._target_chunks),
            initial_vertices=list(self.initial_vertices),
            budget=self._trace_budget(),
            seed_cost=self.seed_cost,
            step_walkers=self._concat(self._walker_chunks),
        )
        #: Continuous jump times of the merged events (float64,
        #: ascending) — the collector-side view Theorem 5.5 describes.
        trace.step_times = (
            np.concatenate(self._time_chunks)
            if self._time_chunks
            else np.empty(0, dtype=np.float64)
        )
        return trace

    def _clear_record(self) -> None:
        self._time_chunks = []
        self._walker_chunks = []
        self._source_chunks = []
        self._target_chunks = []

    def advance_into(
        self,
        accumulators: Any,
        steps: Optional[int] = None,
        budget: Optional[float] = None,
    ) -> int:
        """Advance, then fold the committed increment as one block.

        The sharded session must materialize per-shard event arrays
        anyway (the time-ordered merge is what makes shard count a
        deployment knob), so its block path folds each committed
        increment into a :class:`~repro.sampling.fused.FusedBlock` with
        the vectorized integer kernels instead of running the C
        accumulators.  Because every block field is an exact int64
        count, the per-shard/per-chunk fold order cannot change the
        result — the merge is time-order-invariant by construction —
        and estimates stay bit-identical to the trace path.
        """
        parts = _accumulator_parts(accumulators)
        needs = merge_needs(parts)
        if needs is None:
            return super().advance_into(
                accumulators, steps=steps, budget=budget
            )
        taken = self._step(steps, budget)
        increment = self.take_trace()
        block = block_from_arrays(
            needs,
            self._csr.degrees(),
            increment.step_sources,
            increment.step_targets,
        )
        for part in parts:
            part.absorb_block(block)
        return taken

    def _reattach(self, graph: Any) -> None:
        self._csr = get_csr(graph)


class ShardedFrontierSampler(Sampler):
    """FS sharded across OS processes (Theorem 5.5, industrialized).

    Splits the ``dimension`` walkers into per-process shards of
    independent exponential-clock walkers; workers share the graph
    through read-only mmap'd CSR buffers (spilled to a temp directory
    automatically when the input graph is in-memory) and the
    coordinator merges jump streams by time into an
    :class:`~repro.sampling.vectorized.ArrayWalkTrace`.  Budget
    accounting matches :class:`~repro.sampling.frontier.FrontierSampler`
    exactly: ``m`` seeds at ``seed_cost`` each, one unit per merged
    jump.

    ``procs=None`` uses every CPU; ``use_processes=False`` runs the
    shard tasks inline (same draw protocol, no pool — useful for tests
    and single-core hosts).  ``executor`` picks the fan-out vehicle
    when ``procs > 1``: ``"spawn"`` (the default, ``None``) ships
    shards to worker processes over mmap'd CSR buffers, ``"thread"``
    drives them from a ``ThreadPoolExecutor`` over the in-process
    graph (no spill, no pickling — the native kernels release the GIL
    for the whole batch call), and ``"auto"`` picks threads exactly
    when they can scale (see
    :func:`~repro.sampling.sharded.resolve_executor`).  Traces are
    bit-identical across executors.  There is no ``walker_selection``
    knob: the exponential-clock realization *is* the
    degree-proportional pick (that is Theorem 5.5's content).
    Sessions returned by :meth:`start` hold worker resources and
    possibly temp files — call ``close()`` (or use the session as a
    context manager) when done.
    """

    name = "ShardedFS"

    def __init__(
        self,
        dimension: int,
        seeding: SeedingMode = "uniform",
        seed_cost: float = 1.0,
        procs: Optional[int] = None,
        use_processes: Optional[bool] = None,
        event_block: int = EVENT_BLOCK,
        executor: Optional[str] = None,
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.seeding = check_seeding(seeding)
        if seed_cost < 0:
            raise ValueError(f"seed_cost must be >= 0, got {seed_cost}")
        self.seed_cost = seed_cost
        if procs is not None and procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.procs = procs
        self.use_processes = use_processes
        if event_block < 1:
            raise ValueError(
                f"event_block must be >= 1, got {event_block}"
            )
        self.event_block = int(event_block)
        resolve_executor(executor)  # validate the name eagerly
        self.executor = executor

    def start(
        self,
        graph: Any,
        rng: NpRngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> ShardedFrontierSession:
        """Seed the sharded walkers and return their session."""
        if initial_vertices is not None:
            check_pinned_seeds(initial_vertices, self.dimension)
        return ShardedFrontierSession(
            self, graph, rng, initial_vertices=initial_vertices
        )

    def sample(
        self, graph: Any, budget: float, rng: NpRngLike = None
    ) -> ArrayWalkTrace:
        """One-shot sample; closes the session's pool before returning."""
        with self.start(graph, rng=rng) as session:
            session.advance_budget(budget)
            return session.trace()

    def sample_from(
        self,
        graph: Any,
        initial_vertices: Sequence[int],
        num_steps: int,
        rng: NpRngLike = None,
    ) -> ArrayWalkTrace:
        """Run from explicit initial positions for ``num_steps`` jumps."""
        with self.start(graph, rng, initial_vertices=initial_vertices) as s:
            s.advance(num_steps)
            return s.trace()

    def __repr__(self) -> str:
        return (
            f"ShardedFrontierSampler(dimension={self.dimension},"
            f" seeding={self.seeding!r}, seed_cost={self.seed_cost},"
            f" procs={self.procs})"
        )


# ----------------------------------------------------------------------
# generic independent-session fan-out
# ----------------------------------------------------------------------
class ShardedSessionPool(_SpawnPoolMixin):
    """Run independent sampler sessions across processes, one shared graph.

    The graph crosses the process boundary as mmap'd read-only CSR
    buffers (spilled to a temp directory unless already file-backed);
    each run derives its RNG as ``child_rng(root_seed, index)`` —
    exactly the stream :func:`repro.experiments.runner.replicate`
    hands out — so ``pool.run(sampler, budget, runs)`` reproduces the
    in-process replication bit for bit, just fanned out.

    Suited to samplers whose sessions run on the csr backend: SRW,
    MHRW, MultipleRW, FS.  :class:`ShardedFrontierSampler` is rejected
    up front (it fans out through its own ``procs``).  Each session
    picks its kernels per process (the C kernels unless
    ``REPRO_NO_NATIVE`` is set or none compiled).

    ``executor`` picks the fan-out vehicle when ``procs > 1``:
    ``"spawn"`` (the default) ships tasks to worker processes,
    ``"thread"`` runs the identical task functions in a
    ``ThreadPoolExecutor`` over this process's ``CSRGraph`` — zero
    startup, zero serialization — and ``"auto"`` chooses threads
    exactly when :func:`resolve_executor` says they can scale.
    Results are bit-identical across executors.
    """

    def __init__(
        self,
        graph: Any,
        procs: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> None:
        self._csr = get_csr(graph)
        self._init_sharing(procs, executor)

    @staticmethod
    def _check_run(sampler: Any, runs: int) -> None:
        if isinstance(sampler, ShardedFrontierSampler):
            # Its sessions would build a nested Pool inside daemonic
            # spawn workers, which multiprocessing forbids.
            raise TypeError(
                "ShardedFrontierSampler fans out its own worker"
                " processes (procs=...); run it directly instead of"
                " through ShardedSessionPool"
            )
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")

    def run(
        self, sampler: Any, budget: float, runs: int, root_seed: int = 0
    ) -> List[Any]:
        """``runs`` independent ``sample(graph, budget)`` traces: one
        :meth:`run_anytime` checkpoint at ``budget`` per run."""
        return [
            items[0]
            for items, _ in self.run_anytime(
                sampler, [budget], runs, root_seed=root_seed
            )
        ]

    def run_anytime(
        self,
        sampler: Any,
        checkpoints: Sequence[float],
        runs: int,
        root_seed: int = 0,
        schedule: str = "budget",
        starter: Optional[Any] = None,
        lazy: bool = False,
        needs: Optional[FusedNeeds] = None,
    ) -> Union[List[Tuple[List[Any], int]], Iterator[Tuple[List[Any], int]]]:
        """``runs`` independent anytime sessions, one item per
        checkpoint.

        Each run opens one session (via ``starter(sampler, graph,
        root_seed, index)``; default :func:`default_session_starter`),
        advances it through the ascending ``checkpoints`` —
        ``advance_budget`` for ``schedule="budget"``, cumulative
        ``advance`` steps for ``schedule="steps"`` — and returns
        ``(items, steps)``: one item per checkpoint plus the session's
        final step count.  Without ``needs`` the items are the trace
        increments ``take_trace`` hands out; with the accumulator's
        :func:`~repro.sampling.fused.merge_needs` they are blocks
        (:class:`~repro.sampling.fused.FusedBlock`) of exact counts,
        so workers ship statistics instead of O(steps) traces.  This
        is the fan-out under
        :func:`repro.experiments.engine.run_plan`: each replicate
        walks once, whatever the number of checkpoints, and the
        result is bit-identical for any worker count and executor
        (inline at ``procs <= 1``, thread or spawn workers otherwise —
        same task function, same streams).  ``starter`` must be
        picklable (a module-level function or an instance of a
        module-level class) when the spawn executor runs it.

        ``lazy=True`` returns an iterator over the rows (task order)
        instead of a list, so a streaming consumer — the experiment
        engine accumulating replicate by replicate — never holds more
        than one replicate's items at a time.
        """
        self._check_run(sampler, runs)
        if schedule not in ("budget", "steps"):
            raise ValueError(
                f"schedule must be 'budget' or 'steps', got {schedule!r}"
            )
        marks = [float(c) for c in checkpoints]
        if not marks or any(b > a for b, a in zip(marks, marks[1:])):
            raise ValueError(
                "checkpoints must be a non-empty ascending sequence,"
                f" got {checkpoints!r}"
            )
        if starter is None:
            starter = default_session_starter
        tasks = [
            (starter, sampler, schedule, marks, root_seed, index, needs)
            for index in range(runs)
        ]
        rows: Iterator[Tuple[List[Any], int]]
        if self.procs <= 1:
            rows = (_anytime_task(self._csr, task) for task in tasks)
        elif self.executor == "thread":
            rows = self._ensure_threads().map(
                partial(_anytime_task, self._csr), tasks
            )
        else:
            # Spawn workers run the same core via the module-level
            # wrapper, reading the graph from their per-process global.
            pool = self._ensure_pool(self._csr)
            chunk = max(1, len(tasks) // (self.procs * 4))
            rows = pool.imap(_pool_anytime_one, tasks, chunksize=chunk)
        return rows if lazy else list(rows)
