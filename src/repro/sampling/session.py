"""Incremental sampling sessions — the resumable anytime protocol.

The paper's algorithms are *anytime* processes: walkers keep stepping
and every estimate sharpens as the budget grows.  A
:class:`SamplerSession` exposes that directly.  ``sampler.start(graph,
rng=...)`` draws the initial walker positions (paying their seed cost)
and returns a session that can

- :meth:`~SamplerSession.advance` a number of walk steps, or
  :meth:`~SamplerSession.advance_budget` up to a total budget,
- report the accumulated :meth:`~SamplerSession.trace` (exactly the
  trace the one-shot ``Sampler.sample`` API returns), or hand over
  increments via :meth:`~SamplerSession.take_trace` for streaming
  estimation in O(chunk) memory,
- :meth:`~SamplerSession.advance_into` streaming accumulators in one
  call: csr sessions fold a :class:`~repro.sampling.fused.FusedBlock`
  of eq. (7)/(9) counts inside the walk kernel when every
  accumulator's ``fused_needs()`` asks for one (the block path) and
  hand over the ``take_trace()`` increment otherwise (the trace path);
  :func:`record_checkpoints` makes that call once per checkpoint for
  the experiment engine and the pool workers,
- checkpoint to disk with :meth:`~SamplerSession.save` and resume with
  :func:`load_session` — the :attr:`~SamplerSession.state` (walker
  positions, frontier weights, RNG state, retained step record) is
  picklable; only the graph itself is excluded and re-attached on load.
  :func:`read_checkpoint` is the one reader, and it refuses a file
  written by another version of the code with a readable error.

Determinism contract: both backends draw from their RNG in
protocol-defined units (one ``random.Random`` call per event on the
list backend; contiguous ``Generator.random`` blocks on the csr
backend), so *chunking is invisible* — a session advanced in any
sequence of increments consumes the identical stream and produces a
trace bit-identical to a single ``advance_budget`` call, except for
:class:`~repro.sampling.multiple.MultipleRandomWalk`, whose independent
walkers share one stream walker-by-walker (there, a chunked run is
bit-identical to any other run with the same chunk boundaries,
including a checkpoint/resume at any boundary).  ``Sampler.sample()``
performs exactly one ``advance_budget``, which is why its traces match
the pre-session goldens bit for bit.

The csr backend advances in array-sized strides: each ``advance`` is
one call into the runners of :mod:`repro.sampling.vectorized` (the C
kernels, or their pure-Python reference under ``REPRO_NO_NATIVE``),
never a Python per-step loop.
"""

from __future__ import annotations

import abc
import copy
import pickle
from pathlib import Path
import random
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import get_csr
from repro.sampling import vectorized
from repro.sampling.fused import FusedBlock, FusedNeeds, merge_needs
from repro.sampling.base import (
    Edge,
    VertexTrace,
    WalkTrace,
    make_seeds,
    require_walkable_seeds,
    steps_within_budget,
)
from repro.sampling.metropolis import MetropolisTrace
from repro.sampling.vectorized import ArrayMetropolisTrace, ArrayWalkTrace
from repro.util.alias import AliasTable
from repro.util.fenwick import FenwickTree
from repro.util.rng import RngLike, child_rng, ensure_np_rng, ensure_rng

PathLike = Union[str, Path]


def _graph_signature(graph: Any) -> Tuple[int, int, Optional[int]]:
    """(num_vertices, num_edges, version) — the resume compatibility check.

    ``version`` is the graph's mutation counter
    (:attr:`repro.graph.graph.Graph.version`; ``None`` for the
    immutable :class:`~repro.graph.csr.CSRGraph`, whose array shapes
    are already pinned by the first two fields).  Including it catches
    count-preserving mutations — a ``remove_edge`` + ``add_edge`` pair
    leaves ``(num_vertices, num_edges)`` untouched but reorders
    neighbor rows, which would silently corrupt a resumed walk.
    """
    version = getattr(graph, "version", None)
    return (graph.num_vertices, graph.num_edges, version)


def _signatures_compatible(
    expected: Sequence[Any], actual: Sequence[Any]
) -> bool:
    """Whether a checkpoint signature accepts the attach candidate.

    Counts must always match.  The version field is compared only when
    *both* sides carry a mutation counter: pre-version checkpoints
    stored a 2-tuple, and the immutable :class:`CSRGraph` has no
    counter (its ``None`` must not block reattaching a list-backend
    checkpoint to the structurally identical CSR form, or vice versa).
    """
    expected = tuple(expected)
    if expected[:2] != actual[:2]:
        return False
    if len(expected) < 3:
        return True
    return (
        expected[2] is None
        or actual[2] is None
        or expected[2] == actual[2]
    )


class SamplerSession(abc.ABC):
    """One resumable sampling run: walker state plus the step record.

    Subclasses implement ``_advance`` (take ``steps`` more walk steps,
    appending to the retained record) and ``trace`` (materialize the
    retained record as the sampler's trace type).  Everything else —
    budget accounting, draining, checkpointing — is shared here.
    """

    #: MultipleRW divides the budget per walker (Section 4.4); the
    #: coordinated samplers share it (Algorithm 1).
    _split_budget = False
    #: Derived attributes rebuilt from the graph on resume instead of
    #: being pickled (csr fast forms, alias tables, ...).
    _UNPICKLED: Tuple[str, ...] = ()

    def __init__(
        self, sampler: Any, graph: Any, initial_vertices: List[int]
    ) -> None:
        self.sampler = sampler
        self.method = sampler.name
        self.seed_cost = float(getattr(sampler, "seed_cost", 0.0))
        self._graph = graph
        self.initial_vertices = list(initial_vertices)
        #: Walk steps taken so far — *per walker* for split-budget
        #: sessions (MultipleRW), total otherwise.
        self.steps_taken = 0
        #: High-water requested budget (None until a budget is named;
        #: trace() then reports actual spend instead).
        self._budget: Optional[float] = None
        #: Whether plain advance() ever ran — then the reported budget
        #: must floor at actual spend (a named budget alone may
        #: legitimately sit below the seed cost it already paid).
        self._stepped_plainly = False

    # ------------------------------------------------------------------
    # core protocol
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Any:
        """The attached graph (``None`` on a detached checkpoint)."""
        return self._graph

    @property
    def num_walkers(self) -> int:
        return max(1, len(self.initial_vertices))

    @abc.abstractmethod
    def _advance(self, steps: int) -> None:
        """Take ``steps`` more walk steps, appending to the record."""

    @abc.abstractmethod
    def trace(self) -> Any:
        """The retained step record as this sampler's trace type.

        Covers every step since the session started — or since the
        last :meth:`take_trace` drain, if one happened.
        """

    @abc.abstractmethod
    def _clear_record(self) -> None:
        """Drop the retained step record (walker state is untouched)."""

    def advance(self, steps: int) -> int:
        """Take ``steps`` walk steps (per walker for MultipleRW).

        Returns the number of steps actually taken (== ``steps``).
        """
        return self._step(steps, None)

    def _target_steps(self, budget: float) -> int:
        return steps_within_budget(
            budget, self.num_walkers, self.seed_cost, split=self._split_budget
        )

    def advance_budget(self, budget: float) -> int:
        """Advance until ``budget`` total units are spent.

        Idempotent beyond the high-water mark: re-requesting a budget
        the session already reached is a no-op, and budgets only ever
        extend a run — they never rewind it.  Returns the number of new
        steps taken (per walker for MultipleRW).
        """
        return self._step(None, budget)

    def advance_into(
        self,
        accumulators: Any,
        steps: Optional[int] = None,
        budget: Optional[float] = None,
    ) -> int:
        """Advance and fold the new steps straight into accumulators.

        ``accumulators`` is one accumulator or a sequence of them;
        exactly one of ``steps`` / ``budget`` selects the advance
        semantics of :meth:`advance` or :meth:`advance_budget`.  Any
        record still retained from earlier plain advances is folded in
        too (this method leaves the session drained), and every call
        hands the accumulators exactly one item.  Returns the number of
        new steps taken; a rejected call changes nothing.

        This base implementation is the trace path — advance, then
        ``take_trace()`` → ``update()`` on every accumulator.  The csr
        sessions override it with the block path (the walk kernels fold
        a :class:`~repro.sampling.fused.FusedBlock` for ``absorb_block``)
        whenever every accumulator's ``fused_needs()`` names the block
        statistics it consumes; estimates are bit-identical on either
        path.
        """
        parts = _accumulator_parts(accumulators)
        taken = self._step(steps, budget)
        increment = self.take_trace()
        for part in parts:
            part.update(increment)
        return taken

    def _new_steps(self, steps: Optional[int], budget: Optional[float]) -> int:
        """Validate one advance request and count its new steps.

        Exactly one of ``steps`` (as :meth:`advance`) or ``budget`` (as
        :meth:`advance_budget`) is given.  Every check runs here, before
        anything changes, so a rejected request leaves the walkers, the
        record and the accumulators as they were.
        """
        if (steps is None) == (budget is None):
            raise ValueError(
                "pass exactly one of steps= or budget= to advance_into()"
            )
        if steps is not None:
            if steps < 0:
                raise ValueError(f"steps must be >= 0, got {steps}")
            delta = int(steps)
        else:
            assert budget is not None
            delta = max(0, self._target_steps(budget) - self.steps_taken)
        if self._graph is None:
            raise RuntimeError(
                "session is detached; attach a graph with load_session()"
            )
        return delta

    def _step(self, steps: Optional[int], budget: Optional[float]) -> int:
        """One validated advance onto the retained record."""
        delta = self._new_steps(steps, budget)
        if delta:
            self._advance(delta)
            self.steps_taken += delta
        self._book(steps, budget)
        return delta

    def _book(self, steps: Optional[int], budget: Optional[float]) -> None:
        """Budget bookkeeping for one advance (see :meth:`_trace_budget`)."""
        if steps is not None:
            self._stepped_plainly = True
        else:
            assert budget is not None
            self._budget = (
                budget if self._budget is None else max(self._budget, budget)
            )

    def take_trace(self) -> Any:
        """Drain: return the trace increment since the last drain.

        Hands the retained step record to the caller (for streaming
        accumulators) and releases it, so a loop of ``advance`` +
        ``take_trace`` runs in O(chunk) memory however long the walk.
        After a drain, :meth:`trace` and checkpoints cover only steps
        taken since — walker state, budget accounting and the random
        stream continue seamlessly either way.
        """
        increment = self.trace()
        self._clear_record()
        return increment

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _units_spent(self) -> float:
        steps = self.steps_taken
        return float(steps * self.num_walkers if self._split_budget else steps)

    def spent(self) -> float:
        """Budget consumed so far: seeds plus every step taken."""
        return self.seed_cost * len(self.initial_vertices) + self._units_spent()

    def _trace_budget(self) -> float:
        if self._budget is None:
            return self.spent()
        if self._stepped_plainly:
            # Plain advance() can push spend past any named budget; the
            # reported budget must cover what was actually walked.
            return max(self._budget, self.spent())
        return self._budget

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    @property
    def state(self) -> Dict[str, Any]:
        """Picklable snapshot view of the session (graph excluded).

        Walker positions, frontier weights, RNG state and the retained
        step record — everything :meth:`save` writes.  The view shares
        mutable members with the live session; use :meth:`save` /
        :func:`load_session` for durable checkpoints.
        """
        return self.__getstate__()

    def snapshot(self) -> Dict[str, Any]:
        """A *deep-copied* picklable snapshot of the session.

        Unlike :attr:`state` — a cheap view sharing mutable members
        with the live session — the snapshot is fully independent:
        advancing the session afterwards cannot alias into it, and two
        restores from one snapshot cannot alias into each other.  Use
        it whenever a state dict outlives the live session (forking
        session state to another process, diffing a session against
        its earlier self); :meth:`save` already gets the same
        isolation from pickling.
        """
        return copy.deepcopy(self.__getstate__())

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        if self._graph is not None:
            state["_graph_signature"] = _graph_signature(self._graph)
        state["_graph"] = None
        for name in self._UNPICKLED:
            state[name] = None
        return state

    def save(self, path: PathLike) -> None:
        """Checkpoint the session to ``path`` (pickle, graph excluded)."""
        with open(path, "wb") as handle:
            pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def attach(self, graph: Any) -> None:
        """Re-attach ``graph`` to a checkpoint loaded from disk.

        The graph must be the one the session was started on (same
        vertex/edge counts *and* the same neighbor order — traces are
        only reproducible against an identical graph).
        """
        expected = self.__dict__.get("_graph_signature")
        actual = _graph_signature(graph)
        if expected is not None and not _signatures_compatible(
            expected, actual
        ):
            # Leave the signature in place: a failed attach must not
            # disarm the check for a later attempt.
            raise ValueError(
                f"graph signature {actual} does not match the"
                f" checkpointed session's {tuple(expected)}; the graph"
                " mutated since save() (or is not the graph the session"
                " was started on) — resumed walks would silently produce"
                " garbage, so reattach is refused"
            )
        self.__dict__.pop("_graph_signature", None)
        self._graph = graph
        self._reattach(graph)

    def _reattach(self, graph: Any) -> None:
        """Hook: rebuild graph-derived state dropped by ``_UNPICKLED``."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(method={self.method!r},"
            f" steps_taken={self.steps_taken}, spent={self.spent():g})"
        )


def _accumulator_parts(accumulators: Any) -> List[Any]:
    """Normalize ``advance_into``'s accumulator argument to a list."""
    if isinstance(accumulators, (list, tuple)):
        return list(accumulators)
    return [accumulators]


def default_session_starter(
    sampler: Any, graph: Any, root_seed: int, index: int
) -> SamplerSession:
    """Open replicate ``index``'s session on its ``child_rng`` stream.

    THE replicate-stream derivation — the one
    :func:`repro.experiments.runner.replicate` hands out, the one
    :class:`~repro.sampling.sharded.ShardedSessionPool` workers use,
    and the experiment engine's default starter.  A single definition
    keeps in-process and pooled replication bit-identical by
    construction.
    """
    return sampler.start(graph, rng=child_rng(root_seed, index))


class _CheckpointRecorder:
    """Stands in for a replicate's accumulators and keeps what each
    :meth:`SamplerSession.advance_into` call hands them.

    With ``needs`` it advertises those block statistics, so csr
    sessions take the block path and every item is a
    :class:`~repro.sampling.fused.FusedBlock`; with ``None`` it is
    drain-only and every item is a ``take_trace()`` increment.
    """

    def __init__(self, needs: Optional[FusedNeeds]) -> None:
        self._needs = needs
        self.items: List[Any] = []

    def fused_needs(self) -> Optional[FusedNeeds]:
        return self._needs

    def update(self, increment: Any) -> None:
        self.items.append(increment)

    def absorb_block(self, block: FusedBlock) -> None:
        self.items.append(block)


def record_checkpoints(
    session: SamplerSession,
    schedule: str,
    checkpoints: Sequence[float],
    needs: Optional[FusedNeeds] = None,
) -> Tuple[List[Any], int]:
    """Advance ``session`` through ``checkpoints`` with ``advance_into``.

    ``schedule="budget"`` advances to each checkpoint budget;
    ``schedule="steps"`` treats checkpoints as cumulative step counts
    (per-walker steps for MultipleRW).  Returns ``(items, steps_taken)``:
    one item per checkpoint — a ``FusedBlock`` when ``needs`` is given
    and the session has a block path, its ``take_trace()`` increment
    otherwise — and the session's final step count.  The session is
    closed (when it owns resources) before returning.

    This is THE anytime replication loop: the experiment engine's
    in-process path and the :class:`~repro.sampling.sharded.
    ShardedSessionPool` workers both run this exact function and feed
    the items to the accumulator in the caller, so the two paths cannot
    drift apart — which is what makes ``procs`` a statistics-invariant
    deployment knob.
    """
    recorder = _CheckpointRecorder(needs)
    try:
        for checkpoint in checkpoints:
            if schedule == "steps":
                session.advance_into(
                    recorder,
                    steps=max(0, int(checkpoint) - session.steps_taken),
                )
            else:
                session.advance_into(recorder, budget=checkpoint)
        return recorder.items, int(session.steps_taken)
    finally:
        closer = getattr(session, "close", None)
        if closer is not None:
            closer()


class _CheckpointUnpickler(pickle.Unpickler):
    """Names the class or module a checkpoint needs but this code lacks."""

    def __init__(self, handle: BinaryIO, path: PathLike) -> None:
        super().__init__(handle)
        self._path = path

    def find_class(self, module: str, name: str) -> Any:
        try:
            return super().find_class(module, name)
        except (ImportError, AttributeError) as error:
            raise ValueError(
                f"checkpoint {str(self._path)!r} needs {module}.{name},"
                " which this version of the code does not define; the"
                " file was written by another version of the code"
            ) from error


def read_checkpoint(path: PathLike) -> Any:
    """Unpickle a checkpoint file — the one reader behind
    :func:`load_session` and the CLI's ``sample --resume``.

    A file naming a class or module this version lacks (a sampler
    since removed or renamed) fails with a ``ValueError`` naming the
    file and the missing name.  (Checkpoints are pickles — only load
    files you wrote.)
    """
    with open(path, "rb") as handle:
        return _CheckpointUnpickler(handle, path).load()


def load_session(path: PathLike, graph: Any) -> SamplerSession:
    """Load a checkpoint written by :meth:`SamplerSession.save`.

    ``graph`` must be the graph the session was started on; resumed
    runs then reproduce the uninterrupted run's trace bit for bit.
    """
    session = read_checkpoint(path)
    if not isinstance(session, SamplerSession):
        raise TypeError(
            f"{str(path)!r} does not contain a SamplerSession checkpoint"
        )
    session.attach(graph)
    return session


# ----------------------------------------------------------------------
# list backend: interpreted per-step walkers over adjacency lists
# ----------------------------------------------------------------------
class _ListSession(SamplerSession):
    """Shared record-keeping for the interpreted walk sessions."""

    _with_walkers = False  # record per-walker grouping + indices?

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        initial_vertices: List[int],
        rng: random.Random,
    ) -> None:
        super().__init__(sampler, graph, initial_vertices)
        self.rng = rng
        self._edges: List[Edge] = []
        self._indices: Optional[List[int]] = [] if self._with_walkers else None

    def _record(self, idx: int, edge: Edge) -> None:
        self._edges.append(edge)
        if self._indices is not None:
            self._indices.append(idx)

    def _per_walker(self) -> Optional[List[List[Edge]]]:
        if self._indices is None:
            return None
        grouped: List[List[Edge]] = [[] for _ in self.initial_vertices]
        for idx, edge in zip(self._indices, self._edges):
            grouped[idx].append(edge)
        return grouped

    def trace(self) -> WalkTrace:
        return WalkTrace(
            method=self.method,
            edges=list(self._edges),
            initial_vertices=list(self.initial_vertices),
            budget=self._trace_budget(),
            seed_cost=self.seed_cost,
            per_walker=self._per_walker(),
            walker_indices=(
                list(self._indices) if self._indices is not None else None
            ),
        )

    def _clear_record(self) -> None:
        self._edges = []
        if self._indices is not None:
            self._indices = []


class SingleWalkSession(_ListSession):
    """SingleRW: one walker, one ``random_neighbor`` draw per step.

    ``initial_vertices`` pins the walker's start instead of drawing a
    seed (no seed uniforms are consumed then) — the sample-path
    experiments pin SingleRW to the first of FS's seeds.
    """

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        generator = ensure_rng(rng)
        if initial_vertices is None:
            seeds = make_seeds(graph, 1, sampler.seeding, generator)
        else:
            seeds = [int(v) for v in initial_vertices]
        super().__init__(sampler, graph, seeds, generator)
        self.position = seeds[0]
        if graph.degree(self.position) == 0:
            raise ValueError(
                f"cannot walk from isolated vertex {self.position}"
            )

    def _advance(self, steps: int) -> None:
        graph, rng = self._graph, self.rng
        current = self.position
        for _ in range(steps):
            nxt = graph.random_neighbor(current, rng)
            self._record(0, (current, nxt))
            current = nxt
        self.position = current


class MultipleWalkSession(_ListSession):
    """MultipleRW: ``m`` independent walkers sharing one stream.

    ``advance(steps)`` gives every walker ``steps`` more steps,
    walker-by-walker in index order — the draw order of the one-shot
    sampler, so a single ``advance_budget`` reproduces it exactly.
    """

    _split_budget = True
    _with_walkers = True

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        generator = ensure_rng(rng)
        if initial_vertices is None:
            seeds = make_seeds(
                graph, sampler.num_walkers, sampler.seeding, generator
            )
        else:
            seeds = [int(v) for v in initial_vertices]
            require_walkable_seeds(
                graph, seeds, "MultipleRW cannot walk from it"
            )
        super().__init__(sampler, graph, seeds, generator)
        self.positions = list(seeds)

    def _advance(self, steps: int) -> None:
        graph, rng = self._graph, self.rng
        for idx, start in enumerate(self.positions):
            current = start
            for _ in range(steps):
                nxt = graph.random_neighbor(current, rng)
                self._record(idx, (current, nxt))
                current = nxt
            self.positions[idx] = current

    def trace(self) -> WalkTrace:
        # The one-shot MultipleRW trace groups edges per walker but
        # reports no interleaving (the walkers are independent).
        trace = super().trace()
        trace.walker_indices = None
        return trace


class FrontierWalkSession(_ListSession):
    """FS (Algorithm 1): frontier positions + Fenwick degree weights."""

    _with_walkers = True

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        generator = ensure_rng(rng)
        if initial_vertices is None:
            seeds = make_seeds(
                graph, sampler.dimension, sampler.seeding, generator
            )
        else:
            seeds = [int(v) for v in initial_vertices]
        super().__init__(sampler, graph, seeds, generator)
        self.walker_selection = sampler.walker_selection
        self.frontier = list(seeds)
        require_walkable_seeds(
            graph, self.frontier, "FS cannot walk from it"
        )
        self.weights = FenwickTree(
            [float(graph.degree(v)) for v in self.frontier]
        )

    def _advance(self, steps: int) -> None:
        graph, rng = self._graph, self.rng
        frontier, weights = self.frontier, self.weights
        degree_selection = self.walker_selection == "degree"
        for _ in range(steps):
            if degree_selection:
                idx = weights.sample(rng)
            else:
                idx = rng.randrange(len(frontier))
            u = frontier[idx]
            v = graph.random_neighbor(u, rng)
            self._record(idx, (u, v))
            frontier[idx] = v
            weights.update(idx, float(graph.degree(v)))


class MetropolisWalkSession(_ListSession):
    """MRW: accepted edges plus the full visit sequence (incl. holds)."""

    def __init__(
        self, sampler: Any, graph: Any, rng: RngLike = None
    ) -> None:
        generator = ensure_rng(rng)
        seeds = make_seeds(graph, 1, sampler.seeding, generator)
        super().__init__(sampler, graph, seeds, generator)
        self.position = seeds[0]
        self._visited: List[int] = []

    def _advance(self, steps: int) -> None:
        graph, rng = self._graph, self.rng
        current = self.position
        for _ in range(steps):
            proposal = graph.random_neighbor(current, rng)
            accept = graph.degree(current) / graph.degree(proposal)
            if rng.random() < accept:
                self._record(0, (current, proposal))
                current = proposal
            self._visited.append(current)
        self.position = current

    def _units_spent(self) -> float:
        # Rejected proposals cost their neighbor query too, so spend is
        # counted in proposals (== steps_taken), not accepted edges.
        return float(self.steps_taken)

    def trace(self) -> MetropolisTrace:
        trace = MetropolisTrace(
            method=self.method,
            edges=list(self._edges),
            initial_vertices=list(self.initial_vertices),
            budget=self._trace_budget(),
            seed_cost=self.seed_cost,
        )
        trace.visited = list(self._visited)
        return trace

    def _clear_record(self) -> None:
        super()._clear_record()
        self._visited = []


# ----------------------------------------------------------------------
# csr backend: each advance is one stride through the batch kernels
# ----------------------------------------------------------------------
def concat_chunks(chunks: List[np.ndarray]) -> np.ndarray:
    """Concatenate step-record chunks (empty list -> empty int64)."""
    if not chunks:
        return np.empty(0, dtype=np.int64)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks)


class _ArraySession(SamplerSession):
    """Shared chunk bookkeeping for the vectorized sessions.

    Step records accumulate as lists of int64 array chunks — one chunk
    per ``advance`` — and concatenate lazily in :meth:`trace`, so a
    long session never round-trips through Python tuples.
    """

    _UNPICKLED = ("_fast",)
    _with_walkers = False

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        self._fast = get_csr(graph)
        generator = ensure_np_rng(rng)
        if initial_vertices is None:
            # Drawn seeds are walkable by construction.
            seeds = vectorized.make_seeds_np(
                self._fast,
                self._seed_count(sampler),
                sampler.seeding,
                generator,
            )
        else:
            seeds = [int(v) for v in initial_vertices]
            require_walkable_seeds(
                self._fast, seeds, f"{sampler.name} cannot walk from it"
            )
        super().__init__(sampler, graph, seeds)
        self.rng = generator
        self._source_chunks: List[np.ndarray] = []
        self._target_chunks: List[np.ndarray] = []
        self._walker_chunks: Optional[List[np.ndarray]] = (
            [] if self._with_walkers else None
        )
        #: Cached max degree for sizing fused deg_counts blocks (the
        #: attach-time signature check guarantees it stays valid).
        self._max_degree: Optional[int] = None

    def _seed_count(self, sampler: Any) -> int:
        """How many walkers the session seeds."""
        return 1

    def _record_chunk(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        walkers: Optional[np.ndarray] = None,
    ) -> None:
        self._source_chunks.append(sources)
        self._target_chunks.append(targets)
        if self._walker_chunks is not None:
            self._walker_chunks.append(walkers)

    _concat = staticmethod(concat_chunks)

    def trace(self) -> ArrayWalkTrace:
        return ArrayWalkTrace(
            method=self.method,
            step_sources=self._concat(self._source_chunks),
            step_targets=self._concat(self._target_chunks),
            initial_vertices=list(self.initial_vertices),
            budget=self._trace_budget(),
            seed_cost=self.seed_cost,
            step_walkers=(
                self._concat(self._walker_chunks)
                if self._walker_chunks is not None
                else None
            ),
        )

    def _clear_record(self) -> None:
        self._source_chunks = []
        self._target_chunks = []
        if self._walker_chunks is not None:
            self._walker_chunks = []

    def _reattach(self, graph: Any) -> None:
        self._fast = get_csr(graph)

    # ------------------------------------------------------------------
    # the block path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _advance(self, steps: int, block: Optional[FusedBlock] = None) -> None:
        """Take ``steps`` steps through the walk's runner: recorded as a
        chunk, or folded into ``block`` (the walk is the same)."""

    def _fused_block(self, needs: FusedNeeds) -> FusedBlock:
        if self._max_degree is None:
            degrees = vectorized.degrees_array(self._fast)
            self._max_degree = int(degrees.max()) if degrees.size else 0
        return FusedBlock(
            needs, int(self._fast.num_vertices), self._max_degree
        )

    def advance_into(
        self,
        accumulators: Any,
        steps: Optional[int] = None,
        budget: Optional[float] = None,
    ) -> int:
        """Walk and accumulate in one kernel pass (the block path).

        Engages when every accumulator's ``fused_needs()`` names its
        block statistics; otherwise defers to the base trace path.
        Each call absorbs exactly one block, covering the same steps one
        ``take_trace()`` would, so estimates are bit-identical either
        way — the estimators share one count-based reduction between
        ``update`` and ``absorb_block``.
        """
        parts = _accumulator_parts(accumulators)
        needs = merge_needs(parts)
        if needs is None:
            return super().advance_into(
                accumulators, steps=steps, budget=budget
            )
        delta = self._new_steps(steps, budget)
        block = self._fused_block(needs)
        # A record retained from earlier plain advances joins the block,
        # so mixing advance() and advance_into() loses and double-counts
        # nothing.
        if self._source_chunks:
            retained = self.take_trace()
            block.fold_step_arrays(
                vectorized.degrees_array(self._fast),
                retained.step_sources,
                retained.step_targets,
            )
        if delta:
            self._advance(delta, block)
            self.steps_taken += delta
        self._book(steps, budget)
        for part in parts:
            part.absorb_block(block)
        return delta


class ArraySingleSession(_ArraySession):
    """SingleRW on the csr backend."""

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(sampler, graph, rng, initial_vertices)
        self.position = self.initial_vertices[0]

    def _advance(self, steps: int, block: Optional[FusedBlock] = None) -> None:
        (self.position,), record = vectorized.run_random_walk(
            self._fast, [self.position], steps, self.rng, block
        )
        if record is not None:
            self._record_chunk(*record)


class ArrayMultipleSession(_ArraySession):
    """MultipleRW on the csr backend: one walker-major draw block and
    one kernel call per advance."""

    _split_budget = True
    _with_walkers = True

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(sampler, graph, rng, initial_vertices)
        self.positions = list(self.initial_vertices)

    def _seed_count(self, sampler: Any) -> int:
        return int(sampler.num_walkers)

    def _advance(self, steps: int, block: Optional[FusedBlock] = None) -> None:
        # Walker w's steps fill slots [w * steps, (w + 1) * steps).
        self.positions, record = vectorized.run_random_walk(
            self._fast, self.positions, steps, self.rng, block
        )
        if record is not None:
            walkers = np.arange(len(self.positions), dtype=np.int64)
            self._record_chunk(*record, np.repeat(walkers, steps))


class ArrayFrontierSession(_ArraySession):
    """m-dimensional FS on the csr backend."""

    _with_walkers = True

    def __init__(
        self,
        sampler: Any,
        graph: Any,
        rng: RngLike = None,
        initial_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(sampler, graph, rng, initial_vertices)
        self.walker_selection = sampler.walker_selection
        self.frontier = list(self.initial_vertices)

    def _seed_count(self, sampler: Any) -> int:
        return int(sampler.dimension)

    def _advance(self, steps: int, block: Optional[FusedBlock] = None) -> None:
        self.frontier, record = vectorized.run_frontier(
            self._fast,
            self.frontier,
            steps,
            self.rng,
            self.walker_selection,
            block,
        )
        if record is not None:
            self._record_chunk(*record)


class ArrayMetropolisSession(_ArraySession):
    """MRW on the csr backend."""

    def __init__(
        self, sampler: Any, graph: Any, rng: RngLike = None
    ) -> None:
        super().__init__(sampler, graph, rng)
        self.position = self.initial_vertices[0]
        self._visited_chunks: List[np.ndarray] = []

    def _advance(self, steps: int, block: Optional[FusedBlock] = None) -> None:
        self.position, record = vectorized.run_metropolis(
            self._fast, self.position, steps, self.rng, block
        )
        if record is not None:
            edge_sources, edge_targets, visited = record
            self._record_chunk(edge_sources, edge_targets)
            self._visited_chunks.append(visited)

    def _units_spent(self) -> float:
        return float(self.steps_taken)  # proposals, not accepted edges

    def trace(self) -> ArrayMetropolisTrace:
        return ArrayMetropolisTrace(
            self.method,
            self._concat(self._source_chunks),
            self._concat(self._target_chunks),
            list(self.initial_vertices),
            self._trace_budget(),
            self.seed_cost,
            visited_array=self._concat(self._visited_chunks),
        )

    def _clear_record(self) -> None:
        super()._clear_record()
        self._visited_chunks = []


# ----------------------------------------------------------------------
# independent sampling (Section 3): probes instead of walk steps
# ----------------------------------------------------------------------
class VertexSampleSession(SamplerSession):
    """RandomVertex: ``advance(steps)`` spends that many id probes."""

    def __init__(
        self, sampler: Any, graph: Any, rng: RngLike = None
    ) -> None:
        if graph.num_vertices == 0:
            raise ValueError("graph has no vertices")
        super().__init__(sampler, graph, [])
        self.rng = ensure_rng(rng)
        self.hit_ratio = sampler.hit_ratio
        self._vertices: List[int] = []

    def _target_steps(self, budget: float) -> int:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        return int(budget)

    def _advance(self, steps: int) -> None:
        graph, rng = self._graph, self.rng
        for _ in range(steps):
            if self.hit_ratio >= 1.0 or rng.random() < self.hit_ratio:
                self._vertices.append(graph.random_vertex(rng))

    def _units_spent(self) -> float:
        return float(self.steps_taken)  # one unit per probe, hit or miss

    def trace(self) -> VertexTrace:
        return VertexTrace(
            method=self.method,
            vertices=list(self._vertices),
            budget=self._trace_budget(),
            cost_per_sample=1.0 / self.hit_ratio,
        )

    def _clear_record(self) -> None:
        self._vertices = []


class EdgeSampleSession(SamplerSession):
    """RandomEdge: ``advance(steps)`` spends that many edge attempts."""

    _UNPICKLED = ("_degree_table",)

    def __init__(
        self, sampler: Any, graph: Any, rng: RngLike = None
    ) -> None:
        if graph.num_edges == 0:
            raise ValueError("graph has no edges")
        super().__init__(sampler, graph, [])
        self.rng = ensure_rng(rng)
        self.hit_ratio = sampler.hit_ratio
        self.cost_per_edge = sampler.cost_per_edge
        self._degree_table = AliasTable(graph.degrees())
        self._edges: List[Edge] = []

    def _target_steps(self, budget: float) -> int:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        return int(budget / self.cost_per_edge)

    def _advance(self, steps: int) -> None:
        graph, rng, table = self._graph, self.rng, self._degree_table
        for _ in range(steps):
            if self.hit_ratio < 1.0 and rng.random() >= self.hit_ratio:
                continue
            # u proportional to degree then uniform neighbor == uniform
            # over directed edges.
            u = table.sample(rng)
            v = graph.random_neighbor(u, rng)
            self._edges.append((u, v))

    def _units_spent(self) -> float:
        return self.steps_taken * self.cost_per_edge

    def trace(self) -> WalkTrace:
        return WalkTrace(
            method=self.method,
            edges=list(self._edges),
            initial_vertices=[],
            budget=self._trace_budget(),
            seed_cost=0.0,
        )

    def _clear_record(self) -> None:
        self._edges = []

    def _reattach(self, graph: Any) -> None:
        self._degree_table = AliasTable(graph.degrees())
