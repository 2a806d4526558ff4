"""Fused walk+accumulate blocks: the eq. (7)/(9) sufficient statistics.

The streaming estimators only ever reduce a walk down to a handful of
small statistics — per-degree visit counts, 1/deg-reweighted sums,
per-vertex visit counts, and the sampled edge multiset.  A
:class:`FusedBlock` is the exact-integer carrier for those statistics,
and the one input of every accumulator's count reduction.  A block
reaches an accumulator two ways, with the same counts:

- handed a block, the walk kernels (``repro_*_steps_acc`` in
  ``_kernels.c``) fold each stat-bearing step straight into it while
  advancing the walker, so an anytime checkpoint costs O(max_degree)
  scratch instead of materializing an O(steps)
  :class:`~repro.sampling.vectorized.ArrayWalkTrace` (the block path
  of ``advance_into``, taken when every accumulator's
  ``fused_needs()`` names its statistics);
- an ``ArrayWalkTrace`` increment handed to ``update()`` is folded into
  a block of the accumulator's own needs by :func:`block_from_arrays`.

Bit-equality contract: every block field is an exact int64 count —

- ``deg_counts[d]``  — number of stat-bearing steps whose target has
  degree ``d`` (length ``max_degree + 1``),
- ``visit_counts[v]`` — number of stat-bearing steps targeting vertex
  ``v`` (length ``num_vertices``),
- ``edge_keys``      — append-order ``u * key_base + v`` keys with
  ``key_base = num_vertices``, so keys decode uniquely and sort in
  ``(u, v)`` order for any ``key_base`` above the largest target.

Float statistics (Σ1/deg and friends) are deliberately *derived in
Python* from the integer counts rather than accumulated in C: summing
``count/degree`` per distinct degree is one float expression shared
verbatim by every block, whereas a C-side running float sum would
re-associate additions and drift.  Integer counts also make merging
commutative, which is what lets a session fold a retained step record
and its next kernel call into one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np


def fusion_disabled() -> bool:
    """Always ``False``: the block path has no off switch.

    Sessions choose between the block and trace paths from their
    accumulators' ``fused_needs()`` alone; the function remains for
    callers that record it in run metadata.
    """
    return False


@dataclass(frozen=True)
class FusedNeeds:
    """Which block statistics an accumulator consumes."""

    degree_counts: bool = False
    visit_counts: bool = False
    edge_keys: bool = False

    def merged_with(self, other: "FusedNeeds") -> "FusedNeeds":
        """The union of two accumulators' statistic requirements."""
        return FusedNeeds(
            degree_counts=self.degree_counts or other.degree_counts,
            visit_counts=self.visit_counts or other.visit_counts,
            edge_keys=self.edge_keys or other.edge_keys,
        )


def merge_needs(parts: Iterable[object]) -> Optional[FusedNeeds]:
    """The union of every part's needs, or ``None`` if any part cannot fuse.

    A part is fuse-capable when it exposes ``fused_needs()`` returning a
    :class:`FusedNeeds`; anything else (a trace collector, or a part
    whose ``fused_needs()`` returns ``None``) forces the trace path.
    """
    merged = FusedNeeds()
    for part in parts:
        probe = getattr(part, "fused_needs", None)
        if probe is None:
            return None
        needs = probe()
        if needs is None:
            return None
        merged = merged.merged_with(needs)
    return merged


class FusedBlock:
    """One advance's worth of exact-integer sufficient statistics.

    Buffers not requested by ``needs`` stay ``None`` and are passed to
    the C kernels as NULL pointers — the peak scratch for the common
    degree-statistics bundle is the ``max_degree + 1`` count array
    alone.  Counts accumulate across kernel calls and folded step
    records (a session folds a retained record and its next kernel call
    into one block).  ``max_degree`` sizes the degree counts only, and
    is ignored when the block keeps none.
    """

    def __init__(
        self, needs: FusedNeeds, num_vertices: int, max_degree: int
    ) -> None:
        self.needs = needs
        self.num_vertices = int(num_vertices)
        self.max_degree = int(max_degree)
        #: Edge keys are ``u * key_base + v``; ``key_base`` is the
        #: vertex count, above every target, so sorted keys decode in
        #: ``(u, v)`` order.
        self.key_base = int(num_vertices)
        #: Stat-bearing steps folded in so far (MH counts accepted
        #: proposals only, mirroring ``ArrayMetropolisTrace.step_targets``).
        self.steps = 0
        self.deg_counts: Optional[np.ndarray] = (
            np.zeros(self.max_degree + 1, dtype=np.int64)
            if needs.degree_counts
            else None
        )
        self.visit_counts: Optional[np.ndarray] = (
            np.zeros(self.num_vertices, dtype=np.int64)
            if needs.visit_counts
            else None
        )
        self._edge_key_chunks: List[np.ndarray] = []

    def new_edge_buffer(self, capacity: int) -> Optional[np.ndarray]:
        """A fresh kernel-owned key buffer, or ``None`` when not needed."""
        if not self.needs.edge_keys:
            return None
        return np.empty(capacity, dtype=np.int64)

    def commit(self, keys: Optional[np.ndarray], filled: int) -> None:
        """Count the ``filled`` stat-bearing steps one kernel call folded
        in, adopting the first ``filled`` keys of its key buffer."""
        if keys is not None and filled:
            self._edge_key_chunks.append(keys[:filled])
        self.steps += filled

    def edge_key_array(self) -> np.ndarray:
        """All committed edge keys, in append (time) order."""
        if not self._edge_key_chunks:
            return np.empty(0, dtype=np.int64)
        if len(self._edge_key_chunks) == 1:
            return self._edge_key_chunks[0]
        return np.concatenate(self._edge_key_chunks)

    def fold_step_arrays(
        self,
        degrees: Optional[np.ndarray],
        sources: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        """Fold a materialized step record into the block.

        The vectorized mirror of the C kernels' per-step increments
        (``np.bincount`` of int64 indices is the same exact integer
        arithmetic), used by the pure-Python kernels, by csr sessions
        folding a retained step record, and by
        :func:`block_from_arrays`.  ``degrees`` (the graph's degree
        sequence) is read only when the block keeps degree counts.
        """
        if self.deg_counts is not None:
            assert degrees is not None
            self.deg_counts += np.bincount(
                degrees[targets], minlength=self.deg_counts.size
            )
        if self.visit_counts is not None:
            self.visit_counts += np.bincount(
                targets, minlength=self.num_vertices
            )
        if self.needs.edge_keys and targets.size:
            self._edge_key_chunks.append(
                sources * np.int64(self.key_base) + targets
            )
        self.steps += int(targets.size)


def block_from_arrays(
    needs: FusedNeeds,
    sources: np.ndarray,
    targets: np.ndarray,
    degrees: Optional[np.ndarray],
) -> FusedBlock:
    """Fold a materialized step record into a block of its own size.

    How :meth:`~repro.estimators.streaming.StreamingEstimator.update`
    reads an array trace increment.  The block spans vertex ids up to
    the record's largest and degrees up to its largest target's, so a
    short increment of a large graph allocates no count array over the
    whole graph; its smaller ``key_base`` sorts and decodes the edge
    keys as a graph-wide block's does.  ``degrees`` (the graph's degree
    sequence) is read only when ``needs`` keeps degree counts, and may
    be ``None`` otherwise.
    """
    num_vertices = (
        int(max(sources.max(), targets.max())) + 1 if targets.size else 0
    )
    max_degree = 0
    if needs.degree_counts and targets.size:
        assert degrees is not None
        max_degree = int(degrees[targets].max())
    block = FusedBlock(needs, num_vertices, max_degree)
    block.fold_step_arrays(degrees, sources, targets)
    return block
