"""Streaming estimators — accumulators over session trace increments.

The batch ``*_from_trace`` estimators need the whole trace in memory.
These accumulators consume *increments* instead — the chunks a
:class:`~repro.sampling.session.SamplerSession` hands out via
``take_trace()`` — in O(chunk) time and O(state) memory, so estimates
can track an anytime walk over a graph (or a trace) too large to
materialize:

    session = sampler.start(graph, rng=7)
    pmf = StreamingDegreePMF(graph)
    while session.spent() < budget:
        session.advance(chunk)
        pmf.update(session.take_trace())
    estimate = pmf.estimate()

Every accumulator is the running-sums decomposition of its batch twin:
eq. (7)'s reweighted estimators keep ``(sum g(v)/deg(v), sum 1/deg(v))``,
eq. (9)/(5)'s edge estimators keep ``(sum f, relevant count)``, and the
size estimator keeps the collision statistics.  Array-backed increments
(:class:`~repro.sampling.vectorized.ArrayWalkTrace`) run through the
same numpy kernels as :mod:`repro.estimators._vectorized`; list-backed
increments run the tuple loops.  Either way the final estimate matches
the batch estimator on the concatenated trace to ≤1e-12 (only float
summation association differs), which the parity tests pin down.

Fused blocks: accumulators that need only the eq. (7)/(9) sufficient
statistics also absorb a
:class:`~repro.sampling.fused.FusedBlock` — the exact-integer
(degree-count / visit-count / edge-key) record the walk kernels
fill while advancing a session — via :meth:`absorb_block`.  Such an
accumulator advertises its block requirements through
:meth:`fused_needs`; the array-backed drain path and the block path
deliberately share one count-based float reduction per estimator
(``count / degree`` summed over distinct values), so fused and drained
runs produce **bit-identical** estimates, not merely 1e-12-close ones.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Hashable, Optional, Sequence

import numpy as np

from repro.estimators import _vectorized
from repro.estimators.degree import _dense
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling.base import VertexTrace, WalkTrace
from repro.sampling.fused import FusedBlock, FusedNeeds
from repro.util.stats import ccdf_from_pmf

Label = Hashable
DegreeOf = Callable[[int], int]
EdgeFunction = Callable[[int, int], float]
EdgePredicate = Callable[[int, int], bool]
VertexFunction = Callable[[int], float]


class StreamingEstimator(abc.ABC):
    """An accumulator fed trace increments via :meth:`update`.

    ``update`` accepts both backends' walk traces and dispatches to the
    vectorized or tuple-loop path; empty increments are no-ops.
    :meth:`estimate` may be called at any time (anytime estimation) and
    raises :class:`ValueError` while no samples have been consumed,
    matching the batch estimators' behavior on empty traces.
    """

    def update(self, trace) -> "StreamingEstimator":
        """Consume one trace increment; returns self for chaining."""
        if isinstance(trace, VertexTrace):
            self._update_vertex_trace(trace)
        elif _vectorized.is_array_trace(trace):
            if trace.step_targets.size:
                self._update_array(trace)
        elif isinstance(trace, WalkTrace):
            if trace.edges:
                self._update_list(trace)
        else:
            raise TypeError(
                f"cannot consume a {type(trace).__name__} increment"
            )
        return self

    @abc.abstractmethod
    def estimate(self):
        """The current estimate over everything consumed so far."""

    def __getstate__(self) -> dict:
        """Pickle running sums only — the graph is re-attached on load.

        Mirrors :class:`~repro.sampling.session.SamplerSession`'s
        checkpoint discipline, so a (session, accumulators) pair can be
        written to disk and resumed against the same graph.
        """
        state = self.__dict__.copy()
        if "graph" in state:
            state["graph"] = None
        return state

    def attach(self, graph) -> None:
        """Re-attach ``graph`` to an accumulator loaded from disk."""
        if "graph" in self.__dict__:
            self.graph = graph

    def fused_needs(self) -> Optional[FusedNeeds]:
        """Block statistics this accumulator can absorb, or ``None``.

        ``None`` (the default) marks the accumulator as drain-only:
        sessions and the engine must feed it ``take_trace()``
        increments.  Subclasses that consume only eq. (7)/(9)
        sufficient statistics override this to return their
        :class:`~repro.sampling.fused.FusedNeeds`.
        """
        return None

    def absorb_block(self, block: FusedBlock) -> "StreamingEstimator":
        """Consume one fused accumulator block; returns self.

        Empty blocks (no stat-bearing steps) are no-ops, mirroring
        :meth:`update` on an empty increment.
        """
        if block.steps:
            self._absorb_block(block)
        return self

    def _absorb_block(self, block: FusedBlock) -> None:
        raise TypeError(
            f"{type(self).__name__} cannot absorb fused blocks; feed it"
            " trace increments instead"
        )

    @abc.abstractmethod
    def _update_array(self, trace) -> None: ...

    @abc.abstractmethod
    def _update_list(self, trace: WalkTrace) -> None: ...

    def _update_vertex_trace(self, trace: VertexTrace) -> None:
        raise TypeError(
            f"{type(self).__name__} consumes walk traces, not independent"
            " vertex samples"
        )


# ----------------------------------------------------------------------
# eq. (7): reweighted vertex accumulators
# ----------------------------------------------------------------------
class StreamingDegreePMF(StreamingEstimator):
    """Degree-distribution accumulator (eq. (7) / plain counts).

    Fed walk-trace increments it runs the ``1/deg`` reweighted
    estimator; fed :class:`~repro.sampling.base.VertexTrace` increments
    (uniform independent samples) it runs the plain empirical PMF.  The
    two laws cannot be mixed in one accumulator.

    ``degree_of`` relabels what is histogrammed (in-/out-degree);
    the reweighting always uses the symmetric walking degree.
    """

    def __init__(self, graph, degree_of: Optional[DegreeOf] = None):
        self.graph = graph
        self.degree_of = degree_of
        self._weighted: Dict[int, float] = {}
        self._normalizer = 0.0
        self._samples = 0
        self._mode: Optional[str] = None

    def _latch(self, mode: str) -> None:
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            raise TypeError(
                "cannot mix walk-trace and vertex-sample increments in"
                " one degree accumulator"
            )

    def _update_array(self, trace) -> None:
        self._latch("walk")
        targets = trace.step_targets
        walking = _vectorized.degrees_of(self.graph)[targets]
        if self.degree_of is None:
            # Same count-based reduction as the fused-block path, so
            # drained and fused runs stay bit-identical.
            self._absorb_degree_counts(np.bincount(walking))
            return
        inv_deg = 1.0 / walking
        labels = _vectorized._map_unique(
            targets, self.degree_of, dtype=np.int64
        )
        histogram = np.bincount(labels, weights=inv_deg)
        for key in np.flatnonzero(histogram).tolist():
            self._weighted[key] = self._weighted.get(key, 0.0) + float(
                histogram[key]
            )
        self._normalizer += float(inv_deg.sum())
        self._samples += int(targets.size)

    def _absorb_degree_counts(self, counts: np.ndarray) -> None:
        """Fold exact per-degree visit counts into the running sums."""
        degrees = np.flatnonzero(counts)
        weighted = counts[degrees].astype(np.float64) / degrees.astype(
            np.float64
        )
        for key, value in zip(degrees.tolist(), weighted.tolist()):
            self._weighted[key] = self._weighted.get(key, 0.0) + value
        self._normalizer += float(weighted.sum())
        self._samples += int(counts.sum())

    def fused_needs(self) -> Optional[FusedNeeds]:
        """Degree counts suffice — unless ``degree_of`` relabels.

        A custom ``degree_of`` histograms a function of the *vertex*,
        which a per-degree count cannot reconstruct, so that
        configuration stays on the drain path.
        """
        if self.degree_of is not None:
            return None
        return FusedNeeds(degree_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        self._latch("walk")
        assert block.deg_counts is not None
        self._absorb_degree_counts(block.deg_counts)

    def _update_list(self, trace: WalkTrace) -> None:
        self._latch("walk")
        graph = self.graph
        label = self.degree_of if self.degree_of is not None else graph.degree
        for _, v in trace.edges:
            inv_deg = 1.0 / graph.degree(v)
            self._normalizer += inv_deg
            key = label(v)
            self._weighted[key] = self._weighted.get(key, 0.0) + inv_deg
            self._samples += 1

    def _update_vertex_trace(self, trace: VertexTrace) -> None:
        if not trace.vertices:
            return
        self._latch("vertex")
        label = (
            self.degree_of if self.degree_of is not None else self.graph.degree
        )
        for v in trace.vertices:
            key = label(v)
            self._weighted[key] = self._weighted.get(key, 0.0) + 1.0
            self._samples += 1

    def estimate(self) -> Dict[int, float]:
        """Dense PMF over ``0 .. max_observed`` (the batch dict shape)."""
        if self._samples == 0:
            raise ValueError("no samples consumed; cannot form the estimate")
        if self._mode == "vertex":
            return _dense(
                {k: w / self._samples for k, w in self._weighted.items()}
            )
        return _dense(
            {k: w / self._normalizer for k, w in self._weighted.items()}
        )

    def ccdf(self) -> Dict[int, float]:
        """The estimated CCDF ``gamma_i = sum_{k > i} theta_k``."""
        return ccdf_from_pmf(self.estimate())


class StreamingVertexFunctional(StreamingEstimator):
    """Self-normalized eq. (7) accumulator for ``mean_v g(v)``."""

    def __init__(self, graph, g: VertexFunction):
        self.graph = graph
        self.g = g
        self._weighted = 0.0
        self._normalizer = 0.0

    def _update_array(self, trace) -> None:
        weighted, normalizer = _vectorized.weighted_vertex_sums(
            self.graph, trace, self.g
        )
        self._weighted += weighted
        self._normalizer += normalizer

    def _update_list(self, trace: WalkTrace) -> None:
        graph, g = self.graph, self.g
        for _, v in trace.edges:
            inv_deg = 1.0 / graph.degree(v)
            self._weighted += g(v) * inv_deg
            self._normalizer += inv_deg

    def estimate(self) -> float:
        if self._normalizer == 0.0:
            raise ValueError("no samples consumed; cannot form the estimate")
        return self._weighted / self._normalizer


class StreamingAverageDegree(StreamingEstimator):
    """Average-degree accumulator via eq. (7) with ``g = deg``.

    ``sum deg(v)/deg(v) = B`` exactly, so the estimate collapses to
    ``B / sum 1/deg(v_i)`` — the step count over the paper's ``S``
    statistic, tracked in O(1) state.
    """

    def __init__(self, graph):
        self.graph = graph
        self._steps = 0
        self._inverse_sum = 0.0

    def _update_array(self, trace) -> None:
        degrees = _vectorized.degrees_of(self.graph)[trace.step_targets]
        self._absorb_degree_counts(np.bincount(degrees))

    def _absorb_degree_counts(self, counts: np.ndarray) -> None:
        """Count-based ``S`` update shared with the fused-block path."""
        degrees = np.flatnonzero(counts)
        contributions = counts[degrees].astype(np.float64) / degrees.astype(
            np.float64
        )
        self._inverse_sum += float(contributions.sum())
        self._steps += int(counts.sum())

    def _update_list(self, trace: WalkTrace) -> None:
        graph = self.graph
        for _, v in trace.edges:
            self._inverse_sum += 1.0 / graph.degree(v)
            self._steps += 1

    def fused_needs(self) -> Optional[FusedNeeds]:
        return FusedNeeds(degree_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        assert block.deg_counts is not None
        self._absorb_degree_counts(block.deg_counts)

    def estimate(self) -> float:
        if self._steps == 0:
            raise ValueError("no samples consumed; cannot form the estimate")
        return self._steps / self._inverse_sum


class StreamingVertexDensity(StreamingEstimator):
    """Eq. (7) label-density accumulator sharing one normalizer ``S``."""

    def __init__(
        self, graph, labeling: VertexLabeling, labels: Sequence[Label]
    ):
        self.graph = graph
        self.labeling = labeling
        self.labels = list(labels)
        self._weighted: Dict[Label, float] = {
            label: 0.0 for label in self.labels
        }
        self._normalizer = 0.0

    def _update_array(self, trace) -> None:
        unique, counts = np.unique(trace.step_targets, return_counts=True)
        self._absorb_visit_counts(unique, counts)

    def _absorb_visit_counts(
        self, vertices: np.ndarray, counts: np.ndarray
    ) -> None:
        """Per-vertex count-based eq. (7) update (fused/drained shared).

        Each distinct vertex contributes ``count / deg`` in one float
        operation — the association both paths use, keeping them
        bit-identical.
        """
        weights = counts.astype(np.float64) / _vectorized.degrees_of(
            self.graph
        )[vertices].astype(np.float64)
        self._normalizer += float(weights.sum())
        label_sets = [self.labeling.labels_of(int(v)) for v in vertices]
        for label in self.labels:
            indicator = np.fromiter(
                (label in labels_of_v for labels_of_v in label_sets),
                dtype=np.float64,
                count=vertices.size,
            )
            self._weighted[label] += float((indicator * weights).sum())

    def fused_needs(self) -> Optional[FusedNeeds]:
        return FusedNeeds(visit_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        assert block.visit_counts is not None
        vertices = np.flatnonzero(block.visit_counts)
        self._absorb_visit_counts(vertices, block.visit_counts[vertices])

    def _update_list(self, trace: WalkTrace) -> None:
        graph, wanted = self.graph, set(self.labels)
        for _, v in trace.edges:
            inv_deg = 1.0 / graph.degree(v)
            self._normalizer += inv_deg
            for label in self.labeling.labels_of(v):
                if label in wanted:
                    self._weighted[label] += inv_deg

    def estimate(self) -> Dict[Label, float]:
        if self._normalizer == 0.0:
            raise ValueError("no samples consumed; cannot form the estimate")
        return {
            label: self._weighted[label] / self._normalizer
            for label in self.labels
        }


# ----------------------------------------------------------------------
# eq. (5)/(9): edge accumulators
# ----------------------------------------------------------------------
def _decode_edge_keys(block: FusedBlock):
    """Distinct edges of a block, in the drained path's order.

    Keys are ``u * key_base + v`` with ``key_base = num_vertices``;
    ``np.unique`` therefore yields the edges sorted by ``(u, v)`` —
    the same sequence ``_vectorized._unique_edges`` produces from the
    step arrays (its base differs, but any base above the maximum
    target sorts keys identically), so per-edge float accumulation
    happens in exactly the same order on both paths.
    """
    unique, counts = np.unique(block.edge_key_array(), return_counts=True)
    base = np.int64(block.key_base)
    return unique // base, unique % base, counts


class StreamingEdgeDensity(StreamingEstimator):
    """Eq. (5) accumulator: label fractions over the labeled edges.

    Pure integer counting, so it matches the batch estimator exactly.
    """

    def __init__(self, labeling: EdgeLabeling, labels: Sequence[Label]):
        self.labeling = labeling
        self.labels = list(labels)
        self._hits: Dict[Label, int] = {label: 0 for label in self.labels}
        self._relevant = 0

    def _consume(self, u: int, v: int, count: int) -> None:
        edge_labels = self.labeling.labels_of((u, v))
        if not edge_labels:
            return
        self._relevant += count
        for label in edge_labels:
            if label in self._hits:
                self._hits[label] += count

    def _update_array(self, trace) -> None:
        us, vs, counts = _vectorized._unique_edges(
            trace.step_sources, trace.step_targets
        )
        self._consume_edges(us, vs, counts)

    def _consume_edges(
        self, us: np.ndarray, vs: np.ndarray, counts: np.ndarray
    ) -> None:
        for u, v, count in zip(us.tolist(), vs.tolist(), counts.tolist()):
            self._consume(u, v, count)

    def fused_needs(self) -> Optional[FusedNeeds]:
        return FusedNeeds(edge_keys=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        self._consume_edges(*_decode_edge_keys(block))

    def _update_list(self, trace: WalkTrace) -> None:
        for u, v in trace.edges:
            self._consume(u, v, 1)

    def estimate(self) -> Dict[Label, float]:
        if self._relevant == 0:
            raise ValueError(
                "no sampled edge carries any label; cannot form the estimate"
            )
        return {
            label: self._hits[label] / self._relevant for label in self.labels
        }


class StreamingEdgeFunctional(StreamingEstimator):
    """Eq. (9) accumulator: ``(1/B*) sum f(u, v)`` over edges in ``E*``.

    ``f`` and ``membership`` run once per distinct edge of each
    array-backed increment (the batch estimator's trick, applied
    chunk-wise).
    """

    def __init__(
        self, f: EdgeFunction, membership: Optional[EdgePredicate] = None
    ):
        self.f = f
        self.membership = membership
        self._total = 0.0
        self._relevant = 0

    def _update_array(self, trace) -> None:
        us, vs, counts = _vectorized._unique_edges(
            trace.step_sources, trace.step_targets
        )
        self._consume_edges(us, vs, counts)

    def _consume_edges(
        self, us: np.ndarray, vs: np.ndarray, counts: np.ndarray
    ) -> None:
        for u, v, count in zip(us.tolist(), vs.tolist(), counts.tolist()):
            if self.membership is not None and not self.membership(u, v):
                continue
            self._total += self.f(u, v) * count
            self._relevant += count

    def fused_needs(self) -> Optional[FusedNeeds]:
        return FusedNeeds(edge_keys=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        self._consume_edges(*_decode_edge_keys(block))

    def _update_list(self, trace: WalkTrace) -> None:
        for u, v in trace.edges:
            if self.membership is not None and not self.membership(u, v):
                continue
            self._total += self.f(u, v)
            self._relevant += 1

    def estimate(self) -> float:
        if self._relevant == 0:
            raise ValueError(
                "no sampled edges fall in E*; cannot form the estimate"
            )
        return self._total / self._relevant


# ----------------------------------------------------------------------
# graph size (Katzir-style collision counting)
# ----------------------------------------------------------------------
#: Below this many visits every collision product and sum is exact in
#: int64: sum_v (p_v + c_v)^2 / 2 <= visits^2 / 2 < 2^63.
_INT64_EXACT_VISITS = 1 << 31


class StreamingGraphSize(StreamingEstimator):
    """Size accumulator: ``Psi_1``, ``Psi_2`` and vertex collisions.

    Keeps one int64 visit count per vertex and the running number of
    colliding visit pairs, ``sum_v c_v (c_v - 1) / 2``, so collisions
    *across* increments are counted, exactly as the batch estimator
    sees them, and an estimate costs O(1).
    """

    def __init__(self, graph):
        self.graph = graph
        self._inverse_sum = 0.0
        self._degree_sum = 0.0
        self._samples = 0
        self._counts = np.zeros(graph.num_vertices, dtype=np.int64)
        self._collisions = 0

    def __setstate__(self, state: dict) -> None:
        if not {"_counts", "_collisions"} <= state.keys():
            raise ValueError(
                "this StreamingGraphSize was pickled by another version of"
                " the code, which kept its visits in a different layout;"
                " it cannot be resumed, so start a new accumulator"
            )
        self.__dict__.update(state)

    def _update_array(self, trace) -> None:
        unique, counts = np.unique(trace.step_targets, return_counts=True)
        self._absorb_visit_counts(unique, counts)

    def _absorb_visit_counts(
        self, vertices: np.ndarray, counts: np.ndarray
    ) -> None:
        """Count-based Psi/collision update shared with the fused path."""
        degrees = _vectorized.degrees_of(self.graph)[vertices].astype(
            np.float64
        )
        weights = counts.astype(np.float64)
        self._inverse_sum += float((weights / degrees).sum())
        self._degree_sum += float((weights * degrees).sum())
        self._add_visits(vertices, counts)

    def _add_visits(self, vertices: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` visits to the distinct ``vertices``: prior
        counts ``p`` gain ``sum p * c + sum c (c - 1) / 2`` collisions."""
        self._samples += int(counts.sum())
        prior = self._counts[vertices]
        if self._samples < _INT64_EXACT_VISITS:
            added = int((prior * counts).sum() + (counts * (counts - 1) // 2).sum())
        else:
            added = sum(
                p * c + c * (c - 1) // 2
                for p, c in zip(prior.tolist(), counts.tolist())
            )
        self._collisions += added
        self._counts[vertices] = prior + counts

    def fused_needs(self) -> Optional[FusedNeeds]:
        return FusedNeeds(visit_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        assert block.visit_counts is not None
        vertices = np.flatnonzero(block.visit_counts)
        self._absorb_visit_counts(vertices, block.visit_counts[vertices])

    def _update_list(self, trace: WalkTrace) -> None:
        graph = self.graph
        visited = trace.visited_vertices
        for v in visited:
            degree = graph.degree(v)
            self._inverse_sum += 1.0 / degree
            self._degree_sum += degree
        self._add_visits(
            *np.unique(np.asarray(visited, dtype=np.int64), return_counts=True)
        )

    def _statistics(self):
        if self._samples < 2:
            raise ValueError("need at least two samples to estimate size")
        collisions = self._collisions
        if collisions == 0:
            raise ValueError(
                "no vertex collisions in the trace; increase the budget"
                " (need B on the order of sqrt(|V|))"
            )
        b = self._samples
        psi_1 = self._inverse_sum / b
        psi_2 = self._degree_sum / b
        pairs = b * (b - 1) / 2.0
        return psi_1, psi_2, collisions, pairs

    def num_vertices(self) -> float:
        psi_1, psi_2, collisions, pairs = self._statistics()
        return psi_1 * psi_2 * pairs / collisions

    def volume(self) -> float:
        _, psi_2, collisions, pairs = self._statistics()
        return psi_2 * pairs / collisions

    def num_edges(self) -> float:
        return self.volume() / 2.0

    def estimate(self) -> float:
        """``|V|`` — the headline size estimate."""
        return self.num_vertices()
