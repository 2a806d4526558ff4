"""Streaming estimators — one accumulator per statistic.

Every estimator of Section 4.2 is a ratio of running sums, implemented
once, as an accumulator here; each batch ``*_from_trace`` function is
one :meth:`StreamingEstimator.update` of its accumulator and a read.
Sessions feed the same accumulators trace *increments*
(``session.take_trace()``) in O(chunk) time and O(state) memory, so
estimates can track an anytime walk over a graph (or a trace) too large
to materialize:

    session = sampler.start(graph, rng=7)
    pmf = StreamingDegreePMF(graph)
    while session.spent() < budget:
        session.advance(chunk)
        pmf.update(session.take_trace())
    estimate = pmf.estimate()

Eq. (7)'s reweighted estimators keep ``(sum g(v)/deg(v), sum 1/deg(v))``,
eq. (9)/(5)'s edge estimators keep ``(sum f, relevant count)``, and the
size estimator keeps the collision statistics.  Each accumulator has
one count reduction: it reads a :class:`~repro.sampling.fused.FusedBlock`
of the statistics its ``fused_needs()`` names — per-degree counts,
per-vertex visit counts, or the sampled edge keys.  The walk kernels
fill such blocks (:meth:`~StreamingEstimator.absorb_block`), and an
array-backed increment
(:class:`~repro.sampling.vectorized.ArrayWalkTrace`) is folded into one
by :func:`~repro.sampling.fused.block_from_arrays`.  A list-backed
increment runs the accumulator's tuple loop.  Fused and drained runs
therefore produce **bit-identical** estimates; a trace split into
increments agrees with the one-shot estimate to ≤1e-12 (only float
summation association differs), which the parity tests pin down.
"""

from __future__ import annotations

import abc
import math
from itertools import compress
from typing import Callable, Dict, Hashable, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, get_csr
from repro.graph.labels import (
    EdgeLabeling,
    VertexLabel,
    label_membership,
    vertex_label_array,
)
from repro.sampling.base import VertexTrace, WalkTrace
from repro.sampling.fused import FusedBlock, FusedNeeds, block_from_arrays
from repro.sampling.vectorized import ArrayWalkTrace
from repro.util.stats import ccdf_from_pmf

Label = Hashable
EdgeFunction = Callable[[int, int], float]
EdgePredicate = Callable[[int, int], bool]
VertexFunction = Callable[[int], float]

_NO_SAMPLES = "no samples consumed (empty trace); cannot form the estimate"


# ----------------------------------------------------------------------
# graph lookups and count reductions
# ----------------------------------------------------------------------
def degrees_of(graph) -> np.ndarray:
    """The degree sequence as an int64 array: one ``diff`` over the
    graph's CSR, which :func:`get_csr` caches per mutation version."""
    return get_csr(graph).degrees()


def shared_neighbors(graph, u: int, v: int) -> int:
    """``|N(u) ∩ N(v)|`` on a :class:`~repro.graph.graph.Graph` or a
    :class:`CSRGraph`; on a ``Graph`` it iterates the smaller set."""
    if isinstance(graph, CSRGraph):
        return int(np.intersect1d(graph.neighbors(u), graph.neighbors(v)).size)
    set_u = graph.neighbor_set(u)
    set_v = graph.neighbor_set(v)
    if len(set_u) > len(set_v):
        set_u, set_v = set_v, set_u
    return sum(1 for w in set_u if w in set_v)


def _decode_edge_keys(block: FusedBlock):
    """Distinct edges of a block with their multiplicities.

    Returns ``(us, vs, counts)``.  Keys are ``u * key_base + v`` with
    ``key_base`` above every target, so ``np.unique`` yields the edges
    sorted by ``(u, v)`` whatever the base: a kernel block and the
    smaller block :func:`~repro.sampling.fused.block_from_arrays` folds
    from the same steps accumulate per-edge floats in the same order.
    """
    unique, counts = np.unique(block.edge_key_array(), return_counts=True)
    base = np.int64(block.key_base)
    return unique // base, unique % base, counts


def _check_degree_label(label: int) -> None:
    if label < 0:
        raise ValueError(
            f"degree label {label} is negative; a degree PMF is dense on"
            " 0 .. max and would drop its mass"
        )


def _dense(pmf: Dict[int, float]) -> Dict[int, float]:
    """Zero-fill the pmf on ``0 .. max(support)``."""
    if not pmf:
        raise ValueError("empty pmf")
    _check_degree_label(min(pmf))
    top = max(pmf)
    return {k: pmf.get(k, 0.0) for k in range(top + 1)}


# ----------------------------------------------------------------------
# the accumulator protocol and its two count families
# ----------------------------------------------------------------------
class StreamingEstimator(abc.ABC):
    """An accumulator fed trace increments via :meth:`update`.

    ``update`` accepts both backends' walk traces: an array-backed one
    is folded into a block of the accumulator's :meth:`fused_needs` and
    absorbed like a kernel's, a list-backed one runs its tuple loop;
    empty increments are no-ops.  :meth:`estimate` may be called at any
    time (anytime estimation) and raises :class:`ValueError` while no
    samples have been consumed.
    """

    def update(self, trace) -> "StreamingEstimator":
        """Consume one trace increment; returns self for chaining."""
        if isinstance(trace, VertexTrace):
            self._update_vertex_trace(trace)
        elif isinstance(trace, ArrayWalkTrace):
            if trace.step_targets.size:
                needs = self.fused_needs()
                self._absorb_block(
                    block_from_arrays(
                        needs,
                        trace.step_sources,
                        trace.step_targets,
                        degrees_of(self.graph) if needs.degree_counts else None,
                    )
                )
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

    #: Attributes of this version's state that earlier layouts lacked;
    #: a pickle without them cannot be resumed.
    _LAYOUT: Tuple[str, ...] = ()

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

    def __setstate__(self, state: dict) -> None:
        if not set(self._LAYOUT) <= state.keys():
            raise ValueError(
                f"this {type(self).__name__} was pickled by another version"
                " of the code, which kept its state in a different layout;"
                " it cannot be resumed, so start a new accumulator"
            )
        self.__dict__.update(state)

    def attach(self, graph) -> None:
        """Re-attach ``graph`` to an accumulator loaded from disk."""
        if "graph" in self.__dict__:
            self.graph = graph

    @abc.abstractmethod
    def fused_needs(self) -> FusedNeeds:
        """The block statistics this accumulator consumes."""

    def absorb_block(self, block: FusedBlock) -> "StreamingEstimator":
        """Consume one fused accumulator block; returns self.

        Empty blocks (no stat-bearing steps) are no-ops, mirroring
        :meth:`update` on an empty increment.
        """
        if block.steps:
            self._absorb_block(block)
        return self

    @abc.abstractmethod
    def _absorb_block(self, block: FusedBlock) -> None:
        """Fold a non-empty block into the running sums."""

    @abc.abstractmethod
    def _update_list(self, trace: WalkTrace) -> None: ...

    def _update_vertex_trace(self, trace: VertexTrace) -> None:
        raise TypeError(
            f"{type(self).__name__} consumes walk traces, not independent"
            " vertex samples"
        )


class _VisitCountEstimator(StreamingEstimator):
    """Reduces blocks to ``(vertices, counts)``, the distinct visited
    vertices and their visit counts."""

    def fused_needs(self) -> FusedNeeds:
        return FusedNeeds(visit_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        assert block.visit_counts is not None
        vertices = np.flatnonzero(block.visit_counts)
        self._absorb_visit_counts(vertices, block.visit_counts[vertices])

    @abc.abstractmethod
    def _absorb_visit_counts(self, vertices, counts) -> None: ...

    def _weights(self, vertices: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Eq. (7)'s weight ``count / deg`` of each distinct vertex."""
        return counts.astype(np.float64) / degrees_of(self.graph)[vertices].astype(np.float64)


class _EdgeCountEstimator(StreamingEstimator):
    """Reduces blocks to the distinct sampled edges, sorted by
    ``(u, v)``, with their multiplicities."""

    def fused_needs(self) -> FusedNeeds:
        return FusedNeeds(edge_keys=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        self._consume_edges(*_decode_edge_keys(block))

    @abc.abstractmethod
    def _consume_edges(self, us, vs, counts) -> None: ...


# ----------------------------------------------------------------------
# eq. (7): reweighted vertex accumulators
# ----------------------------------------------------------------------
class StreamingDegreePMF(_VisitCountEstimator):
    """Degree-distribution accumulator (eq. (7) / plain counts).

    Fed walk-trace increments it runs the ``1/deg`` reweighted
    estimator; fed :class:`~repro.sampling.base.VertexTrace` increments
    (uniform independent samples) it runs the plain empirical PMF.  The
    two laws cannot be mixed in one accumulator.

    ``degree_of`` relabels what is histogrammed (in-/out-degree): an
    int64 array indexed by vertex id, or a callable evaluated once per
    vertex here.  The reweighting always uses the symmetric walking
    degree.  Unlabeled, a walk reduces to per-degree visit counts;
    labeled, to per-vertex visit counts, each distinct vertex adding
    ``count / deg`` to its label's bin.  Labels must be non-negative
    (the estimate is dense on ``0 .. max``): ``update`` raises
    :class:`ValueError` on a negative one.  ``graph`` may be ``None``
    for vertex samples histogrammed by a label array.
    """

    _LAYOUT = ("labels",)

    def __init__(self, graph, degree_of: Optional[VertexLabel] = None):
        self.graph = graph
        self.labels = vertex_label_array(
            degree_of, None if graph is None else graph.num_vertices
        )
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

    def _fold(self, keys, values, normalizer: float, samples: int) -> None:
        """Add ``values[i]`` to bin ``keys[i]`` of the running sums."""
        for key, value in zip(keys.tolist(), values.tolist()):
            self._weighted[key] = self._weighted.get(key, 0.0) + value
        self._normalizer += normalizer
        self._samples += samples

    def _absorb_degree_counts(self, counts: np.ndarray) -> None:
        """Fold exact per-degree visit counts into the running sums."""
        degrees = np.flatnonzero(counts)
        weighted = counts[degrees].astype(np.float64) / degrees.astype(
            np.float64
        )
        self._fold(degrees, weighted, float(weighted.sum()), int(counts.sum()))

    def _absorb_visit_counts(
        self, vertices: np.ndarray, counts: np.ndarray
    ) -> None:
        """Each distinct vertex adds ``count / deg`` to its label's bin."""
        keys = self.labels[vertices]
        _check_degree_label(int(keys.min()))
        weights = self._weights(vertices, counts)
        histogram = np.bincount(keys, weights=weights)
        bins = np.flatnonzero(histogram)
        self._fold(
            bins, histogram[bins], float(weights.sum()), int(counts.sum())
        )

    def fused_needs(self) -> FusedNeeds:
        """Per-degree counts — or per-vertex visit counts when
        ``degree_of`` relabels, since the label is a function of the
        vertex that a per-degree count cannot reconstruct."""
        if self.labels is not None:
            return super().fused_needs()
        return FusedNeeds(degree_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        self._latch("walk")
        if self.labels is not None:
            super()._absorb_block(block)
        else:
            self._absorb_degree_counts(block.deg_counts)

    def _update_list(self, trace: WalkTrace) -> None:
        self._latch("walk")
        graph, labels = self.graph, self.labels
        for _, v in trace.edges:
            degree = graph.degree(v)
            inv_deg = 1.0 / degree
            self._normalizer += inv_deg
            key = degree if labels is None else int(labels[v])
            self._weighted[key] = self._weighted.get(key, 0.0) + inv_deg
            self._samples += 1
        _check_degree_label(min(self._weighted))

    def _update_vertex_trace(self, trace: VertexTrace) -> None:
        if not trace.vertices:
            return
        self._latch("vertex")
        # Integer counts per label: exact, like adding 1.0 per sample.
        labels = degrees_of(self.graph) if self.labels is None else self.labels
        keys = labels[trace.vertices]
        _check_degree_label(int(keys.min()))
        counts = np.bincount(keys)
        bins = np.flatnonzero(counts)
        self._fold(bins, counts[bins].astype(np.float64), 0.0, keys.size)

    def estimate(self) -> Dict[int, float]:
        """Dense PMF over ``0 .. max_observed`` (the batch dict shape)."""
        if self._samples == 0:
            raise ValueError(_NO_SAMPLES)
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


class StreamingVertexFunctional(_VisitCountEstimator):
    """Self-normalized eq. (7) accumulator for ``mean_v g(v)``.

    ``g`` runs once per distinct visited vertex of an array increment
    or block, weighted by ``count / deg``.
    """

    def __init__(self, graph, g: VertexFunction):
        self.graph = graph
        self.g = g
        self._weighted = 0.0
        self._normalizer = 0.0

    def _absorb_visit_counts(
        self, vertices: np.ndarray, counts: np.ndarray
    ) -> None:
        weights = self._weights(vertices, counts)
        values = np.fromiter(
            (self.g(v) for v in vertices.tolist()),
            dtype=np.float64,
            count=vertices.size,
        )
        self._weighted += float((values * weights).sum())
        self._normalizer += float(weights.sum())

    def _update_list(self, trace: WalkTrace) -> None:
        graph, g = self.graph, self.g
        for _, v in trace.edges:
            inv_deg = 1.0 / graph.degree(v)
            self._weighted += g(v) * inv_deg
            self._normalizer += inv_deg

    def sums(self) -> Tuple[float, float]:
        """The raw ``(sum g(v)/deg(v), sum 1/deg(v))`` pair."""
        return self._weighted, self._normalizer

    def estimate(self) -> float:
        if self._normalizer == 0.0:
            raise ValueError(_NO_SAMPLES)
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

    def _update_list(self, trace: WalkTrace) -> None:
        graph = self.graph
        for _, v in trace.edges:
            self._inverse_sum += 1.0 / graph.degree(v)
            self._steps += 1

    def fused_needs(self) -> FusedNeeds:
        return FusedNeeds(degree_counts=True)

    def _absorb_block(self, block: FusedBlock) -> None:
        """Fold exact per-degree visit counts into ``S``."""
        counts = block.deg_counts
        assert counts is not None
        degrees = np.flatnonzero(counts)
        contributions = counts[degrees].astype(np.float64) / degrees.astype(
            np.float64
        )
        self._inverse_sum += float(contributions.sum())
        self._steps += int(counts.sum())

    def estimate(self) -> float:
        if self._steps == 0:
            raise ValueError(_NO_SAMPLES)
        return self._steps / self._inverse_sum


class StreamingVertexDensity(_VisitCountEstimator):
    """Eq. (7) label-density accumulator sharing one normalizer ``S``.

    ``labeling`` is a :class:`~repro.graph.labels.VertexLabeling`, read
    once here into one boolean membership array per wanted label, or a
    mapping from label to such an array over vertex ids.
    """

    _LAYOUT = ("members",)

    def __init__(self, graph, labeling, labels: Iterable[Label]):
        self.graph = graph
        self.members = label_membership(labeling, labels, graph.num_vertices)
        self._weighted: Dict[Label, float] = dict.fromkeys(self.members, 0.0)
        self._normalizer = 0.0

    def _absorb_visit_counts(
        self, vertices: np.ndarray, counts: np.ndarray
    ) -> None:
        """Each distinct vertex contributes ``count / deg`` in one float
        operation, once per label it carries."""
        weights = self._weights(vertices, counts)
        self._normalizer += float(weights.sum())
        for label, member in self.members.items():
            self._weighted[label] += float((member[vertices] * weights).sum())

    def _update_list(self, trace: WalkTrace) -> None:
        graph = self.graph
        targets = [v for _, v in trace.edges]
        inverse = [1.0 / graph.degree(v) for v in targets]
        for inv_deg in inverse:
            self._normalizer += inv_deg
        # Each sum still adds its steps one at a time, in step order.
        visits = np.asarray(targets, dtype=np.int64)
        for label, member in self.members.items():
            for inv_deg in compress(inverse, member[visits].tolist()):
                self._weighted[label] += inv_deg

    def estimate(self) -> Dict[Label, float]:
        if self._normalizer == 0.0:
            raise ValueError(_NO_SAMPLES)
        return {
            label: weighted / self._normalizer
            for label, weighted in self._weighted.items()
        }


# ----------------------------------------------------------------------
# eq. (5)/(9): edge accumulators
# ----------------------------------------------------------------------
class StreamingEdgeDensity(_EdgeCountEstimator):
    """Eq. (5) accumulator: label fractions over the labeled edges.

    Pure integer counting, so every input path gives the same value.
    """

    def __init__(self, labeling: EdgeLabeling, labels: Iterable[Label]):
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

    def _consume_edges(
        self, us: np.ndarray, vs: np.ndarray, counts: np.ndarray
    ) -> None:
        for u, v, count in zip(us.tolist(), vs.tolist(), counts.tolist()):
            self._consume(u, v, count)

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


class StreamingEdgeFunctional(_EdgeCountEstimator):
    """Eq. (9) accumulator: ``(1/B*) sum f(u, v)`` over edges in ``E*``.

    ``f`` and ``membership`` run once per distinct edge of each
    array increment or block.
    """

    def __init__(
        self, f: EdgeFunction, membership: Optional[EdgePredicate] = None
    ):
        self.f = f
        self.membership = membership
        self._total = 0.0
        self._relevant = 0

    def _consume_edges(
        self, us: np.ndarray, vs: np.ndarray, counts: np.ndarray
    ) -> None:
        for u, v, count in zip(us.tolist(), vs.tolist(), counts.tolist()):
            if self.membership is not None and not self.membership(u, v):
                continue
            self._total += self.f(u, v) * count
            self._relevant += count

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


class StreamingClustering(_EdgeCountEstimator):
    """Global clustering accumulator (Section 4.2.4, corrected form;
    :mod:`repro.estimators.clustering` has the derivation).

    The sample ``(v, u)`` adds ``|N(v) ∩ N(u)| / (2 C(deg v, 2))`` to
    the numerator and ``1/deg(v)`` to the normalizer when ``deg(v) >=
    2``.  The shared-neighbor count runs once per distinct edge of an
    array increment or block.
    """

    def __init__(self, graph):
        self.graph = graph
        self._weighted = 0.0
        self._normalizer = 0.0
        self._samples = 0

    def _consume_edges(
        self, vs: np.ndarray, us: np.ndarray, counts: np.ndarray
    ) -> None:
        self._samples += int(counts.sum())
        deg_v = degrees_of(self.graph)[vs]
        mask = deg_v >= 2
        deg_v = deg_v[mask].astype(np.float64)
        weights = counts[mask].astype(np.float64)
        shared = np.fromiter(
            (
                shared_neighbors(self.graph, v, u)
                for v, u in zip(vs[mask].tolist(), us[mask].tolist())
            ),
            dtype=np.float64,
            count=int(mask.sum()),
        )
        pairs = deg_v * (deg_v - 1) / 2.0
        self._weighted += float((shared / (2.0 * pairs) * weights).sum())
        self._normalizer += float((weights / deg_v).sum())

    def _update_list(self, trace: WalkTrace) -> None:
        graph = self.graph
        for v, u in trace.edges:
            self._samples += 1
            deg_v = graph.degree(v)
            if deg_v < 2:
                continue
            pairs = deg_v * (deg_v - 1) / 2.0
            self._weighted += shared_neighbors(graph, v, u) / (2.0 * pairs)
            self._normalizer += 1.0 / deg_v

    def estimate(self) -> float:
        if self._samples == 0:
            raise ValueError(_NO_SAMPLES)
        if self._normalizer == 0.0:
            raise ValueError(
                "no sampled edge touches a vertex of degree >= 2;"
                " clustering is undefined on this trace"
            )
        return self._weighted / self._normalizer


class StreamingAssortativity(_EdgeCountEstimator):
    """Undirected degree assortativity (Section 4.2.2).

    The Pearson correlation of ``(deg(u), deg(v))`` over the sampled
    orientations, kept as the sample count and five moment sums.  An
    array increment or block adds each distinct edge's moments times
    its multiplicity; every moment is a sum of integers, exact in
    float64 below 2^53, so that equals the per-step sums.
    """

    def __init__(self, graph):
        self.graph = graph
        self._n = 0
        self._sum_x = self._sum_y = self._sum_xx = self._sum_yy = self._sum_xy = 0.0

    def _pairs(self, edges) -> Iterator[Tuple[float, float]]:
        """The ``(x, y)`` label of each sampled orientation in ``E*``."""
        graph = self.graph
        for u, v in edges:
            yield float(graph.degree(u)), float(graph.degree(v))

    def _weighted_pairs(self, us, vs, counts):
        """``(x, y, multiplicity)`` over the distinct edges in ``E*``."""
        degrees = degrees_of(self.graph)
        return (
            degrees[us].astype(np.float64),
            degrees[vs].astype(np.float64),
            counts.astype(np.float64),
        )

    def _consume_edges(
        self, us: np.ndarray, vs: np.ndarray, counts: np.ndarray
    ) -> None:
        x, y, weights = self._weighted_pairs(us, vs, counts)
        self._n += int(weights.sum())
        self._sum_x += float((x * weights).sum())
        self._sum_y += float((y * weights).sum())
        self._sum_xx += float((x * x * weights).sum())
        self._sum_yy += float((y * y * weights).sum())
        self._sum_xy += float((x * y * weights).sum())

    def _update_list(self, trace: WalkTrace) -> None:
        for x, y in self._pairs(trace.edges):
            self._n += 1
            self._sum_x += x
            self._sum_y += y
            self._sum_xx += x * x
            self._sum_yy += y * y
            self._sum_xy += x * y

    def estimate(self) -> float:
        n = self._n
        if n == 0:
            raise ValueError("no edge samples in E*; cannot estimate r")
        mean_x = self._sum_x / n
        mean_y = self._sum_y / n
        var_x = self._sum_xx / n - mean_x * mean_x
        var_y = self._sum_yy / n - mean_y * mean_y
        if var_x <= 0 or var_y <= 0:
            # All sampled endpoints share one degree: correlation
            # undefined; the paper requires sigma_in, sigma_out > 0.
            # Report 0 so runs over degree-regular subgraphs degrade
            # gracefully.
            return 0.0
        return (self._sum_xy / n - mean_x * mean_y) / math.sqrt(var_x * var_y)


class StreamingDirectedAssortativity(StreamingAssortativity):
    """Directed degree assortativity with ``E* = E_d`` (Section 4.2.2).

    Holds the :class:`~repro.graph.digraph.DiGraph` ``G_d`` as
    ``graph`` (dropped on pickle, re-attached with :meth:`attach`).
    The walk runs on the symmetric closure, so a sampled orientation
    ``(u, v)`` is relevant iff the arc exists in ``G_d``; its label is
    ``(outdeg(u), indeg(v))``.
    """

    def _pairs(self, edges) -> Iterator[Tuple[float, float]]:
        digraph = self.graph
        for u, v in edges:
            if digraph.has_edge(u, v):
                yield float(digraph.out_degree(u)), float(digraph.in_degree(v))

    def _weighted_pairs(self, us, vs, counts):
        digraph = self.graph
        mask = np.fromiter(
            (digraph.has_edge(u, v) for u, v in zip(us.tolist(), vs.tolist())),
            dtype=bool,
            count=us.size,
        )
        us, vs = us[mask].tolist(), vs[mask].tolist()
        return (
            np.array([digraph.out_degree(u) for u in us], dtype=np.float64),
            np.array([digraph.in_degree(v) for v in vs], dtype=np.float64),
            counts[mask].astype(np.float64),
        )


# ----------------------------------------------------------------------
# graph size (Katzir-style collision counting)
# ----------------------------------------------------------------------
#: Below this many visits every collision product and sum is exact in
#: int64: sum_v (p_v + c_v)^2 / 2 <= visits^2 / 2 < 2^63.
_INT64_EXACT_VISITS = 1 << 31


class StreamingGraphSize(_VisitCountEstimator):
    """Size accumulator: ``Psi_1``, ``Psi_2`` and vertex collisions.

    Keeps one int64 visit count per vertex and the running number of
    colliding visit pairs, ``sum_v c_v (c_v - 1) / 2``, so collisions
    *across* increments are counted, exactly as in one whole trace,
    and an estimate costs O(1).
    """

    _LAYOUT = ("_counts", "_collisions")

    def __init__(self, graph):
        self.graph = graph
        self._inverse_sum = 0.0
        self._degree_sum = 0.0
        self._samples = 0
        self._counts = np.zeros(graph.num_vertices, dtype=np.int64)
        self._collisions = 0

    def _absorb_visit_counts(
        self, vertices: np.ndarray, counts: np.ndarray
    ) -> None:
        degrees = degrees_of(self.graph)[vertices].astype(np.float64)
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
