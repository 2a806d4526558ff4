"""Vertex label density estimators (Section 4.2.3, eq. 7).

``theta_l`` is the fraction of vertices of ``G`` carrying label ``l``.
A stationary RW visits vertices proportionally to degree, so the
estimator divides each observation by ``deg(v_i)`` and self-normalizes:

    theta_hat_l = (1 / (S B)) * sum_i 1(l in L_v(v_i)) / deg(v_i),
    S           = (1/B) * sum_i 1 / deg(v_i).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Sequence

from repro.estimators.streaming import StreamingVertexDensity
from repro.graph.graph import Graph
from repro.graph.labels import VertexLabeling
from repro.sampling.base import WalkTrace

Label = Hashable


def vertex_label_density_from_trace(
    graph: Graph,
    trace: WalkTrace,
    labeling: VertexLabeling,
    label: Label,
) -> float:
    """Estimate the fraction of vertices carrying ``label`` (eq. 7)."""
    density = StreamingVertexDensity(graph, labeling, [label])
    return density.update(trace).estimate()[label]


def vertex_label_densities_from_trace(
    graph: Graph,
    trace: WalkTrace,
    labeling: VertexLabeling,
    labels: Iterable[Label],
) -> Dict[Label, float]:
    """Estimate many label densities in one pass over the trace.

    Sharing the normalizer ``S`` across labels is both faster and
    exactly what eq. (7) prescribes (``S`` does not depend on ``l``).
    """
    density = StreamingVertexDensity(graph, labeling, labels)
    return density.update(trace).estimate()


def vertex_label_density_from_vertices(
    vertices: Sequence[int],
    labeling: VertexLabeling,
    label: Label,
) -> float:
    """Plain empirical fraction, for *uniform* vertex samples.

    Correct for :class:`~repro.sampling.independent.RandomVertexSampler`
    output and for Metropolis–Hastings visited sequences (both sample
    vertices uniformly), and wrong for RW traces — use the reweighted
    estimator for those.
    """
    if not vertices:
        raise ValueError("no vertex samples; cannot form the estimate")
    hits = sum(1 for v in vertices if labeling.has_label(v, label))
    return hits / len(vertices)
