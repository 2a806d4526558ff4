"""Degree distribution estimators (PMF and CCDF).

The experiments estimate in-degree, out-degree and symmetric-degree
distributions.  The *degree label* of a vertex (what we histogram) is
decoupled from the *walking degree* (what reweights observations):
a walker on the symmetric graph ``G`` visits ``v`` proportionally to
``deg_G(v)`` even when the quantity of interest is ``indeg_{G_d}(v)``.

All estimators return dense dicts over ``0 .. max_observed`` so CCDFs
and error curves line up across methods; a negative degree label
raises :class:`ValueError` instead of losing its mass.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.estimators.streaming import StreamingDegreePMF
from repro.graph.graph import Graph
from repro.graph.labels import VertexLabel, vertex_label_array
from repro.sampling.base import VertexTrace, WalkTrace
from repro.util.stats import ccdf_from_pmf


def degree_pmf_from_trace(
    graph: Graph,
    trace: WalkTrace,
    degree_of: Optional[VertexLabel] = None,
) -> Dict[int, float]:
    """Estimate ``theta_i`` for every degree ``i`` via eq. (7).

    ``degree_of`` is the degree *label*, an array over vertex ids or a
    callable (default: the walking degree).  The reweighting always
    uses the symmetric degree — that is the visit bias, whatever the label.
    """
    return StreamingDegreePMF(graph, degree_of).update(trace).estimate()


def degree_ccdf_from_trace(
    graph: Graph,
    trace: WalkTrace,
    degree_of: Optional[VertexLabel] = None,
) -> Dict[int, float]:
    """Estimated CCDF ``gamma_i = sum_{k > i} theta_k`` (eq. 2's target)."""
    return ccdf_from_pmf(degree_pmf_from_trace(graph, trace, degree_of))


def degree_pmf_from_vertices(
    vertices: Sequence[int],
    degree_of: VertexLabel,
) -> Dict[int, float]:
    """Empirical degree pmf from *uniform* vertex samples.

    The straightforward estimator of Section 3's random vertex
    sampling: each valid sample contributes ``1/n`` to its degree bin
    (the vertex-sample mode of :class:`StreamingDegreePMF`).  A
    callable ``degree_of`` is evaluated once per vertex id up to the
    largest sample.
    """
    samples = VertexTrace("vertices", list(vertices), 0.0, 0.0)
    if callable(degree_of):
        degree_of = vertex_label_array(
            degree_of, max(samples.vertices, default=-1) + 1
        )
    return StreamingDegreePMF(None, degree_of).update(samples).estimate()


def degree_ccdf_from_vertices(
    vertices: Sequence[int],
    degree_of: VertexLabel,
) -> Dict[int, float]:
    """Empirical CCDF from uniform vertex samples."""
    return ccdf_from_pmf(degree_pmf_from_vertices(vertices, degree_of))
