"""Vertex vs edge sampling: the closed-form NMSE of Section 3.

With ``theta_i`` the fraction of vertices of degree ``i`` and ``d`` the
average degree, edge sampling hits a degree-``i`` vertex with
probability ``pi_i = i * theta_i / d``.  For a budget of ``B``
independent samples:

    NMSE_edge(i)   = sqrt((1/pi_i   - 1) / B)        (eq. 3)
    NMSE_vertex(i) = sqrt((1/theta_i - 1) / B)       (eq. 4)

Since ``pi_i / theta_i = i / d``, edge sampling is more accurate
exactly for degrees above the mean — the crossover the Figure 12
experiment verifies empirically.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.graph.graph import Graph
from repro.graph.labels import VertexLabel
from repro.metrics.exact import true_degree_pmf


def vertex_sampling_nmse(theta_i: float, budget: float) -> float:
    """Eq. (4): NMSE of the degree-``i`` density from ``B`` vertex
    samples."""
    if not 0.0 < theta_i <= 1.0:
        raise ValueError(f"theta_i must be in (0, 1], got {theta_i}")
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    return math.sqrt((1.0 / theta_i - 1.0) / budget)


def edge_sampling_nmse(
    theta_i: float, degree: int, average_degree: float, budget: float
) -> float:
    """Eq. (3): NMSE of the degree-``i`` density from ``B`` edge
    samples, via ``pi_i = i * theta_i / d``."""
    if degree <= 0:
        raise ValueError(f"degree must be > 0 for edge sampling, got {degree}")
    if average_degree <= 0:
        raise ValueError(
            f"average_degree must be > 0, got {average_degree}"
        )
    pi_i = degree * theta_i / average_degree
    if not 0.0 < pi_i <= 1.0:
        raise ValueError(
            f"pi_i = {pi_i} outside (0, 1]; inconsistent inputs"
        )
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    return math.sqrt((1.0 / pi_i - 1.0) / budget)


def predicted_crossover_degree(average_degree: float) -> float:
    """The degree at which the two NMSEs cross: the mean degree.

    ``pi_i > theta_i  <=>  i > d``: above the mean, edge sampling wins.
    """
    if average_degree <= 0:
        raise ValueError(
            f"average_degree must be > 0, got {average_degree}"
        )
    return average_degree


def analytic_nmse_curves(
    graph: Graph,
    budget: float,
    degree_of: Optional[VertexLabel] = None,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """``(vertex_curve, edge_curve)`` over the graph's degree support.

    The degree label (an array over vertex ids or a callable) defaults
    to the symmetric degree; the edge curve uses the *label's* mean as
    ``d`` (the quantity eq. 3 is stated in).
    Degrees with zero mass, and degree 0 for the edge curve (edges
    cannot sample isolated vertices), are omitted.
    """
    pmf = true_degree_pmf(graph, degree_of)
    mean_degree = sum(k * v for k, v in pmf.items())
    vertex_curve: Dict[int, float] = {}
    edge_curve: Dict[int, float] = {}
    for degree, mass in pmf.items():
        if mass <= 0:
            continue
        vertex_curve[degree] = vertex_sampling_nmse(mass, budget)
        if degree > 0:
            edge_curve[degree] = edge_sampling_nmse(
                mass, degree, mean_degree, budget
            )
    return vertex_curve, edge_curve
