"""Edge label density estimator (Section 4.2.1, eq. 5).

``p_l`` is the fraction of *labeled* edges carrying label ``l``.
Because a stationary RW samples edges uniformly, the estimator is the
plain average of the label indicator over sampled edges restricted to
the labeled subset ``E*``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

from repro.estimators.streaming import StreamingEdgeDensity
from repro.graph.labels import EdgeLabeling
from repro.sampling.base import WalkTrace

Label = Hashable


def edge_label_density_from_trace(
    trace: WalkTrace,
    labeling: EdgeLabeling,
    label: Label,
) -> float:
    """Estimate ``p_l`` (eq. 5) from the labeled edges of the trace.

    Edges outside ``E*`` (unlabeled in either orientation) are skipped,
    exactly as ``B*(B)`` counts only relevant samples.  An orientation
    ``(u, v)`` is looked up as sampled; labelings that label only the
    original directed edges implement the paper's ``E* = E_d``.
    """
    return StreamingEdgeDensity(labeling, [label]).update(trace).estimate()[label]


def edge_label_densities_from_trace(
    trace: WalkTrace,
    labeling: EdgeLabeling,
    labels: Iterable[Label],
) -> Dict[Label, float]:
    """Estimate many edge label densities in one pass."""
    return StreamingEdgeDensity(labeling, labels).update(trace).estimate()
