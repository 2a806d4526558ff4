"""Estimators of graph characteristics from sampled data (Section 4.2).

All random-walk estimators consume a :class:`~repro.sampling.base.WalkTrace`
whose edges were sampled (approximately) uniformly; by Theorem 4.1
(SLLN) each estimator converges almost surely to the true value.

- vertex label density — eq. (7), the ``1/deg`` reweighted estimator;
- edge label density — eq. (5);
- degree distribution (PMF and CCDF) for arbitrary degree labels
  (in-, out-, or symmetric degree);
- degree assortativity — Section 4.2.2;
- global clustering coefficient — Section 4.2.4 / Corollary 4.2;
- a generic SLLN functional estimator for everything else.

Estimators for independent vertex samples (plain empirical averages)
live alongside their RW counterparts so experiment code can treat both
uniformly.

Each statistic is implemented once, as a ``Streaming*`` accumulator in
:mod:`repro.estimators.streaming`, and every ``*_from_trace`` function
is one ``update`` of its accumulator followed by a read.  An
accumulator runs a tuple loop over a list-backed
:class:`~repro.sampling.base.WalkTrace` and reduces an array-backed
:class:`~repro.sampling.vectorized.ArrayWalkTrace` to the same counts a
fused block carries; the two agree to ~1e-12.  For anytime estimation
over incremental sampling sessions, the accumulators also consume
trace *increments* (``session.take_trace()``) in O(chunk) and fused
blocks, and agree with the one-shot estimate to ≤1e-12.
"""

from repro.estimators.assortativity import (
    assortativity_from_trace,
    directed_assortativity_from_trace,
)
from repro.estimators.clustering import global_clustering_from_trace
from repro.estimators.diagnostics import (
    gelman_rubin,
    geweke_z,
    walker_observable_sequences,
)
from repro.estimators.size import (
    estimate_num_edges,
    estimate_num_vertices,
    estimate_volume,
)
from repro.estimators.degree import (
    degree_ccdf_from_trace,
    degree_ccdf_from_vertices,
    degree_pmf_from_trace,
    degree_pmf_from_vertices,
)
from repro.estimators.edge_density import (
    edge_label_densities_from_trace,
    edge_label_density_from_trace,
)
from repro.estimators.functionals import (
    edge_functional_from_trace,
    vertex_functional_from_trace,
    weighted_vertex_sums,
)
from repro.estimators.streaming import (
    StreamingAssortativity,
    StreamingAverageDegree,
    StreamingClustering,
    StreamingDegreePMF,
    StreamingDirectedAssortativity,
    StreamingEdgeDensity,
    StreamingEdgeFunctional,
    StreamingEstimator,
    StreamingGraphSize,
    StreamingVertexDensity,
    StreamingVertexFunctional,
)
from repro.estimators.vertex_density import (
    vertex_label_densities_from_trace,
    vertex_label_density_from_trace,
    vertex_label_density_from_vertices,
)

__all__ = [
    "StreamingAssortativity",
    "StreamingAverageDegree",
    "StreamingClustering",
    "StreamingDegreePMF",
    "StreamingDirectedAssortativity",
    "StreamingEdgeDensity",
    "StreamingEdgeFunctional",
    "StreamingEstimator",
    "StreamingGraphSize",
    "StreamingVertexDensity",
    "StreamingVertexFunctional",
    "assortativity_from_trace",
    "degree_ccdf_from_trace",
    "degree_ccdf_from_vertices",
    "degree_pmf_from_trace",
    "degree_pmf_from_vertices",
    "directed_assortativity_from_trace",
    "edge_functional_from_trace",
    "edge_label_densities_from_trace",
    "edge_label_density_from_trace",
    "estimate_num_edges",
    "estimate_num_vertices",
    "estimate_volume",
    "gelman_rubin",
    "geweke_z",
    "global_clustering_from_trace",
    "walker_observable_sequences",
    "vertex_functional_from_trace",
    "vertex_label_densities_from_trace",
    "vertex_label_density_from_trace",
    "vertex_label_density_from_vertices",
    "weighted_vertex_sums",
]
