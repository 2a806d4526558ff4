"""repro — Frontier Sampling and graph-sampling estimation.

A from-scratch reproduction of *"Estimating and Sampling Graphs with
Multidimensional Random Walks"* (Ribeiro & Towsley, IMC 2010).

Quickstart::

    from repro import FrontierSampler, barabasi_albert
    from repro.estimators import degree_ccdf_from_trace

    graph = barabasi_albert(10_000, 3, rng=42)
    trace = FrontierSampler(dimension=64).sample(graph, budget=2_000, rng=1)
    ccdf = degree_ccdf_from_trace(graph, trace)

Subpackages:

- ``repro.graph`` — graph substrate (adjacency lists, components,
  labels, Cartesian powers, I/O);
- ``repro.generators`` — synthetic workloads (BA, ER, configuration
  models, the paper's GAB construction, social-network stand-ins);
- ``repro.sampling`` — FS and all baselines;
- ``repro.estimators`` — density / assortativity / clustering
  estimators from sampled edges;
- ``repro.metrics`` — ground truth and NMSE/CNMSE error metrics;
- ``repro.markov`` — exact chain-level verification of the theory;
- ``repro.analysis`` — closed-form vertex-vs-edge sampling model;
- ``repro.datasets`` — named dataset stand-ins (Table 1);
- ``repro.experiments`` — drivers regenerating every table and figure.
"""

from repro.datasets import load as load_dataset
from repro.generators import (
    barabasi_albert,
    configuration_model,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    join_by_bridge,
    watts_strogatz,
)
from repro.graph import DiGraph, Graph, largest_connected_component
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    RandomEdgeSampler,
    RandomVertexSampler,
    ShardedFrontierSampler,
    ShardedSessionPool,
    SingleRandomWalk,
)

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "FrontierSampler",
    "Graph",
    "MetropolisHastingsWalk",
    "MultipleRandomWalk",
    "RandomEdgeSampler",
    "RandomVertexSampler",
    "ShardedFrontierSampler",
    "ShardedSessionPool",
    "SingleRandomWalk",
    "barabasi_albert",
    "configuration_model",
    "erdos_renyi_gnm",
    "erdos_renyi_gnp",
    "join_by_bridge",
    "largest_connected_component",
    "load_dataset",
    "watts_strogatz",
    "__version__",
]
