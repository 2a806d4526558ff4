"""Graph samplers: Frontier Sampling and every baseline it is compared to.

The samplers share one contract: given a graph, a budget ``B`` (in
vertex-query units, the paper's convention) and an RNG, produce a
:class:`~repro.sampling.base.WalkTrace` (sequence of sampled edges) or
a :class:`~repro.sampling.base.VertexTrace` (independently sampled
vertices).  Estimators are built on top of these traces.

Samplers implemented (the walks run on ``backend="list"`` or
``"csr"``; a csr walk starts through its sampler's ``start()``
session):

- :class:`SingleRandomWalk` — the classic RW (Section 4).
- :class:`MultipleRandomWalk` — ``m`` independent walkers
  (Section 4.4), with uniform or steady-state (degree-proportional)
  seeding.
- :class:`FrontierSampler` — Algorithm 1, the paper's contribution.
- :class:`ShardedFrontierSampler` — Theorem 5.5's exponential-clock
  realization of FS, sharded across processes (inline at ``procs=1``).
- :class:`MetropolisHastingsWalk` — the MRW baseline from Section 7.
- :class:`RandomVertexSampler` / :class:`RandomEdgeSampler` —
  independent uniform sampling with the hit-ratio cost model of
  Sections 3 and 6.4.
"""

from repro.sampling.base import (
    Backend,
    Sampler,
    SeedingMode,
    VertexTrace,
    WalkTrace,
    stationary_seeds,
    steps_within_budget,
    uniform_seeds,
)
from repro.sampling.frontier import FrontierSampler
from repro.sampling.independent import RandomEdgeSampler, RandomVertexSampler
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.session import SamplerSession, load_session
from repro.sampling.sharded import (
    VALID_EXECUTORS,
    ShardedFrontierSampler,
    ShardedSessionPool,
    resolve_executor,
    threads_can_scale,
)
from repro.sampling.single import SingleRandomWalk
from repro.sampling.vectorized import ArrayMetropolisTrace, ArrayWalkTrace

__all__ = [
    "ArrayMetropolisTrace",
    "ArrayWalkTrace",
    "Backend",
    "FrontierSampler",
    "MetropolisHastingsWalk",
    "MultipleRandomWalk",
    "RandomEdgeSampler",
    "RandomVertexSampler",
    "Sampler",
    "SamplerSession",
    "SeedingMode",
    "ShardedFrontierSampler",
    "ShardedSessionPool",
    "SingleRandomWalk",
    "VALID_EXECUTORS",
    "VertexTrace",
    "WalkTrace",
    "load_session",
    "resolve_executor",
    "stationary_seeds",
    "steps_within_budget",
    "threads_can_scale",
    "uniform_seeds",
]
