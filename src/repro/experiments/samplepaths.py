"""Sample-path experiments — Figures 6 and 9.

These figures plot the *evolution* of one density estimate
``theta_hat_l(n)`` as a function of the number of walk steps ``n``,
for a handful of independent runs, with FS and MultipleRW pinned to
the same initial vertices.  They make visible *why* the error curves
differ: walkers trapped in small components keep SingleRW/MultipleRW
estimates away from the truth while every FS path converges quickly.

Each path is one engine replicate (:func:`~repro.experiments.engine.
run_plan` with a ``"steps"`` schedule): a picklable
:class:`PinnedSeedStarter` derives the path's shared uniform seeds
from the path-index child stream and pins every method's walkers to
them, exactly as the paper describes — so paths can fan out across
worker processes with ``procs`` and stay bit-identical to the
in-process run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.engine import ExperimentPlan, run_plan
from repro.graph.graph import Graph
from repro.graph.labels import VertexLabel, vertex_label_array
from repro.sampling.base import Backend, Edge, uniform_seeds
from repro.sampling.frontier import FrontierSampler
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk
from repro.util.rng import child_rng


@dataclass
class SamplePathResult:
    """Estimate trajectories: method -> list of paths -> checkpoint values."""

    title: str
    target_degree: int
    true_value: float
    checkpoints: List[int]
    paths: Dict[str, List[List[float]]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            self.title,
            f"  theta_{self.target_degree} = {self.true_value:.4f}"
            f"  ({len(next(iter(self.paths.values())))} paths per method)",
        ]
        for method in sorted(self.paths):
            lines.append(f"  {method}:")
            header = "    " + f"{'steps':>9} " + " ".join(
                f"{'path ' + str(i): >9}" for i in range(len(self.paths[method]))
            )
            lines.append(header)
            for c_index, n in enumerate(self.checkpoints):
                cells = " ".join(
                    f"{path[c_index]:>9.4f}" for path in self.paths[method]
                )
                lines.append("    " + f"{n:>9} " + cells)
        return "\n".join(lines)

    def final_values(self, method: str) -> List[float]:
        """Estimate at the last checkpoint, per path."""
        return [path[-1] for path in self.paths[method]]


def _prefix_estimates(
    graph: Graph,
    edges: Sequence[Edge],
    target_degree: int,
    labels: Sequence[int],
    checkpoints: Sequence[int],
) -> List[float]:
    """theta_hat(target) after each checkpoint prefix of ``edges``."""
    values: List[float] = []
    weighted = 0.0
    normalizer = 0.0
    position = 0
    for n in checkpoints:
        while position < min(n, len(edges)):
            _, v = edges[position]
            inv_deg = 1.0 / graph.degree(v)
            normalizer += inv_deg
            if labels[v] == target_degree:
                weighted += inv_deg
            position += 1
        values.append(weighted / normalizer if normalizer > 0 else 0.0)
    return values


def _interleave(per_walker: List[List[Edge]]) -> List[Edge]:
    """Round-robin merge so step ``n`` reflects simultaneous progress.

    MultipleRW's walkers advance in parallel in the thought experiment;
    a flat walker-after-walker ordering would misrepresent "the
    estimate after n total steps".
    """
    merged: List[Edge] = []
    depth = 0
    while True:
        emitted = False
        for edges in per_walker:
            if depth < len(edges):
                merged.append(edges[depth])
                emitted = True
        if not emitted:
            return merged
        depth += 1


def default_checkpoints(total_steps: int, count: int = 12) -> List[int]:
    """Log-spaced step checkpoints ``1 .. total_steps``."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    points = sorted(
        {
            max(1, int(round(total_steps ** (i / (count - 1)))))
            for i in range(count)
        }
    )
    if points[-1] != total_steps:
        points.append(total_steps)
    return points


@dataclass(frozen=True)
class PinnedSeedStarter:
    """Picklable engine starter pinning a path's shared seeds.

    Per path (= engine replicate ``index``), the ``dimension`` uniform
    seeds are drawn from ``child_rng(seed_root, index)`` — one stream
    shared by every method, so FS, SingleRW (first seed only) and
    MultipleRW start from identical vertices as the paper requires —
    and the walk itself runs on the method's own
    ``child_rng(method_seed, index)`` stream.  Module-level and
    frozen, so ``procs`` fan-out can ship it to spawn workers.
    """

    kind: str  # "frontier" | "single" | "multiple"
    dimension: int
    seed_root: int

    def __call__(self, sampler, graph, root_seed: int, index: int):
        seeds = uniform_seeds(
            graph, self.dimension, child_rng(self.seed_root, index)
        )
        rng = child_rng(root_seed, index)
        if self.kind == "single":
            return sampler.start(graph, rng, initial_vertices=[seeds[0]])
        return sampler.start(graph, rng, initial_vertices=seeds)


def sample_paths(
    graph: Graph,
    target_degree: int,
    true_value: float,
    dimension: int,
    total_steps: int,
    num_paths: int = 4,
    root_seed: int = 0,
    degree_of: Optional[VertexLabel] = None,
    checkpoints: Optional[Sequence[int]] = None,
    title: str = "sample paths",
    backend: Optional[Backend] = None,
    procs: Optional[int] = None,
    executor: Optional[str] = None,
) -> SamplePathResult:
    """Figures 6/9: trajectories of ``theta_hat(target_degree)``.

    Per path, FS and MultipleRW start from the *same* ``dimension``
    uniform seeds (as the paper does); SingleRW starts from the first
    of them.  FS and SingleRW take ``total_steps`` steps; MultipleRW's
    ``dimension`` walkers take ``total_steps // dimension`` each, and
    their round-robin interleaving is scored so step ``n`` reflects
    simultaneous progress.  One engine replicate per path; ``procs``
    fans paths across worker processes bit-identically.
    """
    labels = graph.degrees() if degree_of is None else degree_of
    label = vertex_label_array(labels, graph.num_vertices).tolist()
    marks = list(checkpoints) if checkpoints else default_checkpoints(total_steps)
    samplers = {
        "FS": FrontierSampler(dimension),
        "SingleRW": SingleRandomWalk(),
        "MultipleRW": MultipleRandomWalk(dimension),
    }
    plan = ExperimentPlan(
        title=title,
        graph=graph,
        samplers=samplers,
        # Step-count schedule: MultipleRW's session counts steps per
        # walker, so its single checkpoint is the per-walker depth.
        budgets={
            "FS": [total_steps],
            "SingleRW": [total_steps],
            "MultipleRW": [total_steps // dimension],
        },
        schedule="steps",
        method_seed={
            "FS": root_seed + 1000,
            "SingleRW": root_seed + 2000,
            "MultipleRW": root_seed + 3000,
        },
        starter={
            "FS": PinnedSeedStarter("frontier", dimension, root_seed),
            "SingleRW": PinnedSeedStarter("single", dimension, root_seed),
            "MultipleRW": PinnedSeedStarter("multiple", dimension, root_seed),
        },
        backend=backend,
    )
    outcome = run_plan(plan, num_paths, procs=procs, executor=executor)
    result = SamplePathResult(
        title=title,
        target_degree=target_degree,
        true_value=true_value,
        checkpoints=marks,
    )
    result.paths["FS"] = [
        _prefix_estimates(graph, trace.edges, target_degree, label, marks)
        for trace in outcome.measurements("FS")
    ]
    result.paths["SingleRW"] = [
        _prefix_estimates(graph, trace.edges, target_degree, label, marks)
        for trace in outcome.measurements("SingleRW")
    ]
    result.paths["MultipleRW"] = [
        _prefix_estimates(
            graph,
            _interleave(trace.per_walker),
            target_degree,
            label,
            marks,
        )
        for trace in outcome.measurements("MultipleRW")
    ]
    return result
