"""The benchmark's workloads, driven through the repo's public entry points.

Each workload has a ``setup(seed, work_dir)`` that builds everything the
operation reuses (timed as ``setup_s``), a ``run(state)`` operation
(timed as ``wall_s``), a ``check(state, output)`` that returns one
``(label, passed)`` pair per output check.  ``state["steps"]`` is the
exact number of kernel steps one operation takes (for ``steps_per_s``).
Every input is a pure function of the benchmark seed.

Callables are looked up as module attributes at call time
(``suite.run_suite``, ``engine.run_plan``), so the traced run's hooks
see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import yaml

from repro.estimators.streaming import StreamingAverageDegree, StreamingDegreePMF
from repro.experiments import engine, report, suite, tables
from repro.generators import ba
from repro.graph import components, csr
from repro.sampling import _native
from repro.sampling.base import steps_within_budget
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import merge_needs
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk

HERE = Path(__file__).resolve().parent
Checks = List[Tuple[str, bool]]


def _walkers(sampler: Any) -> int:
    return int(getattr(sampler, "dimension", getattr(sampler, "num_walkers", 1)))


def _kernel_steps(sampler: Any, budget: float) -> int:
    """Kernel steps one session takes to spend ``budget`` (all walkers)."""
    walkers = _walkers(sampler)
    if isinstance(sampler, MultipleRandomWalk):
        return walkers * steps_within_budget(budget, walkers, sampler.seed_cost, split=True)
    return steps_within_budget(budget, walkers, sampler.seed_cost)


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# ----------------------------------------------------------------------
# suite-100k: `repro suite run` on two 10^5-vertex graphs, two threads
# ----------------------------------------------------------------------
SUITE_SPEC = HERE / "suite-100k.yaml"
SUITE_PROCS = 2
SUITE_EXECUTOR = "thread"


def suite_setup(seed: int, work_dir: Path) -> Dict[str, Any]:
    _native.load()
    document = yaml.safe_load(SUITE_SPEC.read_text(encoding="utf-8"))
    document["seed"] += 1000 * seed
    for entry in document["graphs"]:
        entry["seed"] += 1000 * seed
    work_dir.mkdir(parents=True, exist_ok=True)
    seeded = work_dir / f"suite-100k.seed{seed}.yaml"
    seeded.write_text(yaml.safe_dump(document, sort_keys=False), encoding="utf-8")
    spec = suite.load_suite(seeded)
    steps = 0
    for scenario in spec.scenarios:
        for sampler in scenario.build_samplers().values():
            steps += scenario.replicates * _kernel_steps(sampler, max(scenario.budgets))
    return {"spec": spec, "out_dir": work_dir / f"suite-100k.seed{seed}.report", "steps": steps}


def suite_run(state: Dict[str, Any]) -> Dict[str, Any]:
    result = suite.run_suite(state["spec"], procs=SUITE_PROCS, executor=SUITE_EXECUTOR)
    paths = report.write_report(result, state["out_dir"])
    return json.loads(paths["json"].read_text(encoding="utf-8"))


def suite_check(state: Dict[str, Any], written: Dict[str, Any]) -> Checks:
    """Every scenario x method x budget x estimator cell of the written
    report.json is present and finite."""
    checks: Checks = []
    for scenario in state["spec"].scenarios:
        methods = written["scenarios"].get(scenario.id, {}).get("methods", {})
        for method in scenario.samplers:
            for budget in scenario.budgets:
                for name in scenario.estimators:
                    cell = methods.get(method, {}).get(f"{budget:g}", {}).get(name)
                    ok = bool(cell) and all(_finite(v) for v in cell.values())
                    checks.append((f"{scenario.id}/{method}/{budget:g}/{name}", ok))
    return checks


# ----------------------------------------------------------------------
# table4-mc: the Appendix B / Table 4 Monte Carlo, many short sessions
# ----------------------------------------------------------------------
TABLE4_SIZE = 150
TABLE4_WALKERS = 10
#: One operation runs Table 4 on TABLE4_DRAWS independent graph draws
#: (root seeds), TABLE4_MC_RUNS Monte Carlo runs each.  Session cost
#: grows with the graph, so averaging several draws keeps one seed's
#: graph sizes from setting the operation's cost.
TABLE4_DRAWS = 4
TABLE4_MC_RUNS = 250
TABLE4_METHODS = ("FS", "MRW", "SRW")


def table4_setup(seed: int, work_dir: Path) -> Dict[str, Any]:
    _native.load()
    # table4's default budgets: B = 3K on the first graph, 2K on the others.
    samplers = (
        FrontierSampler(TABLE4_WALKERS),
        MultipleRandomWalk(TABLE4_WALKERS),
        SingleRandomWalk(),
    )
    budgets = (3 * TABLE4_WALKERS, 2 * TABLE4_WALKERS, 2 * TABLE4_WALKERS)
    steps = TABLE4_DRAWS * TABLE4_MC_RUNS * sum(
        _kernel_steps(sampler, budget) for budget in budgets for sampler in samplers
    )
    return {"seed": seed, "steps": steps}


def table4_run(state: Dict[str, Any]) -> List[Any]:
    return [
        tables.table4(
            graph_size=TABLE4_SIZE,
            num_walkers=TABLE4_WALKERS,
            mc_runs=TABLE4_MC_RUNS,
            root_seed=TABLE4_DRAWS * state["seed"] + draw,
            procs=1,
        )
        for draw in range(TABLE4_DRAWS)
    ]


def table4_check(state: Dict[str, Any], results: List[Any]) -> Checks:
    """Per draw, three rows, each with a finite, non-negative gap per method."""
    checks: Checks = []
    for draw, result in enumerate(results):
        checks.append((f"{draw}/rows", len(result.rows) == 3))
        for row in result.rows:
            for method in TABLE4_METHODS:
                gap = row.gaps.get(method)
                checks.append(
                    (f"{draw}/{row.graph_name}/{method}", _finite(gap) and gap >= 0)
                )
    return checks


# ----------------------------------------------------------------------
# fused-sweep-100k: in-process fused walks on a reused 10^5-vertex graph
# ----------------------------------------------------------------------
SWEEP_VERTICES = 100_000
SWEEP_EDGES_PER_VERTEX = 3
SWEEP_STEPS = 1_000_000
SWEEP_POINTS = 8
SWEEP_REPLICATES = 4
SWEEP_DIMENSION = 1000
#: Loose bound on the average-degree relative error after SWEEP_STEPS.
SWEEP_AVG_DEGREE_TOL = 0.2


class _DegreeBundle:
    """Degree PMF plus average degree, fed fused blocks (or increments)."""

    def __init__(self, graph: Any) -> None:
        self.pmf = StreamingDegreePMF(graph)
        self.average = StreamingAverageDegree(graph)

    def fused_needs(self) -> Any:
        return merge_needs((self.pmf, self.average))

    def absorb_block(self, block: Any) -> "_DegreeBundle":
        self.pmf.absorb_block(block)
        self.average.absorb_block(block)
        return self

    def update(self, increment: Any) -> "_DegreeBundle":
        self.pmf.update(increment)
        self.average.update(increment)
        return self


def _sweep_snapshot(method: str, bundle: _DegreeBundle, checkpoint: float) -> Any:
    return bundle.pmf.estimate(), bundle.average.estimate()


def sweep_setup(seed: int, work_dir: Path) -> Dict[str, Any]:
    _native.load()
    graph = ba.barabasi_albert(SWEEP_VERTICES, SWEEP_EDGES_PER_VERTEX, rng=7919 * seed + 1)
    lcc, _ = components.largest_connected_component(graph)
    walkable = csr.get_csr(lcc)
    degrees = np.diff(walkable.indptr)
    return {
        "graph": walkable,
        "average_degree": float(degrees.mean()),
        "root_seed": 7919 * seed + 2,
        "steps": 3 * SWEEP_REPLICATES * SWEEP_STEPS,
    }


def sweep_run(state: Dict[str, Any]) -> Any:
    graph = state["graph"]
    plan = engine.ExperimentPlan(
        title="fused-sweep-100k",
        graph=graph,
        samplers={
            "fs": FrontierSampler(SWEEP_DIMENSION, backend="csr"),
            "mhrw": MetropolisHastingsWalk(backend="csr"),
            "srw": SingleRandomWalk(backend="csr"),
        },
        budgets=engine.default_budget_schedule(SWEEP_STEPS, SWEEP_POINTS),
        accumulator=lambda method: _DegreeBundle(graph),
        snapshot=_sweep_snapshot,
        schedule="steps",
        root_seed=state["root_seed"],
        backend="csr",
    )
    return engine.run_plan(plan, SWEEP_REPLICATES, procs=None)


def sweep_check(state: Dict[str, Any], result: Any) -> Checks:
    """Each replicate walked to the final checkpoint; its final PMF sums
    to 1 and its average degree is near the truth."""
    checks: Checks = []
    truth = state["average_degree"]
    for method, run in sorted(result.methods.items()):
        for index, (row, steps) in enumerate(zip(run.rows, run.steps_taken)):
            pmf, average = row[-1]
            checks.append((f"{method}/{index}/steps", steps == SWEEP_STEPS))
            checks.append((f"{method}/{index}/pmf", abs(sum(pmf.values()) - 1.0) <= 1e-9))
            checks.append(
                (
                    f"{method}/{index}/average_degree",
                    abs(average - truth) <= SWEEP_AVG_DEGREE_TOL * truth,
                )
            )
        checks.append((f"{method}/replicates", run.replicates == SWEEP_REPLICATES))
    return checks


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    check: Callable[[Dict[str, Any], Any], Checks]
    #: How replicates run: a thread pool, inline in the pool's code
    #: path, or the engine's in-process (fused) loop.
    executor: str
    #: Whether the workload exists to exercise the fused kernels.
    fused: bool = False


WORKLOADS: Dict[str, Workload] = {
    "suite-100k": Workload(
        suite_setup, suite_run, suite_check, f"{SUITE_EXECUTOR} x{SUITE_PROCS}"
    ),
    "table4-mc": Workload(table4_setup, table4_run, table4_check, "inline (procs=1)"),
    "fused-sweep-100k": Workload(
        sweep_setup, sweep_run, sweep_check, "in-process", fused=True
    ),
}
