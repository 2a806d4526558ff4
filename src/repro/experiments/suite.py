"""YAML-declared scenario suites compiled to :class:`ExperimentPlan`\\ s.

The paper's contribution is an *evaluation*: run every sampler over a
grid of graphs, budgets and estimators, and rank the methods by error.
A suite spec declares that grid as data::

    suite: smoke
    seed: 9001
    replicates: 2
    budgets: [300, 600]
    estimators: [degree_ccdf, average_degree, num_vertices]
    samplers:
      fs:   {kind: fs, dimension: 16}
      srw:  {kind: srw}
      mhrw: {kind: mhrw}
    graphs:
      - family: ba
        sizes: [600]
        kwargs: {edges_per_vertex: 3}
        seed: 42

:func:`load_suite` parses and validates the YAML (every validation
error is a :class:`SuiteSpecError` naming the offending YAML path),
expanding the ``graphs`` entries' size sweeps into one
:class:`Scenario` per (family, size) cell.  Each scenario compiles to
an :class:`~repro.experiments.engine.ExperimentPlan` and is executed
by :func:`run_suite` through the same
:func:`~repro.experiments.engine.run_plan` core every figure and
table runs on — so suite results inherit the engine's guarantee that
``procs`` is a deployment knob, never a statistics change, and a
suite report is bit-identical at ``procs=1`` and ``procs=2``.

Determinism is structural:

- every scenario derives its replication root seed as
  ``derive_scenario_seed(suite_seed, scenario_id)`` (SHA-256 based),
  so adding, removing or reordering scenarios never perturbs the
  streams of the others;
- explicit per-entry ``root_seed`` overrides are allowed but checked:
  two scenarios deriving the same seed is a spec error, not a silent
  correlation between "independent" cells.

Per-scenario results are checkpointed to ``<out>/scenarios/<id>.json``
keyed by a spec fingerprint; ``run_suite(..., resume=True)`` skips any
scenario whose checkpoint matches its current spec, which makes long
suites resumable cell by cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.estimators.streaming import (
    StreamingAverageDegree,
    StreamingDegreePMF,
    StreamingGraphSize,
)
from repro.experiments.engine import ExperimentPlan, run_plan
from repro.sampling.fused import merge_needs
from repro.generators.ba import ba_edges
from repro.generators.er import gnm_edges
from repro.generators.smallworld import watts_strogatz
from repro.graph.components import largest_connected_component
from repro.graph.csr import CSRGraph
from repro.metrics.errors import nmse, nmse_curve, relative_bias
from repro.metrics.exact import true_degree_ccdf, true_degree_pmf

__all__ = [
    "Scenario",
    "ScenarioOutcome",
    "SuiteResult",
    "SuiteSpec",
    "SuiteSpecError",
    "derive_scenario_seed",
    "load_suite",
    "parse_suite",
    "run_suite",
]


class SuiteSpecError(ValueError):
    """A suite spec failed validation.

    ``path`` names the offending location in the YAML document
    (``graphs[1].family``, ``samplers.fs.kind``, ...) so the fix is a
    text search away.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ----------------------------------------------------------------------
# registries: graph families, sampler kinds, estimators
# ----------------------------------------------------------------------
def _family_ba(size: int, kwargs: Mapping[str, Any], seed: int):
    edges = ba_edges(size, int(kwargs.get("edges_per_vertex", 3)), rng=seed)
    return CSRGraph.from_edge_sequence(*edges, size)


def _er_num_edges(size: int, kwargs: Mapping[str, Any]) -> int:
    """An ER scenario's edge count: ``size * avg_degree / 2``, and at
    least ``size - 1`` so the graph can be connected."""
    return max(
        size - 1, round(size * float(kwargs.get("avg_degree", 6.0)) / 2)
    )


def _family_er(size: int, kwargs: Mapping[str, Any], seed: int):
    graph = CSRGraph.from_edge_sequence(
        *gnm_edges(size, _er_num_edges(size, kwargs), rng=seed), size
    )
    if not kwargs.get("lcc", True):
        return graph
    # Walkers cannot launch from isolated vertices; like the figure
    # drivers, ER scenarios walk the LCC unless the spec opts out (FS
    # tolerates dust, SRW/MHRW seeds do not).
    lcc, _ = largest_connected_component(graph)
    return lcc


def _family_ws(size: int, kwargs: Mapping[str, Any], seed: int):
    return watts_strogatz(
        size,
        int(kwargs.get("neighbors", 6)),
        float(kwargs.get("rewire_prob", 0.1)),
        rng=seed,
    )


def _check_ba(size: int, kwargs: Mapping[str, Any], path: str) -> None:
    k = int(kwargs.get("edges_per_vertex", 3))
    if not 1 <= k < size:
        raise SuiteSpecError(
            f"{path}.edges_per_vertex",
            f"must be in [1, {size}) at size {size}, got {k}",
        )


def _check_er(size: int, kwargs: Mapping[str, Any], path: str) -> None:
    num_edges, most = _er_num_edges(size, kwargs), size * (size - 1) // 2
    if num_edges > most:
        raise SuiteSpecError(
            f"{path}.avg_degree",
            f"gives {num_edges} edges at size {size}, more than the"
            f" {most} a simple graph on {size} vertices has",
        )


def _check_ws(size: int, kwargs: Mapping[str, Any], path: str) -> None:
    neighbors = int(kwargs.get("neighbors", 6))
    if neighbors % 2 or neighbors >= size:
        raise SuiteSpecError(
            f"{path}.neighbors",
            f"must be even and below the size, got {neighbors} at size {size}",
        )
    rewire_prob = float(kwargs.get("rewire_prob", 0.1))
    if not 0.0 <= rewire_prob <= 1.0:
        raise SuiteSpecError(
            f"{path}.rewire_prob", f"must be in [0, 1], got {rewire_prob}"
        )


#: family -> (builder, allowed kwargs, check).  A check raises a
#: :class:`SuiteSpecError` under its kwargs path when a size cannot be
#: built with them.  Scenario graphs are only walked and scored, so BA
#: and ER are built as CSR graphs straight from their edge buffers;
#: Watts–Strogatz rewires with ``add_edge`` and stays a ``Graph``.
_FAMILIES: Dict[str, Tuple[Callable, frozenset, Callable]] = {
    "ba": (_family_ba, frozenset({"edges_per_vertex"}), _check_ba),
    "er": (_family_er, frozenset({"avg_degree", "lcc"}), _check_er),
    "ws": (_family_ws, frozenset({"neighbors", "rewire_prob"}), _check_ws),
}


def _sampler_fs(kwargs: Mapping[str, Any]):
    from repro.sampling import FrontierSampler

    return FrontierSampler(
        int(kwargs.get("dimension", 16)),
        seeding=kwargs.get("seeding", "uniform"),
        seed_cost=float(kwargs.get("seed_cost", 1.0)),
        walker_selection=kwargs.get("walker_selection", "degree"),
    )


def _sampler_srw(kwargs: Mapping[str, Any]):
    from repro.sampling import SingleRandomWalk

    return SingleRandomWalk(
        seeding=kwargs.get("seeding", "uniform"),
        seed_cost=float(kwargs.get("seed_cost", 1.0)),
    )


def _sampler_mhrw(kwargs: Mapping[str, Any]):
    from repro.sampling import MetropolisHastingsWalk

    return MetropolisHastingsWalk(
        seeding=kwargs.get("seeding", "uniform"),
        seed_cost=float(kwargs.get("seed_cost", 1.0)),
    )


def _sampler_multiplerw(kwargs: Mapping[str, Any]):
    from repro.sampling import MultipleRandomWalk

    return MultipleRandomWalk(
        int(kwargs.get("dimension", 16)),
        seeding=kwargs.get("seeding", "uniform"),
        seed_cost=float(kwargs.get("seed_cost", 1.0)),
    )


def _sampler_dfs(kwargs: Mapping[str, Any]):
    from repro.sampling import ShardedFrontierSampler

    return ShardedFrontierSampler(
        int(kwargs.get("dimension", 16)),
        seeding=kwargs.get("seeding", "uniform"),
        seed_cost=float(kwargs.get("seed_cost", 1.0)),
        procs=1,
    )


#: kind -> (factory, allowed kwargs beyond "kind")
_SAMPLER_KINDS: Dict[str, Tuple[Callable, frozenset]] = {
    "fs": (
        _sampler_fs,
        frozenset({"dimension", "seeding", "seed_cost", "walker_selection"}),
    ),
    "srw": (_sampler_srw, frozenset({"seeding", "seed_cost"})),
    "mhrw": (_sampler_mhrw, frozenset({"seeding", "seed_cost"})),
    "multiplerw": (
        _sampler_multiplerw,
        frozenset({"dimension", "seeding", "seed_cost"}),
    ),
    "dfs": (_sampler_dfs, frozenset({"dimension", "seeding", "seed_cost"})),
}


@dataclass(frozen=True)
class _Estimator:
    """One named estimand: accumulator factory, value hook, truth."""

    name: str
    kind: str  # "scalar" or "curve"
    build: Callable[[Any], Any]
    value: Callable[[Any], Any]
    truth: Callable[[Any], Any]


def _safe_scalar(compute: Callable[[], float]) -> float:
    """An accumulator that produced nothing estimated zero — that is
    an estimate, and it is scored as one (the figure drivers'
    convention for empty traces)."""
    try:
        return float(compute())
    except ValueError:
        return 0.0


def _safe_curve(compute: Callable[[], Dict[int, float]]) -> Dict[int, float]:
    try:
        return compute()
    except ValueError:
        return {}


_ESTIMATORS: Dict[str, _Estimator] = {
    estimator.name: estimator
    for estimator in (
        _Estimator(
            "degree_pmf",
            "curve",
            lambda graph: StreamingDegreePMF(graph),
            lambda acc: _safe_curve(acc.estimate),
            lambda graph: dict(true_degree_pmf(graph)),
        ),
        _Estimator(
            "degree_ccdf",
            "curve",
            lambda graph: StreamingDegreePMF(graph),
            lambda acc: _safe_curve(acc.ccdf),
            lambda graph: dict(true_degree_ccdf(graph)),
        ),
        _Estimator(
            "average_degree",
            "scalar",
            lambda graph: StreamingAverageDegree(graph),
            lambda acc: _safe_scalar(acc.estimate),
            lambda graph: graph.average_degree(),
        ),
        _Estimator(
            "num_vertices",
            "scalar",
            lambda graph: StreamingGraphSize(graph),
            lambda acc: _safe_scalar(acc.num_vertices),
            lambda graph: float(graph.num_vertices),
        ),
        _Estimator(
            "num_edges",
            "scalar",
            lambda graph: StreamingGraphSize(graph),
            lambda acc: _safe_scalar(acc.num_edges),
            lambda graph: float(graph.num_edges),
        ),
    )
}


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
def derive_scenario_seed(suite_seed: int, scenario_id: str) -> int:
    """The scenario's replication root seed: a 31-bit SHA-256 digest
    of ``(suite_seed, scenario_id)``.

    Hash-derived (not sequential) so adding, removing or reordering
    scenarios never perturbs the replicate streams of the others —
    the suite-level analogue of ``child_rng``'s independence
    guarantee.
    """
    digest = hashlib.sha256(
        f"{int(suite_seed)}\x1f{scenario_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ----------------------------------------------------------------------
# the spec model
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """One fully-resolved grid cell: a graph, a sampler grid, a
    budget schedule, an estimator set, and a derived root seed."""

    id: str
    family: str
    size: int
    graph_kwargs: Dict[str, Any]
    graph_seed: int
    samplers: Dict[str, Dict[str, Any]]  # name -> {"kind": ..., **kwargs}
    estimators: List[str]
    budgets: List[float]
    replicates: int
    seed: int

    def build_graph(self):
        builder, _, _ = _FAMILIES[self.family]
        return builder(self.size, self.graph_kwargs, self.graph_seed)

    def build_samplers(self) -> Dict[str, Any]:
        built = {}
        for name, config in self.samplers.items():
            factory, _ = _SAMPLER_KINDS[config["kind"]]
            built[name] = factory(
                {k: v for k, v in config.items() if k != "kind"}
            )
        return built

    def build_plan(self, graph) -> ExperimentPlan:
        """The scenario as an engine plan: one accumulator bundle per
        replicate, snapshotting every estimator at every budget."""
        estimators = [_ESTIMATORS[name] for name in self.estimators]

        def accumulator(method: str) -> _EstimatorBundle:
            return _EstimatorBundle(graph, estimators)

        def snapshot(method: str, bundle: _EstimatorBundle, budget: float):
            return bundle.values()

        return ExperimentPlan(
            title=self.id,
            graph=graph,
            samplers=self.build_samplers(),
            budgets=list(self.budgets),
            accumulator=accumulator,
            snapshot=snapshot,
            root_seed=self.seed,
        )

    def spec_dict(self) -> Dict[str, Any]:
        """The scenario as canonical JSON-ready data (fingerprints,
        reports)."""
        return {
            "id": self.id,
            "family": self.family,
            "size": self.size,
            "graph_kwargs": dict(self.graph_kwargs),
            "graph_seed": self.graph_seed,
            "samplers": {k: dict(v) for k, v in self.samplers.items()},
            "estimators": list(self.estimators),
            "budgets": list(self.budgets),
            "replicates": self.replicates,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """Hash of everything that determines this scenario's numbers
        — the resume key for its checkpoint file.  ``procs`` is
        deliberately absent: the engine makes it statistics-invariant.
        """
        canonical = json.dumps(self.spec_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class _EstimatorBundle:
    """One replicate's accumulator: every declared estimator fed the
    same trace increments, snapshotted as ``{name: value}``."""

    def __init__(self, graph, estimators: Sequence[_Estimator]):
        self._estimators = list(estimators)
        self._parts = {e.name: e.build(graph) for e in estimators}

    def update(self, increment) -> "_EstimatorBundle":
        for part in self._parts.values():
            part.update(increment)
        return self

    def fused_needs(self):
        """The union of every part's needs — ``None`` (drain path)
        unless ALL parts can absorb fused blocks."""
        return merge_needs(self._parts.values())

    def absorb_block(self, block) -> "_EstimatorBundle":
        for part in self._parts.values():
            part.absorb_block(block)
        return self

    def values(self) -> Dict[str, Any]:
        return {
            e.name: e.value(self._parts[e.name]) for e in self._estimators
        }


@dataclass
class SuiteSpec:
    """A validated suite: name, root seed, and resolved scenarios."""

    name: str
    description: str
    seed: int
    scenarios: List[Scenario]
    path: Optional[Path] = None

    def scenario_ids(self) -> List[str]:
        return [scenario.id for scenario in self.scenarios]


# ----------------------------------------------------------------------
# parsing + validation
# ----------------------------------------------------------------------
def _as_mapping(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SuiteSpecError(
            path, f"expected a mapping, got {type(value).__name__}"
        )
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise SuiteSpecError(
            path, f"expected a list, got {type(value).__name__}"
        )
    return list(value)


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SuiteSpecError(
            path, f"expected an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise SuiteSpecError(path, f"must be >= {minimum}, got {value}")
    return value


def _check_keys(mapping: Mapping, allowed: frozenset, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise SuiteSpecError(
            f"{path}.{unknown[0]}",
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


def _parse_budgets(value, path: str) -> List[float]:
    budgets = _as_list(value, path)
    if not budgets:
        raise SuiteSpecError(path, "budget schedule must be non-empty")
    parsed = []
    for index, budget in enumerate(budgets):
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise SuiteSpecError(
                f"{path}[{index}]", f"expected a number, got {budget!r}"
            )
        if budget <= 0:
            raise SuiteSpecError(
                f"{path}[{index}]", f"budgets must be > 0, got {budget}"
            )
        parsed.append(float(budget))
    if any(b > a for b, a in zip(parsed, parsed[1:])):
        raise SuiteSpecError(
            path, f"budget schedule must be ascending, got {budgets}"
        )
    return parsed


def _parse_estimators(value, path: str) -> List[str]:
    names = _as_list(value, path)
    if not names:
        raise SuiteSpecError(path, "estimator set must be non-empty")
    for index, name in enumerate(names):
        if name not in _ESTIMATORS:
            raise SuiteSpecError(
                f"{path}[{index}]",
                f"unknown estimator {name!r}"
                f" (known: {', '.join(sorted(_ESTIMATORS))})",
            )
    if len(set(names)) != len(names):
        raise SuiteSpecError(path, f"duplicate estimator in {names}")
    return [str(name) for name in names]


def _parse_samplers(value, path: str) -> Dict[str, Dict[str, Any]]:
    grid = _as_mapping(value, path)
    if not grid:
        raise SuiteSpecError(path, "sampler grid must be non-empty")
    parsed: Dict[str, Dict[str, Any]] = {}
    for name, config in grid.items():
        entry_path = f"{path}.{name}"
        config = _as_mapping(config, entry_path)
        kind = config.get("kind", name)
        if kind not in _SAMPLER_KINDS:
            raise SuiteSpecError(
                f"{entry_path}.kind",
                f"unknown sampler kind {kind!r}"
                f" (known: {', '.join(sorted(_SAMPLER_KINDS))})",
            )
        _, allowed = _SAMPLER_KINDS[kind]
        _check_keys(config, allowed | {"kind"}, entry_path)
        parsed[str(name)] = {"kind": kind, **{
            key: config[key] for key in sorted(set(config) - {"kind"})
        }}
    return parsed


_GRAPH_KEYS = frozenset(
    {"family", "sizes", "kwargs", "seed", "id", "root_seed",
     "budgets", "estimators", "replicates", "samplers"}
)
_TOP_KEYS = frozenset(
    {"suite", "description", "seed", "replicates", "budgets",
     "estimators", "samplers", "graphs"}
)


def parse_suite(data: Any, source: str = "suite") -> SuiteSpec:
    """Validate a decoded YAML document into a :class:`SuiteSpec`.

    Every failure is a :class:`SuiteSpecError` whose message starts
    with the YAML path of the offending node.
    """
    root = _as_mapping(data, source)
    _check_keys(root, _TOP_KEYS, source)
    if "suite" not in root:
        raise SuiteSpecError(f"{source}.suite", "missing suite name")
    name = str(root["suite"])
    description = str(root.get("description", ""))
    seed = _as_int(root.get("seed", 0), f"{source}.seed")
    default_replicates = _as_int(
        root.get("replicates", 10), f"{source}.replicates", minimum=1
    )
    default_budgets = (
        _parse_budgets(root["budgets"], f"{source}.budgets")
        if "budgets" in root
        else None
    )
    default_estimators = _parse_estimators(
        root.get("estimators", ["degree_ccdf"]), f"{source}.estimators"
    )
    if "samplers" not in root:
        raise SuiteSpecError(f"{source}.samplers", "missing sampler grid")
    sampler_grid = _parse_samplers(root["samplers"], f"{source}.samplers")

    entries = _as_list(
        root.get("graphs", []), f"{source}.graphs"
    )
    if not entries:
        raise SuiteSpecError(
            f"{source}.graphs", "a suite needs at least one graphs entry"
        )

    scenarios: List[Scenario] = []
    for index, entry in enumerate(entries):
        entry_path = f"{source}.graphs[{index}]"
        entry = _as_mapping(entry, entry_path)
        _check_keys(entry, _GRAPH_KEYS, entry_path)
        if "family" not in entry:
            raise SuiteSpecError(
                f"{entry_path}.family", "missing graph family"
            )
        family = entry["family"]
        if family not in _FAMILIES:
            raise SuiteSpecError(
                f"{entry_path}.family",
                f"unknown graph family {family!r}"
                f" (known: {', '.join(sorted(_FAMILIES))})",
            )
        _, allowed_kwargs, check = _FAMILIES[family]
        kwargs = dict(
            _as_mapping(entry.get("kwargs", {}), f"{entry_path}.kwargs")
        )
        _check_keys(kwargs, allowed_kwargs, f"{entry_path}.kwargs")
        sizes = _as_list(entry.get("sizes", []), f"{entry_path}.sizes")
        if not sizes:
            raise SuiteSpecError(
                f"{entry_path}.sizes", "size sweep must be non-empty"
            )
        sizes = [
            _as_int(s, f"{entry_path}.sizes[{i}]", minimum=2)
            for i, s in enumerate(sizes)
        ]
        for size in sizes:
            try:
                check(size, kwargs, f"{entry_path}.kwargs")
            except SuiteSpecError:
                raise
            except (TypeError, ValueError) as error:
                raise SuiteSpecError(
                    f"{entry_path}.kwargs", f"not a number: {error}"
                ) from error
        if "id" in entry and len(sizes) > 1:
            raise SuiteSpecError(
                f"{entry_path}.id",
                "an explicit id needs a single-size entry"
                f" (this one sweeps {len(sizes)} sizes)",
            )
        graph_seed = _as_int(entry.get("seed", 42), f"{entry_path}.seed")
        budgets = (
            _parse_budgets(entry["budgets"], f"{entry_path}.budgets")
            if "budgets" in entry
            else default_budgets
        )
        if budgets is None:
            raise SuiteSpecError(
                f"{entry_path}.budgets",
                "missing budget schedule (set suite-level 'budgets'"
                " or a per-entry override)",
            )
        estimators = (
            _parse_estimators(
                entry["estimators"], f"{entry_path}.estimators"
            )
            if "estimators" in entry
            else default_estimators
        )
        replicates = (
            _as_int(
                entry["replicates"], f"{entry_path}.replicates", minimum=1
            )
            if "replicates" in entry
            else default_replicates
        )
        if "samplers" in entry:
            selection = _as_list(
                entry["samplers"], f"{entry_path}.samplers"
            )
            for i, sampler_name in enumerate(selection):
                if sampler_name not in sampler_grid:
                    raise SuiteSpecError(
                        f"{entry_path}.samplers[{i}]",
                        f"{sampler_name!r} is not in the suite's"
                        f" sampler grid ({', '.join(sorted(sampler_grid))})",
                    )
            samplers = {
                str(n): dict(sampler_grid[n]) for n in selection
            }
        else:
            samplers = {k: dict(v) for k, v in sampler_grid.items()}

        for size in sizes:
            scenario_id = str(entry.get("id", f"{family}-n{size}"))
            scenario_seed = (
                _as_int(entry["root_seed"], f"{entry_path}.root_seed")
                if "root_seed" in entry
                else derive_scenario_seed(seed, scenario_id)
            )
            scenarios.append(
                Scenario(
                    id=scenario_id,
                    family=family,
                    size=size,
                    graph_kwargs=kwargs,
                    graph_seed=graph_seed,
                    samplers=samplers,
                    estimators=estimators,
                    budgets=budgets,
                    replicates=replicates,
                    seed=scenario_seed,
                )
            )

    seen_ids: Dict[str, str] = {}
    for scenario in scenarios:
        if scenario.id in seen_ids:
            raise SuiteSpecError(
                f"{source}.graphs",
                f"duplicate scenario id {scenario.id!r} — give one"
                " entry an explicit 'id'",
            )
        seen_ids[scenario.id] = scenario.id
    seeds: Dict[int, str] = {}
    for scenario in scenarios:
        if scenario.seed in seeds:
            raise SuiteSpecError(
                f"{source}.graphs",
                f"scenario seed collision: {scenario.id!r} and"
                f" {seeds[scenario.seed]!r} both replicate from seed"
                f" {scenario.seed} — their streams would be identical,"
                " not independent (drop or change a 'root_seed'"
                " override)",
            )
        seeds[scenario.seed] = scenario.id

    return SuiteSpec(
        name=name, description=description, seed=seed, scenarios=scenarios
    )


def load_suite(path) -> SuiteSpec:
    """Parse + validate a suite spec YAML file."""
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SuiteSpecError(str(path), f"cannot read spec: {error}") from error
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise SuiteSpecError(str(path), f"invalid YAML: {error}") from error
    spec = parse_suite(data, source=path.name)
    spec.path = path
    return spec


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """One scenario's JSON-ready stats plus resume accounting."""

    scenario: Scenario
    result: Dict[str, Any]
    resumed: bool = False


@dataclass
class SuiteResult:
    """Everything :func:`run_suite` produced, scenario by scenario."""

    spec: SuiteSpec
    procs: int
    executor: Optional[str] = None
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    def outcome(self, scenario_id: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.scenario.id == scenario_id:
                return outcome
        raise KeyError(scenario_id)

    def resumed_ids(self) -> List[str]:
        return [o.scenario.id for o in self.outcomes if o.resumed]


def _budget_key(budget: float) -> str:
    return f"{budget:g}"


def run_scenario(
    scenario: Scenario, procs: int = 1, executor: Optional[str] = None
) -> Dict[str, Any]:
    """Execute one scenario and score it.

    Returns the scenario's report fragment: realized graph facts plus
    ``methods -> budgets -> estimators -> {statistic: value}``.  The
    error statistics are the paper's: NRMSE (eq. 1, mean over the
    degree support for distribution estimands) and relative bias
    (Table 2) for scalars.
    """
    graph = scenario.build_graph()
    plan = scenario.build_plan(graph)
    outcome = run_plan(
        plan, scenario.replicates, procs=procs, executor=executor
    )
    truths = {
        name: _ESTIMATORS[name].truth(graph)
        for name in scenario.estimators
    }
    methods: Dict[str, Any] = {}
    for method in sorted(outcome.methods):
        per_budget: Dict[str, Any] = {}
        for budget in scenario.budgets:
            rows = outcome.measurements(method, budget)
            per_estimator: Dict[str, Any] = {}
            for name in scenario.estimators:
                estimator = _ESTIMATORS[name]
                measurements = [row[name] for row in rows]
                if estimator.kind == "curve":
                    curve = nmse_curve(measurements, truths[name])
                    per_estimator[name] = {
                        "nrmse": sum(curve.values()) / len(curve)
                        if curve
                        else 0.0
                    }
                else:
                    truth = float(truths[name])
                    per_estimator[name] = {
                        "nrmse": nmse(measurements, truth),
                        "bias": relative_bias(measurements, truth),
                    }
            per_budget[_budget_key(budget)] = per_estimator
        methods[method] = per_budget
    return {
        "id": scenario.id,
        "graph": {
            "family": scenario.family,
            "size": scenario.size,
            "kwargs": dict(scenario.graph_kwargs),
            "seed": scenario.graph_seed,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "average_degree": graph.average_degree(),
        },
        "seed": scenario.seed,
        "replicates": scenario.replicates,
        "budgets": [float(b) for b in scenario.budgets],
        "estimators": list(scenario.estimators),
        "methods": methods,
    }


def run_suite(
    spec: SuiteSpec,
    procs: int = 1,
    executor: Optional[str] = None,
    out_dir=None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> SuiteResult:
    """Execute every scenario of ``spec`` through the engine.

    ``procs`` fans each scenario's replicates over shared-CSR workers
    (``run_plan`` semantics: results are bit-identical for every value
    >= 1 and for every ``executor`` — spawn processes by default,
    threads with ``executor="thread"``/``"auto"``).  With ``out_dir``,
    each scenario's stats are checkpointed
    to ``<out_dir>/scenarios/<id>.json`` as soon as it finishes;
    ``resume=True`` then skips scenarios whose checkpoint fingerprint
    still matches the spec, so an interrupted suite continues where it
    stopped and a finished one only rebuilds its reports.
    """
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    say = log if log is not None else (lambda message: None)
    checkpoint_dir = None
    if out_dir is not None:
        checkpoint_dir = Path(out_dir) / "scenarios"
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    result = SuiteResult(spec=spec, procs=procs, executor=executor)
    for scenario in spec.scenarios:
        checkpoint = (
            checkpoint_dir / f"{scenario.id}.json"
            if checkpoint_dir is not None
            else None
        )
        if resume and checkpoint is not None and checkpoint.exists():
            try:
                payload = json.loads(checkpoint.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                payload = None
            if (
                payload is not None
                and payload.get("fingerprint") == scenario.fingerprint()
            ):
                say(f"  {scenario.id}: resumed from {checkpoint}")
                result.outcomes.append(
                    ScenarioOutcome(
                        scenario, payload["result"], resumed=True
                    )
                )
                continue
            say(f"  {scenario.id}: checkpoint stale, re-running")
        say(
            f"  {scenario.id}: {len(scenario.samplers)} methods x"
            f" {scenario.replicates} replicates x"
            f" {len(scenario.budgets)} budgets"
        )
        scenario_result = run_scenario(
            scenario, procs=procs, executor=executor
        )
        if checkpoint is not None:
            checkpoint.write_text(
                json.dumps(
                    {
                        "fingerprint": scenario.fingerprint(),
                        "result": scenario_result,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
        result.outcomes.append(ScenarioOutcome(scenario, scenario_result))
    return result
