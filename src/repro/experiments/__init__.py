"""Experiment harness and the per-figure/table reproduction drivers.

Every evaluation artifact of the paper has a driver here:

- ``figures.fig1`` … ``figures.fig14`` (Figure 2 is an illustration of
  the proof, not an experiment) and ``tables.table1`` … ``tables.table4``.
- Each driver returns a structured result object with a ``render()``
  method producing the same rows/series the paper prints, so the
  benchmark harness and the CLI share one code path.

All drivers execute through the replication engine
(:mod:`repro.experiments.engine`): one resumable session per
replicate, streaming accumulation at every budget checkpoint, and
optional multi-process fan-out via each driver's ``procs`` parameter
(bit-identical results for every ``procs`` value at a fixed seed).
Whole workload suites are declared as YAML and compiled onto the same
engine by :mod:`repro.experiments.suite`, with the report pipeline in
:mod:`repro.experiments.report` (``repro suite run`` on the CLI).

The drivers accept ``scale`` (dataset size multiplier) and ``runs``
(replications) so the full evaluation stays laptop-sized; EXPERIMENTS.md
records the paper-vs-measured comparison produced at the default scale.
"""

from repro.experiments.degree_errors import (
    BudgetSweepResult,
    DegreeErrorResult,
    degree_error_budget_sweep,
    degree_error_experiment,
)
from repro.experiments.engine import (
    ExperimentPlan,
    PlanResult,
    TraceCollector,
    default_budget_schedule,
    run_plan,
)
from repro.experiments.samplepaths import SamplePathResult, sample_paths
from repro.experiments.suite import (
    Scenario,
    SuiteResult,
    SuiteSpec,
    SuiteSpecError,
    load_suite,
    run_suite,
)

__all__ = [
    "BudgetSweepResult",
    "DegreeErrorResult",
    "ExperimentPlan",
    "PlanResult",
    "SamplePathResult",
    "Scenario",
    "SuiteResult",
    "SuiteSpec",
    "SuiteSpecError",
    "TraceCollector",
    "default_budget_schedule",
    "degree_error_budget_sweep",
    "degree_error_experiment",
    "load_suite",
    "run_plan",
    "run_suite",
    "sample_paths",
]
