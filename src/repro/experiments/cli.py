"""Command-line entry point: regenerate any table or figure, or run a
checkpointable sampling session.

    repro-experiments --list
    repro-experiments fig5 --scale 0.2 --runs 40
    repro-experiments table2 --runs 50
    repro-experiments all --scale 0.1 --runs 20
    repro-experiments fig5 --backend csr   # vectorized CSR fast path

The ``sample`` subcommand drives one incremental
:class:`~repro.sampling.session.SamplerSession` with streaming
estimates, and can checkpoint/resume it across invocations:

    repro-experiments sample --ba 20000 3 --sampler fs --dimension 64 \\
        --budget 5000 --backend csr --checkpoint run.ckpt
    repro-experiments sample --ba 20000 3 --budget 20000 \\
        --resume run.ckpt --checkpoint run.ckpt

The ``suite`` subcommand compiles a YAML scenario suite
(:mod:`repro.experiments.suite`) to experiment plans, runs the grid,
and writes ``report.json`` / ``report.md`` / ``report.csv``:

    repro suite run suites/smoke.yaml --procs 2 --out /tmp/smoke
    repro suite run suites/smoke.yaml --procs 2 --out /tmp/smoke --resume
    repro suite validate suites/paper.yaml

(``repro`` and ``repro-experiments`` are the same entry point.)
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from typing import Callable, Dict

from repro.experiments import ablations, figures, tables

#: experiment id -> (driver, accepts_runs)
_EXPERIMENTS: Dict[str, Callable] = {
    "ablation-dimension": ablations.dimension_sweep,
    "ablation-selection": ablations.walker_selection_ablation,
    "ablation-metropolis": ablations.metropolis_vs_rw,
    "ablation-burnin": ablations.burn_in_ablation,
    "ablation-distributed": ablations.fs_vs_distributed,
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "fig1": figures.fig1,
    "fig3": figures.fig3,
    "fig4": figures.fig4,
    "fig5": figures.fig5,
    "fig6": figures.fig6,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "fig12": figures.fig12,
    "fig13": figures.fig13,
    "fig14": figures.fig14,
}

#: drivers that do not take a ``runs`` argument (descriptive artifacts)
_NO_RUNS = {"table1", "fig3", "fig6", "fig7", "fig9"}
#: drivers that do not take a ``scale`` argument
_NO_SCALE = {"table4"}  # table4 sizes its own miniature graphs
#: descriptive drivers with nothing to replicate, hence no ``--procs``
#: and no ``--backend``
_DESCRIPTIVE = {"table1", "fig3", "fig7"}


def _run_one(
    name: str,
    scale: float,
    runs: int,
    procs=None,
    executor=None,
    backend=None,
) -> str:
    driver = _EXPERIMENTS[name]
    kwargs = {}
    if name not in _NO_SCALE:
        kwargs["scale"] = scale
    if name not in _NO_RUNS:
        if name == "table4":
            kwargs["mc_runs"] = max(1000, runs * 100)
        else:
            kwargs["runs"] = runs
    if name not in _DESCRIPTIVE:
        if backend is not None:
            kwargs["backend"] = backend
        if procs is not None:
            kwargs["procs"] = procs
            if executor is not None:
                kwargs["executor"] = executor
    result = driver(**kwargs)
    return result.render()


def _build_sampler(args):
    from repro.sampling import (
        FrontierSampler,
        MetropolisHastingsWalk,
        MultipleRandomWalk,
        ShardedFrontierSampler,
        SingleRandomWalk,
    )

    if args.procs is not None and args.procs > 1:
        if args.sampler != "fs":
            raise SystemExit(
                "--procs > 1 shards the frontier across processes and"
                " therefore requires --sampler fs"
            )
        return ShardedFrontierSampler(
            args.dimension, procs=args.procs, executor=args.executor
        )
    if args.sampler == "fs":
        return FrontierSampler(args.dimension, backend=args.backend)
    if args.sampler == "srw":
        return SingleRandomWalk(backend=args.backend)
    if args.sampler == "mrw":
        return MetropolisHastingsWalk(backend=args.backend)
    if args.sampler == "multiplerw":
        return MultipleRandomWalk(args.dimension, backend=args.backend)
    if args.sampler == "dfs":
        return ShardedFrontierSampler(args.dimension, procs=1)
    raise SystemExit(f"unknown sampler {args.sampler!r}")


def _load_graph(args):
    from repro.generators.ba import barabasi_albert
    from repro.graph.io import read_edge_list

    if args.graph is not None:
        return read_edge_list(args.graph)
    n, m = args.ba
    return barabasi_albert(n, m, rng=args.graph_seed)


def _sample_main(argv) -> int:
    """``repro-experiments sample``: one resumable sampling session."""
    from repro.estimators.streaming import (
        StreamingAverageDegree,
        StreamingDegreePMF,
        StreamingGraphSize,
    )

    parser = argparse.ArgumentParser(
        prog="repro-experiments sample",
        description="Run (or resume) one incremental sampling session"
        " with streaming estimates, checkpointing walker state to disk.",
    )
    parser.add_argument(
        "--graph", help="edge-list file to sample (u v per line)"
    )
    parser.add_argument(
        "--ba",
        nargs=2,
        type=int,
        default=(10_000, 3),
        metavar=("N", "M"),
        help="generate a Barabasi-Albert stand-in graph (default 10000 3)",
    )
    parser.add_argument(
        "--graph-seed",
        type=int,
        default=42,
        help="seed for the generated graph (default 42)",
    )
    parser.add_argument(
        "--sampler",
        choices=("fs", "srw", "mrw", "multiplerw", "dfs"),
        default="fs",
        help="sampling method (default fs; dfs runs Theorem 5.5's"
        " clocked walkers over CSR whatever the --backend; ignored"
        " with --resume)",
    )
    parser.add_argument(
        "--dimension",
        type=int,
        default=64,
        help="walkers for fs/multiplerw/dfs (default 64)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        required=True,
        help="total budget (vertex-query units) to reach, including"
        " anything already spent by a resumed session",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed (default 0)"
    )
    parser.add_argument(
        "--backend",
        choices=("list", "csr"),
        default="list",
        help="sampling backend (default list; ignored with --resume)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        help="shard the FS frontier across this many worker processes"
        " (fs only; workers share the graph via mmap'd CSR buffers;"
        " default 1 = single-process; with --resume, re-pins the"
        " checkpointed session's worker count — the merged trace is"
        " shard-count-invariant, so this never changes results)",
    )
    parser.add_argument(
        "--executor",
        choices=("auto", "thread", "spawn"),
        default=None,
        help="how --procs > 1 fans out: 'spawn' (default) uses worker"
        " processes over mmap'd CSR buffers, 'thread' a thread pool"
        " over the in-process graph (native kernels release the GIL),"
        " 'auto' picks threads exactly when they can scale; traces"
        " are bit-identical either way (with --resume, re-pins the"
        " checkpointed session's executor)",
    )
    parser.add_argument(
        "--chunk",
        type=float,
        default=10_000,
        help="budget units to advance between streaming-estimate"
        " updates (default 10000)",
    )
    parser.add_argument(
        "--checkpoint",
        help="write walker + estimator state to this file when done",
    )
    parser.add_argument(
        "--resume",
        help="resume a session from this checkpoint file instead of"
        " starting fresh",
    )
    args = parser.parse_args(argv)
    if args.chunk <= 0:
        parser.error("--chunk must be > 0")
    if args.procs is not None and args.procs < 1:
        parser.error("--procs must be >= 1")
    if (
        args.executor is not None
        and not args.resume
        and (args.procs is None or args.procs < 2)
    ):
        parser.error("--executor requires --procs >= 2 (or --resume)")

    graph = _load_graph(args)
    print(
        f"graph: {graph.num_vertices:,} vertices,"
        f" {graph.num_edges:,} edges"
    )

    if args.resume:
        from repro.sampling.session import read_checkpoint
        from repro.sampling.sharded import (
            ShardedFrontierSession,
            resolve_executor,
        )

        payload = read_checkpoint(args.resume)
        session = payload["session"]
        session.attach(graph)
        if args.procs is not None:
            # Shard count is a deployment knob, not a statistics knob:
            # the merged trace is shard-count-invariant, so re-pinning
            # it on resume (e.g. on a machine with different cores) is
            # always safe.
            if isinstance(session, ShardedFrontierSession):
                session.procs = args.procs
            elif args.procs > 1:
                raise SystemExit(
                    f"--procs {args.procs} requires a sharded FS"
                    " checkpoint; this one holds a"
                    f" {session.method} session"
                )
        if args.executor is not None:
            # Same invariance: the executor moves the work, never the
            # draws, so re-pinning it on resume is always safe.
            if isinstance(session, ShardedFrontierSession):
                session.executor = resolve_executor(args.executor)
            else:
                raise SystemExit(
                    "--executor requires a sharded FS checkpoint; this"
                    f" one holds a {session.method} session"
                )
        accumulators = payload["accumulators"]
        for accumulator in accumulators.values():
            accumulator.attach(graph)
        print(
            f"resumed {session.method} session from {args.resume}:"
            f" {session.steps_taken:,} steps taken,"
            f" {session.spent():,.0f} budget spent"
        )
    else:
        sampler = _build_sampler(args)
        session = sampler.start(graph, rng=args.seed)
        accumulators = {
            "degree_pmf": StreamingDegreePMF(graph),
            "average_degree": StreamingAverageDegree(graph),
            "size": StreamingGraphSize(graph),
        }
        print(f"started {session.method} session (seed {args.seed})")

    try:
        while session.spent() < args.budget:
            before = session.spent()
            session.advance_budget(min(args.budget, before + args.chunk))
            increment = session.take_trace()
            for accumulator in accumulators.values():
                accumulator.update(increment)
            if session.spent() == before:
                break  # budget change too small to buy another step
            try:
                average = accumulators["average_degree"].estimate()
                estimate = f"avg degree ~ {average:.3f}"
            except ValueError:
                estimate = "no samples yet"
            print(
                f"  spent {session.spent():>12,.0f}"
                f"  steps {session.steps_taken:>10,}  {estimate}"
            )

        print(
            f"session done: {session.steps_taken:,} steps,"
            f" {session.spent():,.0f} of {args.budget:,.0f} budget spent"
        )
        try:
            size = accumulators["size"]
            print(
                f"estimates: |V| ~ {size.num_vertices():,.0f}"
                f" (true {graph.num_vertices:,}),"
                f" |E| ~ {size.num_edges():,.0f} (true {graph.num_edges:,})"
            )
        except ValueError as error:
            print(f"size estimate unavailable: {error}")

        if args.checkpoint:
            with open(args.checkpoint, "wb") as handle:
                pickle.dump(
                    {"session": session, "accumulators": accumulators},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            print(f"checkpoint written to {args.checkpoint}")
    finally:
        closer = getattr(session, "close", None)
        if closer is not None:  # sharded sessions own a pool + temp spill
            closer()
    return 0


def _suite_main(argv) -> int:
    """``repro suite``: run or validate a YAML scenario suite."""
    from repro.experiments.report import write_report
    from repro.experiments.suite import (
        SuiteSpecError,
        load_suite,
        run_suite,
    )

    parser = argparse.ArgumentParser(
        prog="repro suite",
        description="Compile a YAML scenario suite to experiment plans"
        " and run the whole grid (or just validate the spec).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser(
        "run", help="execute every scenario and write the suite report"
    )
    run_parser.add_argument("spec", help="suite spec YAML file")
    run_parser.add_argument(
        "--procs",
        type=int,
        default=1,
        help="worker processes per scenario (engine fan-out; results"
        " are bit-identical for every value >= 1; default 1)",
    )
    run_parser.add_argument(
        "--executor",
        choices=("auto", "thread", "spawn"),
        default=None,
        help="how --procs > 1 fans out: 'spawn' processes (default),"
        " 'thread' a thread pool over the in-process graph, or 'auto'"
        " (threads exactly when they can scale); results are"
        " bit-identical either way",
    )
    run_parser.add_argument(
        "--out",
        required=True,
        help="output directory for report.json/report.md/report.csv"
        " and the per-scenario checkpoints",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip scenarios whose checkpoint under <out>/scenarios/"
        " matches the current spec (stale checkpoints re-run)",
    )
    validate_parser = commands.add_parser(
        "validate", help="parse + validate the spec and list scenarios"
    )
    validate_parser.add_argument("spec", help="suite spec YAML file")
    args = parser.parse_args(argv)

    try:
        spec = load_suite(args.spec)
    except SuiteSpecError as error:
        print(f"invalid suite spec: {error}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"suite {spec.name!r}: {len(spec.scenarios)} scenarios ok")
        for scenario in spec.scenarios:
            print(
                f"  {scenario.id}: {scenario.family} n={scenario.size}"
                f" methods={','.join(sorted(scenario.samplers))}"
                f" budgets={[int(b) for b in scenario.budgets]}"
                f" replicates={scenario.replicates} seed={scenario.seed}"
            )
        return 0

    if args.procs < 1:
        parser.error("--procs must be >= 1")
    started = time.time()
    executor_note = (
        f" executor={args.executor}" if args.executor is not None else ""
    )
    print(
        f"suite {spec.name!r}: {len(spec.scenarios)} scenarios,"
        f" procs={args.procs}{executor_note}"
    )
    result = run_suite(
        spec,
        procs=args.procs,
        executor=args.executor,
        out_dir=args.out,
        resume=args.resume,
        log=print,
    )
    paths = write_report(result, args.out)
    resumed = result.resumed_ids()
    if resumed:
        print(f"  resumed {len(resumed)} scenario(s): {', '.join(resumed)}")
    print(
        f"suite {spec.name!r} done in {time.time() - started:.1f}s:"
        f" {paths['json']}  {paths['md']}  {paths['csv']}"
    )
    return 0


#: Subcommands are dispatched before the experiment parser; keep their
#: names out of the experiment registry or they would be unreachable.
assert "sample" not in _EXPERIMENTS and "suite" not in _EXPERIMENTS


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sample":
        return _sample_main(argv[1:])
    if argv and argv[0] == "suite":
        return _suite_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on"
        " synthetic stand-in datasets.",
        epilog="The 'sample' subcommand runs one checkpointable"
        " sampling session instead (repro-experiments sample --help);"
        " the 'suite' subcommand runs a YAML-declared scenario suite"
        " (repro-experiments suite --help)",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (fig1..fig14, table1..table4) or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset size multiplier (default 1.0 ~= 10^4 vertices)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=100,
        help="Monte Carlo replications (default 100)",
    )
    parser.add_argument(
        "--backend",
        choices=("list", "csr"),
        default=None,
        help="sampling backend passed to each replicating driver:"
        " 'list' (interpreted, paper-literal draw protocol) or 'csr'"
        " (vectorized fast path); unset, the drivers run the list"
        " walkers, or the shared CSR under --procs",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        help="fan each experiment's replicates across this many worker"
        " processes (spawn; graph shared via mmap'd CSR buffers)."
        " Results are bit-identical for every --procs value at a fixed"
        " seed; pooled sessions run on the csr draw protocol, so"
        " compare against --backend csr runs, not list-backend runs",
    )
    parser.add_argument(
        "--executor",
        choices=("auto", "thread", "spawn"),
        default=None,
        help="how --procs fans out: 'spawn' worker processes (default),"
        " 'thread' a thread pool over the in-process graph (no spill,"
        " no pickling; needs the native kernels to scale), or 'auto'"
        " (threads exactly when they can scale); results are"
        " bit-identical for every choice",
    )
    args = parser.parse_args(argv)
    if args.procs is not None and args.procs < 1:
        parser.error("--procs must be >= 1")
    if args.executor is not None and args.procs is None:
        parser.error("--executor requires --procs")
    if args.backend == "list" and args.procs is not None:
        parser.error(
            "--procs runs sessions over shared CSR buffers; it cannot"
            " be combined with --backend list"
        )

    if args.list:
        for name in _EXPERIMENTS:
            print(name)
        print("sample  (subcommand: repro-experiments sample --help)")
        print("suite   (subcommand: repro-experiments suite --help)")
        return 0
    if not args.experiment:
        parser.error("provide an experiment id or --list")

    names = (
        list(_EXPERIMENTS)
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        if name not in _EXPERIMENTS:
            print(
                f"unknown experiment {name!r}; use --list",
                file=sys.stderr,
            )
            return 2
        started = time.time()
        print(
            _run_one(
                name,
                args.scale,
                args.runs,
                args.procs,
                args.executor,
                args.backend,
            )
        )
        print(f"  [{name} finished in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
