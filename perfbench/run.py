"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-100k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics (``setup_s``, ``wall_s``, ``steps_per_s``,
``peak_rss_mb``); with ``--trace 1`` it holds the per-layer metrics of a
traced setup and operation.  Both forms carry ``correct``, ``attempted``
and ``failed``, the count of output checks.  The line before it records
the run's metadata (cores, versions, native kernels, executor).  Full
records go to ``.bench_build/perfbench/``.

The benchmark builds nothing but the native kernels, which it compiles
into ``.bench_build/repro-kernels`` before any timing starts.  A run on
which the kernels cannot load fails instead of timing the pure-Python
fallback.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORK = BUILD / "perfbench"
KERNEL_CACHE = BUILD / "repro-kernels"
WORKLOAD_NAMES = ("suite-100k", "table4-mc", "fused-sweep-100k")

#: Set-up is timed this many times in fresh interpreters (this process
#: counts as one); ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: Timed operations run until ``--seconds`` is used up, and at least
#: this many times.
MIN_OPS = 3
#: The traced run times at least this many untraced and traced operations.
MIN_UNTRACED = 1
MIN_TRACED = 2
CHILD_TIMEOUT_S = 170


def _environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _build() -> bool:
    """Compile and load the native kernels once, before any timing."""
    check = (
        "import sys; from repro.sampling import _native;"
        " sys.exit(0 if _native.available() else 1)"
    )
    done = subprocess.run(
        [sys.executable, "-c", check],
        env=_environment(),
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    return done.returncode == 0


def _setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        env=_environment(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _timed_setup(workload: str, seed: int) -> Tuple[Any, Any, float]:
    """Import the workloads (and with them the repo) and set one up."""
    start = time.perf_counter()
    import workloads

    spec = workloads.WORKLOADS[workload]
    state = spec.setup(seed, WORK)
    return spec, state, time.perf_counter() - start


def _metadata(spec: Any) -> Dict[str, Any]:
    import numpy

    from repro.sampling import _native
    from repro.sampling.fused import fusion_disabled

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native": _native.available(),
        "fusion_disabled": fusion_disabled(),
        "executor": spec.executor,
    }


def _guard(meta: Dict[str, Any], spec: Any) -> List[str]:
    """Reasons this process cannot produce a valid data point."""
    problems = []
    if not meta["native"]:
        problems.append("native kernels are unavailable")
    if spec.fused and meta["fusion_disabled"]:
        problems.append("REPRO_NO_FUSED is set; the fused path would not run")
    return problems


class Tally:
    """Output checks attempted and failed, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, checks: List[Tuple[str, bool]]) -> None:
        self.attempted += len(checks)
        self.failures.extend(label for label, ok in checks if not ok)


def _timed_op(spec: Any, state: Any, tally: Tally) -> float:
    # Start every operation from the same heap: collect what the last
    # one left for the cyclic collector outside the timed region.
    gc.collect()
    start = time.perf_counter()
    output = spec.run(state)
    wall = time.perf_counter() - start
    tally.add(spec.check(state, output))
    return wall


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args: argparse.Namespace) -> Tuple[Dict[str, Any], Tally, Dict]:
    samples = [
        _setup_in_fresh_interpreter(args.workload, args.seed)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    spec, state, own_setup = _timed_setup(args.workload, args.seed)
    samples.append(own_setup)
    meta = _metadata(spec)
    tally = Tally()
    problems = _guard(meta, spec)
    if problems:
        return meta, tally, {"problems": problems}
    _timed_op(spec, state, tally)  # warm-up, untimed
    walls: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        walls.append(_timed_op(spec, state, tally))
    wall = statistics.median(walls)
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "steps_per_s": {"value": state["steps"] / wall, "unit": "steps/s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    return meta, tally, {
        "metrics": metrics,
        "setup_samples_s": samples,
        "walls_s": walls,
        "steps_per_op": state["steps"],
    }


def run_traced(args: argparse.Namespace) -> Tuple[Dict[str, Any], Tally, Dict]:
    import numpy as np

    import layers
    from spans import Hooks, SpanRecorder

    import workloads
    from repro.sampling import _native

    spec = workloads.WORKLOADS[args.workload]
    meta = _metadata(spec)
    tally = Tally()
    problems = _guard(meta, spec)
    if problems:
        return meta, tally, {"problems": problems}
    library = _native.load()

    def hooks(recorder: SpanRecorder) -> Hooks:
        return Hooks(recorder, layers.TARGETS, library, layers.FOREIGN)

    setup_spans = SpanRecorder()
    with hooks(setup_spans) as installed, setup_spans.span("bench.setup"):
        state = spec.setup(args.seed, WORK)
    meta["missing_hooks"] = installed.missing
    _timed_op(spec, state, tally)  # warm-up, untraced and untimed
    untraced: List[float] = []
    traced: List[Tuple[float, SpanRecorder]] = []
    deadline = time.perf_counter() + args.seconds
    while (
        len(untraced) < MIN_UNTRACED
        or len(traced) < MIN_TRACED
        or time.perf_counter() < deadline
    ):
        if len(untraced) <= len(traced):
            untraced.append(_timed_op(spec, state, tally))
            continue
        recorder = SpanRecorder()
        gc.collect()
        with hooks(recorder):
            start = time.perf_counter()
            with recorder.span("bench.op"):
                output = spec.run(state)
            wall = time.perf_counter() - start
        tally.add(spec.check(state, output))
        traced.append((wall, recorder))

    # Counters depend on the inputs alone: every traced operation must
    # agree, and the kernels must have taken exactly the expected steps.
    counts = [dict(recorder.counters()) for _, recorder in traced]
    tally.add([(f"counters[{i}]", c == counts[0]) for i, c in enumerate(counts[1:], 1)])
    tally.add([("native.steps", counts[0].get("native.steps") == state["steps"])])

    traced.sort(key=lambda item: item[0])
    representative = traced[(len(traced) - 1) // 2][1]
    values = layers.layer_metrics(
        [setup_spans, representative], untraced_wall=statistics.median(untraced)
    )
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    spans = representative.spans()
    WORK.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        WORK / f"spans-{args.workload}-seed{args.seed}.npz",
        names=np.array(representative.names),
        **spans,
    )
    return meta, tally, {
        "metrics": metrics,
        "counters": counts[0],
        "untraced_walls_s": untraced,
        "traced_walls_s": [wall for wall, _ in traced],
    }


def _benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(_timed_setup(args.workload, args.seed)[2])
        return 0
    if not _build():
        print("native kernels failed to build or load", file=sys.stderr)
        return 3

    runner = run_traced if args.trace else run_untraced
    meta, tally, record = runner(args)
    if "problems" in record:
        print(json.dumps(meta), file=sys.stderr)
        print("; ".join(record["problems"]), file=sys.stderr)
        return 4
    meta["failures"] = tally.failures[:20]
    print(json.dumps({"metadata": meta}))
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metadata": meta, **record}, indent=2) + "\n", encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
