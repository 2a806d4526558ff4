#!/usr/bin/env python3
"""Append dated entries to the benchmark history ledger.

``check_bench_trend.py`` answers "did this run regress vs the
committed baseline?"; this tool keeps the longitudinal record that
question throws away.  It reads either kind of benchmark output.

A pytest-benchmark report (``--current BENCH_ci.json``, once per CI
run) becomes a single JSON line in
``benchmarks/BENCH_history.jsonl``::

    {"date": "2026-08-08", "commit": "<sha>",
     "reference": "test_fs_list_backend",
     "medians": {"test_fs_csr_backend": 0.0012, ...},
     "normalized": {"test_fs_csr_backend": 0.0249, ...}}

``medians`` are raw seconds (machine-dependent; useful within one
runner generation); ``normalized`` divides each gated benchmark's
median by the reference walker's median from the same report, the
machine-independent trend the baseline gate also uses.  The ledger is
append-only JSONL so CI can `cat` it, plots can stream it, and a
truncated line from a killed job corrupts at most itself.

A perfbench result record (``--perfbench``, the
``.bench_build/perfbench/result-<workload>-seed<N>-trace0.json`` files
``perfbench/run.py`` writes) becomes one line per record, the run's
end-to-end metrics beside its operation count and machine::

    {"date": "2026-10-17", "commit": "<sha>", "workload": "table4-mc",
     "seed": 3, "metrics": {"setup_s": 0.61, "wall_s": 0.97, ...},
     "operations": 31, "machine": {"nproc": 2, "python": "3.11.7",
     "numpy": "2.4.6", "native": true}}

Usage:

    python tools/bench_history.py --current BENCH_ci.json \\
        [--history benchmarks/BENCH_history.jsonl] \\
        [--commit $GITHUB_SHA] [--pattern test_fs_] \\
        [--reference test_fs_list_backend]
    python tools/bench_history.py --perfbench RESULT.json [...] \\
        --commit <sha> [--history benchmarks/BENCH_history.jsonl]
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "BENCH_history.jsonl"
DEFAULT_PATTERN = "test_fs_"
DEFAULT_REFERENCE = "test_fs_list_backend"
#: perfbench's untraced result file name.
PERFBENCH_RESULT = re.compile(
    r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json"
)
MACHINE_KEYS = ("nproc", "python", "numpy", "native")


def extract_medians(report_path: Path, pattern: str) -> dict:
    """``{benchmark name: median seconds}`` for benchmarks matching
    ``pattern`` (plus the reference, which always qualifies via the
    default pattern)."""
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    medians = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        if pattern in name:
            medians[name] = float(bench["stats"]["median"])
    return medians


def history_entry(
    medians: dict, commit: str, reference: str, date: str
) -> dict:
    reference_median = medians.get(reference)
    normalized = {}
    if reference_median:
        normalized = {
            name: median / reference_median
            for name, median in sorted(medians.items())
            if name != reference
        }
    return {
        "date": date,
        "commit": commit,
        "reference": reference,
        "medians": dict(sorted(medians.items())),
        "normalized": normalized,
    }


def perfbench_entry(result_path: Path, commit: str, date: str) -> dict:
    """One ledger line for an untraced perfbench result record."""
    match = PERFBENCH_RESULT.fullmatch(result_path.name)
    if match is None:
        raise ValueError(
            f"{result_path.name} is not an untraced perfbench result"
            " (result-<workload>-seed<N>-trace0.json)"
        )
    with open(result_path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    metadata = record["metadata"]
    return {
        "date": date,
        "commit": commit,
        "workload": match["workload"],
        "seed": int(match["seed"]),
        "metrics": {
            name: metric["value"]
            for name, metric in sorted(record["metrics"].items())
        },
        "operations": len(record["walls_s"]),
        "machine": {key: metadata[key] for key in MACHINE_KEYS},
    }


def append(history: Path, entries: List[dict]) -> None:
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Append benchmark results to the history ledger."
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--current", type=Path, help="a pytest-benchmark JSON report"
    )
    source.add_argument(
        "--perfbench",
        type=Path,
        nargs="+",
        help="perfbench result-<workload>-seed<N>-trace0.json records",
    )
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY)
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--pattern", default=DEFAULT_PATTERN)
    parser.add_argument("--reference", default=DEFAULT_REFERENCE)
    parser.add_argument(
        "--date",
        default=None,
        help="ISO date stamp (default: today, UTC)",
    )
    args = parser.parse_args(argv)
    date = args.date or datetime.datetime.now(
        datetime.timezone.utc
    ).strftime("%Y-%m-%d")

    if args.perfbench:
        try:
            entries = [
                perfbench_entry(path, args.commit, date)
                for path in args.perfbench
            ]
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot read perfbench result: {error!r}", file=sys.stderr)
            return 1
        append(args.history, entries)
        print(
            f"appended {len(entries)} perfbench runs for"
            f" {args.commit[:12]} ({date}) to {args.history}"
        )
        return 0

    medians = extract_medians(args.current, args.pattern)
    if not medians:
        print(
            f"no benchmarks matching {args.pattern!r} in {args.current}",
            file=sys.stderr,
        )
        return 1
    entry = history_entry(medians, args.commit, args.reference, date)
    append(args.history, [entry])
    print(
        f"appended {len(medians)} medians for {entry['commit'][:12]}"
        f" ({entry['date']}) to {args.history}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
