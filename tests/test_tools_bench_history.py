"""The benchmark history ledger appends one line per recorded run."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "bench_history.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def perfbench_result(directory: Path, workload: str, seed: int, wall: float) -> Path:
    """A record shaped like ``perfbench/run.py --trace 0`` writes it."""
    path = directory / f"result-{workload}-seed{seed}-trace0.json"
    record = {
        "metadata": {
            "nproc": 2,
            "python": "3.11.7",
            "numpy": "2.4.6",
            "native": True,
            "fusion_disabled": False,
            "executor": "inline (procs=1)",
            "failures": [],
        },
        "metrics": {
            "setup_s": {"value": 0.6, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "steps_per_s": {"value": 147000 / wall, "unit": "steps/s"},
            "peak_rss_mb": {"value": 43.0, "unit": "MB"},
        },
        "setup_samples_s": [0.6, 0.6, 0.6],
        "walls_s": [wall] * 5,
        "steps_per_op": 147000,
    }
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_perfbench_records_append_one_line_each(tmp_path):
    history = tmp_path / "history.jsonl"
    history.write_text('{"existing": true}\n', encoding="utf-8")
    first = perfbench_result(tmp_path, "table4-mc", 3, 2.0)
    second = perfbench_result(tmp_path, "suite-100k", 12, 1.0)
    result = run_tool(
        "--perfbench", str(first), str(second),
        "--history", str(history), "--commit", "abc123", "--date", "2026-10-17",
    )
    assert result.returncode == 0, result.stderr
    lines = history.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"existing": true}'
    entries = [json.loads(line) for line in lines[1:]]
    assert entries[0] == {
        "date": "2026-10-17",
        "commit": "abc123",
        "workload": "table4-mc",
        "seed": 3,
        "metrics": {
            "peak_rss_mb": 43.0,
            "setup_s": 0.6,
            "steps_per_s": 73500.0,
            "wall_s": 2.0,
        },
        "operations": 5,
        "machine": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "native": True},
    }
    assert (entries[1]["workload"], entries[1]["seed"]) == ("suite-100k", 12)


def test_traced_record_is_refused_readably(tmp_path):
    traced = tmp_path / "result-table4-mc-seed3-trace1.json"
    traced.write_text("{}", encoding="utf-8")
    history = tmp_path / "history.jsonl"
    result = run_tool("--perfbench", str(traced), "--history", str(history))
    assert result.returncode == 1
    assert "not an untraced perfbench result" in result.stderr
    assert not history.exists()


def test_pytest_benchmark_report_still_appends(tmp_path):
    report = tmp_path / "BENCH_ci.json"
    report.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {"name": "test_fs_list_backend", "stats": {"median": 2.0}},
                    {"name": "test_fs_csr_backend", "stats": {"median": 0.5}},
                ]
            }
        ),
        encoding="utf-8",
    )
    history = tmp_path / "history.jsonl"
    result = run_tool(
        "--current", str(report), "--history", str(history),
        "--commit", "abc123", "--date", "2026-10-17",
    )
    assert result.returncode == 0, result.stderr
    entry = json.loads(history.read_text(encoding="utf-8"))
    assert entry["normalized"] == {"test_fs_csr_backend": 0.25}
    assert entry["reference"] == "test_fs_list_backend"
