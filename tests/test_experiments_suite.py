"""Scenario-fabric tests: spec validation errors name their YAML path,
seeds derive deterministically, and the committed smoke suite is
bit-identical across procs=1/procs=2 and resumable per scenario."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

from repro.experiments.report import (
    build_report,
    flatten_report,
    render_csv,
    render_markdown,
    write_report,
)
from repro.experiments.suite import (
    SuiteSpecError,
    derive_scenario_seed,
    load_suite,
    parse_suite,
    run_suite,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_SPEC = REPO_ROOT / "suites" / "smoke.yaml"
PAPER_SPEC = REPO_ROOT / "suites" / "paper.yaml"


def base_spec() -> dict:
    """A minimal valid suite document; tests mutate copies of it."""
    return {
        "suite": "unit",
        "seed": 7,
        "replicates": 2,
        "budgets": [50, 100],
        "estimators": ["average_degree"],
        "samplers": {"fs": {"kind": "fs", "dimension": 4}},
        "graphs": [
            {"family": "ba", "sizes": [60], "kwargs": {"edges_per_vertex": 2}}
        ],
    }


class TestSpecValidation:
    def test_minimal_spec_parses(self):
        spec = parse_suite(base_spec())
        assert spec.name == "unit"
        assert spec.scenario_ids() == ["ba-n60"]
        scenario = spec.scenarios[0]
        assert scenario.budgets == [50.0, 100.0]
        assert scenario.seed == derive_scenario_seed(7, "ba-n60")

    def test_unknown_sampler_kind_names_the_path(self):
        data = base_spec()
        data["samplers"]["bogus"] = {"kind": "quantum"}
        with pytest.raises(SuiteSpecError, match=r"samplers\.bogus\.kind"):
            parse_suite(data)

    def test_unknown_sampler_kwarg_names_the_path(self):
        data = base_spec()
        data["samplers"]["fs"]["walkers"] = 3  # should be 'dimension'
        with pytest.raises(SuiteSpecError, match=r"samplers\.fs\.walkers"):
            parse_suite(data)

    def test_unknown_estimator_names_the_path(self):
        data = base_spec()
        data["estimators"] = ["average_degree", "pagerank"]
        with pytest.raises(SuiteSpecError, match=r"estimators\[1\]"):
            parse_suite(data)

    def test_missing_budget_schedule_names_the_path(self):
        data = base_spec()
        del data["budgets"]
        with pytest.raises(
            SuiteSpecError, match=r"graphs\[0\]\.budgets"
        ) as excinfo:
            parse_suite(data)
        assert "missing budget schedule" in str(excinfo.value)

    def test_descending_budgets_rejected(self):
        data = base_spec()
        data["budgets"] = [100, 50]
        with pytest.raises(SuiteSpecError, match="ascending"):
            parse_suite(data)

    def test_duplicate_scenario_ids_rejected(self):
        data = base_spec()
        data["graphs"].append(dict(data["graphs"][0]))
        with pytest.raises(
            SuiteSpecError, match="duplicate scenario id 'ba-n60'"
        ):
            parse_suite(data)

    def test_seed_collision_rejected(self):
        data = base_spec()
        data["graphs"] = [
            {"family": "ba", "sizes": [60], "root_seed": 5},
            {"family": "ba", "sizes": [80], "root_seed": 5},
        ]
        with pytest.raises(
            SuiteSpecError, match="seed collision"
        ) as excinfo:
            parse_suite(data)
        # the error names both colliding scenarios
        assert "ba-n60" in str(excinfo.value)
        assert "ba-n80" in str(excinfo.value)

    def test_unknown_graph_family_names_the_path(self):
        data = base_spec()
        data["graphs"][0]["family"] = "hypercube"
        with pytest.raises(SuiteSpecError, match=r"graphs\[0\]\.family"):
            parse_suite(data)

    def test_empty_sizes_rejected(self):
        data = base_spec()
        data["graphs"][0]["sizes"] = []
        with pytest.raises(SuiteSpecError, match=r"graphs\[0\]\.sizes"):
            parse_suite(data)

    def test_per_entry_sampler_selection_must_exist(self):
        data = base_spec()
        data["graphs"][0]["samplers"] = ["fs", "srw"]
        with pytest.raises(
            SuiteSpecError, match=r"graphs\[0\]\.samplers\[1\]"
        ):
            parse_suite(data)

    def test_explicit_id_needs_single_size(self):
        data = base_spec()
        data["graphs"][0]["sizes"] = [60, 80]
        data["graphs"][0]["id"] = "sweep"
        with pytest.raises(SuiteSpecError, match=r"graphs\[0\]\.id"):
            parse_suite(data)

    def test_invalid_yaml_file_is_a_spec_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("suite: [unclosed", encoding="utf-8")
        with pytest.raises(SuiteSpecError, match="invalid YAML"):
            load_suite(bad)

    def test_unbuildable_graph_is_rejected_at_load(self, tmp_path):
        # Both entries used to load, and the run failed only on reaching
        # them, with an error that named no spec path.
        data = base_spec()
        data["graphs"] = [
            {"family": "er", "sizes": [5], "kwargs": {"avg_degree": 6.0}},
            {"family": "ba", "sizes": [3], "kwargs": {"edges_per_vertex": 3}},
        ]
        spec = tmp_path / "unbuildable.yaml"
        spec.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.raises(
            SuiteSpecError,
            match=r"graphs\[0\]\.kwargs\.avg_degree: gives 15 edges at size 5",
        ):
            load_suite(spec)
        data["graphs"] = data["graphs"][1:]
        with pytest.raises(
            SuiteSpecError,
            match=r"graphs\[0\]\.kwargs\.edges_per_vertex: .* at size 3, got 3",
        ):
            parse_suite(data)

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"family": "ba", "sizes": [60, 8], "kwargs": {"edges_per_vertex": 8}},
             "edges_per_vertex"),
            ({"family": "ba", "sizes": [60], "kwargs": {"edges_per_vertex": 0}},
             "edges_per_vertex"),
            ({"family": "ws", "sizes": [60], "kwargs": {"neighbors": 5}}, "neighbors"),
            ({"family": "ws", "sizes": [6]}, "neighbors"),
            ({"family": "ws", "sizes": [60], "kwargs": {"rewire_prob": 1.5}},
             "rewire_prob"),
        ],
    )
    def test_family_kwargs_are_checked_against_every_size(self, entry, key):
        data = base_spec()
        data["graphs"] = [entry]
        with pytest.raises(SuiteSpecError, match=rf"graphs\[0\]\.kwargs\.{key}:"):
            parse_suite(data)

    @pytest.mark.parametrize("value", ["two", None])
    def test_non_numeric_family_kwarg_names_the_path(self, value):
        data = base_spec()
        data["graphs"][0]["kwargs"] = {"edges_per_vertex": value}
        with pytest.raises(SuiteSpecError, match=r"graphs\[0\]\.kwargs: not a number"):
            parse_suite(data)

    def test_largest_buildable_graphs_still_load(self):
        data = base_spec()
        data["graphs"] = [
            {"family": "er", "sizes": [7], "kwargs": {"avg_degree": 6.0}},
            {"family": "ba", "sizes": [4], "kwargs": {"edges_per_vertex": 3}},
            {"family": "ws", "sizes": [7], "kwargs": {"neighbors": 6}},
        ]
        assert parse_suite(data).scenario_ids() == ["er-n7", "ba-n4", "ws-n7"]


class TestSeedDerivation:
    def test_deterministic_and_id_sensitive(self):
        assert derive_scenario_seed(7, "ba-n60") == derive_scenario_seed(
            7, "ba-n60"
        )
        assert derive_scenario_seed(7, "ba-n60") != derive_scenario_seed(
            7, "ba-n80"
        )
        assert derive_scenario_seed(7, "ba-n60") != derive_scenario_seed(
            8, "ba-n60"
        )

    def test_reordering_scenarios_keeps_seeds(self):
        data = base_spec()
        data["graphs"] = [
            {"family": "ba", "sizes": [60]},
            {"family": "ws", "sizes": [60], "kwargs": {"neighbors": 4}},
        ]
        forward = {s.id: s.seed for s in parse_suite(data).scenarios}
        data["graphs"].reverse()
        backward = {s.id: s.seed for s in parse_suite(data).scenarios}
        assert forward == backward


class TestRunSuite:
    def run_unit_suite(self, tmp_path, procs=1, resume=False, out="out"):
        spec = parse_suite(base_spec())
        result = run_suite(
            spec, procs=procs, out_dir=tmp_path / out, resume=resume
        )
        return write_report(result, tmp_path / out), result

    def test_procs_invariant_and_deterministic(self, tmp_path):
        paths1, _ = self.run_unit_suite(tmp_path, procs=1, out="p1")
        paths2, _ = self.run_unit_suite(tmp_path, procs=2, out="p2")
        assert paths1["json"].read_bytes() == paths2["json"].read_bytes()
        assert paths1["md"].read_bytes() == paths2["md"].read_bytes()
        assert paths1["csv"].read_bytes() == paths2["csv"].read_bytes()

    def test_resume_skips_matching_checkpoints(self, tmp_path):
        paths, first = self.run_unit_suite(tmp_path)
        assert first.resumed_ids() == []
        checkpoint = tmp_path / "out" / "scenarios" / "ba-n60.json"
        assert checkpoint.exists()
        before = paths["json"].read_bytes()
        _, second = self.run_unit_suite(tmp_path, resume=True)
        assert second.resumed_ids() == ["ba-n60"]
        assert paths["json"].read_bytes() == before

    def test_stale_checkpoint_reruns(self, tmp_path):
        self.run_unit_suite(tmp_path)
        checkpoint = tmp_path / "out" / "scenarios" / "ba-n60.json"
        payload = json.loads(checkpoint.read_text(encoding="utf-8"))
        payload["fingerprint"] = "0" * 16
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        _, rerun = self.run_unit_suite(tmp_path, resume=True)
        assert rerun.resumed_ids() == []

    def test_report_shape_and_flatten(self, tmp_path):
        _, result = self.run_unit_suite(tmp_path)
        report = build_report(result)
        assert report["schema"] == 1
        scenario = report["scenarios"]["ba-n60"]
        stats = scenario["methods"]["fs"]["100"]["average_degree"]
        assert set(stats) == {"nrmse", "bias"}
        flat = flatten_report(report)
        assert "ba-n60/fs/B100/average_degree.nrmse" in flat
        # bias flattens as magnitude so sign flips never look better
        assert flat["ba-n60/fs/B100/average_degree.bias"] >= 0
        markdown = render_markdown(report)
        assert "average_degree" in markdown and "ba-n60" in markdown
        csv = render_csv(report)
        assert csv.splitlines()[0].startswith("suite,scenario,")
        # header + 2 budgets x 2 stats for the single method/estimator
        assert len(csv.splitlines()) == 1 + 4


class TestCommittedSuites:
    """The specs this repo ships must stay loadable, and smoke must
    reproduce its committed baseline (the CI drift gate's contract)."""

    def test_paper_spec_validates(self):
        spec = load_suite(PAPER_SPEC)
        assert spec.name == "paper"
        assert len(spec.scenarios) >= 4

    def test_smoke_golden_bit_identical_procs_1_vs_2(self, tmp_path):
        spec = load_suite(SMOKE_SPEC)
        reports = {}
        for procs in (1, 2):
            result = run_suite(spec, procs=procs)
            out = tmp_path / f"procs{procs}"
            reports[procs] = write_report(result, out)["json"].read_bytes()
        assert reports[1] == reports[2]
        fresh = json.loads(reports[1])
        committed = json.loads(
            (REPO_ROOT / "suites" / "baselines" / "smoke.json").read_text(
                encoding="utf-8"
            )
        )
        # The golden pin: the committed baseline IS this run's report.
        assert flatten_report(fresh) == pytest.approx(
            flatten_report(committed)
        )
