"""Tests for the degree-error experiment workhorse."""

import pytest

from repro.generators.ba import barabasi_albert
from repro.experiments.degree_errors import degree_error_experiment
from repro.sampling.frontier import FrontierSampler
from repro.sampling.independent import RandomVertexSampler
from repro.sampling.single import SingleRandomWalk


@pytest.fixture(scope="module")
def small_graph():
    return barabasi_albert(200, 2, rng=0)


@pytest.fixture(scope="module")
def result(small_graph):
    return degree_error_experiment(
        small_graph,
        {"FS": FrontierSampler(10), "SingleRW": SingleRandomWalk()},
        budget=100,
        runs=8,
        root_seed=1,
        metric="ccdf",
        title="test experiment",
    )


class TestExperiment:
    def test_curves_per_method(self, result):
        assert set(result.curves) == {"FS", "SingleRW"}

    def test_curve_support_subset_of_truth(self, result):
        positive = {k for k, v in result.truth.items() if v > 0}
        for curve in result.curves.values():
            assert set(curve) <= positive

    def test_metric_validation(self, small_graph):
        with pytest.raises(ValueError):
            degree_error_experiment(
                small_graph, {}, budget=10, runs=1, metric="nope"
            )

    def test_vertex_sampler_supported(self, small_graph):
        result = degree_error_experiment(
            small_graph,
            {"RV": RandomVertexSampler()},
            budget=100,
            runs=4,
            metric="pmf",
        )
        assert "RV" in result.curves
        assert result.curves["RV"]

    def test_pmf_metric_uses_pmf_truth(self, small_graph):
        result = degree_error_experiment(
            small_graph,
            {"RV": RandomVertexSampler()},
            budget=50,
            runs=2,
            metric="pmf",
        )
        # pmf truth sums to 1; ccdf truth starts at 1 for degree 0
        assert sum(result.truth.values()) == pytest.approx(1.0)

    def test_errors_decrease_with_budget(self, small_graph):
        """More budget, smaller mean CNMSE — basic consistency."""
        small = degree_error_experiment(
            small_graph,
            {"SingleRW": SingleRandomWalk()},
            budget=30,
            runs=12,
            root_seed=3,
        )
        large = degree_error_experiment(
            small_graph,
            {"SingleRW": SingleRandomWalk()},
            budget=3000,
            runs=12,
            root_seed=3,
        )
        assert large.mean_error("SingleRW") < small.mean_error("SingleRW")


class TestResultHelpers:
    def test_degrees_log_spaced_subset(self, result):
        degrees = result.degrees(max_points=5)
        support = [k for k, v in sorted(result.truth.items()) if v > 0]
        assert set(degrees) <= set(support)
        assert degrees[-1] == support[-1]
        assert len(degrees) <= 7

    def test_render_contains_methods(self, result):
        text = result.render()
        assert "FS" in text
        assert "SingleRW" in text
        assert "CNMSE" in text

    def test_mean_error(self, result):
        value = result.mean_error("FS")
        assert value > 0

    def test_mean_error_unknown_method(self, result):
        with pytest.raises(KeyError):
            result.mean_error("nope")

    def test_tail_mean_error(self, result):
        tail = result.tail_mean_error("FS", result.average_degree)
        assert tail > 0

    def test_tail_threshold_too_high_rejected(self, result):
        with pytest.raises(ValueError):
            result.tail_mean_error("FS", 10_000_000)


class TestBackendThreading:
    def test_csr_backend_runs_end_to_end(self, small_graph):
        """backend="csr" pins the fast path for the whole experiment."""
        result = degree_error_experiment(
            small_graph,
            {"FS": FrontierSampler(10), "SingleRW": SingleRandomWalk()},
            budget=100,
            runs=4,
            root_seed=1,
            metric="ccdf",
            backend="csr",
        )
        assert set(result.curves) == {"FS", "SingleRW"}
        assert all(result.curves[m] for m in result.curves)

    def test_backends_agree_statistically(self, small_graph):
        """Same chain law on both backends: comparable mean errors."""
        samplers = {"FS": FrontierSampler(10)}
        results = {
            backend: degree_error_experiment(
                small_graph,
                samplers,
                budget=400,
                runs=12,
                root_seed=3,
                backend=backend,
            ).mean_error("FS")
            for backend in ("list", "csr")
        }
        assert results["csr"] == pytest.approx(results["list"], rel=1.0)

    def test_invalid_backend_rejected(self, small_graph):
        with pytest.raises(ValueError):
            degree_error_experiment(
                small_graph,
                {"FS": FrontierSampler(10)},
                budget=100,
                runs=2,
                backend="gpu",
            )


class TestBudgetSweep:
    """MSE-vs-budget curves from one resumed session per replicate."""

    def test_final_budget_matches_one_shot_experiment(self, sweep_graph=None):
        from repro.experiments.degree_errors import (
            degree_error_budget_sweep,
            degree_error_experiment,
        )
        from repro.generators.ba import barabasi_albert
        from repro.sampling import (
            FrontierSampler,
            RandomVertexSampler,
            SingleRandomWalk,
        )

        graph = barabasi_albert(600, 2, rng=4)
        samplers = {
            "FS": FrontierSampler(8),
            "SingleRW": SingleRandomWalk(),
            "RV": RandomVertexSampler(),
        }
        sweep = degree_error_budget_sweep(
            graph, samplers, [200, 800], runs=4, backend="csr"
        )
        single = degree_error_experiment(
            graph, samplers, 800, runs=4, backend="csr"
        )
        for method in samplers:
            assert sweep.at(800).mean_error(method) == pytest.approx(
                single.mean_error(method), abs=1e-9
            )

    def test_error_curve_shape_and_render(self):
        from repro.experiments.degree_errors import (
            degree_error_budget_sweep,
        )
        from repro.generators.ba import barabasi_albert
        from repro.sampling import FrontierSampler

        graph = barabasi_albert(500, 2, rng=4)
        budgets = [100, 400, 1600]
        sweep = degree_error_budget_sweep(
            graph, {"FS": FrontierSampler(8)}, budgets, runs=6
        )
        curve = sweep.mean_error_curve("FS")
        assert list(curve) == [float(b) for b in budgets]
        # more budget, better estimate (the paper's qualitative claim)
        assert curve[1600.0] < curve[100.0]
        rendered = sweep.render()
        assert "FS" in rendered and "one resumed session" in rendered

    def test_invalid_arguments_rejected(self):
        from repro.experiments.degree_errors import (
            degree_error_budget_sweep,
        )
        from repro.generators.ba import barabasi_albert
        from repro.sampling import SingleRandomWalk

        graph = barabasi_albert(100, 2, rng=4)
        samplers = {"SingleRW": SingleRandomWalk()}
        with pytest.raises(ValueError, match="metric"):
            degree_error_budget_sweep(
                graph, samplers, [10], 1, metric="median"
            )
        with pytest.raises(ValueError, match="ascending"):
            degree_error_budget_sweep(graph, samplers, [100, 50], 1)
        with pytest.raises(ValueError, match="ascending"):
            degree_error_budget_sweep(graph, samplers, [], 1)
