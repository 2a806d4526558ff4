"""Tests for the repro-experiments CLI."""

import pytest

from repro.experiments import figures
from repro.experiments.cli import _EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table4" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_argument_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_registry_complete(self):
        expected = {f"fig{i}" for i in [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]}
        expected |= {"table1", "table2", "table3", "table4"}
        expected |= {
            "ablation-dimension",
            "ablation-selection",
            "ablation-metropolis",
            "ablation-burnin",
            "ablation-distributed",
        }
        assert set(_EXPERIMENTS) == expected

    def test_run_fig3(self, capsys):
        assert main(["fig3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "finished in" in out

    def test_run_table1(self, capsys):
        assert main(["table1", "--scale", "0.05"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_fig1_with_runs(self, capsys):
        assert main(["fig1", "--scale", "0.05", "--runs", "3"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_run_with_procs(self, capsys):
        """--procs fans replicates across spawn workers; the figure
        must render exactly as with inline pooling (procs=1)."""
        assert main(
            ["fig10", "--scale", "0.05", "--runs", "2", "--procs", "1"]
        ) == 0
        inline = capsys.readouterr().out
        assert main(
            ["fig10", "--scale", "0.05", "--runs", "2", "--procs", "2"]
        ) == 0
        pooled = capsys.readouterr().out
        strip_timing = lambda text: [  # noqa: E731
            line for line in text.splitlines() if "finished in" not in line
        ]
        assert strip_timing(inline) == strip_timing(pooled)

    def test_procs_accepted_for_descriptive_drivers(self, capsys):
        """Descriptive artifacts have nothing to replicate; --procs is
        accepted and ignored rather than erroring."""
        assert main(["fig3", "--scale", "0.05", "--procs", "2"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_bad_procs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig10", "--scale", "0.05", "--procs", "0"])


class TestBackendFlag:
    """``--backend`` reaches the drivers as their ``backend=`` argument,
    and only when it is given."""

    ARGV = ["fig1", "--scale", "0.05", "--runs", "2"]

    @staticmethod
    def _render(capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        return out.split("  [fig1 finished in")[0]

    def test_csr_is_passed_to_the_driver(self, capsys):
        expected = figures.fig1(scale=0.05, runs=2, backend="csr").render()
        assert self._render(capsys, self.ARGV + ["--backend", "csr"]) == (
            expected + "\n"
        )

    def test_unset_runs_the_list_backend(self, capsys):
        expected = figures.fig1(scale=0.05, runs=2, backend="list").render()
        rendered = self._render(capsys, self.ARGV)
        assert rendered == expected + "\n"
        csr = figures.fig1(scale=0.05, runs=2, backend="csr").render()
        assert rendered != csr + "\n"  # the flag selects a stream

    def test_list_with_procs_refused_before_running(
        self, capsys, monkeypatch
    ):
        def must_not_run(**kwargs):
            raise AssertionError("driver ran despite the refused flags")

        monkeypatch.setitem(_EXPERIMENTS, "fig1", must_not_run)
        with pytest.raises(SystemExit) as refused:
            main(self.ARGV + ["--backend", "list", "--procs", "2"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert "--backend list" in captured.err
        assert captured.out == ""


class TestSampleSubcommand:
    def test_sample_runs_and_reports(self, capsys):
        assert main([
            "sample", "--ba", "300", "2", "--sampler", "fs",
            "--dimension", "8", "--budget", "200", "--chunk", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "started FS session" in out
        assert "session done: 192 steps" in out

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.ckpt")
        base = ["sample", "--ba", "300", "2", "--sampler", "srw",
                "--backend", "csr", "--chunk", "200"]
        assert main(base + ["--budget", "300",
                            "--checkpoint", checkpoint]) == 0
        first = capsys.readouterr().out
        assert "checkpoint written" in first
        assert main(base + ["--budget", "900",
                            "--resume", checkpoint]) == 0
        resumed = capsys.readouterr().out
        assert "resumed SingleRW session" in resumed
        assert "899 steps" in resumed  # 1 seed unit + 899 steps

        # uninterrupted run with the same chunking = same estimates
        assert main(base + ["--budget", "900"]) == 0
        fresh = capsys.readouterr().out
        assert fresh.splitlines()[-2] == resumed.splitlines()[-2]

    def test_resume_ignores_sampler_flags(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.ckpt")
        assert main(["sample", "--ba", "300", "2", "--sampler", "fs",
                     "--dimension", "4", "--budget", "100",
                     "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        assert main(["sample", "--ba", "300", "2", "--sampler", "mrw",
                     "--budget", "150", "--resume", checkpoint]) == 0
        out = capsys.readouterr().out
        assert "resumed FS session" in out

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_dfs_runs_the_sharded_clock_walkers(
        self, tmp_path, capsys, backend
    ):
        """``--sampler dfs`` is Theorem 5.5's sharded sampler run
        inline, on either --backend, and it checkpoints and resumes."""
        checkpoint = str(tmp_path / "dfs.ckpt")
        base = ["sample", "--ba", "300", "2", "--sampler", "dfs",
                "--dimension", "4", "--backend", backend]
        assert main(base + ["--budget", "100",
                            "--checkpoint", checkpoint]) == 0
        assert "started ShardedFS session" in capsys.readouterr().out
        assert main(base + ["--budget", "150", "--resume", checkpoint]) == 0
        out = capsys.readouterr().out
        assert "resumed ShardedFS session" in out
        assert "session done: 146 steps" in out

    def test_resume_refuses_a_checkpoint_from_another_version(
        self, tmp_path
    ):
        checkpoint = tmp_path / "old.ckpt"
        # A pickle naming a session class this code does not define.
        checkpoint.write_bytes(
            b"crepro.sampling.session\nDistributedWalkSession\n."
        )
        with pytest.raises(ValueError) as excinfo:
            main(["sample", "--ba", "100", "2", "--budget", "50",
                  "--resume", str(checkpoint)])
        message = str(excinfo.value)
        assert str(checkpoint) in message
        assert "DistributedWalkSession" in message
        assert "another version of the code" in message
