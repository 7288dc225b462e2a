"""Tests for the command-line figure runner."""

import os

import pytest

from repro.cli import FIGURES, main
from repro.core import experiment
from repro.core.parallel import SweepError

#: The knobs the CLI flags override.
FLAG_VARS = ("REPRO_SCALE", "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_TIMEOUT",
             "REPRO_RETRIES", "REPRO_FAIL_FAST", "REPRO_TELEMETRY")


class TestCli:
    def test_list_target(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "available targets" in capsys.readouterr().out

    def test_unknown_target_fails(self, capsys):
        assert main(["figured"]) == 2
        assert "unknown targets" in capsys.readouterr().err

    def test_profile_usage_error(self, capsys):
        assert main(["profile"]) == 2
        assert main(["profile", "olap"]) == 2

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Out-of-order" in out and "In-order" in out

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        assert "Cacti model" in capsys.readouterr().out

    def test_scale_flag_accepted(self, capsys):
        assert main(["--scale", "0.05", "table1"]) == 0
        assert "scale 0.05" in capsys.readouterr().out

    @pytest.mark.slow
    def test_profile_oltp(self, capsys):
        assert main(["--scale", "0.05", "profile", "oltp"]) == 0
        out = capsys.readouterr().out
        assert "union data footprint" in out
        assert "storage.btree" in out

    def test_resilience_flags_reach_run_specs(self, monkeypatch,
                                              tmp_path, capsys):
        seen = {}

        def fake_run_specs(specs, scale, default_cycles, **kwargs):
            seen.update(kwargs, scale=scale)
            raise SweepError([], [])

        monkeypatch.setattr(experiment, "run_specs", fake_run_specs)
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        # The flags override what the environment says.
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_RETRIES", "5")
        assert main(["--scale", "0.01", "--jobs", "2", "--timeout", "600",
                     "--retries", "3", "--fail-fast", "fig6"]) == 1
        assert seen["scale"] == 0.01
        assert (seen["jobs"], seen["timeout"], seen["retries"],
                seen["fail_fast"]) == (2, 600.0, 3, True)
        capsys.readouterr()
        # Resuming is rerunning on the same --cache-dir; the journal
        # flag is gone and argparse rejects it.
        with pytest.raises(SystemExit) as exit_info:
            main(["--resume", str(tmp_path / "sweep.ckpt"), "table1"])
        assert exit_info.value.code == 2
        assert "--resume" in capsys.readouterr().err

    def test_nonpositive_timeout_rejected(self, capsys):
        assert main(["--timeout", "0", "table1"]) == 2
        assert "--timeout" in capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        assert main(["--retries", "-1", "table1"]) == 2
        assert "--retries" in capsys.readouterr().err

    def test_cache_stats_surfaced(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert main(["--cache-dir", str(tmp_path / "cache"), "table1"]) == 0
        out = capsys.readouterr().out
        assert "cache: hits=0 misses=0 stores=0 errors=0" in out

    def test_no_cache_stats_without_a_cache(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert main(["table1"]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_main_leaves_the_environment_unchanged(self, monkeypatch,
                                                   tmp_path, capsys):
        for var in FLAG_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        assert main(["--scale", "0.05", "--jobs", "2", "--timeout", "600",
                     "--retries", "3", "--fail-fast",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(tmp_path / "telemetry"),
                     "table1"]) == 0
        assert dict(os.environ) == before
