"""Tests for the command-line figure runner."""

import os

import pytest

from repro.cli import FIGURES, main

#: Environment knobs the resilience flags write through.
RESILIENCE_VARS = ("REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_FAIL_FAST")


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

    def test_bench_runs_the_load_test(self, monkeypatch, tmp_path, capsys):
        from repro.serve import loadtest

        written = []
        monkeypatch.setattr(loadtest, "run_load",
                            lambda out_path: written.append(out_path) or {})
        monkeypatch.setattr(loadtest, "format_load", lambda record: "load")
        out = str(tmp_path / "LOAD.json")
        assert main(["bench", "--bench-out", out]) == 0
        assert main(["bench"]) == 0
        assert written == [out, loadtest.DEFAULT_LOAD_OUT]
        assert f"wrote {out}" in capsys.readouterr().out

    def test_bench_usage_error(self, capsys):
        assert main(["bench", "extra"]) == 2
        assert "usage: repro bench" in capsys.readouterr().err
        for flag in ("--load", "--compare=BENCH.json", "--fail-below=0.5"):
            with pytest.raises(SystemExit):
                main(["bench", flag])

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

    def test_resilience_flags_reach_the_environment(self, monkeypatch,
                                                    tmp_path, capsys):
        for var in RESILIENCE_VARS:
            monkeypatch.setenv(var, "")  # registers restore-on-teardown
        assert main(["--timeout", "600", "--retries", "3", "--fail-fast",
                     "table1"]) == 0
        assert float(os.environ["REPRO_TIMEOUT"]) == 600.0
        assert os.environ["REPRO_RETRIES"] == "3"
        assert os.environ["REPRO_FAIL_FAST"] == "1"
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
