"""Tests for the command-line figure runner."""

import os
import socket

import pytest

from repro import cli
from repro.cli import FIGURES, main
from repro.core import experiment
from repro.core.parallel import SweepError

#: The knobs the CLI flags override.
FLAG_VARS = ("REPRO_SCALE", "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_TIMEOUT",
             "REPRO_RETRIES", "REPRO_FAIL_FAST", "REPRO_TELEMETRY")


def _exit_code(argv) -> int:
    """``main``'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exit_info:
        return exit_info.code


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
        assert _exit_code(["figured"]) == 2
        assert "invalid choice: 'figured'" in capsys.readouterr().err
        assert _exit_code(["table1", "fig9"]) == 2
        assert "unknown figures fig9" in capsys.readouterr().err

    def test_profile_usage_error(self, capsys):
        assert _exit_code(["profile"]) == 2
        assert _exit_code(["profile", "olap"]) == 2

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
            main(["table1", "--resume", str(tmp_path / "sweep.ckpt")])
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


#: Documented invocations (README, CI, the ``cli`` docstring) -> the
#: handler they reach and arguments it must see.
DOCUMENTED = [
    ([], None, {}),
    (["list"], None, {}),
    (["fig5", "fig6"], "run_figures", {"figures": ["fig5"],
                                       "more": ["fig6"]}),
    (["table1", "fig4", "fig5"], "run_figures", {"more": ["fig4", "fig5"]}),
    (["all"], "run_figures", {"figures": list(FIGURES), "more": []}),
    (["validate"], "run_figures", {"figures": ["fig3"], "more": []}),
    (["claims"], "run_claims", {"groups": []}),
    (["claims", "fig4", "fig6"], "run_claims", {"groups": ["fig4", "fig6"]}),
    (["--jobs", "2", "claims"], "run_claims", {}),
    (["--scale", "0.05", "--jobs", "2", "fig6"], "run_figures",
     {"figures": ["fig6"]}),
    (["--jobs", "8", "--timeout", "600", "--retries", "3", "all"],
     "run_figures", {}),
    (["--no-cache", "--fail-fast", "fig4"], "run_figures", {}),
    (["profile", "oltp"], "run_profile", {"kind": "oltp"}),
    (["stats", "DIR"], "run_stats", {"log": "DIR"}),
    (["stats"], "run_stats", {"log": None}),
    (["explore"], "run_explore", {"quick": False, "islands": False}),
    (["explore", "--quick"], "run_explore", {"quick": True}),
    (["explore", "--islands", "--quick"], "run_explore",
     {"islands": True, "sockets": None}),
    (["explore", "--islands", "--sockets", "4", "--placement", "hybrid"],
     "run_explore", {"sockets": 4, "placement": "hybrid"}),
    (["sweep"], "run_sweep", {"skew_theta": None, "cc_mode": None}),
    (["sweep", "--skew-theta", "0.9", "--cc-mode", "both"], "run_sweep",
     {"skew_theta": [0.9], "cc_mode": "both"}),
    (["sweep", "--skew-theta", "0", "--skew-theta", "1.2",
      "--hot-warehouses", "1", "--cross-rate", "0.5"], "run_sweep",
     {"skew_theta": [0.0, 1.2], "hot_warehouses": 1, "cross_rate": 0.5}),
    (["--telemetry", "D", "sweep", "--sockets", "2", "--placement",
      "island-partitioned"], "run_sweep",
     {"sockets": 2, "placement": "island-partitioned"}),
    (["serve", "--self-test"], "run_serve", {"self_test": True}),
    (["serve", "--host", "0.0.0.0", "--port", "9000"], "run_serve",
     {"host": "0.0.0.0", "port": 9000, "self_test": False}),
    (["model", "fit", "--model-out", "m.json"], "run_model_fit",
     {"model_out": "m.json"}),
    (["model", "fit"], "run_model_fit", {"model_out": "model.json"}),
    (["model", "predict", "--model-in", "m.json", "--camp", "lc",
      "--cores", "8", "--l2-mb", "4"], "run_model_predict",
     {"model_in": "m.json", "camp": "lc", "cores": 8, "l2_mb": 4.0,
      "banks": 4}),
    (["model", "validate"], "run_model_validate", {"model_in": None}),
]

HANDLERS = ("run_figures", "run_claims", "run_profile", "run_stats", "run_explore",
            "run_sweep", "run_serve", "run_model_fit", "run_model_predict",
            "run_model_validate")


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if anything reaches the simulator."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command simulated")

    monkeypatch.setattr(experiment, "run_specs", refuse)
    monkeypatch.setattr(experiment.Experiment, "run", refuse)


@pytest.mark.parametrize("argv,handler,attrs", DOCUMENTED,
                         ids=[" ".join(c[0]) or "(none)" for c in DOCUMENTED])
def test_documented_invocation_parses(monkeypatch, tmp_path, capsys, argv,
                                      handler, attrs):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    seen = []
    for name in HANDLERS:
        monkeypatch.setattr(
            cli, name,
            lambda args, exp, name=name: seen.append((name, args)) or 0)
    assert main(argv) == 0
    if handler is None:
        assert not seen
        assert "available targets" in capsys.readouterr().out
        return
    [(name, args)] = seen
    assert name == handler
    for attr, value in attrs.items():
        assert getattr(args, attr) == value, attr


#: Flags given to a target that does not read them, and input a target
#: rejects before it simulates.  Every case exits 2.
REJECTED = [
    ["fig1", "--cores", "8"],
    ["fig1", "--quick"],
    ["fig6", "--self-test"],
    ["table1", "--skew-theta", "0.9"],
    ["all", "fig1"],
    ["validate", "--model"],
    ["list", "--model-out", "x"],
    ["profile", "oltp", "--quick"],
    ["stats", "DIR", "--budget", "1"],
    ["serve", "--quick"],
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
    ["serve", "--port", "http"],
    ["claims", "--quick"],
    ["claims", "fig9"],
    ["serve", "--cores", "8"],
    ["explore", "--self-test"],
    ["explore", "--sockets", "2"],
    ["explore", "--placement", "hybrid"],
    ["explore", "--budget", "1"],
    ["explore", "--islands", "--budget", "1"],
    ["explore", "--budget", "nan"],
    ["explore", "--islands", "--skew-theta", "0.9"],
    ["sweep", "--quick"],
    ["sweep", "--islands"],
    ["sweep", "--sockets", "2", "--skew-theta", "0.9"],
    ["sweep", "--placement", "hybrid", "--cc-mode", "2pl"],
    ["sweep", "--sockets", "0"],
    ["sweep", "--sockets", "2", "--cross-rate", "0"],
    ["explore", "--sockets", "0"],
    ["model"],
    ["model", "frobnicate"],
    ["model", "fit", "--cores", "8"],
    ["model", "fit", "--model-in", "m.json"],
    ["model", "validate", "--camp", "lc"],
    ["model", "predict", "--model-out", "m.json"],
    ["model", "predict", "--cores", "0"],
    ["model", "predict", "--banks", "3"],
    ["model", "predict", "--l2-mb", "-1"],
    ["model", "predict", "--l2-mb", "nan"],
    ["model", "predict", "--model-in", "missing.json"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_rejected_invocation_exits_2(monkeypatch, tmp_path, capsys,
                                     no_simulation, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(("usage: repro", "repro ")), err
    assert "Traceback" not in err


def test_target_errors_name_the_target(monkeypatch, tmp_path, capsys,
                                       no_simulation):
    monkeypatch.chdir(tmp_path)
    assert main(["explore", "--budget", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "repro explore: budget 1 mm^2 leaves no in-budget candidates")
    assert main(["explore", "--sockets", "2"]) == 2
    assert capsys.readouterr().err == "repro explore: --sockets needs " \
                                      "--islands\n"
    assert main(["model", "predict", "--cores", "0"]) == 2
    assert "repro model predict: cores must be a positive int" in \
        capsys.readouterr().err
    assert main(["model", "predict", "--model-in", "missing.json"]) == 2
    assert capsys.readouterr().err.startswith(
        "repro model predict: cannot load --model-in missing.json")
    (tmp_path / "other.json").write_text('{"schema": "other"}')
    assert main(["model", "validate", "--model-in", "other.json"]) == 2
    assert "unsupported model document" in capsys.readouterr().err


def test_serve_fails_on_a_busy_port_before_calibrating(
        monkeypatch, tmp_path, capsys, no_simulation):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        assert main(["serve", "--port", str(port)]) == 2
    assert capsys.readouterr().err.startswith(
        f"repro serve: cannot listen on 127.0.0.1:{port}: ")


@pytest.mark.parametrize("target", [
    *FIGURES, "all", "validate", "claims", "list", "profile", "stats", "explore",
    "serve", "sweep", "model", "model fit", "model predict",
    "model validate"])
def test_every_target_has_help(capsys, target):
    assert _exit_code([*target.split(), "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {target}")
