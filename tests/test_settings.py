"""The one settings parser: eleven ``REPRO_*`` knobs, one rule.

Every knob strips its value, reads empty or blank as unset, and rejects
anything else that does not parse or lies out of range with a
:class:`SettingsError` naming the variable.  A CLI flag runs the same
validation, so a bad flag and the same bad environment value fail alike.
"""

from dataclasses import fields, replace

import pytest

from repro.cli import main
from repro.settings import Settings, SettingsError

#: variable -> (field, a valid raw value, what it parses to).
VALID = {
    "REPRO_SCALE": ("scale", "0.5", 0.5),
    "REPRO_JOBS": ("jobs", "4", 4),
    "REPRO_CACHE_DIR": ("cache_dir", ".repro-cache", ".repro-cache"),
    "REPRO_CACHE_BUDGET": ("cache_budget", "64m", 64 * 1024 ** 2),
    "REPRO_TIMEOUT": ("timeout", "600", 600.0),
    "REPRO_RETRIES": ("retries", "0", 0),
    "REPRO_BACKOFF": ("backoff", "0.01", 0.01),
    "REPRO_FAIL_FAST": ("fail_fast", "On", True),
    "REPRO_TELEMETRY": ("telemetry", "t.jsonl", "t.jsonl"),
    "REPRO_TRACE_DIR": ("trace_dir", ".repro-traces", ".repro-traces"),
    "REPRO_FAULTS": ("faults", "crash@1;exec@0", "crash@1;exec@0"),
}

#: Values from the environment that must fail, never fall back.
BAD_ENV = [
    ("REPRO_SCALE", "-1"),
    ("REPRO_SCALE", "nan"),
    ("REPRO_JOBS", "0"),
    ("REPRO_JOBS", "2.5"),
    ("REPRO_CACHE_BUDGET", "junk"),
    ("REPRO_CACHE_BUDGET", "0"),
    ("REPRO_TIMEOUT", "junk"),
    ("REPRO_TIMEOUT", "0"),
    ("REPRO_RETRIES", "junk"),
    ("REPRO_RETRIES", "-1"),
    ("REPRO_BACKOFF", "-0.5"),
    ("REPRO_FAIL_FAST", "maybe"),
    # Wait and sleep bounds: longer raises OverflowError mid-sweep.
    ("REPRO_TIMEOUT", "inf"),
    ("REPRO_BACKOFF", "1e300"),
    # A plan that FaultPlan.parse rejects fails here, not at the first
    # injection hook.
    ("REPRO_FAULTS", "explode@0"),
    ("REPRO_FAULTS", "exec@one"),
    ("REPRO_FAULTS", "exec@0x0"),
    ("REPRO_FAULTS", "exec~1.5"),
    ("REPRO_FAULTS", "hang@0:-1"),
    ("REPRO_FAULTS", "crash@1;seed=x"),
]

#: The path knobs: a blank path given directly (not read from the
#: environment, where blank means unset) is rejected.
PATH_FIELDS = {"cache_dir": "REPRO_CACHE_DIR", "telemetry": "REPRO_TELEMETRY",
               "trace_dir": "REPRO_TRACE_DIR", "faults": "REPRO_FAULTS"}


def test_one_field_per_knob():
    assert [f.name for f in fields(Settings)] == [
        field for field, _raw, _value in VALID.values()]


@pytest.mark.parametrize("variable", sorted(VALID))
def test_valid_value_parses(variable):
    field, raw, value = VALID[variable]
    settings = Settings.from_env({variable: f"  {raw} "})
    assert getattr(settings, field) == value
    assert replace(settings, **{field: getattr(Settings(), field)}) \
        == Settings()


@pytest.mark.parametrize("variable", sorted(VALID))
@pytest.mark.parametrize("raw", ["", "   "])
def test_empty_or_blank_means_unset(variable, raw):
    assert Settings.from_env({variable: raw}) == Settings()


@pytest.mark.parametrize("variable,raw", BAD_ENV)
def test_bad_env_value_raises_naming_its_variable(variable, raw):
    with pytest.raises(SettingsError, match=variable) as err:
        Settings.from_env({variable: raw})
    assert err.value.variable == variable
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("field", sorted(PATH_FIELDS))
def test_blank_path_raises_naming_its_variable(field):
    variable = PATH_FIELDS[field]
    with pytest.raises(SettingsError, match=variable) as err:
        Settings(**{field: "  "})
    assert err.value.variable == variable
    # From the environment the same blank value is unset, not a
    # directory named by spaces.
    assert getattr(Settings.from_env({variable: "  "}), field) is None


@pytest.mark.parametrize("kwargs", [
    {"jobs": "4"}, {"jobs": True}, {"retries": 1.5}, {"scale": "0.5"},
    {"fail_fast": 1}, {"cache_budget": 1.5}, {"cache_dir": 7},
])
def test_mistyped_field_raises(kwargs):
    with pytest.raises(SettingsError):
        Settings(**kwargs)


@pytest.mark.parametrize("flag,variable,raw", [
    ("--jobs", "REPRO_JOBS", "0"),
    ("--timeout", "REPRO_TIMEOUT", "0"),
    ("--retries", "REPRO_RETRIES", "-1"),
    ("--scale", "REPRO_SCALE", "-1"),
])
def test_bad_flag_and_bad_env_fail_alike(monkeypatch, capsys, flag,
                                         variable, raw):
    monkeypatch.delenv(variable, raising=False)
    assert main([f"{flag}={raw}", "list"]) == 2
    from_flag = capsys.readouterr().err
    monkeypatch.setenv(variable, raw)
    assert main(["list"]) == 2
    assert capsys.readouterr().err == from_flag
    assert variable in from_flag and flag in from_flag


@pytest.mark.parametrize("flag", ["--cache-dir", "--telemetry"])
def test_blank_path_flag_exits_2(capsys, flag):
    assert main([flag, "  ", "list"]) == 2
    assert flag in capsys.readouterr().err

