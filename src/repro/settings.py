"""Run settings: the eleven ``REPRO_*`` knobs, parsed once into one record.

:class:`Settings` is a frozen dataclass with one field per knob, and
:meth:`Settings.from_env` is the only place the package reads the
process environment.  Every knob follows one rule:

- a value is stripped; an empty (or all-blank) value means unset, so the
  field keeps its default;
- anything else must parse and lie in range, or construction raises one
  :class:`SettingsError` naming the variable (and its CLI flag, if any).

The CLI overlays its flags with :func:`dataclasses.replace`, which runs
the same validation, so ``--jobs 0`` and ``REPRO_JOBS=0`` fail alike.
README.md tables each knob's type, default and valid values.  This
module imports only the standard library at import time; the
``REPRO_FAULTS`` check imports :mod:`repro.core.faults` (which imports
this module) when it first runs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "DEFAULT_SCALE",
    "MAX_WAIT",
    "Settings",
    "SettingsError",
]

#: Study-wide scale factor: preserves every reported shape while keeping
#: a full benchmark run to minutes (``REPRO_SCALE=1`` is paper scale).
DEFAULT_SCALE = 0.25

#: Bounded-retry budget per spec.
DEFAULT_RETRIES = 2

#: Base backoff in seconds; retry ``n`` sleeps ``backoff * 2**(n-1)``,
#: capped at ``repro.core.parallel.MAX_RETRY_DELAY``.
DEFAULT_BACKOFF = 0.1

#: The longest wait or sleep the platform accepts, in seconds; a longer
#: timeout or backoff would raise OverflowError mid-sweep.
MAX_WAIT = threading.TIMEOUT_MAX


class SettingsError(ValueError):
    """A knob holds an invalid value, from the environment or a CLI flag.

    Attributes:
        variable: The ``REPRO_*`` name of the knob.
    """

    def __init__(self, variable: str, message: str):
        super().__init__(message)
        self.variable = variable


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _path(v) -> bool:
    return v is None or (isinstance(v, str) and bool(v.strip()))


def _fault_plan(v) -> bool:
    if v is None:
        return True
    if not _path(v):
        return False
    # Imported at call time: repro.core.faults imports this module.
    from .core.faults import FaultPlan
    try:
        FaultPlan.parse(v)
    except ValueError:
        return False
    return True


_BYTE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def _parse_bytes(raw: str) -> int:
    mult = _BYTE_SUFFIXES.get(raw[-1].lower(), 1)
    if mult != 1:
        raw = raw[:-1]
    return int(float(raw) * mult)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


#: field -> (variable, CLI flag or None, parse, valid, expected).
_KNOBS = {
    "scale": ("REPRO_SCALE", "--scale", float,
              lambda v: _number(v) and 0 < v < math.inf,
              "a finite number > 0"),
    "jobs": ("REPRO_JOBS", "--jobs", int,
             lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "cache_dir": ("REPRO_CACHE_DIR", "--cache-dir", str, _path,
                  "a directory path"),
    "cache_budget": ("REPRO_CACHE_BUDGET", None, _parse_bytes,
                     lambda v: v is None or (_integer(v) and v > 0),
                     "a byte count > 0, optionally suffixed k/m/g"),
    "timeout": ("REPRO_TIMEOUT", "--timeout", float,
                lambda v: v is None or (_number(v) and 0 < v <= MAX_WAIT),
                f"a number of seconds > 0 and <= {MAX_WAIT:.0f}"),
    "retries": ("REPRO_RETRIES", "--retries", int,
                lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "backoff": ("REPRO_BACKOFF", None, float,
                lambda v: _number(v) and 0 <= v <= MAX_WAIT,
                f"a number of seconds >= 0 and <= {MAX_WAIT:.0f}"),
    "fail_fast": ("REPRO_FAIL_FAST", "--fail-fast", _parse_bool,
                  lambda v: isinstance(v, bool),
                  "one of 1/0, true/false, yes/no, on/off"),
    "telemetry": ("REPRO_TELEMETRY", "--telemetry", str, _path,
                  "a directory or .jsonl path"),
    "trace_dir": ("REPRO_TRACE_DIR", None, str, _path, "a directory path"),
    "faults": ("REPRO_FAULTS", None, str, _fault_plan,
               "a fault plan: ';'-separated site@index[xN][:arg], "
               "site~prob[:arg] or seed=N directives"),
}


def _error(field: str, value) -> SettingsError:
    variable, flag, _parse, _valid, expected = _KNOBS[field]
    name = f"{variable} ({flag})" if flag else variable
    return SettingsError(variable,
                         f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class Settings:
    """The run configuration: one validated field per ``REPRO_*`` knob.

    Attributes:
        scale: Study-wide scale factor (``REPRO_SCALE``).
        jobs: Worker processes for sweep fan-out (``REPRO_JOBS``).
        cache_dir: Persistent result-cache root, or None for no disk
            cache (``REPRO_CACHE_DIR``).
        cache_budget: LRU budget in bytes of each store root (the
            result cache and the trace store, separately), or None for
            no eviction (``REPRO_CACHE_BUDGET``).
        timeout: Per-spec wall-clock limit in seconds, or None for no
            limit (``REPRO_TIMEOUT``).
        retries: Failed attempts each spec may retry (``REPRO_RETRIES``).
        backoff: Base retry backoff in seconds (``REPRO_BACKOFF``).
        fail_fast: Abort a sweep on the first exhausted spec
            (``REPRO_FAIL_FAST``).
        telemetry: Telemetry event-log target, or None for off
            (``REPRO_TELEMETRY``).
        trace_dir: Trace-store root, or None for no store
            (``REPRO_TRACE_DIR``).
        faults: The raw fault-plan text, or None for no injection
            (``REPRO_FAULTS``); it must parse with
            :meth:`repro.core.faults.FaultPlan.parse`, so a bad plan
            fails here rather than at the first injection hook.

    Raises:
        SettingsError: When any field is out of range or mistyped.
    """

    scale: float = DEFAULT_SCALE
    jobs: int = 1
    cache_dir: str | None = None
    cache_budget: int | None = None
    timeout: float | None = None
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    fail_fast: bool = False
    telemetry: str | None = None
    trace_dir: str | None = None
    faults: str | None = None

    def __post_init__(self):
        for field, (_var, _flag, _parse, valid, _expected) in _KNOBS.items():
            value = getattr(self, field)
            if not valid(value):
                raise _error(field, value)

    @classmethod
    def from_env(cls, environ=os.environ) -> "Settings":
        """Parse the ``REPRO_*`` knobs from ``environ``.

        Raises:
            SettingsError: When a set knob does not parse or is out of
                range; the message names the variable.
        """
        values = {}
        for field, (variable, _flag, parse, _valid, _expected) \
                in _KNOBS.items():
            raw = environ.get(variable, "").strip()
            if not raw:
                continue
            try:
                values[field] = parse(raw)
            except (ValueError, OverflowError):
                raise _error(field, raw) from None
        return cls(**values)
