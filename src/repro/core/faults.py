"""Deterministic fault injection for the resilient sweep executor.

The recovery machinery in :mod:`repro.core.parallel` (retries, timeouts,
crash isolation, resume from the result cache, corrupt-cache fallback) is
only trustworthy if its failure paths are exercised on purpose.  This
module is a seeded, environment-driven chaos harness: tests and the CI
chaos job set ``REPRO_FAULTS`` to a small fault plan and the executor's
workers then crash, hang, raise, or corrupt cache entries at *chosen,
reproducible* points.

Grammar (directives separated by ``;``)::

    REPRO_FAULTS="crash@1;exec@0x2;hang@2:30;corrupt@3;seed=7"

    crash@I[xN]       worker process dies (os._exit) running batch index I
    hang@I[xN][:S]    worker sleeps S seconds (default 3600) at index I
    exec@I[xN]        transient InjectedFault raised executing index I
    corrupt@I[xN]     the cache entry written for index I holds garbage
    SITE~P[:S]        probabilistic form: fire with probability P at any
                      index (deterministic per (seed, site, index, attempt))
    seed=N            seed for the probabilistic form (default 0)

``xN`` bounds how many *attempts* a fault fires on (default 1): ``exec@0``
fails the first attempt at batch index 0 and lets the retry succeed, while
``exec@0x99`` keeps failing until retries are exhausted.  Probability draws
hash ``(seed, site, index, attempt)`` — no RNG state — so every process,
worker, and rerun sees the same plan.

Inertness contract: when ``REPRO_FAULTS`` is unset or empty every hook
returns immediately without touching any interpreter state that could
perturb a result (no RNG, no clocks); ``tests/test_faults.py`` locks this
down.  Crash and hang faults only fire inside pool workers (firing them
in-process would kill or stall the parent), so serial fallback paths see
only ``exec`` and ``corrupt`` faults.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from ..settings import MAX_WAIT, Settings

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "corrupt_bytes",
    "maybe_crash",
    "maybe_hang",
    "maybe_raise",
]

#: Exit status used by injected worker crashes (visible in pool logs).
CRASH_EXIT_CODE = 13

#: Default sleep for ``hang`` faults without an explicit duration: long
#: enough that only a timeout (or the test harness) ends it.
DEFAULT_HANG_SECONDS = 3600.0

#: Marker payload stored by ``corrupt`` faults — deliberately not a valid
#: pickle, so the result decoder rejects it and the reader takes the
#: corrupt-entry recovery path.
CORRUPT_PAYLOAD = b"repro-fault-injector: corrupted cache entry\n"

_SITES = ("crash", "hang", "exec", "corrupt")


class InjectedFault(RuntimeError):
    """A transient failure raised by the injector (site ``exec``)."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed directive.

    Attributes:
        site: One of ``crash``, ``hang``, ``exec``, ``corrupt``.
        index: Batch index to target, or None for probabilistic rules.
        prob: Fire probability for probabilistic rules, else None.
        count: Fire on attempts ``0 .. count-1`` (indexed rules only).
        arg: Site argument (hang duration in seconds).
    """

    site: str
    index: int | None = None
    prob: float | None = None
    count: int = 1
    arg: float | None = None


def _parse_directive(text: str) -> FaultRule:
    site, sep, rest = text.partition("@")
    if sep:
        prob = None
    else:
        site, sep, rest = text.partition("~")
        if not sep:
            raise ValueError(
                f"bad REPRO_FAULTS directive {text!r}: expected "
                "'site@index[xN][:arg]' or 'site~prob[:arg]'")
        prob = -1.0  # placeholder; parsed below
    if site not in _SITES:
        raise ValueError(
            f"bad REPRO_FAULTS site {site!r}: expected one of {_SITES}")
    try:
        arg = None
        if ":" in rest:
            rest, _, arg_text = rest.partition(":")
            arg = float(arg_text)
            if not 0 <= arg <= MAX_WAIT:
                raise ValueError(
                    f"arg must be >= 0 and <= {MAX_WAIT:.0f}, got {arg}")
        if prob is None:
            count = 1
            if "x" in rest:
                rest, _, count_text = rest.partition("x")
                count = int(count_text)
                if count < 1:
                    raise ValueError(f"count must be >= 1, got {count}")
            index = int(rest)
            if index < 0:
                raise ValueError(f"index must be >= 0, got {index}")
            return FaultRule(site, index=index, count=count, arg=arg)
        prob = float(rest)
        if not 0 <= prob <= 1:
            raise ValueError(f"probability must be in [0, 1], got {prob}")
        return FaultRule(site, prob=prob, arg=arg)
    except ValueError as exc:
        raise ValueError(
            f"bad REPRO_FAULTS directive {text!r}: {exc}") from None


class FaultPlan:
    """A parsed ``REPRO_FAULTS`` value: rules plus the probability seed."""

    def __init__(self, rules: list[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = seed

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan (grammar in the module docstring).

        Raises:
            ValueError: naming ``REPRO_FAULTS``, for an unknown site, a
                malformed directive, or a count, index, probability or
                argument out of range.
        """
        rules: list[FaultRule] = []
        seed = 0
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            if raw.startswith("seed="):
                try:
                    seed = int(raw[len("seed="):])
                except ValueError:
                    raise ValueError(
                        f"bad REPRO_FAULTS seed {raw!r}: expected "
                        "seed=<integer>") from None
                continue
            rules.append(_parse_directive(raw))
        return cls(rules, seed=seed)

    # -- firing decisions ---------------------------------------------- #

    def _uniform(self, site: str, index: int, attempt: int) -> float:
        """A deterministic draw in [0, 1): stateless, so identical across
        processes, workers, and reruns."""
        token = f"{self.seed}|{site}|{index}|{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def rule_for(self, site: str, index: int | None,
                 attempt: int = 0) -> FaultRule | None:
        """The first rule that fires at ``(site, index, attempt)``."""
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.index is not None:
                if index == rule.index and attempt < rule.count:
                    return rule
            elif rule.prob is not None:
                draw = self._uniform(site, -1 if index is None else index,
                                     attempt)
                if draw < rule.prob:
                    return rule
        return None


#: Per-process parse cache, keyed by the raw plan text.
_cached: tuple[str, FaultPlan] | None = None


def active_plan() -> FaultPlan | None:
    """The plan from ``REPRO_FAULTS``, or None when faults are disabled."""
    global _cached
    # Resolved at call time, not once per Experiment: the hooks run in
    # pool workers, which inherit the environment, and tests install a
    # plan after import.
    text = Settings.from_env().faults
    if text is None:
        return None
    if _cached is None or _cached[0] != text:
        _cached = (text, FaultPlan.parse(text))
    return _cached[1]


# ---------------------------------------------------------------------- #
# Injection hooks (all no-ops when REPRO_FAULTS is unset)                 #
# ---------------------------------------------------------------------- #

def maybe_crash(index: int, attempt: int = 0) -> None:
    """Kill this process if a ``crash`` rule fires (pool workers only)."""
    plan = active_plan()
    if plan is not None and plan.rule_for("crash", index, attempt):
        os._exit(CRASH_EXIT_CODE)


def maybe_hang(index: int, attempt: int = 0) -> None:
    """Sleep past any reasonable timeout if a ``hang`` rule fires."""
    plan = active_plan()
    if plan is None:
        return
    rule = plan.rule_for("hang", index, attempt)
    if rule is not None:
        time.sleep(DEFAULT_HANG_SECONDS if rule.arg is None else rule.arg)


def maybe_raise(index: int, attempt: int = 0) -> None:
    """Raise :class:`InjectedFault` if an ``exec`` rule fires."""
    plan = active_plan()
    if plan is not None and plan.rule_for("exec", index, attempt):
        raise InjectedFault(
            f"injected transient failure (index {index}, attempt {attempt})")


def corrupt_bytes(index: int | None, payload: bytes) -> bytes:
    """The payload a result-cache write should frame: ``payload``
    untouched, or :data:`CORRUPT_PAYLOAD` when a ``corrupt`` rule fires
    for ``index``.  The store frames and checksums the marker like any
    payload; the result decoder rejects it, so the next reader counts an
    error and a miss, unlinks the entry and re-simulates."""
    plan = active_plan()
    if plan is not None and plan.rule_for("corrupt", index, 0):
        return CORRUPT_PAYLOAD
    return payload
