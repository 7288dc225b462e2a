"""Pinned result digests: the simulator's numbers, bit for bit.

``perf/expected.json`` pins every study-scale cell of ``CODE_VERSION``,
but it runs outside tier-1.  This suite pins the SHA-256 of
``MachineResult.to_dict()`` for {oltp, dss} x {fc, lc} x {saturated
throughput, unsaturated response} at a reduced scale, so a change to
the lean processor-sharing loop, the fat core's overlap rules, the
hierarchy or the warm walk shows.  A digest moves only when a simulated
number moves, which is a ``CODE_VERSION`` bump, never a refactor.

After a deliberate ``CODE_VERSION`` bump, re-record the pins with::

    PYTHONPATH=src python tests/test_result_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.parallel import CODE_VERSION, RunSpec, execute
from repro.simulator import machine as machine_mod
from repro.simulator.configs import fc_cmp, lc_cmp

DIGESTS = Path(__file__).parent / "data" / "result_digests.json"

SCALE = 0.01
CYCLES = 20_000
CAMPS = {"fc": fc_cmp, "lc": lc_cmp}
CELLS = [(kind, regime, camp)
         for kind in ("dss", "oltp")
         for regime in ("saturated", "unsaturated")
         for camp in sorted(CAMPS)]


def _cell_id(kind: str, regime: str, camp: str) -> str:
    return f"{kind}/{regime}/{camp}"


def _reset_warm_memos() -> None:
    machine_mod._WARM_MEMO.clear()


def digest(kind: str, regime: str, camp: str) -> str:
    """SHA-256 of one cell's canonical ``MachineResult`` document.

    The warm-state memo starts cold, so the digest covers the warm walk
    too.
    """
    _reset_warm_memos()
    spec = RunSpec(CAMPS[camp](n_cores=4, scale=SCALE), kind, regime=regime)
    doc = execute(spec, SCALE, CYCLES).to_dict()
    _reset_warm_memos()
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_pins_match_this_code_version():
    doc = _pinned()
    assert doc["code_version"] == CODE_VERSION
    assert (doc["scale"], doc["cycles"]) == (SCALE, CYCLES)
    assert sorted(doc["digests"]) == sorted(_cell_id(*cell) for cell in CELLS)


@pytest.mark.parametrize("kind,regime,camp", CELLS)
def test_result_digest(kind, regime, camp):
    expected = _pinned()["digests"][_cell_id(kind, regime, camp)]
    assert digest(kind, regime, camp) == expected, (
        f"{kind}/{regime}/{camp} no longer reproduces {CODE_VERSION}"
    )


def _record() -> None:
    digests = {_cell_id(*cell): digest(*cell) for cell in CELLS}
    doc = {"code_version": CODE_VERSION, "scale": SCALE, "cycles": CYCLES,
           "digests": dict(sorted(digests.items()))}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    _record()
