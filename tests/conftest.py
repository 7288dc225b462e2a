"""Shared fixtures for the service-tier suites.

The serve tests need a calibrated analytical model; fitting one runs the
pinned calibration grid through the simulator (seconds even at the tiny
test scale), so a single session-scoped model is fitted once — under a
cleared ``REPRO_FAULTS``, because the CI chaos job runs the whole suite
with an ambient fault plan and calibration must stay deterministic —
and shared by the ``test_serve.py`` suites.
"""

import pytest

from repro.core.experiment import Experiment

#: The serve suites' study coordinates (same as the explore tests: tiny
#: scale, short window — seconds per calibration, milliseconds per sim).
SCALE = 0.01
CYCLES = 5_000


@pytest.fixture(scope="session")
def serve_model():
    """A model calibrated once at the serve-test scale."""
    from repro.model import calibrate

    mp = pytest.MonkeyPatch()
    mp.delenv("REPRO_FAULTS", raising=False)
    try:
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         use_cache=False)
        return calibrate.fit(exp)
    finally:
        mp.undo()
