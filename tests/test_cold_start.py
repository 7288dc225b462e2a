"""Cold start: importing ``repro`` does not import numpy.

numpy serves only the replay kernels (DESIGN.md §14), and
:mod:`repro.simulator.replay` imports it at the first kernel call.  So a
process that runs no kernel — ``repro --help``, ``repro stats``, a figure
served from the result cache, a benchmark's set-up — never pays for
loading it.  Every case runs in a fresh interpreter, since this test
process has long since imported numpy:

* importing every entry module leaves numpy unloaded;
* a batch served entirely from a pre-filled result cache leaves it
  unloaded too;
* a cell whose warm kernel engages loads numpy and returns a state;
* with numpy unimportable the same cell takes the real ``ImportError``
  fallback and gives the same result, bit for bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_MODULES = ("repro.cli", "repro.core.experiment", "repro.serve.server",
                 "repro.explore.explorer", "repro.model.calibrate",
                 "repro.workloads.driver")

#: One DSS lean-camp cell whose warm kernel engages at this scale.
CELL = """
import hashlib, json, sys
{prelude}
from repro.core.experiment import Experiment
from repro.core.parallel import RunSpec
from repro.simulator import replay
from repro.simulator.configs import lc_cmp

states = []
derive = replay.compute_warm_state

def spy(*args, **kwargs):
    state = derive(*args, **kwargs)
    states.append(state is not None)
    return state

replay.compute_warm_state = spy
exp = Experiment(scale=0.01, measure_cycles=20_000, {kwargs})
spec = RunSpec(lc_cmp(n_cores=4, scale=0.01), "dss", regime="unsaturated")
(result,) = exp.run_many([spec], jobs=1)
doc = json.dumps(result.to_dict(), sort_keys=True)
print(json.dumps({{
    "digest": hashlib.sha256(doc.encode()).hexdigest(),
    "numpy": "numpy" in sys.modules and sys.modules["numpy"] is not None,
    "kernel_states": states,
    "sim_runs": exp.sim_runs,
}}))
"""

#: The cell's pinned kernels-on digest (tests/test_result_digests.py
#: runs it with the same scale, cycles and machine).
PINNED = json.loads(
    (Path(__file__).parent / "data" / "result_digests.json").read_text()
)["digests"]["dss/unsaturated/lc/kernels=1"]


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; parse its last output line.

    ``REPRO_*`` settings are dropped so an ambient fault plan, trace
    store or cache cannot reach the child.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cell(kwargs: str = "use_cache=False", prelude: str = "") -> dict:
    return _python(CELL.format(kwargs=kwargs, prelude=prelude))


def test_entry_modules_leave_numpy_unimported():
    imports = "; ".join(f"import {m}" for m in ENTRY_MODULES)
    out = _python(f"import json, sys; {imports}; "
                  "print(json.dumps('numpy' in sys.modules))")
    assert out is False


def test_cache_served_batch_leaves_numpy_unimported(tmp_path):
    kwargs = f"cache_dir={str(tmp_path)!r}"
    filled = _cell(kwargs)
    assert filled["sim_runs"] == 1 and filled["numpy"]
    served = _cell(kwargs)
    assert served["sim_runs"] == 0
    assert served["kernel_states"] == []
    assert served["numpy"] is False
    assert served["digest"] == filled["digest"] == PINNED


def test_warm_kernel_imports_numpy():
    out = _cell()
    assert out["numpy"]
    assert out["kernel_states"] == [True]
    assert out["digest"] == PINNED


def test_numpyless_fallback_gives_the_same_result():
    # ``sys.modules["numpy"] = None`` makes ``import numpy`` raise
    # ImportError: the path a host without numpy takes.
    out = _cell(prelude='sys.modules["numpy"] = None')
    assert not out["numpy"]
    assert out["kernel_states"] == [False]
    assert out["digest"] == PINNED
