"""Cold start: simulating a cell never imports numpy.

No module of the package imports numpy (the warm state is always the
interpreted walk's, DESIGN.md §14), so a process that simulates stays
free of it.  This test process may have imported numpy through a test
dependency, so the cell runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: One DSS lean-camp cell, the same as ``tests/test_result_digests.py``'s
#: ``dss/unsaturated/lc`` (scale, cycles and machine).
CELL = """
import hashlib, json, sys
from repro.core.experiment import Experiment
from repro.core.parallel import RunSpec
from repro.simulator.configs import lc_cmp

exp = Experiment(scale=0.01, measure_cycles=20_000, use_cache=False)
spec = RunSpec(lc_cmp(n_cores=4, scale=0.01), "dss", regime="unsaturated")
(result,) = exp.run_many([spec], jobs=1)
doc = json.dumps(result.to_dict(), sort_keys=True)
print(json.dumps({
    "digest": hashlib.sha256(doc.encode()).hexdigest(),
    "numpy": "numpy" in sys.modules,
    "sim_runs": exp.sim_runs,
}))
"""

PINNED = json.loads(
    (Path(__file__).parent / "data" / "result_digests.json").read_text()
)["digests"]["dss/unsaturated/lc"]


def test_simulating_a_cell_leaves_numpy_unimported():
    # ``REPRO_*`` settings are dropped so an ambient fault plan, trace
    # store or cache cannot reach the child.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run([sys.executable, "-c", CELL], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"digest": PINNED, "numpy": False, "sim_runs": 1}
