"""scipy loads only when the Fock-level oracle runs.

Importing scipy's sparse, integrate and LAPACK modules costs about half a
second; a module-level import anywhere in molcool would bring it back to
every CLI call.  Each check runs in a fresh interpreter, since the test
session itself has scipy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import molcool
assert "scipy" not in sys.modules, "loaded by import molcool"

import molcool.cli
assert molcool.cli.main(["reproduce-fig4", "--out", sys.argv[1]]) == 0
assert "scipy" not in sys.modules, "loaded by reproduce-fig4"

from molcool.cycle import CycleConfig, run_cycle
from molcool.units import DimensionlessParams

d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
cfg = CycleConfig(dimensionless=d, horizon=1.0, with_oracle=True)
run_cycle(cfg)
assert "scipy.integrate" in sys.modules, "not loaded by the oracle"
print("ok")
"""


def test_scipy_loads_only_with_the_oracle(tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")
