"""scipy loads only when the Fock-level oracle runs, and then only its LAPACK wrappers;
csv and configparser load only with the calls that use them, and nothing in
molcool imports concurrent.futures any more (sweeps run in the calling
thread), which stays in LAZY so that no module-level import brings it back.

Measured in fresh interpreters (2-core Xeon, Python 3.11, scipy 1.17):
numpy and scipy alone reach 28 MB peak RSS; importing scipy.linalg.lapack
takes 0.23-0.28 s more and reaches 55 MB; importing scipy.integrate on
top takes another 0.25-0.35 s and reaches 79 MB.  A module-level import
anywhere in molcool would bring that back to every CLI call.  Each check
runs in a fresh interpreter, since the test session itself has scipy
loaded.

csv, configparser and concurrent.futures (which brings logging, queue
and traceback with it) serve neither `import molcool` nor `reproduce-fig4`;
`python -X importtime` put them at ~9.5 ms of every CLI start on the
same machine.

numpy.ma serves neither reference command (`reproduce-fig4` and the
dwell-3 `cycle`), but numpy 2 imports it from `np.unique` called without
an index output and from `np.union1d`; imported alone it cost 12-15 ms
and 1.2 MB on the same machine.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

LAZY = ("scipy", "csv", "configparser", "concurrent.futures", "numpy.ma")

import molcool
for name in LAZY:
    assert name not in sys.modules, f"{name} loaded by import molcool"

import molcool.cli
assert molcool.cli.main(["reproduce-fig4", "--out", sys.argv[1]]) == 0
for name in LAZY:
    assert name not in sys.modules, f"{name} loaded by reproduce-fig4"
dwell3 = ["cycle", "--init-mode", "finite-dwell", "--dwell", "3", "--out", sys.argv[1]]
assert molcool.cli.main(dwell3) == 0
for name in LAZY:
    assert name not in sys.modules, f"{name} loaded by the dwell-3 cycle"

from molcool.cycle import CycleConfig, run_cycle
from molcool.units import DimensionlessParams

d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
cfg = CycleConfig(dimensionless=d, horizon=1.0, with_oracle=True)
run_cycle(cfg)
assert "scipy.linalg" in sys.modules, "not loaded by the oracle"
for name in ("scipy.integrate", "scipy.sparse", "scipy.optimize"):
    assert name not in sys.modules, f"{name} loaded by the oracle"
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
