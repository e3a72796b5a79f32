"""The demos run end to end against the current library API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import molcool

ROOT = Path(__file__).resolve().parents[1]
ORACLE_DEMO = ROOT / "demos" / "oracle_crosscheck.py"
# every other demo; the oracle demo has its own test, which also reads its output
DEMOS = [d for d in sorted((ROOT / "demos").glob("*.py")) if d != ORACLE_DEMO]


def run_demo(demo, tmp_path):
    """Run one demo in `tmp_path`, its output directory there too."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, str(demo), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_oracle_crosscheck_demo_runs(tmp_path):
    proc = run_demo(ORACLE_DEMO, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "level-ratio spread at the T_ratio minimum" in proc.stdout


def molcool_imports(demo):
    """Each name a demo imports from molcool, as "module.name"."""
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "molcool":
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "molcool")


@pytest.mark.parametrize("demo", DEMOS + [ORACLE_DEMO], ids=lambda d: d.name)
def test_demo_imports_only_the_public_api(demo):
    public = {f"molcool.{name}" for name in molcool.__all__}
    assert set(molcool_imports(demo)) - public == set()
