"""Smoke runs of the quick demos as scripts, each in a scratch directory,
and an import check of every demo."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_one_trial_walkthrough.py",
                                    "04_bounds_and_rates.py",
                                    "05_operator_and_rip.py"])
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("script",
                         sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(script):
    # the slow sweep demos do not run in the suite; this catches a demo
    # that imports a name the package no longer has
    tree = ast.parse((ROOT / "demos" / script).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "csra"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
