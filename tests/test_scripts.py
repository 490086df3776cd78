"""Smoke test for the script the README documents: it runs to completion at
its smallest settings and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_desk_smoea_runs():
    proc = run_script("run_desk_smoea.py", "--generations", "1", "--population", "16")
    assert proc.returncode == 0, proc.stderr
    assert "random-prune accuracy" in proc.stdout
    assert "Traceback" not in proc.stderr
