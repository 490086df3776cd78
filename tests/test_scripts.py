"""Smoke tests for the scripts the README documents: each runs to completion
at its smallest settings and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "name, args, expect",
    [
        ("alpha_ablation.py", ["--generations", "2"], "reconstruction error by retained"),
        (
            "run_desk_smoea.py",
            ["--generations", "1", "--population", "16"],
            "random-prune accuracy",
        ),
    ],
)
def test_script_runs(name, args, expect):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    assert "Traceback" not in proc.stderr
