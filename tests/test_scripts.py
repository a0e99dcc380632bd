"""The desk scripts run end to end and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args",
    [
        ["run_ode_convergence.py", "--size", "4", "--forced"],
        ["run_spectral_convergence.py", "--forced", "--n", "256"],
        ["run_branch_divergence.py"],
    ],
    ids=["ode", "spectral", "branch"],
)
def test_script_exits_zero(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout
