"""What a `wie run` imports: each mode loads only the modules its run uses.

A fresh interpreter runs wie.cli.main on a golden config and reports the
names in sys.modules.  Module names, not timings, so the check is
deterministic.  `python -X importtime -c "import wie.cli"` shows what each
import costs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wie

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(wie.__file__).resolve().parent.parent

PROBE = """
import json, sys
import wie.cli
code = wie.cli.main(["run", sys.argv[1], "--out-dir", sys.argv[2], "--log-level", "error"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _modules_of_a_run(case: str, out_dir: Path) -> set:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(GOLDEN / case / "config.json"), str(out_dir)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["modules"])


def _loaded(modules: set, package: str) -> list:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize("case", ["spectral_forced_small", "ode_forced_small", "lemma_power_small"])
def test_no_run_imports_numpy_polynomial(tmp_path, case):
    # the certificate is closed form for exponential parts, and the lemma-tech sweep
    # for every density: no quadrature rule is built
    assert _loaded(_modules_of_a_run(case, tmp_path), "numpy.polynomial") == []


def test_a_spectral_run_imports_neither_numpy_fft_nor_the_ode_module(tmp_path):
    modules = _modules_of_a_run("spectral_forced_small", tmp_path)
    assert _loaded(modules, "numpy.fft") == []
    assert _loaded(modules, "wie.ode") == []
    assert "wie.spectral" in modules  # the probe did run the study
