"""Every config in examples/ runs through `wie run` and passes its verdicts."""

from pathlib import Path

import pytest

import wie.cli as cli

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.json"))


@pytest.mark.parametrize("config", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(config, tmp_path):
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path), "--log-level", "error"]) == 0
    assert (tmp_path / "report.json").exists()
