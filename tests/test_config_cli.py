"""Config validation and the command-line front end, run in-process."""

import json
from pathlib import Path

import numpy as np
import pytest

import wie.cli as cli
from wie.config import ConfigError, parse_config, validate_config


def _ode_config(**overrides):
    cfg = {
        "schema_version": 1,
        "mode": "ode",
        "problem_id": "cli-test",
        "matrix": [["2.0", "1.0"], ["1.0", "2.0"]],
        "initial": ["1.0", "-0.5"],
        "epsilon_ladder": ["1e-1", "1e-2"],
        "horizon": "1.0",
        "time_points": 41,
    }
    cfg.update(overrides)
    return cfg


def _spectral_config(**overrides):
    cfg = {
        "schema_version": 1,
        "mode": "spectral",
        "problem_id": "cli-spectral",
        "symbol": {"kind": "classical"},
        "frequency_grid": {"kind": "uniform_fft", "n": 32, "dx": "0.5"},
        "initial": {"kind": "gaussian", "amplitude": "1.0", "variance": "1.0"},
        "epsilon_ladder": ["1e-1", "1e-2"],
        "horizon": "1.0",
        "time_points": 41,
    }
    cfg.update(overrides)
    return cfg


GOLDEN = Path(__file__).parent / "golden"


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateConfig:
    def test_minimal_ode_config(self):
        raw = _ode_config()
        cfg = validate_config(raw)
        assert cfg.mode == "ode"
        assert cfg.epsilon_ladder == (0.1, 0.01)
        assert cfg.horizon == 1.0
        assert cfg.norm == "sup_uniform"
        assert cfg.raw is raw
        np.testing.assert_allclose(
            cfg.ode_problem.matrix, [[2.0, 1.0], [1.0, 2.0]]
        )

    def test_numbers_accepted_as_strings_or_literals(self):
        for horizon in ("1.0", 1.0, 1):
            cfg = validate_config(_ode_config(horizon=horizon))
            assert cfg.horizon == 1.0

    def test_every_violation_is_collected(self):
        raw = _spectral_config(
            symbol={"kind": "fractional", "s": "1.5"},
            epsilon_ladder=["1e-2", "1e-1"],
            mystery_key=1,
        )
        del raw["horizon"]
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        text = "\n".join(err.value.violations)
        assert len(err.value.violations) >= 4
        assert "s outside (0,1)" in text
        assert "unknown key" in text
        assert "horizon" in text
        assert "decrease strictly" in text

    def test_policy_cap_names_offender(self):
        raw = _spectral_config(
            symbol={
                "kind": "zeroth_order",
                "mass": "1.0",
                "kernel": {"kind": "gaussian", "amplitude": "2.0", "variance": "1.0"},
            },
            epsilon_ladder=["0.2", "0.1"],
        )
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        text = "\n".join(err.value.violations)
        assert "exceeds the policy bound" in text
        assert "'0.2'" in text

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config(_ode_config(schema_version=2))

    def test_parse_config_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(str(bad))
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.json"))


class TestCliRun:
    def test_run_writes_reports(self, tmp_path):
        cfg = _write(tmp_path, _ode_config())
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["mode"] == "ode"
        assert report["failures"] == []
        assert all(report["verdicts"].values())
        assert sorted(report["artifacts"]) == ["report.json", "summary.csv"]
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("epsilon,")
        assert len(lines) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, _ode_config())
        out = tmp_path / "out"
        cli.main(["run", cfg, "--out-dir", str(out)])
        first = [(out / n).read_bytes() for n in ("report.json", "summary.csv")]
        cli.main(["run", cfg, "--out-dir", str(out)])
        second = [(out / n).read_bytes() for n in ("report.json", "summary.csv")]
        assert first == second

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        cfg = _write(tmp_path, _ode_config())
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        cli.main(["run", cfg, "--out-dir", str(serial), "--threads", "1"])
        cli.main(["run", cfg, "--out-dir", str(pooled), "--threads", "3"])
        for name in ("report.json", "summary.csv"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def test_crash_leaves_previous_report_intact(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, _ode_config())
        out = tmp_path / "out"
        cli.main(["run", cfg, "--out-dir", str(out)])
        before = (out / "report.json").read_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("study crashed")

        monkeypatch.setattr(cli, "convergence_study", boom)
        with pytest.raises(RuntimeError, match="study crashed"):
            cli.main(["run", cfg, "--out-dir", str(out)])
        assert (out / "report.json").read_bytes() == before
        assert list(out.glob("*.tmp")) == []

    def test_untransformable_forcing_exits_one(self, tmp_path):
        raw = _ode_config(
            matrix=[["1.0"]],
            initial=["1.0"],
            forcing={
                "parts": [
                    {
                        "profile": {
                            "kind": "exponential",
                            "amplitude": "1.0",
                            "rate": "6.0",
                        },
                        "vector": ["1.0"],
                    }
                ],
                "growth": {"kind": "subexponential", "rate": "12.0", "scale": "1.0"},
            },
        )
        cfg = _write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        verdicts = {f.get("verdict") for f in report["failures"]}
        assert "transformability violated" in verdicts

    def test_boundary_eps_passes_policy_then_fails_roots(self, tmp_path):
        # eps == policy cap is admitted, but the discriminant check is strict
        raw = _ode_config(
            matrix=[["-2.0"]],
            initial=["1.0"],
            epsilon_ladder=["6.25e-2", "1e-2"],
        )
        cfg = _write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert not report["verdicts"]["all_members_completed"]
        entries = report["results"]["study"]["entries"]
        assert entries[0]["failure"] is not None
        assert entries[1]["failure"] is None

    @pytest.mark.parametrize(
        "case, code", [("certification_failure", 1), ("bound_audit_pass", 0)]
    )
    def test_report_bytes_match_golden(self, tmp_path, case, code):
        # every runner returns one result type; the bytes it writes are pinned
        golden = GOLDEN / case
        out = tmp_path / "out"
        assert cli.main(["run", str(golden / "config.json"), "--out-dir", str(out)]) == code
        for name in ("report.json", "summary.csv"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_inadmissible_eps_refused_by_policy(self, tmp_path):
        # A=[[-1]] at eps=0.15 has 1 + 4*eps*mu = 0.4: refused before any solve
        cfg = _write(tmp_path, _ode_config(matrix=[["-1.0"]], initial=["1.0"], epsilon_ladder=["0.15"]))
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2

    def test_boundary_eps_refused_by_branch_solver(self, tmp_path):
        # the policy cap admits 1 + 4*eps*mu = 1/2 exactly; the solver's rule refuses it
        raw = {
            "schema_version": 1,
            "mode": "branch-divergence",
            "matrix": [["-2.0"]],
            "initial": ["1.0"],
            "epsilon": "6.25e-2",
            "delta": "1e-6",
            "horizons": ["1.0", "2.0"],
        }
        cfg = _write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        (failure,) = report["failures"]
        assert failure["verdict"] == "admissibility violated"
        assert "-2" in failure["detail"]

    def test_spectral_field_artifacts(self, tmp_path):
        raw = _spectral_config(
            output={"write_field": True, "field_times": ["0.0", "0.5", "1.0"]}
        )
        cfg = _write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 0
        meta = json.loads((out / "field_meta.json").read_text())
        assert meta["shape"] == [3, 32]
        assert meta["epsilon"] == 0.01
        blob = (out / "field.bin").read_bytes()
        assert len(blob) == 16 * 3 * 32
        values = np.frombuffer(blob, dtype="<c16").reshape(3, 32)
        assert np.all(np.isfinite(values.view(float)))

    def test_validate_subcommand(self, tmp_path, capsys):
        good = _write(tmp_path, _ode_config(), "good.json")
        assert cli.main(["validate", good]) == 0
        assert "ok:" in capsys.readouterr().out
        bad = _write(
            tmp_path,
            _spectral_config(symbol={"kind": "fractional", "s": "1.5"}, junk=1),
            "bad.json",
        )
        assert cli.main(["validate", bad]) == 2
        err = capsys.readouterr().err
        assert err.count("invalid:") >= 2

    def test_schema_subcommand(self, capsys):
        assert cli.main(["schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["schema_version"] == 1
        assert "modes" in schema

    def test_env_out_dir_and_flag_override(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, _ode_config())
        env_dir, flag_dir = tmp_path / "from_env", tmp_path / "from_flag"
        monkeypatch.setenv("WIE_OUT_DIR", str(env_dir))
        assert cli.main(["run", cfg]) == 0
        assert (env_dir / "report.json").exists()
        assert cli.main(["run", cfg, "--out-dir", str(flag_dir)]) == 0
        assert (flag_dir / "report.json").exists()

    def test_bad_thread_counts_rejected(self, tmp_path):
        cfg = _write(tmp_path, _ode_config())
        assert cli.main(["run", cfg, "--threads", "zero"]) == 2
        assert cli.main(["run", cfg, "--threads", "0"]) == 2
