"""Config validation and the command-line front end, run in-process.

TestLogLines runs `wie` in fresh processes, so what it sees on stderr is
what a shell sees.
"""

import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import grid_points
import wie.cli as cli
from wie.config import ConfigError, parse_config, validate_config
from wie.quadrature import DEFAULT_SPEC
from wie.ode import OdeProblem
from wie.spectral import FrequencyGrid, SelectedSpectralMinimizer, SpectralProblem


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

# (config, violations) pairs: each key of each mode missing, of a wrong type
# and unknown, an unknown kind of each kinded object, and each range check
ERROR_CORPUS = json.loads((GOLDEN / "config_errors.json").read_text())


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _assert_keeps_the_horizons_before_the_failure(tmp_path, raw, out, kept):
    """A branch run whose horizon after `kept` failed writes the branch block and the
    summary rows of a run of the kept horizons alone; with none kept, neither."""
    report = json.loads((out / "report.json").read_text())
    if not kept:
        assert "branch" not in report["results"]
        return
    alone = tmp_path / "alone"
    config = _write(tmp_path, {**raw, "horizons": kept}, name="alone.json")
    assert cli.main(["run", config, "--out-dir", str(alone)]) == 0
    assert report["results"] == json.loads((alone / "report.json").read_text())["results"]
    assert (out / "summary.csv").read_bytes() == (alone / "summary.csv").read_bytes()


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
            cfg.problem.matrix, [[2.0, 1.0], [1.0, 2.0]]
        )

    def test_each_problem_mode_sets_the_one_problem(self):
        branch = _ode_config(mode="branch-divergence", epsilon="0.1", delta="1e-6", horizons=["1.0"])
        for key in ("epsilon_ladder", "horizon", "time_points"):
            del branch[key]
        cases = ((_ode_config(), OdeProblem), (branch, OdeProblem), (_spectral_config(), SpectralProblem))
        for raw, kind in cases:
            cfg = validate_config(raw)
            assert type(cfg.problem) is kind, raw["mode"]
        grid = FrequencyGrid.uniform_fft(32, 0.5)
        np.testing.assert_array_equal(cfg.problem.grid.nodes, grid.nodes)

    def test_fields_a_mode_does_not_set_are_none(self):
        # a mode's own rows give its values: the record restates no default of its own
        ode = validate_config(_ode_config())
        assert (ode.direction, ode.audit_tol, ode.symbol) == (None, None, None)
        lemma = {"schema_version": 1, "mode": "lemma-tech", "density": {"kind": "constant"}}
        lemma = validate_config({**lemma, "epsilon_ladder": ["1e-1"], "horizon": "1.0"})
        assert (lemma.time_points, lemma.norm, lemma.problem) == (801, None, None)

    def test_asymmetric_matrix_and_bad_direction_both_reported(self):
        raw = {
            "schema_version": 1,
            "mode": "branch-divergence",
            "matrix": [["2.0", "1.0"], ["0.0", "2.0"]],
            "initial": ["1.0", "-0.5"],
            "epsilon": "0.1",
            "delta": "1e-6",
            "horizons": ["1.0", "2.0"],
            "direction": 2,
        }
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        text = "\n".join(err.value.violations)
        assert "not symmetric" in text
        assert "must lie in [0, 2)" in text

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

    def test_each_wrong_length_is_reported_at_its_own_key(self):
        # against a square matrix of size 2: the initial state and both forcing vectors,
        # each at its key, and no problem built; a matrix that is not square is its own fault
        parts = [{"profile": {"kind": "constant"}, "vector": ["1.0", "2.0", "3.0"]}] * 2
        with pytest.raises(ConfigError) as err:
            validate_config(_ode_config(initial=["1.0"], forcing={"parts": parts}))
        assert err.value.violations == [
            "initial: initial state has shape (1,), matrix is (2, 2)",
            "forcing.parts[0].vector: forcing dimension 3 does not match system size 2",
            "forcing.parts[1].vector: forcing dimension 3 does not match system size 2",
        ]
        with pytest.raises(ConfigError) as err:
            validate_config(_ode_config(matrix=[["1.0", "0.0"]], initial=["1.0"]))
        assert err.value.violations == ["matrix: matrix must be square, got (1, 2)"]

    @pytest.mark.parametrize("entry", ERROR_CORPUS, ids=[e["name"] for e in ERROR_CORPUS])
    def test_corpus_config_gives_exactly_its_violations(self, entry):
        with pytest.raises(ConfigError) as err:
            validate_config(entry["config"])
        assert err.value.violations == entry["violations"]

    @pytest.mark.parametrize("imag", [None, ["0", "1", "0", "-1"]], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "grid",
        [
            {"kind": "uniform_fft", "n": 4, "dx": "0.5"},
            {"kind": "explicit", "nodes": ["-1", "0", "0.5", "2"], "weights": ["1", "1", "1", "1"]},
        ],
        ids=["uniform_fft", "explicit"],
    )
    def test_sampled_initial_data_on_either_grid(self, grid, imag):
        initial = {"kind": "samples", "real": ["1", "2", "3", "4"]}
        if imag is not None:
            initial["imag"] = imag
        cfg = validate_config(_spectral_config(frequency_grid=grid, initial=initial))
        expected = np.array([1.0, 2.0, 3.0, 4.0]) + 1j * (np.array(imag, dtype=float) if imag else 0.0)
        np.testing.assert_array_equal(cfg.problem.initial_hat, expected)
        initial["real"] = initial["real"][:3]
        initial.pop("imag", None)
        with pytest.raises(ConfigError) as err:
            validate_config(_spectral_config(frequency_grid=grid, initial=initial))
        assert err.value.violations == ["initial: expected 4 samples to match the grid, got 3"]

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


class TestDumpJson:
    def test_bytes_are_json_dumps_with_indent_two(self):
        obj = {
            "frequencies": [float(x) for x in np.linspace(-3.0, 3.0, 7)] + [-0.0, 1e-320],
            "mixed": [1.0, math.inf, -math.nan, None, 2, True, "x", np.float64(0.1)],
            "array": np.array([0.5, math.inf]),
            "nodes": np.array([-1.5, -0.0, 0.0, 1e-320, 0.1, 2.5e300]),
            "ints": np.arange(3),
            "empty": [[], {}, ()],
            "nested": {"b": [{"é": -math.inf}], 3: (1.5, 2.5), "a": {"z": np.bool_(False)}},
            "text": "quote \" and unicode \u00e9",
        }
        want = json.dumps(cli._jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
        assert cli._dump_json(obj) == (want + "\n").encode("utf-8")
        with pytest.raises(TypeError):
            cli._dump_json({"z": [1j]})


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

    def test_failed_rename_leaves_no_temp_file_and_the_previous_report(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, _ode_config())
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 0
        before = (out / "report.json").read_bytes()

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 3
        assert list(out.glob("*.tmp")) == []
        assert (out / "report.json").read_bytes() == before

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

    def test_certificate_that_cannot_be_formed_is_a_failure_entry(self, tmp_path):
        # a bounded growth class understates the rate 3: 0 < 1/eps = 4 passes the
        # growth check, but the weighted norm diverges (1/eps - 2r = -2), which the
        # closed form names before any quadrature runs
        raw = json.loads((GOLDEN / "certification_failure" / "config.json").read_text())
        raw["forcing"]["parts"][0]["profile"]["rate"] = "3.0"
        raw["forcing"]["growth"] = {"kind": "bounded"}
        raw["epsilon_ladder"] = ["2.5e-1"]
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        entry = report["failures"][0]
        assert entry["verdict"] == "transformability not certified"
        assert entry["epsilon"] == 0.25
        assert entry["detail"].startswith("transformability certificate at eps=0.25: ")
        assert entry["detail"].endswith(
            "the squared norm grows at the exponent 6, at or above 1/eps = 4; "
            "the weighted integral diverges"
        )
        assert report["verdicts"] == {"transformability_certified": False}
        assert "study" not in report["results"]

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
        "case, code",
        [
            ("certification_failure", 1),
            ("bound_audit_pass", 0),
            ("spectral_forced_small", 0),
            ("ode_forced_small", 0),
            ("spectral_unforced_field", 0),
            ("spectral_signed_zeros", 0),
            ("lemma_power_small", 0),
        ],
    )
    def test_report_bytes_match_golden(self, tmp_path, case, code):
        # every runner returns one result type; the bytes it writes are pinned,
        # the field dump too where the golden has one
        golden = GOLDEN / case
        out = tmp_path / "out"
        assert cli.main(["run", str(golden / "config.json"), "--out-dir", str(out)]) == code
        names = ["report.json", "summary.csv"]
        names += [n for n in ("field.bin", "field_meta.json") if (golden / n).exists()]
        for name in names:
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

    @pytest.mark.parametrize(
        "quadrature, detail, kept",
        [
            ({"max_panels": 8}, "exhausted its panel budget", ["1.0"]),
            ({"abs_tol": "1e-30", "rel_tol": "1e-20"}, "misses the contract", []),
        ],
        ids=["panel-budget", "tight-contract"],
    )
    def test_branch_energy_missing_its_contract_is_a_failure_entry(
        self, tmp_path, quadrature, detail, kept
    ):
        raw = {
            "schema_version": 1,
            "mode": "branch-divergence",
            "matrix": [["2.0", "1.0"], ["1.0", "2.0"]],
            "initial": ["1.0", "-0.5"],
            "epsilon": "0.1",
            "delta": "1e-6",
            "horizons": ["1.0", "2.0", "3.0"],
            "quadrature": quadrature,
        }
        cfg = _write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        (failure,) = report["failures"]
        assert failure["verdict"] == "quadrature contract missed"
        assert failure["epsilon"] == 0.1
        assert failure["detail"].startswith(f"branch divergence at eps=0.1, T={len(kept) + 1}:")
        assert detail in failure["detail"]
        _assert_keeps_the_horizons_before_the_failure(tmp_path, raw, out, kept)

    def test_branch_energies_meet_the_contract_by_default(self, tmp_path):
        raw = {
            "schema_version": 1,
            "mode": "branch-divergence",
            "matrix": [["2.0", "1.0"], ["1.0", "2.0"]],
            "initial": ["1.0", "-0.5"],
            "epsilon": "0.1",
            "delta": "0.0",
            "horizons": ["1.0", "3.0", "5.0"],
        }
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == []
        assert len(report["results"]["branch"]["numeric_energies"]) == 3

    def test_branch_trajectory_past_the_cap_is_a_failure_entry(self, tmp_path, capsys):
        # the eigenvalue -650 grows the selected trajectory past exp(700) before T = 2,
        # not before T = 0.5, whose row stands; pushed off the selected value, both
        # horizons take the closed form instead
        raw = {
            "schema_version": 1,
            "mode": "branch-divergence",
            "matrix": [[-650.0, 0.0], [0.0, 1.0]],
            "initial": [1e-300, 1.0],
            "epsilon": "1.8e-4",
            "delta": 0.0,
            "horizons": [0.5, 2.0],
            "direction": 1,
        }
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"WARNING 1 failure(s); see {out / 'report.json'}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == [
            {
                "verdict": "exponent cap passed",
                "epsilon": 1.8e-4,
                "detail": "branch divergence at eps=0.00018, T=2: a mode grows past exp(700)"
                " at the requested time; shorten the horizon",
            }
        ]
        _assert_keeps_the_horizons_before_the_failure(tmp_path, raw, out, [0.5])
        raw["delta"] = "1e-3"
        pushed = tmp_path / "pushed"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(pushed)]) == 0
        branch = json.loads((pushed / "report.json").read_text())["results"]["branch"]
        assert branch["numeric_energies"] == [None, None]
        assert branch["log_energies"] == branch["closed_form_log"]

    @pytest.mark.parametrize(
        "horizons, kept",
        [([0.5, 2.0], [0.5]), ([0.25, 0.5, 2.0, 3.0], [0.25, 0.5]), ([2.0, 3.0], [])],
    )
    def test_branch_keeps_the_horizons_before_the_first_failing_one(
        self, tmp_path, capsys, horizons, kept
    ):
        # the selected trajectory of the eigenvalue -650 passes the cap between T = 0.5 and 2;
        # the first failure ends the run, as its only failure entry, and the earlier rows stand
        raw = {
            "schema_version": 1,
            "mode": "branch-divergence",
            "matrix": [[-650, 0], [0, 1]],
            "initial": [1, 1],
            "epsilon": "1.8e-4",
            "delta": 0,
            "horizons": horizons,
        }
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"WARNING 1 failure(s); see {out / 'report.json'}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == [
            {
                "verdict": "exponent cap passed",
                "epsilon": 1.8e-4,
                "detail": "branch divergence at eps=0.00018, T=2: a mode grows past exp(700)"
                " at the requested time; shorten the horizon",
            }
        ]
        _assert_keeps_the_horizons_before_the_failure(tmp_path, raw, out, kept)

    @pytest.mark.parametrize(
        "density, code",
        [
            pytest.param({"kind": "power", "amplitude": "1.0", "degree": "-0.5"}, 0, id="-0.5-0"),
            pytest.param({"kind": "exponential", "rate": "800"}, 1, id="exponential-800-1"),
        ],
    )
    def test_lemma_rung_missing_its_contract_is_a_failure_entry(self, tmp_path, density, code):
        # t^-0.5 meets the contract; exp(800 t) passes the exponent cap before T = 1
        raw = {
            "schema_version": 1,
            "mode": "lemma-tech",
            "density": density,
            "epsilon_ladder": ["1e-1", "1e-2"],
            "horizon": "1.0",
            "time_points": 11,
        }
        cfg = _write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == code
        report = json.loads((out / "report.json").read_text())
        rung_failures = [f for f in report["failures"] if f["verdict"] == "lemma-tech rung failed"]
        entries = report["results"]["entries"]
        if code == 0:
            assert rung_failures == []
            for entry in entries:
                eps = entry["epsilon"]
                exact = math.sqrt(math.pi * eps) * math.erf(math.sqrt(1.0 / eps))
                assert abs(entry["sup"] - exact) <= DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * exact
        else:
            assert [f["epsilon"] for f in rung_failures] == [0.1, 0.01]
            assert all(e["sup"] is None for e in entries)
            assert rung_failures[0]["detail"].startswith("lemma-tech sweep at eps=0.1: ")
            assert "passes the cap 700" in rung_failures[0]["detail"]

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

    def test_negative_field_time_is_refused(self, tmp_path, capsys):
        # the selection problem is posed for t >= 0: no continuation to t = -1 is dumped
        raw = json.loads((GOLDEN / "spectral_unforced_field" / "config.json").read_text())
        raw["output"]["field_times"] = ["-1.0", "0.5"]
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 2
        assert "output.field_times[0]: must be nonnegative" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.violations == ["output.field_times[0]: must be nonnegative"]

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
        assert capsys.readouterr().out == (GOLDEN / "schema.json").read_text()

    def test_integer_literal_past_the_float_range_is_a_config_error(self, tmp_path, capsys):
        path = _write(tmp_path, _ode_config(horizon=10**340))
        assert "1" + "0" * 340 in Path(path).read_text()
        assert cli.main(["validate", path]) == 2
        assert capsys.readouterr().err == "invalid: horizon: must be finite\n"

    @pytest.mark.parametrize("name", ["spectral-grid-n-past-address-space", "audit-linspace-points-past-address-space"])
    def test_array_past_the_address_space_is_a_config_error(self, tmp_path, capsys, name):
        # 2^55 nodes are 2^58 bytes, past any user address space: numpy's MemoryError
        # is a violation of the size, and run refuses the config as validate does
        (entry,) = [e for e in ERROR_CORPUS if e["name"] == name]
        path = _write(tmp_path, entry["config"])
        for command in ("validate", "run"):
            assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == "".join(f"invalid: {v}\n" for v in entry["violations"])
        assert not (tmp_path / "out").exists()

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

    def test_thread_environment_is_ignored(self, tmp_path, monkeypatch):
        # runs are serial; a stale WIE_THREADS must not fail a run that gave no flag
        cfg = _write(tmp_path, _ode_config())
        monkeypatch.setenv("WIE_THREADS", "x")
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0


class TestLogLines:
    """The one stderr line a run ends with, under --log-level and WIE_LOG_LEVEL."""

    @staticmethod
    def _run(case, out, *flags, env=None):
        base = {k: v for k, v in os.environ.items() if not k.startswith("WIE_")}
        base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
        config = str(GOLDEN / case / "config.json")
        done = subprocess.run(
            [sys.executable, "-m", "wie.cli", "run", config, "--out-dir", str(out), *flags],
            capture_output=True,
            text=True,
            env={**base, **(env or {})},
        )
        return done.returncode, done.stderr

    def test_passing_run_at_the_default_level(self, tmp_path):
        out = tmp_path / "out"
        assert self._run("spectral_forced_small", out) == (
            0,
            f"INFO all verdicts passed; report in {out / 'report.json'}\n",
        )

    def test_failing_run_writes_one_warning(self, tmp_path):
        out = tmp_path / "out"
        assert self._run("certification_failure", out) == (
            1,
            f"WARNING 2 failure(s); see {out / 'report.json'}\n",
        )

    def test_error_level_prints_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert self._run("certification_failure", out, "--log-level", "error") == (1, "")
        assert self._run("spectral_forced_small", out, "--log-level", "warning") == (0, "")

    def test_environment_level_is_honoured_and_the_flag_wins(self, tmp_path):
        out = tmp_path / "out"
        quiet = {"WIE_LOG_LEVEL": "error"}
        assert self._run("certification_failure", out, env=quiet) == (1, "")
        code, err = self._run("certification_failure", out, "--log-level", "info", env=quiet)
        assert code == 1
        assert err.startswith("WARNING 2 failure(s); see ")

    @pytest.mark.parametrize("level", ["basic_format", "bogus", "20"])
    def test_unknown_level_names_mean_info(self, tmp_path, level):
        out = tmp_path / "out"
        line = f"INFO all verdicts passed; report in {out / 'report.json'}\n"
        assert self._run("spectral_forced_small", out, "--log-level", level) == (0, line)
        assert self._run("spectral_forced_small", out, env={"WIE_LOG_LEVEL": level}) == (0, line)

    def test_main_leaves_the_root_logger_alone(self, tmp_path, monkeypatch, capsys):
        # an embedding program that has not configured logging keeps it unconfigured
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        cfg = str(GOLDEN / "spectral_forced_small" / "config.json")
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert logging.getLogger().handlers == []
        assert capsys.readouterr().err.startswith("INFO all verdicts passed; report in ")


def _field_config(grid, times):
    output = {"write_field": True, "field_times": [repr(float(t)) for t in times]}
    return _spectral_config(frequency_grid=grid, output=output)


class TestFieldDump:
    @pytest.mark.parametrize("case", ["spectral_unforced_field", "spectral_signed_zeros"])
    def test_meta_grid_rebuilds_the_run_grid_bit_for_bit(self, case):
        meta = json.loads((GOLDEN / case / "field_meta.json").read_text())
        assert meta["meta_version"] == 2
        block = meta["frequency_grid"]
        assert block["kind"] == "uniform_fft"
        rebuilt = FrequencyGrid.uniform_fft(block["n"], block["dx"], block["x0"])
        grid = parse_config(str(GOLDEN / case / "config.json")).problem.grid
        for name in ("nodes", "weights"):
            assert getattr(rebuilt, name).tobytes() == getattr(grid, name).tobytes(), name
        assert grid_points(rebuilt).tobytes() == grid_points(grid).tobytes()

    def test_dump_samples_the_studys_last_rung(self, tmp_path, monkeypatch):
        # the run builds one rung per eps and the dump samples the last one, with the
        # golden bytes; called on its own, the dump builds that rung itself
        golden = GOLDEN / "spectral_unforced_field"
        built = []
        init = SelectedSpectralMinimizer.__init__
        monkeypatch.setattr(
            SelectedSpectralMinimizer,
            "__init__",
            lambda self, problem, eps: built.append(eps) or init(self, problem, eps),
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(golden / "config.json"), "--out-dir", str(out)]) == 0
        assert built == [0.1, 0.01]
        alone = tmp_path / "alone"
        alone.mkdir()
        cli._write_field(parse_config(str(golden / "config.json")), alone)
        assert built == [0.1, 0.01, 0.01]
        for name in ("field.bin", "field_meta.json"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name
            assert (alone / name).read_bytes() == (golden / name).read_bytes(), name

    def test_explicit_grid_echoes_its_nodes_and_weights(self, tmp_path):
        nodes = [float(x) for x in np.linspace(-3.0, 3.0, 7)] + [-0.0, 1e-320]
        weights = [0.5 + 0.125 * k for k in range(len(nodes))]
        raw = _field_config({"kind": "explicit", "nodes": nodes, "weights": weights}, [0.0, 1.0])
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 0
        block = json.loads((out / "field_meta.json").read_text())["frequency_grid"]
        assert block == {"kind": "explicit", "nodes": nodes, "weights": weights}
        # == takes -0.0 for 0.0; the bytes keep the sign and the subnormal
        assert np.array(block["nodes"]).tobytes() == np.array(nodes).tobytes()

    def test_dump_holds_no_second_copy_of_the_field(self, tmp_path):
        # 25 times x 256 nodes: a bytes copy of the sampled array, or the 256
        # frequencies written as a JSON list of floats, each adds more than a
        # third of its size to the peak; the minimizer and its rows add less
        n, times = 256, np.linspace(0.0, 1.0, 25)
        cfg = validate_config(_field_config({"kind": "uniform_fft", "n": n, "dx": "0.125"}, times))
        nbytes = 16 * n * len(times)
        cli._write_field(cfg, tmp_path)  # warm-up: caches built on first use do not count
        tracemalloc.start()
        try:
            cli._write_field(cfg, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "field.bin").stat().st_size == nbytes
        assert peak - nbytes < nbytes / 3

    def test_time_past_the_cap_is_a_failure_entry(self, tmp_path, capsys):
        # a part growing as exp(0.5 t) passes exp(700) long before t = 2000: the study
        # passes, the dump fails, and the report and summary are written without it
        example = Path(__file__).parent.parent / "examples" / "spectral_fractional_forced.json"
        raw = json.loads(example.read_text())
        raw["forcing"]["parts"][0]["profile"]["rate"] = "0.5"
        raw["output"] = {"write_field": True, "field_times": [0.0, 2000.0]}
        out = tmp_path / "out"
        assert cli.main(["run", _write(tmp_path, raw), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"WARNING 1 failure(s); see {out / 'report.json'}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == [
            {
                "verdict": "field dump failed",
                "detail": "field dump at eps=0.0001, t=2000: a mode grows past exp(700)"
                " at the requested time; shorten the horizon",
            }
        ]
        assert report["verdicts"]["all_members_completed"]
        assert report["artifacts"] == ["report.json", "summary.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "summary.csv"]
        assert len((out / "summary.csv").read_text().splitlines()) == 5


class TestMemoryGuard:
    def test_field_dump_peak_does_not_grow_with_the_times(self, tmp_path):
        # field.bin is streamed row by row: 100 times peak where 25 do, within two
        # rows; a dump that holds the field would add 75 rows
        n = 1024
        row = 16 * n

        def peak(count):
            times = np.linspace(0.0, 1.0, count)
            cfg = validate_config(_field_config({"kind": "uniform_fft", "n": n, "dx": "0.125"}, times))
            cli._write_field(cfg, tmp_path)  # warm-up: caches built on first use do not count
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                cli._write_field(cfg, tmp_path)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (tmp_path / "field.bin").stat().st_size == row * count
            return top - before

        assert peak(100) - peak(25) < 2 * row
