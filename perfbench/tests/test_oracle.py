"""The oracle accepts the program's reports and flags perturbed ones."""

import copy
import json

import numpy as np
import pytest

import oracle
from run import check_samples, tail_percentile
from workloads import WORKLOADS, lemma_sqrt, ode_forced


@pytest.fixture(scope="module")
def ode_case(tmp_path_factory):
    """A shortened ode-forced config and the report `wie run` writes for it."""
    from wie.cli import main

    config = ode_forced(3)
    config["epsilon_ladder"] = ["1e-1", "1e-2"]
    config["time_points"] = 21
    tmp = tmp_path_factory.mktemp("ode")
    (tmp / "config.json").write_text(json.dumps(config))
    rc = main(["run", str(tmp / "config.json"), "--out-dir", str(tmp), "--log-level", "error"])
    assert rc == 0
    return config, (tmp / "report.json").read_bytes()


def test_program_report_passes(ode_case):
    config, report = ode_case
    checks = oracle.check(config, json.loads(report))
    assert [c["ok"] for c in checks] == [True, True], checks


@pytest.mark.parametrize(
    "field, change",
    [
        ("sup_error", lambda v: v * (1.0 + 1e-6)),
        ("energy", lambda v: v * (1.0 + 1e-7)),
        ("audit_violations", lambda v: 1),
        ("failure", lambda v: "boom"),
    ],
)
def test_perturbed_report_is_flagged(ode_case, field, change):
    config, report = ode_case
    bad = json.loads(report)
    entry = bad["results"]["study"]["entries"][1]
    entry[field] = change(entry[field])
    checks = oracle.check(config, bad)
    assert [c["ok"] for c in checks] == [True, False]


def test_false_verdict_fails_every_rung(ode_case):
    config, report = ode_case
    bad = json.loads(report)
    bad["verdicts"]["monotone_decay"] = False
    assert not any(c["ok"] for c in oracle.check(config, bad))


def test_report_missing_its_results_fails_every_rung(ode_case):
    config, report = ode_case
    bad = json.loads(report)
    del bad["results"]["study"]
    assert [c["ok"] for c in oracle.check(config, bad)] == [False, False]


def test_nondeterministic_report_counts_as_failed(ode_case):
    config, report = ode_case
    other = report.replace(b'"epsilon"', b'"epsilon" ', 1)
    samples = [{"exit_code": 0, "report": report}, {"exit_code": 0, "report": other}]
    attempted, failed, messages = check_samples(config, samples)
    assert (attempted, failed) == (4, 2)
    assert any("not deterministic" in m for m in messages)


def test_nearly_resonant_rates_stay_finite():
    # forcing rate equal to the flow rate and to the slow root
    lam = np.array([0.3, 1.2])
    modes = oracle.Modes(lam, np.ones(2), np.ones(2), [np.ones(2)], [-0.3])
    t = np.linspace(0.0, 1.0, 5)[:, None]
    flow = modes.flow(t)
    np.testing.assert_allclose(flow[:, 0], np.exp(-0.3 * t[:, 0]) * (1.0 + t[:, 0]))
    val, der = modes.selected(1e-2, t)
    assert np.all(np.isfinite(val)) and np.all(np.isfinite(der))


def test_lemma_oracle_uses_the_closed_form():
    config = lemma_sqrt(0)
    exact = [oracle.lemma_exact_sup(float(e), 1.0) for e in config["epsilon_ladder"]]
    report = {
        "results": {
            "entries": [{"epsilon": float(e), "sup": v, "argmax": 0.0, "failure": None}
                        for e, v in zip(config["epsilon_ladder"], exact)]
        },
        "verdicts": {"all_members_completed": True},
    }
    assert all(c["ok"] for c in oracle.check(config, report))
    assert exact[2] == pytest.approx(0.0560499, abs=1e-7)
    bad = copy.deepcopy(report)
    bad["results"]["entries"][3]["sup"] = 1.267e-4
    assert [c["ok"] for c in oracle.check(config, bad)] == [True, True, True, False]


def test_workloads_are_seeded_and_valid():
    from wie.config import validate_config

    assert ode_forced(5) == ode_forced(5)
    assert ode_forced(5)["matrix"] != ode_forced(6)["matrix"]
    for name, (build, why) in WORKLOADS.items():
        config = build(1)
        validate_config(json.loads(json.dumps(config)))
        assert why and "\n" not in why and len(why) <= 200
        for profile in [p["profile"] for p in config.get("forcing", {}).get("parts", [])]:
            assert profile["kind"] == "exponential"
    # numbers are repr strings, so they round-trip exactly
    row = ode_forced(5)["matrix"][0]
    assert all(repr(float(x)) == x for x in row)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (pytest.approx(100.0 / 11), 0)
    pct, value = tail_percentile([float(v) for v in range(100)])
    assert pct == pytest.approx(90.0) and value == 89.0
