"""Command-line front end: validate configs, run studies, write reports.

Reports are deterministic on purpose: keys sorted, no timestamps, floats
serialized by their shortest round-trip repr.  Rerunning the same config
overwrites the same bytes, so diffing two report files answers "did
anything change" without ceremony.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import SCHEMA, ConfigError, ExperimentConfig, parse_config
from .forcing import TransformabilityError, certify_transformable
from .lab import bound_audit, branch_divergence, convergence_study, lemma_tech_profile
from .ode import eigendecompose, regularized_spectrum
from .spectral import SpectralField, minimizer_hat
from .symbols import AdmissibilityError

log = logging.getLogger("wie")

REPORT_NAME = "report.json"
SUMMARY_NAME = "summary.csv"
FIELD_NAME = "field.bin"
FIELD_META_NAME = "field_meta.json"


# ---- Deterministic serialization ----


def _jsonable(x):
    """Plain JSON types only; non-finite floats become their repr strings."""
    if isinstance(x, bool) or x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if isinstance(x, (np.floating,)):
        return _jsonable(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _dump_json(obj) -> bytes:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _dump_csv(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(x) for x in row])
    return buf.getvalue().encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    # full payload is in memory already, so the temp file is complete or absent
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---- Mode runners ----


@dataclass(frozen=True)
class RunOutcome:
    """What every mode runner hands to the report writer.

    header and rows become summary.csv; a run stopped before its study
    leaves both empty.
    """

    results: dict
    verdicts: dict
    failures: list
    header: tuple = ()
    rows: Sequence = ()


def _certify_ladder(cfg: ExperimentConfig, forcing, gram, epsilons):
    """One certificate per eps, or the failure entries that block the run."""
    certificates = []
    failures = []
    for eps in epsilons:
        try:
            cert = certify_transformable(forcing, eps, gram=gram, spec=cfg.quadrature)
            certificates.append(
                {
                    "epsilon": cert.epsilon_tested,
                    "weighted_norm": cert.weighted_norm,
                    "truncation_T": cert.truncation_T,
                    "tail_bound": cert.tail_bound,
                    "growth_rate": cert.growth.rate,
                }
            )
        except TransformabilityError as exc:
            failures.append(
                {"verdict": "transformability violated", "epsilon": eps, "detail": str(exc)}
            )
    return certificates, failures


def _run_study(cfg: ExperimentConfig, map_fn):
    problem = cfg.ode_problem if cfg.mode == "ode" else cfg.spectral_problem
    forcing = problem.forcing
    results: dict = {}
    failures: list = []
    verdicts: dict = {}

    if not forcing.is_zero:
        if cfg.mode == "ode":
            gram = forcing.gram()
        else:
            grid = problem.grid
            inner = lambda ha, hb: float(
                np.real(np.sum(grid.weights * np.conj(ha(grid.nodes)) * hb(grid.nodes)))
            )
            gram = forcing.gram(space_inner=inner)
        certificates, failures = _certify_ladder(cfg, forcing, gram, cfg.epsilon_ladder)
        results["transformability"] = certificates
        verdicts["transformability_certified"] = not failures
        if failures:
            return RunOutcome(results, verdicts, failures)

    report = convergence_study(
        problem,
        cfg.epsilon_ladder,
        cfg.horizon,
        norm=cfg.norm,
        time_points=cfg.time_points,
        spec=cfg.quadrature,
        problem_id=cfg.problem_id,
        map_fn=map_fn,
    )
    results["study"] = report.as_dict()
    verdicts.update(report.verdicts)

    rows = [
        (e.eps, e.sup_error, e.energy, e.audit_violations, e.failure) for e in report.entries
    ]
    header = ("epsilon", "sup_error", "energy", "audit_violations", "failure")
    return RunOutcome(results, verdicts, failures, header, rows)


def _run_lemma(cfg: ExperimentConfig, map_fn):
    def member(eps):
        try:
            prof = lemma_tech_profile(
                cfg.density, eps, cfg.horizon, time_points=cfg.time_points, spec=cfg.quadrature
            )
            return {"epsilon": eps, "sup": prof.sup, "argmax": prof.argmax, "failure": None}
        except Exception as exc:
            return {"epsilon": eps, "sup": None, "argmax": None, "failure": str(exc)}

    entries = list(map_fn(member, cfg.epsilon_ladder))
    sups = [e["sup"] for e in entries if e["failure"] is None]
    completed = len(sups) == len(entries)
    monotone = completed and all(b < a for a, b in zip(sups, sups[1:]))
    results = {"density": cfg.density_kind, "entries": entries}
    verdicts = {"all_members_completed": completed, "monotone_sup_decay": bool(monotone)}
    header = ("epsilon", "sup", "argmax", "failure")
    rows = [(e["epsilon"], e["sup"], e["argmax"], e["failure"]) for e in entries]
    return RunOutcome(results, verdicts, [], header, rows)


def _run_branch(cfg: ExperimentConfig, map_fn):
    problem = cfg.ode_problem
    forcing = problem.forcing
    failures: list = []
    results: dict = {}
    verdicts: dict = {}

    if not forcing.is_zero:
        certificates, failures = _certify_ladder(cfg, forcing, forcing.gram(), (cfg.epsilon,))
        results["transformability"] = certificates
        verdicts["transformability_certified"] = not failures
        if failures:
            return RunOutcome(results, verdicts, failures)

    try:
        res = branch_divergence(
            problem,
            cfg.epsilon,
            cfg.delta,
            cfg.horizons,
            direction=cfg.direction,
            spec=cfg.quadrature,
            map_fn=map_fn,
        )
    except AdmissibilityError as exc:
        failures.append(
            {"verdict": "admissibility violated", "epsilon": cfg.epsilon, "detail": str(exc)}
        )
        return RunOutcome(results, verdicts, failures)
    mu = float(eigendecompose(problem.matrix).values[cfg.direction])
    z = float(regularized_spectrum(mu, cfg.epsilon).disc_sqrt[0])
    results["branch"] = res.as_dict()
    results["divergence_rate"] = z / cfg.epsilon
    verdicts["log_energy_table_present"] = len(res.log_energies) == len(cfg.horizons) and all(
        v is not None for v in res.log_energies
    )
    header = ("horizon", "numeric_energy", "log_energy", "closed_form_log")
    rows = list(zip(res.horizons, res.numeric_energies, res.log_energies, res.closed_form_log))
    return RunOutcome(results, verdicts, failures, header, rows)


def _run_audit(cfg: ExperimentConfig, map_fn):
    res = bound_audit(cfg.symbol, cfg.epsilon_ladder, cfg.audit_grid, tol=cfg.audit_tol)
    results = {"audit": res.as_dict()}
    verdicts = {"zero_violations": res.clean}
    header = ("epsilon", "total_violations")
    rows = [(e.eps, e.total_violations) for e in res.entries]
    return RunOutcome(results, verdicts, [], header, rows)


def _write_field(cfg: ExperimentConfig, out_dir: Path) -> list:
    """Dump the best-resolved minimizer trajectory for offline plotting."""
    eps = cfg.epsilon_ladder[-1]
    m = minimizer_hat(cfg.spectral_problem, eps)
    times = cfg.field_times or tuple(np.linspace(0.0, cfg.horizon, 9))
    field = SpectralField.sample(m, cfg.spectral_problem.grid, times)
    _atomic_write(out_dir / FIELD_NAME, field.to_bytes())
    meta = field.meta()
    meta["epsilon"] = eps
    _atomic_write(out_dir / FIELD_META_NAME, _dump_json(meta))
    return [FIELD_NAME, FIELD_META_NAME]


_RUNNERS = {
    "ode": _run_study,
    "spectral": _run_study,
    "lemma-tech": _run_lemma,
    "branch-divergence": _run_branch,
    "bound-audit": _run_audit,
}


def run_experiment(cfg: ExperimentConfig, out_dir=".", threads: int = 1) -> int:
    """Run one config, write report.json and summary.csv, return exit code.

    Exit 0 means every verdict passed and nothing failed; any other outcome
    leaves a machine-readable failure summary inside report.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[cfg.mode]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcome = runner(cfg, pool.map)
    else:
        outcome = runner(cfg, map)

    verdicts = outcome.verdicts
    failures = list(outcome.failures)
    for name, ok in verdicts.items():
        if not ok:
            failures.append({"verdict": name, "detail": "verdict failed"})

    written = [REPORT_NAME, SUMMARY_NAME]
    if cfg.mode == "spectral" and cfg.write_field and not failures:
        written += _write_field(cfg, out)

    report = {
        "schema_version": 1,
        "mode": cfg.mode,
        "problem_id": cfg.problem_id,
        "config": cfg.raw,
        "results": outcome.results,
        "verdicts": verdicts,
        "failures": failures,
        "artifacts": sorted(written),
    }
    _atomic_write(out / REPORT_NAME, _dump_json(report))
    _atomic_write(out / SUMMARY_NAME, _dump_csv(outcome.header, outcome.rows))

    if failures:
        log.warning("%d failure(s); see %s", len(failures), out / REPORT_NAME)
        return 1
    log.info("all verdicts passed; report in %s", out / REPORT_NAME)
    return 0


# ---- Entry point ----


def _env(name: str, fallback):
    return os.environ.get("WIE_" + name, fallback)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wie",
        description="Weighted-energy selection experiments: studies, audits, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None, help="report directory (env WIE_OUT_DIR)")
        p.add_argument("--threads", default=None, help="worker threads, 1 = serial (env WIE_THREADS)")
        p.add_argument("--log-level", default=None, help="debug|info|warning|error (env WIE_LOG_LEVEL)")

    run_p = sub.add_parser("run", help="execute a config and write reports")
    run_p.add_argument("config", help="path to a JSON experiment config")
    common(run_p)

    val_p = sub.add_parser("validate", help="check a config and list every violation")
    val_p.add_argument("config", help="path to a JSON experiment config")
    common(val_p)

    sch_p = sub.add_parser("schema", help="print the config schema as JSON")
    common(sch_p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    level = (args.log_level or _env("LOG_LEVEL", "info")).upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(message)s")

    if args.command == "schema":
        sys.stdout.write(_dump_json(SCHEMA).decode("utf-8"))
        return 0

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {args.config} is a valid {cfg.mode} config")
        return 0

    out_dir = args.out_dir or _env("OUT_DIR", ".")
    try:
        threads = int(args.threads if args.threads is not None else _env("THREADS", "1"))
    except ValueError:
        print("invalid: --threads must be an integer", file=sys.stderr)
        return 2
    if threads < 1:
        print("invalid: --threads must be at least 1", file=sys.stderr)
        return 2

    try:
        return run_experiment(cfg, out_dir=out_dir, threads=threads)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
