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
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import SCHEMA, ConfigError, ExperimentConfig, parse_config
from .contract import ExponentOverflowError, QuadratureError, QuadratureFailure
from .forcing import TransformabilityError, certify_transformable
from .lab import convergence_study, lemma_tech_profile
from .spectral import SpectralField, minimizer_hat
from .symbols import AdmissibilityError, admissible_discriminant

REPORT_NAME = "report.json"
SUMMARY_NAME = "summary.csv"
FIELD_NAME = "field.bin"
FIELD_META_NAME = "field_meta.json"

# --log-level names, upper-cased, by severity as the logging module ranks them;
# any other name means INFO.  A line is written when its severity reaches the level.
_LOG_LEVELS = {
    "NOTSET": 0,
    "DEBUG": 10,
    "INFO": 20,
    "WARN": 30,
    "WARNING": 30,
    "ERROR": 40,
    "CRITICAL": 50,
    "FATAL": 50,
}


# ---- Deterministic serialization ----


def _jsonable(x):
    """Plain JSON types only: a named tuple becomes the object of its fields,
    a non-finite float its repr string."""
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
    if hasattr(x, "_asdict"):
        return _jsonable(x._asdict())
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


def _atomic_write(path: Path, chunks) -> None:
    """Replace path with the bytes-like chunks, in turn, whole or not at all.

    The chunks may be formed as they are written (a field row by row); a
    failed chunk, write or rename removes the temp file and re-raises, so
    path keeps its old bytes or gets every new one.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                del chunk  # freed before the next chunk is formed
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---- Mode runners ----


class RunOutcome:
    """What every mode runner hands to the report writer.

    header and rows become summary.csv; a run stopped before its study
    leaves both empty.  A plain class: it is read only by attribute.
    """

    def __init__(
        self, results: dict, verdicts: dict, failures: list, header: tuple = (), rows: Sequence = ()
    ):
        self.results = results
        self.verdicts = verdicts
        self.failures = failures
        self.header = header
        self.rows = rows
        self.rung = None  # a study's last rung when it completed, which the field dump samples


def _certified(cfg: ExperimentConfig, epsilons) -> RunOutcome:
    """The outcome of certifying cfg.problem's forcing at each eps.

    An unforced problem needs no certificate and leaves the outcome empty;
    otherwise it holds one certificate per eps, and a failure entry for
    each eps that blocks the run.
    """
    forcing = cfg.problem.forcing
    outcome = RunOutcome({}, {}, [])
    if forcing.is_zero:
        return outcome
    gram = cfg.problem.forcing_gram()
    certificates = []
    for eps in epsilons:
        try:
            certificates.append(certify_transformable(forcing, eps, gram=gram, spec=cfg.quadrature))
        except TransformabilityError as exc:
            outcome.failures.append(
                {"verdict": "transformability violated", "epsilon": eps, "detail": str(exc)}
            )
        except QuadratureError as exc:
            # a declared growth that understates a rate can leave the weighted norm divergent
            detail = f"transformability certificate at eps={eps:g}: {exc}"
            verdict = "transformability not certified"
            outcome.failures.append({"verdict": verdict, "epsilon": eps, "detail": detail})
    outcome.results["transformability"] = certificates
    outcome.verdicts["transformability_certified"] = not outcome.failures
    return outcome


def _run_study(cfg: ExperimentConfig):
    outcome = _certified(cfg, cfg.epsilon_ladder)
    if outcome.failures:
        return outcome

    report = convergence_study(
        cfg.problem,
        cfg.epsilon_ladder,
        cfg.horizon,
        norm=cfg.norm,
        time_points=cfg.time_points,
        spec=cfg.quadrature,
        problem_id=cfg.problem_id,
    )
    study = report._asdict()
    outcome.rung = study.pop("minimizer")  # the field dump's, not a report key
    outcome.results["study"] = study
    outcome.verdicts.update(report.verdicts)
    outcome.header = ("epsilon", "sup_error", "energy", "audit_violations", "failure")
    outcome.rows = [
        (e.eps, e.sup_error, e.energy, e.audit_violations, e.failure) for e in report.entries
    ]
    return outcome


def _run_lemma(cfg: ExperimentConfig):
    def member(eps):
        try:
            prof = lemma_tech_profile(cfg.density, eps, cfg.horizon, time_points=cfg.time_points)
            return {"epsilon": eps, "sup": prof.sup, "argmax": prof.argmax, "failure": None}
        except Exception as exc:
            return {"epsilon": eps, "sup": None, "argmax": None, "failure": str(exc)}

    entries = [member(eps) for eps in cfg.epsilon_ladder]
    failures = [
        {"verdict": "lemma-tech rung failed", "epsilon": e["epsilon"], "detail": e["failure"]}
        for e in entries
        if e["failure"] is not None
    ]
    sups = [e["sup"] for e in entries if e["failure"] is None]
    completed = len(sups) == len(entries)
    monotone = completed and all(b < a for a, b in zip(sups, sups[1:]))
    g = cfg.density
    label = {"power": f"power[{g.degree}]", "exponential": f"exponential[{g.rate}]"}
    results = {"density": label.get(g.kind, g.kind), "entries": entries}
    verdicts = {"all_members_completed": completed, "monotone_sup_decay": bool(monotone)}
    header = ("epsilon", "sup", "argmax", "failure")
    rows = [(e["epsilon"], e["sup"], e["argmax"], e["failure"]) for e in entries]
    return RunOutcome(results, verdicts, failures, header, rows)


def _run_branch(cfg: ExperimentConfig):
    from .ode import branch_divergence  # a spectral run never imports the ODE module
    outcome = _certified(cfg, (cfg.epsilon,))
    if outcome.failures:
        return outcome

    try:
        res = branch_divergence(
            cfg.problem,
            cfg.epsilon,
            cfg.delta,
            cfg.horizons,
            direction=cfg.direction,
            spec=cfg.quadrature,
        )
    except AdmissibilityError as exc:
        outcome.failures.append(
            {"verdict": "admissibility violated", "epsilon": cfg.epsilon, "detail": str(exc)}
        )
        return outcome
    except (QuadratureFailure, ExponentOverflowError) as exc:
        verdict = "quadrature contract missed" if isinstance(exc, QuadratureFailure) else "exponent cap passed"
        outcome.failures.append({"verdict": verdict, "epsilon": cfg.epsilon, "detail": str(exc)})
        # the horizons before the failing one keep their rows
        res = exc.completed
        if res is None:
            return outcome
    mu = cfg.problem.eigen.values[cfg.direction]
    z = math.sqrt(float(admissible_discriminant(mu, cfg.epsilon)[0]))
    outcome.results["branch"] = res
    outcome.results["divergence_rate"] = z / cfg.epsilon
    if not outcome.failures:
        outcome.verdicts["log_energy_table_present"] = all(v is not None for v in res.log_energies)
    outcome.header = ("horizon", "numeric_energy", "log_energy", "closed_form_log")
    outcome.rows = list(
        zip(res.horizons, res.numeric_energies, res.log_energies, res.closed_form_log)
    )
    return outcome


def _run_audit(cfg: ExperimentConfig):
    from .audit import bound_audit  # only an audit run imports the audit
    res = bound_audit(cfg.symbol, cfg.epsilon_ladder, cfg.audit_grid, tol=cfg.audit_tol)
    results = {"audit": res}
    verdicts = {"zero_violations": res.clean}
    header = ("epsilon", "total_violations")
    rows = [(e.eps, e.total_violations) for e in res.entries]
    return RunOutcome(results, verdicts, [], header, rows)


def _write_field(cfg: ExperimentConfig, out_dir: Path, m=None) -> list:
    """Dump the best-resolved trajectory for offline plotting: m, else a rung built at the last eps.

    Each time is sampled as a one-row field and written before the next,
    so the dump holds one row of the field, whatever the number of times.
    A time past the exponent cap raises ExponentOverflowError naming it,
    and leaves no field file.
    """
    eps = cfg.epsilon_ladder[-1]
    grid = cfg.problem.grid
    m = minimizer_hat(cfg.problem, eps) if m is None else m
    times = np.asarray(cfg.field_times or np.linspace(0.0, cfg.horizon, 9), dtype=float)

    def row(t):
        try:
            return SpectralField.sample(m, grid, [t]).to_bytes()
        except ExponentOverflowError as exc:
            raise ExponentOverflowError(f"field dump at eps={eps:g}, t={t:g}: {exc}") from exc

    _atomic_write(out_dir / FIELD_NAME, map(row, times))
    meta = SpectralField(times, grid, None).meta()
    meta["epsilon"] = eps
    _atomic_write(out_dir / FIELD_META_NAME, [_dump_json(meta)])
    return [FIELD_NAME, FIELD_META_NAME]


_RUNNERS = {
    "ode": _run_study,
    "spectral": _run_study,
    "lemma-tech": _run_lemma,
    "branch-divergence": _run_branch,
    "bound-audit": _run_audit,
}


def run_experiment(cfg: ExperimentConfig, out_dir=".", log_level: int = _LOG_LEVELS["INFO"]) -> int:
    """Run one config, write report.json and summary.csv, return exit code.

    Exit 0 means every verdict passed and nothing failed; any other outcome
    leaves a machine-readable failure summary inside report.json.  The
    outcome is one stderr line, INFO on success and WARNING on failure,
    written when its severity reaches log_level (see _LOG_LEVELS).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outcome = _RUNNERS[cfg.mode](cfg)

    verdicts = outcome.verdicts
    failures = list(outcome.failures)
    for name, ok in verdicts.items():
        if not ok:
            failures.append({"verdict": name, "detail": "verdict failed"})

    written = [REPORT_NAME, SUMMARY_NAME]
    if cfg.mode == "spectral" and cfg.write_field and not failures:
        try:
            written += _write_field(cfg, out, outcome.rung)
        except ExponentOverflowError as exc:
            failures.append({"verdict": "field dump failed", "detail": str(exc)})

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
    _atomic_write(out / REPORT_NAME, [_dump_json(report)])
    _atomic_write(out / SUMMARY_NAME, [_dump_csv(outcome.header, outcome.rows)])

    if failures:
        if log_level <= _LOG_LEVELS["WARNING"]:
            print(f"WARNING {len(failures)} failure(s); see {out / REPORT_NAME}", file=sys.stderr)
        return 1
    if log_level <= _LOG_LEVELS["INFO"]:
        print(f"INFO all verdicts passed; report in {out / REPORT_NAME}", file=sys.stderr)
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
        p.add_argument("--threads", default=None, help="accepted and ignored: runs are serial")
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

    name = (args.log_level or _env("LOG_LEVEL", "info")).upper()
    level = _LOG_LEVELS.get(name, _LOG_LEVELS["INFO"])

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
    # runs are serial and ignore --threads, but still refuse a value that is not a count
    if args.threads is not None:
        try:
            threads = int(args.threads)
        except ValueError:
            print("invalid: --threads must be an integer", file=sys.stderr)
            return 2
        if threads < 1:
            print("invalid: --threads must be at least 1", file=sys.stderr)
            return 2

    try:
        return run_experiment(cfg, out_dir=out_dir, log_level=level)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
