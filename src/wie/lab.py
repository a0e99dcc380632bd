"""Convergence ladders, divergence demos, decay profiles, bound audits.

The routines here orchestrate the solvers into the desk-scale experiments
the package exists to run: shrink the regularization along a ladder and
watch the selected trajectory approach the first-order flow, perturb the
selection and watch the truncated energy explode, sweep the weighted decay
profile of a forcing density, and grind every root estimate against every
grid node.  Results come back as plain dataclasses with as_dict() views so
the report writer can serialize them without knowing their internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .ode import (
    OdeProblem,
    eigendecompose,
    exact_solution,
    selected_minimizer,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, finite_interval
from .spectral import (
    SpectralProblem,
    energy_spectral,
    inequality_report,
    l2_norm,
    minimizer_hat,
    root_data,
    root_margins,
    semigroup_solution,
    vl_norm,
)
from .symbols import MultiplierSymbol

__all__ = [
    "LemmaTechProfile",
    "lemma_tech_profile",
    "BranchDivergenceResult",
    "branch_divergence",
    "LadderEntry",
    "ConvergenceReport",
    "convergence_study",
    "fit_rate",
    "AuditEntry",
    "BoundAuditResult",
    "bound_audit",
]


# ---- Weighted decay profile of a forcing density ----


@dataclass(frozen=True, eq=False)
class LemmaTechProfile:
    """G(t) = int_t^T exp(-(s-t)/eps) |g(s)| ds on a dense t grid."""

    eps: float
    horizon: float
    times: np.ndarray
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(self.values.max())

    @property
    def argmax(self) -> float:
        return float(self.times[int(np.argmax(self.values))])

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "horizon": self.horizon,
            "sup": self.sup,
            "argmax": self.argmax,
            "times": [float(t) for t in self.times],
            "values": [float(v) for v in self.values],
        }


def lemma_tech_profile(
    g: Callable,
    eps: float,
    horizon: float,
    time_points: int = 801,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> LemmaTechProfile:
    """Sweep the shifted weighted integral of |g| over a dense grid.

    Each value is computed in the shift-inside form, the decaying weight
    staying inside the integrand, so no overflow is possible.  The offset
    t + u is formed directly rather than through a difference of horizon
    terms: an integrable singularity of g at the origin then only ever
    sits at a panel endpoint, which the interior-node refinement
    tolerates.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if time_points < 2:
        raise ValueError("need at least two grid points")
    times = np.linspace(0.0, horizon, time_points)
    values = np.empty(times.shape)
    tol = max(spec.abs_tol, spec.panel_tol)
    for k, t in enumerate(times):
        t = float(t)
        remaining = horizon - t
        if remaining <= 0.0:
            values[k] = 0.0
            continue
        integrand = lambda u: math.exp(-u / eps) * abs(g(t + u))
        val, _err = finite_interval(integrand, 0.0, remaining, tol, max_panels=spec.max_panels)
        values[k] = val
    return LemmaTechProfile(eps=float(eps), horizon=float(horizon), times=times, values=values)


# ---- Perturbed-selection divergence ----


@dataclass(frozen=True, eq=False)
class BranchDivergenceResult:
    """Truncated weighted energies of a perturbed selection, per horizon.

    log_energies is always populated: the log of the numerical integral
    where it is representable, and of the closed-form leading term beyond
    the overflow horizon.  numeric_energies holds None past that point.
    """

    eps: float
    delta: float
    direction: int
    horizons: tuple
    numeric_energies: tuple
    log_energies: tuple
    closed_form_log: tuple
    slopes: tuple

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "delta": self.delta,
            "direction": self.direction,
            "horizons": list(self.horizons),
            "numeric_energies": list(self.numeric_energies),
            "log_energies": list(self.log_energies),
            "closed_form_log": list(self.closed_form_log),
            "slopes": list(self.slopes),
        }


def _log_leading_term(delta: float, eps: float, z: float, horizon: float) -> Optional[float]:
    """log of (delta^2 eps / Z) (exp(Z T / eps) - 1), computed stably."""
    if delta == 0.0:
        return None
    x = z * horizon / eps
    return 2.0 * math.log(abs(delta)) + math.log(eps / z) + x + math.log1p(-math.exp(-x))


def branch_divergence(
    problem: OdeProblem,
    eps: float,
    delta: float,
    horizons: Sequence[float],
    direction: int = 0,
    spec: QuadratureSpec = DEFAULT_SPEC,
    map_fn: Callable = map,
) -> BranchDivergenceResult:
    """Push the fast-branch initial coefficient off the selected value.

    The perturbed trajectory keeps the same initial state: the slow branch
    absorbs -delta while the fast branch takes +delta, in eigendirection
    `direction`.  Per horizon T the result records the truncated weighted
    energy int_0^T exp(-t/eps) |y(t)|^2 dt.  delta = 0 reproduces the
    selected trajectory, whose truncated energy saturates.
    """
    horizons = [float(T) for T in horizons]
    if any(T <= 0.0 for T in horizons) or any(
        b <= a for a, b in zip(horizons, horizons[1:])
    ):
        raise ValueError("horizons must be positive and strictly increasing")
    m = selected_minimizer(problem, eps, spec)
    i = int(direction)
    if not 0 <= i < problem.size:
        raise ValueError(f"direction {i} out of range for a system of size {problem.size}")
    lam = float(m.spectrum.slow[i])
    mu = float(m.spectrum.fast[i])
    z = float(m.spectrum.disc_sqrt[i])
    w = m.eigen.vectors[:, i]
    half_rate = 0.5 / eps

    def weighted_sq(t: float) -> float:
        # exp(-t/eps) |y(t)|^2, the weight split and folded in before squaring
        y = math.exp(-half_rate * t) * m(t)
        if delta != 0.0:
            bump = delta * (math.exp((mu - half_rate) * t) - math.exp((lam - half_rate) * t))
            y = y + bump * w
        return float(y @ y)

    def member(T: float):
        lead_log = _log_leading_term(delta, eps, z, T)
        # integrand peak ~ delta^2 exp(Z T / eps); stay inside double range
        if delta != 0.0 and (z * T / eps + 2.0 * math.log(abs(delta))) > 690.0:
            return None, lead_log, lead_log
        scale = math.exp(lead_log) if lead_log is not None else 1.0
        tol = 1e-10 * max(scale, 1.0)
        val, _err = finite_interval(weighted_sq, 0.0, T, tol, max_panels=spec.max_panels)
        return float(val), (math.log(val) if val > 0.0 else -math.inf), lead_log

    rows = list(map_fn(member, horizons))
    numeric = [r[0] for r in rows]
    logs = [r[1] for r in rows]
    closed = [r[2] for r in rows]
    slopes = tuple(
        (lb - la) / (Tb - Ta)
        for (la, lb, Ta, Tb) in zip(logs, logs[1:], horizons, horizons[1:])
    )
    return BranchDivergenceResult(
        eps=float(eps),
        delta=float(delta),
        direction=i,
        horizons=tuple(horizons),
        numeric_energies=tuple(numeric),
        log_energies=tuple(logs),
        closed_form_log=tuple(closed),
        slopes=slopes,
    )


# ---- Ladder studies ----


def fit_rate(epsilons: Sequence[float], errors: Sequence[float]):
    """Log-log slope of error against eps, with a confidence half-width.

    Weighted least squares; the two smallest-eps points count double since
    that is where the asymptotic regime lives.  Returns (rate, half_width),
    or (None, None) when fewer than two errors are positive.
    """
    eps_arr = np.asarray(epsilons, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
    keep = err_arr > 0.0
    if int(keep.sum()) < 2:
        return None, None
    x = np.log(eps_arr[keep])
    y = np.log(err_arr[keep])
    w = np.ones(x.shape)
    order = np.argsort(eps_arr[keep])
    w[order[:2]] = 2.0
    X = np.stack([np.ones(x.shape), x], axis=1)
    XtW = X.T * w
    cov = np.linalg.inv(XtW @ X)
    beta = cov @ (XtW @ y)
    resid = y - X @ beta
    dof = max(int(keep.sum()) - 2, 1)
    sigma_sq = float((w * resid**2).sum()) / dof
    half_width = 2.0 * math.sqrt(sigma_sq * cov[1, 1])
    return float(beta[1]), float(half_width)


@dataclass(frozen=True, eq=False)
class LadderEntry:
    eps: float
    sup_error: float
    energy: float
    audit_violations: int
    failure: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "sup_error": self.sup_error,
            "energy": self.energy,
            "audit_violations": self.audit_violations,
            "failure": self.failure,
        }


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    problem_id: str
    norm: str
    horizon: float
    entries: tuple
    fitted_rate: Optional[float]
    rate_half_width: Optional[float]
    verdicts: dict

    def as_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "norm": self.norm,
            "horizon": self.horizon,
            "entries": [e.as_dict() for e in self.entries],
            "fitted_rate": self.fitted_rate,
            "rate_half_width": self.rate_half_width,
            "verdicts": dict(self.verdicts),
        }


def _check_ladder(ladder) -> list:
    ladder = [float(e) for e in ladder]
    if not ladder or any(e <= 0.0 for e in ladder):
        raise ValueError("epsilon ladder must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must decrease strictly")
    return ladder


def _ode_study(problem, ladder, horizon, norm, times, spec, map_fn):
    reference = exact_solution(problem)
    ref_vals = [reference(t) for t in times]
    eigen = eigendecompose(problem.matrix)
    weights = 1.0 + np.abs(eigen.values)

    def member(eps):
        try:
            m = selected_minimizer(problem, eps, spec)
            sup = 0.0
            for t, ref in zip(times, ref_vals):
                diff = m(t) - ref
                if norm == "sup_vl":
                    c = eigen.project(diff)
                    val = math.sqrt(float(np.sum(weights * c * c)))
                else:
                    val = float(np.linalg.norm(diff))
                sup = max(sup, val)
            energy, _crossed = m.energy()
            report = inequality_report(root_data(eigen.values, eps, check=False))
            violations = sum(v["violations"] for v in report.values())
            return LadderEntry(eps, sup, energy, violations)
        except Exception as exc:
            return LadderEntry(eps, math.nan, math.nan, -1, failure=str(exc))

    return list(map_fn(member, ladder))


def _spectral_study(problem, ladder, horizon, norm, times, spec, map_fn):
    reference = semigroup_solution(problem)
    ref_vals = [reference.value(t) for t in times]
    w = problem.grid.weights
    ell = problem.symbol_values

    def member(eps):
        try:
            m = minimizer_hat(problem, eps)
            sup = 0.0
            for t, ref in zip(times, ref_vals):
                diff = m.value(t) - ref
                val = vl_norm(diff, w, ell) if norm == "sup_vl" else l2_norm(diff, w)
                sup = max(sup, val)
            energy, _crossed = energy_spectral(m.value, m.derivative, problem, eps, spec)
            report = inequality_report(m.roots)
            violations = sum(v["violations"] for v in report.values())
            return LadderEntry(eps, sup, energy, violations)
        except Exception as exc:
            return LadderEntry(eps, math.nan, math.nan, -1, failure=str(exc))

    return list(map_fn(member, ladder))


def convergence_study(
    problem: Union[OdeProblem, SpectralProblem],
    ladder: Sequence[float],
    horizon: float,
    norm: str = "sup_uniform",
    time_points: int = 201,
    spec: QuadratureSpec = DEFAULT_SPEC,
    problem_id: str = "study",
    map_fn: Callable = map,
) -> ConvergenceReport:
    """Shrink eps along the ladder and compare against the first-order flow.

    Per rung: the selected minimizer, its sup-norm distance to the
    reference over a dense grid on [0, horizon], its weighted energy, and
    the root-estimate violation count.  A failing rung is recorded and the
    study continues.  The fitted log-log rate is a diagnostic; the verdict
    that matters is monotone decay of the error.
    """
    ladder = _check_ladder(ladder)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if norm not in ("sup_uniform", "sup_vl"):
        raise ValueError(f"unknown norm {norm!r}")
    times = np.linspace(0.0, float(horizon), time_points)
    if isinstance(problem, OdeProblem):
        entries = _ode_study(problem, ladder, horizon, norm, times, spec, map_fn)
    elif isinstance(problem, SpectralProblem):
        entries = _spectral_study(problem, ladder, horizon, norm, times, spec, map_fn)
    else:
        raise TypeError(f"unsupported problem type {type(problem).__name__}")
    ok = [e for e in entries if e.failure is None]
    errors = [e.sup_error for e in ok]
    rate, half_width = fit_rate([e.eps for e in ok], errors)
    monotone = len(ok) == len(entries) and all(
        b < a or b == 0.0 for a, b in zip(errors, errors[1:])
    )
    verdicts = {
        "monotone_decay": bool(monotone),
        "all_members_completed": len(ok) == len(entries),
        "zero_audit_violations": all(e.audit_violations == 0 for e in ok),
    }
    return ConvergenceReport(
        problem_id=problem_id,
        norm=norm,
        horizon=float(horizon),
        entries=tuple(entries),
        fitted_rate=rate,
        rate_half_width=half_width,
        verdicts=verdicts,
    )


# ---- Root-estimate audits ----


@dataclass(frozen=True, eq=False)
class AuditEntry:
    eps: float
    counts: dict
    total_violations: int

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "total_violations": self.total_violations,
        }


@dataclass(frozen=True, eq=False)
class BoundAuditResult:
    symbol_name: str
    lower_bound: float
    entries: tuple
    violating_triples: tuple

    @property
    def clean(self) -> bool:
        return all(e.total_violations == 0 for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "symbol_name": self.symbol_name,
            "lower_bound": self.lower_bound,
            "clean": self.clean,
            "entries": [e.as_dict() for e in self.entries],
            "violating_triples": [list(t) for t in self.violating_triples],
        }


def bound_audit(
    symbol: MultiplierSymbol,
    ladder: Sequence[float],
    grid,
    tol: float = 1e-9,
    max_triples: int = 100,
) -> BoundAuditResult:
    """Grind the whole root-estimate bundle over grid x ladder.

    Violations are data, not errors: the result carries counts per
    inequality and eps, plus up to max_triples (frequency, eps, name)
    witnesses.  An eps outside the admissible range is a policy error and
    root_data raises before any audit happens.
    """
    ladder = _check_ladder(ladder)
    nodes = np.asarray(grid, dtype=float)
    vals = symbol(nodes)
    lower = min(0.0, float(np.min(vals)))
    entries = []
    triples = []
    for eps in ladder:
        rd = root_data(vals, eps, lower_bound=lower, check=False)
        counts = inequality_report(rd, tol=tol)
        total = sum(v["violations"] for v in counts.values())
        if total:
            for name, margin in root_margins(rd).items():
                for idx in np.flatnonzero(np.asarray(margin) < -tol):
                    if len(triples) < max_triples:
                        triples.append((float(nodes[idx]), float(eps), name))
        entries.append(AuditEntry(eps=eps, counts=counts, total_violations=total))
    return BoundAuditResult(
        symbol_name=symbol.name,
        lower_bound=lower,
        entries=tuple(entries),
        violating_triples=tuple(triples),
    )
