"""Convergence ladders, divergence demos, decay profiles, bound audits.

The routines here orchestrate the solvers into the desk-scale experiments
the package exists to run: shrink the regularization along a ladder and
watch the selected trajectory approach the first-order flow, perturb the
selection and watch the truncated energy explode, sweep the weighted decay
profile of a forcing density, and grind every root estimate against every
grid node.  Results come back as named tuples with as_dict() views so the
report writer can serialize them without knowing their internals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .forcing import (
    _ExpDifference,
    _ExpSecondDifference,
    _exponential_form,
    _refuse_slow_tail,
)
from .quadrature import (
    DEFAULT_SPEC,
    EXPONENT_CAP,
    QuadratureFailure,
    QuadratureSpec,
    _exp_guarded,
    _refuse_past_cap,
    finite_interval,
)
from .spectral import (
    SelectedSpectralMinimizer,
    SpectralProblem,
    inequality_report,
    minimizer_hat,
    root_data,
    root_margins,
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


class LemmaTechProfile(NamedTuple):
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

    Each value is computed in the scaled variable v = (s - t)/eps,

        G(t) = eps * int_0^((T-t)/eps) exp(-v) |g(t + eps v)| dv,

    split at v = 1, 2, 4, ..., so the weight's peak of width eps always
    meets a panel of unit width, whatever eps is.  The first panel is taken
    in v = w^2, which turns an s^-a singularity of g at the origin into
    the integrable w^(1-2a) and, for a <= 1/2, into a bounded integrand.
    The offset t + eps v is formed directly, so the singularity only ever
    sits at a panel endpoint.  Each value meets the QuadratureSpec contract
    abs_tol + rel_tol*|value| by its summed error estimate, or the sweep
    raises QuadratureFailure naming eps and t.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if time_points < 2:
        raise ValueError("need at least two grid points")
    times = np.linspace(0.0, horizon, time_points)
    values = np.empty(times.shape)
    for k, t in enumerate(times):
        t = float(t)
        span = (horizon - t) / eps
        if span <= 0.0:
            values[k] = 0.0
            continue
        splits = [min(span, 1.0)]
        while splits[-1] < span:
            splits.append(min(2.0 * splits[-1], span))
        panel_tol = spec.abs_tol / (eps * len(splits))
        head = lambda w: 2.0 * w * math.exp(-w * w) * abs(g(t + eps * (w * w)))
        body = lambda v: math.exp(-v) * abs(g(t + eps * v))
        try:
            val, err = finite_interval(
                head, 0.0, math.sqrt(splits[0]), panel_tol, max_panels=spec.max_panels
            )
            for lo, hi in zip(splits, splits[1:]):
                v, e = finite_interval(body, lo, hi, panel_tol, max_panels=spec.max_panels)
                val += v
                err += e
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"lemma-tech sweep at eps={eps:g}, t={t:g}: {exc}",
                partial=eps * exc.partial,
                error_estimate=eps * exc.error_estimate,
            ) from exc
        value, error = eps * val, eps * err
        bound = spec.abs_tol + spec.rel_tol * abs(value)
        if error > bound:
            raise QuadratureFailure(
                f"lemma-tech sweep at eps={eps:g}, t={t:g}: error estimate "
                f"{error:.3e} misses the contract {bound:.3e}",
                partial=value,
                error_estimate=error,
            )
        values[k] = value
    return LemmaTechProfile(eps=float(eps), horizon=float(horizon), times=times, values=values)


# ---- Perturbed-selection divergence ----


class BranchDivergenceResult(NamedTuple):
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
) -> BranchDivergenceResult:
    """Push the fast-branch initial coefficient off the selected value.

    The perturbed trajectory keeps the same initial state: the slow branch
    absorbs -delta while the fast branch takes +delta, in eigendirection
    `direction`.  Per horizon T the result records the truncated weighted
    energy int_0^T exp(-t/eps) |y(t)|^2 dt.  delta = 0 reproduces the
    selected trajectory, whose truncated energy saturates.  Each energy
    meets the QuadratureSpec contract abs_tol + rel_tol*|value| by its
    error estimate, or the call raises QuadratureFailure naming eps and T.
    """
    from .ode import selected_minimizer

    horizons = [float(T) for T in horizons]
    if any(T <= 0.0 for T in horizons) or any(
        b <= a for a, b in zip(horizons, horizons[1:])
    ):
        raise ValueError("horizons must be positive and strictly increasing")
    m = selected_minimizer(problem, eps, spec)
    i = int(direction)
    if not 0 <= i < problem.size:
        raise ValueError(f"direction {i} out of range for a system of size {problem.size}")
    k = int(problem._modal.distinct.inverse[i])  # the roots are per distinct eigenvalue
    lam = float(m.spectrum.slow[k])
    mu = float(m.spectrum.fast[k])
    z = float(m.spectrum.disc_sqrt[k])
    w = m.eigen.vectors[:, i]
    half_rate = 0.5 / eps

    def weighted_sq(t: float) -> float:
        # exp(-t/eps) |y(t)|^2, the weight split and folded in before squaring
        y = math.exp(-half_rate * t) * m.value(t)
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
        where = f"branch divergence at eps={eps:g}, T={T:g}"
        tol = spec.abs_tol + spec.rel_tol * scale
        try:
            for _attempt in range(2):
                val, err = finite_interval(weighted_sq, 0.0, T, tol, max_panels=spec.max_panels)
                bound = spec.abs_tol + spec.rel_tol * abs(val)
                if err <= bound:
                    break
                # the value came out below the scale asked for: ask at its own contract
                tol = 0.5 * bound
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"{where}: {exc}", partial=exc.partial, error_estimate=exc.error_estimate
            ) from exc
        if err > bound:
            raise QuadratureFailure(
                f"{where}: error estimate {err:.3e} misses the contract {bound:.3e}",
                partial=val,
                error_estimate=err,
            )
        return float(val), (math.log(val) if val > 0.0 else -math.inf), lead_log

    rows = [member(T) for T in horizons]
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


class LadderEntry(NamedTuple):
    """One rung; energy_source is "exact" or "gauss_laguerre", None on a failed rung."""

    eps: float
    sup_error: float
    energy: float
    audit_violations: int
    failure: Optional[str] = None
    energy_source: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "sup_error": self.sup_error,
            "energy": self.energy,
            "energy_source": self.energy_source,
            "audit_violations": self.audit_violations,
            "failure": self.failure,
        }

    @classmethod
    def failed(cls, eps: float, exc: Exception) -> "LadderEntry":
        return cls(eps, math.nan, math.nan, -1, failure=str(exc))


class ConvergenceReport(NamedTuple):
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


def _run_rungs(ladder, build, sweep, finish) -> list:
    """The rung bookkeeping of both studies: build, sweep side by side, finish.

    build(eps) makes a rung.  sweep(live), given the built rungs by index,
    returns per index the rung's sup error over the time grid, or the
    exception that stopped it.  finish(eps, rung, sup) makes the rung's
    LadderEntry.  A rung that raises anywhere becomes a failure entry, and
    the other rungs go on.
    """
    entries = [None] * len(ladder)
    live = {}
    for i, eps in enumerate(ladder):
        try:
            live[i] = build(eps)
        except Exception as exc:
            entries[i] = LadderEntry.failed(eps, exc)
    sups = sweep(live) if live else {}
    for i, m in live.items():
        outcome = sups[i]
        if not isinstance(outcome, Exception):
            try:
                entries[i] = finish(ladder[i], m, outcome)
                continue
            except Exception as exc:
                outcome = exc
        entries[i] = LadderEntry.failed(ladder[i], outcome)
    return entries


def _ode_study(problem, ladder, norm, times, spec):
    """The rungs side by side: the reference and each rung evaluated once on the whole grid.

    The distances are taken in modal coordinates, on the blocks that the
    spectral solvers give on the problem's eigenbasis: the basis is
    orthonormal, so sum w d^2 over the modes, with w = 1, or 1 + |mu| for
    the graph norm, is the squared distance.  A (times x modes) block is
    small.
    """
    from .ode import exact_solution, selected_minimizer

    modal = problem._modal
    w = modal.weights
    if norm == "sup_vl":
        w = w * (1.0 + np.abs(modal.symbol_values))

    def sweep(live):
        try:
            ref = exact_solution(problem)._solver.value(times)
        except Exception as exc:
            return dict.fromkeys(live, exc)
        sups = {}
        for i, m in live.items():
            try:
                d = m._solver.value(times)
                d -= ref
                d *= d
                d *= w
                sups[i] = math.sqrt(float(d.sum(axis=1).max()))
            except Exception as exc:
                sups[i] = exc
        return sups

    def finish(eps, m, sup):
        energy, _crossed, source = m.energy()
        # selected_minimizer checks the root bundle at tol 1e-9 and raises on any violation
        return LadderEntry(eps, sup, energy, 0, energy_source=source)

    return _run_rungs(ladder, lambda eps: selected_minimizer(problem, eps, spec), sweep, finish)


# a rung on the distinct symbol values (_SpectralGap.rung); parts holds per forcing part
# its _ExponentialGap, or for a power or sampled part its tail_j(f, 0)/z
_Rung = namedtuple("_Rung", "eps slow fast disc_sqrt slow_sq slow_max growth_rate parts")


class _ExponentialGap:
    """b(t) of one part A exp(r t) on one rung, from one first and one second difference.

    With f - s = z/eps and f + s = 1/eps, the generic route's terms collapse:

        b(t) = A D[s, r] (s + r)/(f - r) + A (D[s, r] - D[-ell, r]),

    D the first divided difference of x -> exp(x t) and the last term
    A delta E[-ell, s, r] (forcing._ExpSecondDifference).  Both are O(eps)
    with no cancellation.  Everything independent of t is built here; the
    rung refuses a tail rate f at or below the growth rate as
    shifted_tail(f, 0) did.
    """

    def __init__(self, amplitude, rate, ell, slow, fast, delta, growth_rate):
        _refuse_slow_tail(fast, max(growth_rate, rate))
        self.kappa = amplitude * (slow + rate) / (fast - rate)
        # s - r = delta - (ell + r), which keeps the digits of a small delta
        self.first = _ExpDifference(slow, rate, gap=delta - (ell + rate))
        self.second = _ExpSecondDifference(-ell, delta, rate, amplitude)

    def __call__(self, t: float, a, grow, flow) -> np.ndarray:
        """b at t > 0 from a = exp(s t) - exp(-ell t), grow = exp(s t) and the flow's D[-ell, r]."""
        first = self.first(t, grow)
        b = self.second(t, a, first, flow)
        b += np.multiply(self.kappa, first, out=first)
        return b


class _SpectralGap:
    """Squared distances of the rungs to the first-order flow, from real kernels.

    Per node, with slow and fast roots s and f and discriminant root z,

        u_eps(t) - u_0(t) = a(t) c0 + sum_j b_j(t) H_j,
        a(t)   = exp(-ell t) expm1(delta t),  delta = s + ell = eps s^2,

    delta has no cancellation.  Past the exponent cap exp(-ell t) may be
    denormal and expm1(delta t) overflow, so a(t) is then
    -exp(s t) expm1(-delta t).  A constant or exponential part takes b_j
    from _ExponentialGap; a power or sampled part from its generic kernels,

        b_j(t) = (duhamel_j(s, t) + tail_j(f, t))/z - duhamel_j(-ell, t) - exp(s t) tail0_j,

    with tail0_j = tail_j(f, 0)/z from the rung's initial correction.  Each
    kernel runs once per distinct symbol value u, and the nodes of u fold
    into an upper triangle R_u (_fold): their sum of
    w |a c0 + sum_j b_j H_j|^2 is |R_u (a, b_1, ..., b_J)|^2.
    """

    def __init__(self, problem: SpectralProblem, weights: np.ndarray):
        self.problem = problem
        distinct = problem.distinct
        ell = self.ell = distinct.values
        self.highest = float(ell[-1])
        columns = [problem.initial_hat] + [H for _g, H in problem.forcing_parts]
        self.factor = _fold(weights, columns, distinct)
        self.decay, self.grow, self.alpha = (np.empty(ell.shape) for _ in range(3))
        forms = [_exponential_form([g]) for g, _H in problem.forcing_parts]
        # (amplitude, rate) of each constant or exponential part, None for the others
        self.forms = [None if f is None else (f[0][0], f[1][0]) for f in forms]
        # the flow's D[-ell, r], its rate arrays formed once per study
        self.flows = [
            None if f is None else _ExpDifference(-ell, f[1], gap=-(ell + f[1]))
            for f in self.forms
        ]
        self.generic = any(form is None for form in self.forms)

    def rung(self, m: SelectedSpectralMinimizer) -> _Rung:
        """The rung's roots, on the distinct values already, and each part's t-independent terms."""
        r = m.roots
        slow, fast, z = r.slow, r.fast, r.disc_sqrt
        slow_sq = slow * slow
        parts = [
            g.shifted_tail(fast, 0.0, m.growth_rate) / z
            if form is None
            else _ExponentialGap(*form, self.ell, slow, fast, m.eps * slow_sq, m.growth_rate)
            for (g, _H), form in zip(self.problem.forcing_parts, self.forms)
        ]
        if not self.generic:
            fast = z = None  # only the generic route reads them per time
        return _Rung(m.eps, slow, fast, z, slow_sq, float(slow.max()), m.growth_rate, parts)

    def flow(self, t: float) -> tuple:
        """(exp(-ell t), or None past the cap, and each part's flow term at t).

        The flow term is D[-ell, r] for a constant or exponential part and
        duhamel(-ell, t) for the others.
        """
        decay = _exp_guarded(np.multiply(self.ell, -t, out=self.decay))
        if self.highest * t > EXPONENT_CAP:
            decay = None
        # past the cap the clamped exp(-ell t) still gives each D[-ell, r] its exp(max(-ell, r) t)
        terms = [
            g.duhamel(-self.ell, t) if d is None else d(t, self.decay)
            for (g, _H), d in zip(self.problem.forcing_parts, self.flows)
        ]
        return decay, terms

    def gap_sq(self, m: _Rung, t: float, flow: tuple) -> float:
        decay, terms = flow
        a = np.multiply(m.slow_sq, m.eps * t, out=self.alpha)
        if decay is not None:
            _refuse_past_cap(m.slow_max * t)  # the largest exponent of exp(s t)
            np.expm1(a, out=a)
            a *= decay
            grow = decay + a if self.problem.forcing_parts else None
        else:
            grow = _exp_guarded(np.multiply(m.slow, t, out=self.grow))
            np.negative(a, out=a)
            np.expm1(a, out=a)
            a *= grow
            np.negative(a, out=a)
        x = [a]
        for (g, _H), part, term in zip(self.problem.forcing_parts, m.parts, terms):
            if isinstance(part, _ExponentialGap):
                x.append(part(t, a, grow, term) if t > 0.0 else np.zeros(a.shape))
                continue
            b = g.duhamel(m.slow, t)
            b += g.shifted_tail(m.fast, t, m.growth_rate)
            b /= m.disc_sqrt
            b -= term
            b -= grow * part
            x.append(b)
        # y_i = sum_{k >= i} R_ik x_k, formed in place of x_i, which no later row reads
        total = 0.0
        for i, (row, y) in enumerate(zip(self.factor, x)):
            y *= row[i]
            for r, xk in zip(row[i + 1 :], x[i + 1 :]):
                y += r * xk
            total += float(np.dot(y, y))
        return total


# values per batched QR of _fold: a chunk of 4096 pairs of nodes is a 128 KiB block per column
_FOLD_CHUNK = 4096


def _fold(weights, columns, distinct) -> np.ndarray:
    """R[i, k, u]: the triangle of a QR of the rows sqrt(w) [Re c0, Re H_1, ...] and
    sqrt(w) [Im c0, Im H_1, ...] of the nodes of value u, batched per multiplicity.

    Each batch gathers its nodes straight from the columns and holds at
    most _FOLD_CHUNK values; LAPACK factors every matrix of a batch on its own,
    so the chunks give the bits of one batch.  Never the Gram matrix: its
    squares lose a gap where a c0 and b H nearly cancel, and underflow on
    tiny data.
    """
    width = len(columns)
    # the nodes of each value together, in node order
    order = np.argsort(distinct.inverse, kind="stable")
    sizes = np.bincount(distinct.inverse)
    starts = np.cumsum(sizes) - sizes
    factor = np.zeros((width, width, sizes.size))
    for size in np.flatnonzero(np.bincount(sizes)):
        groups = np.flatnonzero(sizes == size)
        for lo in range(0, groups.size, _FOLD_CHUNK):
            part = groups[lo : lo + _FOLD_CHUNK]
            nodes = order[starts[part][:, None] + np.arange(size)]
            block = np.empty(nodes.shape + (2, width))
            for j, c in enumerate(columns):
                v = c[nodes]
                block[..., 0, j] = v.real
                block[..., 1, j] = v.imag
            block *= np.sqrt(weights[nodes])[..., None, None]
            r = np.linalg.qr(block.reshape(part.size, 2 * size, width), mode="r")
            factor[: r.shape[1], :, part] = r.transpose(1, 2, 0)
    return factor


def _spectral_study(problem, ladder, norm, times, spec):
    """The rungs side by side: per time, the flow's terms once, then each rung's gap.

    No trajectory value is formed: the distances come from the real kernels
    of _SpectralGap.  Each rung is its minimizer, which holds its roots and
    its t = 0 tail and nothing per time: a (times x nodes) block would be
    as large as the whole sampled field.  It runs serially: building a
    rung or its closed-form energy takes about a millisecond.
    """

    def sweep(live):
        w = problem.grid.weights
        if norm == "sup_vl":
            # the graph-norm weights of vl_norm, needed only while the nodes fold
            w = w * (1.0 + np.abs(problem.symbol_values))
        # built per sweep, so its work arrays are freed before the energies
        gap = _SpectralGap(problem, w)
        del w
        sups = dict.fromkeys(live, 0.0)
        rungs = {}
        for i, m in live.items():
            try:
                rungs[i] = gap.rung(m)
            except Exception as exc:
                sups[i] = exc
        for t in times:
            t = float(t)
            running = [i for i in live if not isinstance(sups[i], Exception)]
            if not running:
                break
            try:
                flow = gap.flow(t)
            except Exception as exc:
                for i in running:
                    sups[i] = exc
                break
            for i in running:
                try:
                    sups[i] = max(sups[i], math.sqrt(gap.gap_sq(rungs[i], t, flow)))
                except Exception as exc:
                    sups[i] = exc
        return sups

    def finish(eps, m, sup):
        energy, _crossed, source = m.energy(spec)
        # minimizer_hat checks the root bundle at tol 1e-9 and raises on any violation
        return LadderEntry(eps, sup, energy, 0, energy_source=source)

    return _run_rungs(ladder, lambda eps: minimizer_hat(problem, eps), sweep, finish)


def convergence_study(
    problem: Union[OdeProblem, SpectralProblem],
    ladder: Sequence[float],
    horizon: float,
    norm: str = "sup_uniform",
    time_points: int = 201,
    spec: QuadratureSpec = DEFAULT_SPEC,
    problem_id: str = "study",
) -> ConvergenceReport:
    """Shrink eps along the ladder and compare against the first-order flow.

    Per rung: the selected minimizer, its sup-norm distance to the
    reference over a dense grid on [0, horizon], its weighted energy, and
    the root-estimate violation count.  A failing rung is recorded and the
    study continues.  The fitted log-log rate is a diagnostic; the verdict
    that matters is monotone decay of the error.  Both kinds of study run
    their rungs side by side, serially, against one evaluation of the
    reference.
    """
    ladder = _check_ladder(ladder)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if norm not in ("sup_uniform", "sup_vl"):
        raise ValueError(f"unknown norm {norm!r}")
    times = np.linspace(0.0, float(horizon), time_points)
    if isinstance(problem, SpectralProblem):
        entries = _spectral_study(problem, ladder, norm, times, spec)
    else:
        from .ode import OdeProblem  # a spectral run never imports the ODE module

        if not isinstance(problem, OdeProblem):
            raise TypeError(f"unsupported problem type {type(problem).__name__}")
        entries = _ode_study(problem, ladder, norm, times, spec)
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


class AuditEntry(NamedTuple):
    eps: float
    counts: dict
    total_violations: int

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "total_violations": self.total_violations,
        }


class BoundAuditResult(NamedTuple):
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
