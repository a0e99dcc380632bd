"""Quadrature kernels for exponentially weighted time integrals.

Every half-line integral here carries a weight exp(-t/eps).  The kernels
evaluate it after the substitution t = eps*tau, so node placement never
depends on the weight scale, and tail integrals of the form

    integral_t^inf exp(-mu*(s-t)) phi(s) ds

are always computed with the damping factor kept inside the integrand.
Pulling exp(-mu*t) out and multiplying back in is exactly the overflow
trap these helpers exist to avoid.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "QuadratureFailure",
    "DivergenceError",
    "ExponentOverflowError",
    "weighted_halfline",
    "laplace_tail_shifted",
    "convolution_integral",
    "convolution_integral_batch",
    "laplace_tail_shifted_batch",
    "poincare_sides",
    "finite_interval",
    "DEFAULT_SPEC",
    "ENERGY_CEILING",
]

# exp() overflows just above 709; stay clear of the edge
EXPONENT_CAP = 700.0
ENERGY_CEILING = 1e12


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class QuadratureFailure(QuadratureError):
    """Adaptive refinement exhausted its panel budget.

    Carries the partial value and the error estimate accumulated so far.
    """

    def __init__(self, message: str, partial, error_estimate: float):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class DivergenceError(QuadratureError):
    """The requested integral diverges for the declared growth rate."""


class ExponentOverflowError(QuadratureError):
    """An exponent exceeded the overflow cap; work in log space instead."""


def _refuse_past_cap(exponent: float) -> None:
    """Raise ExponentOverflowError when the largest exponent of a kernel passes the cap."""
    if exponent > EXPONENT_CAP:
        raise ExponentOverflowError(
            "a mode grows past exp(700) at the requested time; shorten the horizon"
        )


def _exp_guarded(exponent) -> np.ndarray:
    """exp() of an array, refusing exponents past the cap instead of overflowing.

    The argument is consumed: a float array is clamped and exponentiated in
    place and returned, so callers pass a temporary they no longer need.
    """
    exponent = np.asarray(exponent, dtype=float)
    if exponent.size:
        _refuse_past_cap(float(exponent.max()))
    np.maximum(exponent, -745.0, out=exponent)
    return np.exp(exponent, out=exponent)


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical policy for the weighted integrals.

    method:          "gauss_laguerre" uses a fixed substituted rule with an
                     adaptive fallback; "adaptive" always uses panels.
    nodes:           Gauss-Laguerre node count (>= 4).
    panel_tol:       per-panel absolute tolerance of the adaptive engine.
    max_panels:      panel budget before the engine gives up.
    abs_tol/rel_tol: accuracy contract |result - exact| <= abs + rel*|result|
                     for integrands in their declared growth class.
    variation_limit: spread of significant integrand values beyond which the
                     fixed rule is distrusted and panels take over.
    """

    method: str = "gauss_laguerre"
    nodes: int = 64
    panel_tol: float = 1e-12
    max_panels: int = 4096
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    variation_limit: float = 1e6

    def __post_init__(self):
        if self.method not in ("gauss_laguerre", "adaptive"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.nodes < 4:
            raise ValueError("need at least 4 Gauss-Laguerre nodes")
        if min(self.panel_tol, self.abs_tol, self.rel_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_panels < 8:
            raise ValueError("max_panels too small to be useful")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=None)
def _laguerre_rule(n: int):
    # weights absorb the exp(-tau) factor
    x, w = np.polynomial.laguerre.laggauss(n)
    return x, w


@lru_cache(maxsize=None)
def _legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _eval_nodes(phi: Callable, ts: np.ndarray, batched: bool = False) -> np.ndarray:
    if batched:
        vals = np.asarray(phi(ts), dtype=float)
    else:
        vals = np.asarray([phi(float(t)) for t in ts])
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand returned a non-finite value")
    return vals


def _needs_fallback(vals: np.ndarray, weights: np.ndarray, limit: float) -> bool:
    """Distrust the fixed rule when its significant samples span many decades.

    Significance is judged by weighted contribution, so the tiny far tail of a
    decaying integrand does not trigger the fallback on its own.
    """
    mags = np.abs(vals)
    contrib = weights * mags
    top = contrib.max()
    if top == 0.0:
        return False
    sig = mags[contrib >= 1e-9 * top]
    lo = sig.min()
    if lo == 0.0:
        return True
    return sig.max() / lo > limit


def finite_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    max_depth: int = 60,
    max_panels: int = 200_000,
):
    """Worst-first adaptive Gauss-Legendre refinement on [a, b].

    Returns (value, error_estimate).  Panels split worst-error-first until
    the summed estimate meets tol; a panel whose error sits at the rounding
    floor, or whose width has collapsed, retires instead of splitting, so
    integrable endpoint singularities converge without exhausting the
    budget.  Nodes are interior, the endpoints are never evaluated.
    """
    if b == a:
        return 0.0, 0.0
    x_lo, w_lo = _legendre_rule(7)
    x_hi, w_hi = _legendre_rule(15)

    def measure(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        v_lo = np.asarray([f(float(mid + half * x)) for x in x_lo])
        v_hi = np.asarray([f(float(mid + half * x)) for x in x_hi])
        if not (np.all(np.isfinite(v_lo)) and np.all(np.isfinite(v_hi))):
            raise QuadratureError("integrand returned a non-finite value")
        i_hi = half * (w_hi * v_hi).sum()
        return i_hi, abs(i_hi - half * (w_lo * v_lo).sum())

    val0, err0 = measure(float(a), float(b))
    total = val0
    err_total = err0
    abs_scale = abs(val0)
    width_floor = 1e-14 * abs(b - a)
    heap = [(-err0, 0, float(a), float(b), val0, 0)]
    counter = 1
    panels = 1
    while err_total > tol and heap:
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        err = -neg_err
        floor_here = 1e-15 * (abs_scale + abs(val))
        if depth >= max_depth or err <= floor_here or (hi - lo) <= width_floor:
            continue  # retired: its contribution and error stay counted
        if panels + 2 > max_panels:
            raise QuadratureFailure(
                "finite-interval refinement exhausted its panel budget",
                partial=total,
                error_estimate=err_total,
            )
        mid = 0.5 * (lo + hi)
        val_a, err_a = measure(lo, mid)
        val_b, err_b = measure(mid, hi)
        panels += 2
        total = total + val_a + val_b - val
        err_total += err_a + err_b - err
        abs_scale = max(abs_scale, abs(val_a) + abs(val_b))
        heapq.heappush(heap, (-err_a, counter, lo, mid, val_a, depth + 1))
        heapq.heappush(heap, (-err_b, counter + 1, mid, hi, val_b, depth + 1))
        counter += 2
    return total, err_total


def _halfline_adaptive(phi: Callable, eps: float, spec: QuadratureSpec):
    """Panel-by-panel integral of exp(-tau) phi(eps*tau) over (0, inf)."""

    def weighted(tau: float):
        return math.exp(-tau) * phi(eps * tau)

    tol_tau = max(spec.panel_tol, spec.abs_tol / max(eps, 1e-300) * 0.1)
    acc = 0.0
    err = 0.0
    quiet = 0
    k = 0
    panels_used = 0
    while True:
        if k >= spec.max_panels:
            raise QuadratureFailure(
                "half-line refinement exhausted its panel budget",
                partial=eps * acc,
                error_estimate=eps * (err + abs(acc) * 1e-6 + tol_tau),
            )
        panel_tol = tol_tau / ((k + 2) ** 2)
        val, e = finite_interval(weighted, float(k), float(k + 1), panel_tol)
        acc = acc + val
        err += e
        panels_used += 1
        stop_level = max(spec.abs_tol / max(eps, 1e-300), spec.rel_tol * abs(acc)) * 1e-2
        if abs(val) <= stop_level:
            quiet += 1
            if quiet >= 2 and k >= 2:
                break
        else:
            quiet = 0
        k += 1
    return eps * acc


def weighted_halfline(
    phi: Callable, eps: float, spec: QuadratureSpec = DEFAULT_SPEC, batched: bool = False
):
    """integral_0^inf exp(-t/eps) phi(t) dt.

    The substitution t = eps*tau turns this into eps * integral exp(-tau)
    phi(eps*tau) d tau, evaluated by Gauss-Laguerre; panels take over when
    the sampled integrand varies too wildly for the fixed rule.  A batched
    phi takes all the rule's nodes in one call and must give each node the
    bits a scalar call gives, since the panels still call it per point.
    """
    if eps <= 0.0:
        raise ValueError("weight scale eps must be positive")
    if spec.method == "adaptive":
        return _halfline_adaptive(phi, eps, spec)
    tau, w = _laguerre_rule(spec.nodes)
    vals = _eval_nodes(phi, eps * tau, batched)
    if _needs_fallback(vals, w, spec.variation_limit):
        return _halfline_adaptive(phi, eps, spec)
    return eps * (w * vals).sum()


def laplace_tail_shifted(
    phi: Callable,
    mu: float,
    t0: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    growth_rate: float = 0.0,
):
    """integral_t0^inf exp(-mu*(s-t0)) phi(s) ds, damping kept inside."""
    if mu <= growth_rate:
        raise DivergenceError(
            f"tail rate mu={mu} does not dominate the declared growth rate {growth_rate}"
        )
    return weighted_halfline(lambda u: phi(t0 + u), 1.0 / mu, spec)


def convolution_integral(
    phi: Callable,
    lam: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """integral_0^t exp(lam*(t-s)) phi(s) ds.

    Fails explicitly rather than overflowing when lam*t is too large; a
    caller that needs such values must work with logarithms.
    """
    if t < 0.0:
        raise ValueError("upper limit must be nonnegative")
    if t == 0.0:
        return 0.0
    if lam * t > EXPONENT_CAP:
        raise ExponentOverflowError(
            f"exp({lam * t:.3g}) would overflow; evaluate this kernel in log space"
        )

    def integrand(u: float):
        return math.exp(lam * u) * phi(t - u)

    x15, w15 = _legendre_rule(15)
    half = 0.5 * t
    rough = half * sum(
        w * abs(integrand(float(half + half * x))) for x, w in zip(x15, w15)
    )
    tol = spec.abs_tol + spec.rel_tol * abs(rough)
    val, _err = finite_interval(integrand, 0.0, t, tol, max_panels=spec.max_panels)
    return val


def convolution_integral_batch(
    phi: Callable,
    lam: Sequence[float],
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """convolution_integral for a whole array of rates at once.

    phi must accept ndarray input.  Panels are refined until the worst rate
    meets tolerance, so all rates share one set of profile evaluations.
    """
    lam = np.asarray(lam, dtype=float)
    if t < 0.0:
        raise ValueError("upper limit must be nonnegative")
    out = np.zeros(lam.shape, dtype=complex)
    if t == 0.0:
        return out
    if lam.size and float(lam.max()) * t > EXPONENT_CAP:
        raise ExponentOverflowError("a rate in the batch would overflow exp()")

    x_lo, w_lo = _legendre_rule(7)
    x_hi, w_hi = _legendre_rule(15)

    def panel(lo: float, hi: float):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u_lo = mid + half * x_lo
        u_hi = mid + half * x_hi
        p_lo = np.asarray(phi(t - u_lo))
        p_hi = np.asarray(phi(t - u_hi))
        k_lo = np.exp(np.outer(lam, u_lo))
        k_hi = np.exp(np.outer(lam, u_hi))
        i_lo = half * (k_lo * (w_lo * p_lo)).sum(axis=1)
        i_hi = half * (k_hi * (w_hi * p_hi)).sum(axis=1)
        return i_lo, i_hi

    rough_lo, rough_hi = panel(0.0, t)
    scale = float(np.abs(rough_hi).max()) if rough_hi.size else 0.0
    tol = spec.abs_tol + spec.rel_tol * scale
    stack = [(0.0, float(t), tol, 0)]
    panels = 0
    while stack:
        lo, hi, tl, depth = stack.pop()
        panels += 1
        if panels > spec.max_panels:
            raise QuadratureFailure(
                "batched convolution exhausted its panel budget",
                partial=out,
                error_estimate=float("nan"),
            )
        i_lo, i_hi = panel(lo, hi)
        err = float(np.abs(i_hi - i_lo).max())
        floor = 1e-15 * (scale + float(np.abs(i_hi).max()))
        if err <= max(tl, floor) or depth >= 60:
            out = out + i_hi
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, 0.5 * tl, depth + 1))
            stack.append((mid, hi, 0.5 * tl, depth + 1))
    return out


def laplace_tail_shifted_batch(
    phi: Callable,
    mu: Sequence[float],
    t0: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    growth_rate: float = 0.0,
):
    """Shifted tails integral_t0^inf exp(-mu_m*(s-t0)) phi(s) ds per rate.

    Uses the substituted fixed rule; phi must accept ndarray input and decay
    (or grow slower than every mu_m, as declared).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.size and float(mu.min()) <= growth_rate:
        raise DivergenceError("a tail rate in the batch sits below the declared growth")
    tau, w = _laguerre_rule(spec.nodes)
    grid = t0 + tau[None, :] / mu[:, None]
    vals = np.asarray(phi(grid))
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand returned a non-finite value")
    return (vals * w[None, :]).sum(axis=1) / mu


def _modal_energy(ell, slow, weights, c0, amplitudes, part_rates, eps: float):
    """Weighted energy of the selected modes in closed form, +inf, or None where it has none.

    Mode i with symbol value ell_i and slow root s_i is driven by
    f_i = sum_k b_ik exp(r_k t), b = amplitudes of shape (modes x parts), a
    constant part having r = 0.  Its selected trajectory is

        u = c0 exp(s t) + sum_k beta_k D(r_k, s, t),   u' = s u + sum_k beta_k exp(r_k t),

    with beta_k = b_k / (eps (f - r_k)), f the fast root, and
    D(r, s, t) = (exp(r t) - exp(s t)) / (r - s).  With p = 1/eps the
    weighted integrals are rational in the rates:

        int exp(-p t) exp((a + b) t)     = 1 / (p - a - b)
        int exp(-p t) exp(a t) D(r, s)   = 1 / ((p - a - r)(p - a - s))
        int exp(-p t) D(r1, s) D(r2, s)  = (2p - r1 - r2 - 2s)
                                           / ((p - r1 - r2)(p - r1 - s)(p - r2 - s)(p - 2s))

    None of them subtracts nearby exponentials, so r = s needs no special
    case.  Returns sum_i weights_i int exp(-t/eps) [(eps/2)|u'|^2 +
    (ell/2)|u|^2 - Re(conj(f) u)] dt.  The energy diverges, and the value is
    +inf, when the parts at some rate r >= p/2 leave a nonzero amplitude on
    some mode; such parts that cancel on every mode are dropped.  None when
    a slow root is not below p/2 (admissibility keeps it there) or the sum
    is not finite.
    """
    p = 1.0 / eps
    s = np.asarray(slow, dtype=float)
    ell = np.asarray(ell, dtype=float)
    c0 = np.asarray(c0)
    gap_ss = 2.0 * s
    np.subtract(p, gap_ss, out=gap_ss)  # p - 2 s, formed in place
    if gap_ss.size and float(gap_ss.min()) <= 0.0:
        return None
    rates = [float(r) for r in part_rates]
    b = np.asarray(amplitudes)
    for r in {r for r in rates if p - 2.0 * r <= 0.0}:
        if np.any(sum(b[:, k] for k, rk in enumerate(rates) if rk == r)):
            return math.inf
    kept = [k for k, r in enumerate(rates) if p - 2.0 * r > 0.0]
    rates = [rates[k] for k in kept]
    # int exp(-p t) |c0 exp(s t)|^2: all of int |u|^2 when unforced, where u' = s u
    sq = np.abs(c0)
    np.square(sq, out=sq)
    sq /= gap_ss
    if not rates:
        factor = eps * s
        factor *= s
        factor += ell
        sq *= factor
        sq *= weights
        value = 0.5 * float(np.sum(sq))
        return value if math.isfinite(value) else None
    # every kept rate is below p/2 < f, so no denominator below vanishes
    gap_rr = [[p - rj - rk for rk in rates] for rj in rates]
    gap_rs = [(p - s) - r for r in rates]  # f - r_k, per mode
    b = [b[:, k] for k in kept]
    beta = [bk / (eps * g) for bk, g in zip(b, gap_rs)]
    # A = int |u|^2, B_k = int exp(r_k t) u, C = int |sum beta_k exp(r_k t)|^2
    A = sq
    B = []
    C = 0.0
    for j, rj in enumerate(rates):
        A = A + 2.0 * np.real(np.conj(c0) * beta[j]) / (gap_rs[j] * gap_ss)
        inner = c0
        for k, rk in enumerate(rates):
            pair = np.real(np.conj(beta[j]) * beta[k])
            A = A + pair * (2.0 * p - rj - rk - 2.0 * s) / (
                gap_rr[j][k] * gap_rs[j] * gap_rs[k] * gap_ss
            )
            C = C + pair / gap_rr[j][k]
            inner = inner + beta[k] / gap_rr[j][k]
        B.append(inner / gap_rs[j])
    cross = sum(np.real(beta[k] * np.conj(B[k])) for k in range(len(rates)))
    drive = sum(np.real(np.conj(b[k]) * B[k]) for k in range(len(rates)))
    per_mode = 0.5 * eps * (s * s * A + 2.0 * s * cross + C) + 0.5 * ell * A - drive
    value = float(np.sum(weights * per_mode))
    return value if math.isfinite(value) else None


def poincare_sides(
    norm_sq: Callable,
    deriv_norm_sq: Callable,
    initial_sq: float,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Both sides of the weighted first-order energy estimate.

    Left:  0.5 * integral exp(-t/eps) |y|^2
    Right: eps*|y(0)|^2 + 2*eps^2 * integral exp(-t/eps) |y'|^2
    The estimate holds for any finite-energy path, so right minus left is a
    nonnegative slack up to quadrature error.
    """
    lhs = 0.5 * weighted_halfline(norm_sq, eps, spec)
    rhs = eps * initial_sq + 2.0 * eps * eps * weighted_halfline(deriv_norm_sq, eps, spec)
    return lhs, rhs
