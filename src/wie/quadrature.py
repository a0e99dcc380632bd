"""Quadrature kernels for exponentially weighted time integrals.

Every half-line integral here carries a weight exp(-t/eps).  The kernels
evaluate it after the substitution t = eps*tau, so node placement never
depends on the weight scale, and tail integrals of the form

    integral_t^inf exp(-mu*(s-t)) phi(s) ds

are always computed with the damping factor kept inside the integrand.
Pulling exp(-mu*t) out and multiplying back in is exactly the overflow
trap these helpers exist to avoid.

These are the fallbacks of the closed forms, imported only by a run that
falls back: a power or sampled certificate, a Gauss-Laguerre energy or a
branch divergence.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .contract import (
    DEFAULT_SPEC,
    EXPONENT_CAP,
    DivergenceError,
    ExponentOverflowError,
    QuadratureError,
    QuadratureFailure,
    QuadratureSpec,
)

__all__ = [
    "weighted_halfline",
    "laplace_tail_shifted",
    "convolution_integral",
    "convolution_integral_batch",
    "laplace_tail_shifted_batch",
    "poincare_sides",
    "finite_interval",
]


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


# bisections of [a, b] past which finite_interval retires a panel
_MAX_DEPTH = 60


def finite_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    max_panels: int = 200_000,
):
    """Worst-first adaptive Gauss-Legendre refinement on [a, b].

    Returns (value, error_estimate).  Panels split worst-error-first until
    the summed estimate meets tol; a panel whose error sits at the rounding
    floor, or whose width has collapsed, retires instead of splitting, so
    integrable endpoint singularities converge without exhausting the
    budget.  Nodes are interior, the endpoints are never evaluated.
    """
    import heapq  # this engine is its only user, and most runs never reach it

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
        if depth >= _MAX_DEPTH or err <= floor_here or (hi - lo) <= width_floor:
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
    """convolution_integral for each rate of an array, as a complex array of its shape."""
    lam = np.asarray(lam, dtype=float)
    vals = [convolution_integral(phi, float(r), t, spec) for r in lam.ravel()]
    return np.array(vals, dtype=complex).reshape(lam.shape)


def laplace_tail_shifted_batch(
    phi: Callable,
    mu: Sequence[float],
    t0: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    growth_rate: float = 0.0,
):
    """laplace_tail_shifted for each rate of an array, as an array of its shape."""
    mu = np.asarray(mu, dtype=float)
    vals = [laplace_tail_shifted(phi, float(m), t0, spec, growth_rate) for m in mu.ravel()]
    return np.array(vals).reshape(mu.shape)


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
