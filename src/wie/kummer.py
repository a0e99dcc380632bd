"""Closed forms of power and sampled profiles, imported by their first integral.

TimeProfile.duhamel and .shifted_tail of such a profile are built from

    K(a, z) = int_0^1 exp(z (1-th)) th^(a-1) dth = sum_j z^j / (a)_(j+1),

whose K(1, .) and K(2, .) are phi1 and phi2 (wie.kernels), and from the
upper incomplete gamma function; _GenericGap puts them to the study sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .contract import _exp_guarded

_ASYMPTOTIC_FROM = 40.0  # exp(-40) is below the double-precision ulp of the sum


def _kummer_series(a: float, z: np.ndarray) -> np.ndarray:
    """sum_j z^j/(a)_(j+1); accurate where |z| <= a + 1, so terms shrink at once."""
    term = np.full(z.shape, 1.0 / a)
    total = term.copy()
    j = 0
    while np.any(np.abs(term) > 1e-17 * np.abs(total)):
        j += 1
        term = term * z / (a + j)
        total = total + term
    return total


def _gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Scaled upper incomplete gamma exp(x) x^-a Gamma(a, x) for x > a + 1.

    Legendre's continued fraction, evaluated by the modified Lentz method.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 1000):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < 4e-16):
            break
    return h


def _kummer(a: float, z) -> np.ndarray:
    """K(a, z) = int_0^1 exp(z (1-th)) th^(a-1) dth for a >= 1 and any real z.

    The series where it converges without cancellation; elsewhere a finite
    sum for integer a, and for fractional a the incomplete-gamma continued
    fraction (z > 0), the Kummer-transformed series exp(z) sum_j
    (-z)^j/(j! (a+j)) (moderate z < 0) or the asymptotic expansion in 1/z.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    series = (z >= -a) & (z <= a + 1.0)
    out[series] = _kummer_series(a, z[series])
    rest = ~series
    if float(a).is_integer():
        # (a-1)! (exp(z) - sum_{k<a} z^k/k!) / z^a, in powers of w = 1/z
        n = int(a) - 1
        zr = z[rest]
        w = 1.0 / zr
        acc = np.exp(zr) * w ** (n + 1)
        for k in range(n + 1):
            acc = acc - w ** (n + 1 - k) / math.factorial(k)
        out[rest] = math.factorial(n) * acc
        return out
    pos = rest & (z > 0.0)
    zp = z[pos]
    out[pos] = np.exp(zp + math.lgamma(a) - a * np.log(zp)) - _gamma_cf(a, zp)
    far = rest & (z < -(_ASYMPTOTIC_FROM + a))
    x = -z[far]
    term = 1.0 / x
    total = term.copy()
    k = 0
    while np.any(np.abs(term) > 1e-17 * np.abs(total)):
        k += 1
        term = -term * (a - k) / x
        total = total + term
    out[far] = total
    mid = rest & (z < 0.0) & ~far
    x = -z[mid]
    weight = np.exp(-x)  # Poisson weights exp(-x) x^j / j!
    total = weight / a
    j = 0
    while x.size and (j <= x.max() or np.any(weight > 1e-17 * total)):
        j += 1
        weight = weight * x / j
        total = total + weight / (a + j)
    out[mid] = total
    return out


def _power_tail(degree: float, mu, t) -> np.ndarray:
    """int_0^inf exp(-mu u) (t+u)^degree du for positive rates mu and shifts t >= 0.

    One of mu and t is an array, the other a float.
    """
    if float(degree).is_integer():
        # sum_k n!/(n-k)! t^(n-k) / mu^(k+1)
        n = int(degree)
        total = np.zeros(np.broadcast_shapes(np.shape(mu), np.shape(t)))
        coef = 1.0
        for k in range(n + 1):
            total = total + coef * t ** (n - k) / mu ** (k + 1)
            coef *= n - k
        return total
    a = degree + 1.0
    x = mu * t
    out = np.empty(x.shape)
    big = x > a + 1.0
    out[big] = (t[big] if np.ndim(t) else t) ** a * _gamma_cf(a, x[big])
    xs, ms = x[~big], (mu[~big] if np.ndim(mu) else mu)
    # exp(x) Gamma(a, x) = exp(x) Gamma(a) - x^a K(a, x)
    out[~big] = (np.exp(xs) * math.gamma(a) - xs**a * _kummer_series(a, xs)) / ms**a
    return out


def _knots(g, lo: float, hi: float):
    """Breakpoints of the clamped interpolant of g on [lo, hi] (hi may be inf), with values."""
    ts = np.asarray(g.times)
    inner = ts[(ts > lo) & (ts < hi)]
    knots = np.concatenate(([lo], inner, [hi] if math.isfinite(hi) else []))
    return knots, np.interp(knots, ts, np.asarray(g.values))


def _duhamel(g, lam: np.ndarray, t: float) -> np.ndarray:
    """TimeProfile.duhamel of a power or sampled profile g, for t > 0 within the cap."""
    if g.kind == "power":
        a = g.degree + 1.0
        return g.amplitude * t**a * _kummer(a, lam * t)
    if g.kind == "sampled":
        from .kernels import _phi
        knots, v = _knots(g, 0.0, t)
        h = np.diff(knots)
        z = np.multiply.outer(lam, h)
        # piece [k_i, k_i+1] contributes exp(lam (t - k_i+1)) h (g_a phi1 + (g_b - g_a) phi2)
        decay = _exp_guarded(np.multiply.outer(lam, t - knots[1:]))
        pieces = h * (v[:-1] * _phi(1, z) + np.diff(v) * _phi(2, z))
        return (decay * pieces).sum(axis=1)
    raise ValueError(f"unknown profile kind {g.kind!r}")


def _shifted_tail(g, mu: np.ndarray, t: float) -> np.ndarray:
    """TimeProfile.shifted_tail of a power or sampled profile g, its rates checked."""
    if g.kind == "power":
        return g.amplitude * _power_tail(g.degree, mu, t)
    if g.kind == "sampled":
        from .kernels import _phi
        knots, v = _knots(g, t, math.inf)
        h = np.diff(knots)
        z = -np.multiply.outer(mu, h)
        # piece [k_i, k_i+1] contributes exp(-mu (k_i - t)) h (g_b phi1 - (g_b - g_a) phi2)
        damp = np.exp(-np.multiply.outer(mu, knots[:-1] - t))
        pieces = h * (v[1:] * _phi(1, z) - np.diff(v) * _phi(2, z))
        beyond = np.exp(-mu * (knots[-1] - t)) * v[-1] / mu
        return (damp * pieces).sum(axis=1) + beyond
    raise ValueError(f"unknown profile kind {g.kind!r}")


class _GenericGap:
    """b_j(t) of one power or sampled part on a stack, one rung at one time (lab._SpectralGap).

    tail0 holds tail_j(f, 0)/z, one row per rung over every value: never screened.
    """

    def __init__(self, g, rungs: list, shape: tuple):
        self.profile, self.rungs = g, rungs
        self.tail0 = np.empty(shape)
        for row, m in zip(self.tail0[0], rungs):
            r = m.roots
            np.divide(g.shifted_tail(r.fast, 0.0, m.growth_rate), r.disc_sqrt, out=row)

    def __call__(self, t: np.ndarray, a, grow, flow, bends=None) -> np.ndarray:
        """b at the times t, from grow() = exp(s t) and the flow's term duhamel(-ell, t)."""
        g = self.profile
        b = np.empty(a.shape)
        for k, m in enumerate(self.rungs):
            r = m.roots
            fast, z = r.fast, r.disc_sqrt  # formed on each read, so once per rung
            for row, tk in zip(b[:, k], t.ravel().tolist()):
                np.add(g.duhamel(r.slow, tk), g.shifted_tail(fast, tk, m.growth_rate), out=row)
                row /= z
        b -= flow
        b -= grow() * self.tail0
        return b
