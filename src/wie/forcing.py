"""Separable forcing terms and their weighted-integrability certificates.

A forcing term is a finite sum of products g_j(t) * h_j, with scalar time
profiles g_j and spatial parts h_j that are either coordinate vectors (for
the finite-dimensional systems) or frequency-side callables (for the
multiplier problems).  The squared spatial norm of the sum at each time is
a quadratic form in the profiles, so one Gram matrix of the spatial parts
is all the certificate machinery needs.

Certification asks one question: does exp(-t/eps) times the squared norm
have a finite half-line integral?  The declared growth envelope answers it
a priori, and the certificate records the measured weighted norm together
with a closed-form bound on the part beyond a finite horizon.

Every profile kind also carries the two time integrals the modal solvers
need, in closed form and vectorized over an array of rates: the Duhamel
convolution int_0^t exp(lam (t-s)) g(s) ds and the shifted Laplace tail
int_0^inf exp(-mu u) g(t+u) du.  Both are built from the Kummer function

    K(a, z) = int_0^1 exp(z (1-th)) th^(a-1) dth = sum_j z^j / (a)_(j+1),

whose first two members K(1, .) and K(2, .) are the phi1 and phi2 functions
of exponential integrators (Hochbruck and Ostermann, Acta Numerica 2010).
For constant and exponential profiles the spectral sweep needs only the
first and second divided differences of x -> exp(x t), over arrays of
rates and blocks of times (_ExpDifference, _ExpSecondDifference).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quadrature import (
    DEFAULT_SPEC,
    DivergenceError,
    QuadratureSpec,
    _exp_guarded,
    _ReadOnly,
    _refuse_past_cap,
    weighted_halfline,
)

__all__ = [
    "TimeProfile",
    "constant_profile",
    "exponential_profile",
    "power_profile",
    "sampled_profile",
    "GrowthClass",
    "ForcingPart",
    "ForcingTerm",
    "TransformabilityError",
    "TransformabilityCertificate",
    "certify_transformable",
]


# ---- Time profiles ----


class TimeProfile(NamedTuple):
    """Scalar profile g(t) on the half line, vectorized over t.

    kinds: "constant", "exponential" (amplitude * exp(rate*t)), "power"
    (amplitude * t**degree), "sampled" (linear interpolation, clamped).
    """

    kind: str
    amplitude: float = 1.0
    rate: float = 0.0
    degree: float = 0.0
    times: Optional[tuple] = None
    values: Optional[tuple] = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full(t.shape, self.amplitude)
        elif self.kind == "exponential":
            out = self.amplitude * np.exp(self.rate * t)
        elif self.kind == "power":
            out = self.amplitude * t**self.degree
        elif self.kind == "sampled":
            out = np.interp(t, np.asarray(self.times), np.asarray(self.values))
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out

    def duhamel(self, lam, t: float) -> np.ndarray:
        """int_0^t exp(lam*(t-s)) g(s) ds for each rate in lam, in closed form.

        Raises ExponentOverflowError when lam*t, or a growing profile's own
        exponent, passes the overflow cap.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        t = float(t)
        if t < 0.0:
            raise ValueError("upper limit must be nonnegative")
        if t == 0.0:
            return np.zeros(lam.shape)
        _exp_guarded(lam.max() * t)  # refuse a growing rate before any closed form runs
        if self.kind in ("constant", "exponential"):
            r = self.rate if self.kind == "exponential" else 0.0
            # (exp(lam t) - exp(r t)) / (lam - r) with the larger exponent factored out
            top = _exp_guarded(np.maximum(lam, r) * t)
            return self.amplitude * t * top * _phi(1, -np.abs(lam - r) * t)
        if self.kind == "power":
            a = self.degree + 1.0
            return self.amplitude * t**a * _kummer(a, lam * t)
        if self.kind == "sampled":
            knots, g = self._knots(0.0, t)
            h = np.diff(knots)
            z = np.multiply.outer(lam, h)
            # piece [k_i, k_i+1] contributes exp(lam (t - k_i+1)) h (g_a phi1 + (g_b - g_a) phi2)
            decay = _exp_guarded(np.multiply.outer(lam, t - knots[1:]))
            pieces = h * (g[:-1] * _phi(1, z) + np.diff(g) * _phi(2, z))
            return (decay * pieces).sum(axis=1)
        raise ValueError(f"unknown profile kind {self.kind!r}")

    def shifted_tail(self, mu, t: float, growth_rate: float = 0.0) -> np.ndarray:
        """int_0^inf exp(-mu*u) g(t+u) du for each rate in mu, in closed form.

        Raises DivergenceError unless every rate exceeds both the declared
        growth_rate and the profile's own exponential rate.
        """
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        t = float(t)
        if t < 0.0:
            raise ValueError("shift must be nonnegative")
        own = self.check_tail(mu, growth_rate)
        if self.kind in ("constant", "exponential"):
            return self.amplitude * _exp_guarded(own * t) / (mu - own)
        if self.kind == "power":
            return self.amplitude * _power_tail(self.degree, mu, t)
        if self.kind == "sampled":
            knots, g = self._knots(t, math.inf)
            h = np.diff(knots)
            z = -np.multiply.outer(mu, h)
            # piece [k_i, k_i+1] contributes exp(-mu (k_i - t)) h (g_b phi1 - (g_b - g_a) phi2)
            damp = np.exp(-np.multiply.outer(mu, knots[:-1] - t))
            pieces = h * (g[1:] * _phi(1, z) - np.diff(g) * _phi(2, z))
            beyond = np.exp(-mu * (knots[-1] - t)) * g[-1] / mu
            return (damp * pieces).sum(axis=1) + beyond
        raise ValueError(f"unknown profile kind {self.kind!r}")

    def check_tail(self, mu: np.ndarray, growth_rate: float = 0.0) -> float:
        """The profile's own exponential rate; raises DivergenceError as shifted_tail does."""
        own = self.rate if self.kind == "exponential" else 0.0
        _refuse_slow_tail(mu, max(growth_rate, own))
        return own

    def _knots(self, lo: float, hi: float):
        """Breakpoints of the clamped interpolant on [lo, hi] (hi may be inf), with values."""
        ts = np.asarray(self.times)
        inner = ts[(ts > lo) & (ts < hi)]
        knots = np.concatenate(([lo], inner, [hi] if math.isfinite(hi) else []))
        return knots, np.interp(knots, ts, np.asarray(self.values))

    def envelope(self):
        """(scale, degree, rate) with |g(t)| <= scale * (1+t)^degree * exp(rate*t)."""
        if self.kind == "constant":
            return abs(self.amplitude), 0.0, 0.0
        if self.kind == "exponential":
            return abs(self.amplitude), 0.0, max(self.rate, 0.0)
        if self.kind == "power":
            # t^d <= (1+t)^d for t >= 0
            return abs(self.amplitude), self.degree, 0.0
        if self.kind == "sampled":
            return float(np.max(np.abs(self.values))), 0.0, 0.0
        raise ValueError(f"unknown profile kind {self.kind!r}")


# ---- Closed forms behind the kernels ----


_SERIES_RADIUS = 0.5
_SERIES_TERMS = 17  # the first omitted term is below 1e-19 inside the radius
_ASYMPTOTIC_FROM = 40.0  # exp(-40) is below the double-precision ulp of the sum


# the Horner coefficients 1/(j+k)! of phi_k, highest power first
_PHI_COEFFS = {
    k: [1.0 / math.factorial(j + k) for j in range(_SERIES_TERMS - 1, -1, -1)] for k in (1, 2)
}


def _phi(k: int, z) -> np.ndarray:
    """phi_k(z) = sum_j z^j/(j+k)! for k = 1, 2.

    A Taylor series inside |z| < 1/2, so nearly equal rates do not cancel,
    and expm1-based closed forms outside.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    small = np.abs(z) < _SERIES_RADIUS
    zs = z[small]
    acc = np.zeros(zs.shape)
    for c in _PHI_COEFFS[k]:
        acc = acc * zs + c
    out[small] = acc
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl if k == 1 else (np.expm1(zl) - zl) / (zl * zl)
    return out


def _refuse_slow_tail(mu: np.ndarray, bound: float) -> None:
    """Raise DivergenceError unless every tail rate in mu exceeds bound."""
    if mu.size and float(mu.min()) <= bound:
        raise DivergenceError(
            f"tail rate {float(mu.min()):.6g} does not dominate the growth rate {bound:.6g}"
        )


_SMALLEST_NORMAL = float(np.finfo(float).tiny)
# values per batched step: a QR batch of lab._fold, where 4096 pairs of nodes make a 128 KiB
# block per column, or the whole rows of a stack that _ExpSecondDifference builds at once
_BATCH_VALUES = 4096


class _ExpDifference:
    """D[x, r](t) = (exp(x t) - exp(r t))/(x - r) for a rate array x and one rate r.

    The first divided difference of x -> exp(x t), as exp(max(x, r) t)
    expm1(-|gap| t)/(-|gap|), so nearly equal rates do not cancel; it is
    t exp(x t) where x = r.  gap is x - r, which the caller forms without
    the subtraction's cancellation; it may be a block of several rate
    arrays, one per row, and it is consumed: its float array becomes the
    kernel's own.  Only the largest rate of x is read, so x may be that
    number.  Each call takes ascending times t >= 0, a column (times x 1
    x ...) that broadcasts against gap, or one time as a 0-d array, with
    exp(max(x, r) t), which the caller forms from the exponentials it has
    at hand, and gives one row per time.  It raises ExponentOverflowError
    when max(x, r) t passes the cap at the last time.
    """

    def __init__(self, x, r: float, gap):
        self.rate = float(r)
        self.top_max = max(float(np.max(x, initial=-math.inf)), self.rate)
        gap = np.asarray(gap, dtype=float)
        np.negative(np.abs(gap, out=gap), out=gap)
        self.flat = np.flatnonzero(gap == 0.0)
        self.gap = gap
        gap.reshape(-1)[self.flat] = -1.0  # any stand-in: the flat entries are set to t
        self.least = float(-self.gap.max(initial=-math.inf))

    def __call__(self, t: np.ndarray, top: np.ndarray) -> np.ndarray:
        _refuse_past_cap(self.top_max * t.item(-1))
        q = np.multiply(self.gap, t)
        np.expm1(q, out=q)
        q /= self.gap
        if self.flat.size:
            q.reshape(t.size, -1)[:, self.flat] = t.reshape(-1, 1)
        # the least time but zero, where every entry already is
        low = t.item(0) if t.size == 1 or t.item(0) > 0.0 else t.item(1)
        if self.least * low < _SMALLEST_NORMAL:
            # a subnormal gap t keeps too few digits; phi1 is 1 there
            np.copyto(q, t, where=np.abs(self.gap) * t < _SMALLEST_NORMAL)
        q *= top
        return q


_DIFFERENCE_RADIUS = 0.5  # the Taylor series serves rates whose spread times t is below this
# about their midpoint the rates lie within spread/2 of it; at spread t = 1/2 the
# terms past the 12th add at most 1.1e-17 of the sum
_DIFFERENCE_TERMS = 12
# the powers t^(k+2), highest first, along the first axis of a (terms x rates x times) block
_DIFFERENCE_POWERS = np.arange(_DIFFERENCE_TERMS + 1.0, 1.0, -1.0)[:, None, None]


class _ExpSecondDifference:
    """weight (D[x1, x2] - D[x0, x2]) = weight delta E[x0, x1, x2], where x1 = x0 + delta.

    E is the second divided difference of x -> exp(x t) and D the first
    (_ExpDifference).  x0 is an array and delta >= 0 an array of its size,
    or a block of such rows, one per stacked set of rates; they are passed
    apart so that a small delta keeps its digits; x2 is one rate.
    Everything independent of t is built here, in steps of whole rows, as
    many as _BATCH_VALUES values hold and at least one: which rate lies
    between the other two, and the Taylor coefficients in one order of
    spread over the whole block.  Each call takes ascending times t >= 0 as _ExpDifference
    does, the undivided difference e01 = exp(x1 t) - exp(x0 t), and
    d12 = D[x1, x2] and d02 = D[x0, x2], each with one row per time, and
    gives one row per time.

    As in McCurdy, Ng and Parlett (Math. Comp. 43, 1984), rates whose
    spread times t is below 1/2 take the Taylor series about their
    midpoint c,

        E = t^2 exp(c t) sum_k h_k(x - c) t^k/(k+2)!,

    h_k the complete homogeneous symmetric polynomial of degree k, and
    the others nested first differences with the extreme pair of rates in
    the denominator, which cancel by at most a small factor there:
    (e01 - delta d02)/(x1 - x2) when x2 <= x0, (delta d12 - e01)/(x2 - x0)
    when x2 >= x1, and d12 - d02 when x2 lies between.  Every entry gets
    the bits it gets in a block of its row alone, at a time of its own.
    """

    def __init__(self, x0, delta, x2: float, weight: float):
        x0 = np.asarray(x0, dtype=float)
        delta = np.asarray(delta, dtype=float)
        width = x0.size
        span = width * max(1, _BATCH_VALUES // width)  # values per build step
        # a block of k rows forms its Taylor terms 2 width/k rates at a time, which
        # keeps the per-time memory of a stack of rungs near that of one rung
        self.chunk = max(1, 2 * width * width // delta.size)
        # every per-rate row in one allocation, large enough to be mapped on its own,
        # so that the kernels leave no holes in the heap
        rows = np.empty((_DIFFERENCE_TERMS + 5, delta.size))
        self.table, self.center, self.spread, nested = rows[:-5], rows[-5], rows[-4], rows[-3:]
        # the Taylor rows and the centers with an axis of one time
        self.terms, self.centers = self.table[:, :, None], self.center[:, None]
        off = x2 - x0  # and x1 - x2 = delta - off
        lo = np.minimum(off, 0.0)
        spread = self.center  # the spread in rate order, until the centers are formed
        for start in range(0, delta.size, span):
            piece = slice(start, start + span)
            d = delta.reshape(-1, width)[start // width : (start + span) // width]
            np.subtract(np.maximum(off, d), lo, out=spread[piece].reshape(d.shape))
            _nested_coefficients(
                off, d, spread[piece].reshape(d.shape), weight, nested[:, piece].reshape(3, *d.shape)
            )
        self.c01, self.c12, self.c02 = (c.reshape(delta.shape) for c in nested)
        self.order = np.argsort(spread, kind="stable")
        np.take(spread, self.order, out=self.spread)
        # the Taylor rows in spread order, as many rates at a time
        delta = delta.reshape(-1)
        for start in range(0, delta.size, span):
            piece = slice(start, start + span)
            at = self.order[piece]
            col = at % width
            x0c, dc = x0[col], delta[at]
            center = np.add(x0c, 0.5 * (lo[col] + np.maximum(off[col], dc)), out=self.center[piece])
            y0 = x0c - center
            _taylor_table(y0, y0 + dc, x2 - center, weight * dc, self.table[:, piece])

    def __call__(self, t: np.ndarray, e01, d12, d02, series=None) -> np.ndarray:
        """The difference at the times t; series is self.series(t) when the caller has formed it."""
        counts, series = self.series(t) if series is None else series
        out = self.c01 * e01
        part = self.c12 * d12
        out += part
        out += np.multiply(self.c02, d02, out=part)
        at = self.order[: len(series)]
        if len(counts) == 1:
            out.reshape(-1)[at] = series[:, 0]
        elif at.size:
            # each time takes its own prefix of the block's longest one
            rows = out.reshape(len(counts), -1)
            taken = np.arange(at.size)[:, None] < np.array(counts)
            rows[:, at] = np.where(taken, series, rows[:, at].T).T
        return out

    def series(self, t: np.ndarray) -> tuple:
        """(counts, series): the Taylor form of the rates whose spread times t is below the radius.

        At the k-th time they are a prefix of the spread order, counts[k]
        rates long; none at t = 0, where every difference is zero.  series
        holds the block's longest prefix, in that order, one row per rate
        and one column per time.  Each rate's terms are summed from the
        highest power down, a chunk of rates at a time over every time of
        the block; numpy would sum a lone rate at a lone time pairwise, so
        that one is summed in order here.
        """
        limits = [_DIFFERENCE_RADIUS / x if x > 0.0 else 0.0 for x in t.ravel().tolist()]
        counts = self.spread.searchsorted(limits).tolist()
        top = max(counts)
        series = np.empty((top, t.size))
        if not top:
            return counts, series
        # the times along the last axis; one time, a 0-d array, broadcasts as it is
        powers = (t.reshape(1, 1, -1) if t.ndim else t) ** _DIFFERENCE_POWERS
        terms = np.empty((_DIFFERENCE_TERMS, min(self.chunk, top), t.size))
        for start in range(0, top, self.chunk):
            stop = min(start + self.chunk, top)
            part = np.multiply(self.terms[:, start:stop], powers, out=terms[:, : stop - start])
            if part.size > _DIFFERENCE_TERMS:
                np.add.reduce(part, out=series[start:stop])
            else:
                total, *rest = part.ravel().tolist()
                for term in rest:
                    total += term
                series[start:stop] = total
        del terms, part  # freed before the exponentials are formed
        # c is below max(x1, x2), whose exponent D[x1, x2] has checked against the cap
        growth = np.multiply(self.centers[:top], t.reshape(1, -1) if t.ndim else t)
        series *= np.exp(growth, out=growth)
        return counts, series


def _nested_coefficients(off, delta, spread, weight, coefficients) -> np.ndarray:
    """Fill the rows c01, c12, c02 of weight delta E = c01 e01 + c12 d12 + c02 d02.

    Which pair of first differences they weigh depends on where x2 lies.
    """
    below = off <= 0.0
    above = ~below & (off >= delta)
    coefficients[...] = 0.0
    c01, c12, c02 = coefficients
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = weight / spread  # the extreme pair: delta - off below, off above
        np.copyto(c01, inv, where=below)
        np.negative(inv, out=c01, where=above)
        inv *= delta
        np.copyto(c12, inv, where=above)
        np.negative(inv, out=c02, where=below)
    between = ~below & ~above
    c12[between] = weight
    c02[between] = -weight
    # rates too close for 1/spread: the series serves them at every time
    coefficients[~np.isfinite(coefficients)] = 0.0
    return coefficients


def _taylor_table(y0, y1, y2, scale, table) -> np.ndarray:
    """Fill row K-1-k of table with scale h_k(y0, y1, y2)/(k+2)!, the highest power first.

    h_k(y0), h_k(y0, y1) and h_k(y0, y1, y2) are built one rate at a time;
    the rows run from the highest power down, so that the smallest terms
    are summed first.
    """
    h0, h01, h = np.ones(y0.shape), np.zeros(y0.shape), np.zeros(y0.shape)
    for k in range(_DIFFERENCE_TERMS):
        if k:
            h0 *= y0
        h01 *= y1
        h01 += h0
        h *= y2
        h += h01
        np.multiply(h, scale / math.factorial(k + 2), out=table[-1 - k])
    return table


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


def _exponential_form(profiles) -> Optional[tuple]:
    """(amplitudes, rates) when every profile is a * exp(r t), a constant having r = 0.

    None when any profile is a power or a sampled one.
    """
    if any(g.kind not in ("constant", "exponential") for g in profiles):
        return None
    amplitudes = [float(g.amplitude) for g in profiles]
    rates = [float(g.rate) if g.kind == "exponential" else 0.0 for g in profiles]
    return amplitudes, rates


def constant_profile(amplitude: float = 1.0) -> TimeProfile:
    return TimeProfile("constant", amplitude=amplitude)


def exponential_profile(amplitude: float, rate: float) -> TimeProfile:
    return TimeProfile("exponential", amplitude=amplitude, rate=rate)


def power_profile(amplitude: float, degree: float) -> TimeProfile:
    if degree < 0.0:
        raise ValueError("power profiles need a nonnegative degree")
    return TimeProfile("power", amplitude=amplitude, degree=degree)


def sampled_profile(times: Sequence[float], values: Sequence[float]) -> TimeProfile:
    t = tuple(float(x) for x in times)
    v = tuple(float(x) for x in values)
    if len(t) != len(v) or len(t) < 2:
        raise ValueError("sampled profile needs matching time/value columns, length >= 2")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError("sample times must increase strictly")
    return TimeProfile("sampled", times=t, values=v)


# ---- Growth declarations ----


class GrowthClass(NamedTuple):
    """Envelope for the squared spatial norm of the forcing.

    ||f(t, .)||^2 <= scale * (1+t)^degree * exp(rate*t).  The kind tag is
    redundant with the exponents but keeps reports readable.
    """

    kind: str
    degree: float = 0.0
    rate: float = 0.0
    scale: float = 1.0

    @classmethod
    def bounded(cls, scale: float = 1.0):
        return cls("bounded", scale=scale)

    @classmethod
    def polynomial(cls, degree: float, scale: float = 1.0):
        if degree < 0.0:
            raise ValueError("polynomial growth needs a nonnegative degree")
        return cls("polynomial", degree=degree, scale=scale)

    @classmethod
    def subexponential(cls, rate: float, scale: float = 1.0):
        if rate < 0.0:
            raise ValueError("declare decaying envelopes as bounded instead")
        return cls("subexponential", rate=rate, scale=scale)


# ---- Forcing terms ----


class ForcingPart(_ReadOnly):
    def __init__(
        self,
        profile: TimeProfile,
        space_vec: Optional[tuple] = None,
        space_hat: Optional[Callable] = None,
    ):
        if (space_vec is None) == (space_hat is None):
            raise ValueError("a part carries exactly one spatial representation")
        vars(self).update(profile=profile, space_vec=space_vec, space_hat=space_hat)


class ForcingTerm(_ReadOnly):
    """Sum of separable parts, all in the same spatial representation.

    parts with coordinate vectors drive the finite-dimensional solvers
    through vector(); parts with frequency callables drive the multiplier
    solvers through hat().  growth, when set, overrides the conservative
    envelope derived from the profiles.
    """

    def __init__(
        self, parts: tuple = (), growth: Optional[GrowthClass] = None, dim: Optional[int] = None
    ):
        modes = {("vector" if p.space_vec is not None else "spectral") for p in parts}
        if len(modes) > 1:
            raise ValueError("cannot mix vector and spectral parts in one forcing term")
        if parts and "vector" in modes:
            dims = {len(p.space_vec) for p in parts}
            if len(dims) > 1:
                raise ValueError("vector parts disagree on dimension")
            d = dims.pop()
            if dim is not None and dim != d:
                raise ValueError(f"declared dim {dim} but parts have length {d}")
            dim = d
        vars(self).update(parts=parts, growth=growth, dim=dim)

    @classmethod
    def zero(cls, dim: Optional[int] = None):
        return cls(parts=(), dim=dim)

    @classmethod
    def from_vectors(cls, items, growth: Optional[GrowthClass] = None):
        parts = tuple(
            ForcingPart(profile=g, space_vec=tuple(float(x) for x in v)) for g, v in items
        )
        return cls(parts=parts, growth=growth)

    @classmethod
    def from_multipliers(cls, items, growth: Optional[GrowthClass] = None):
        parts = tuple(ForcingPart(profile=g, space_hat=h) for g, h in items)
        return cls(parts=parts, growth=growth)

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def mode(self) -> str:
        if not self.parts:
            return "empty"
        return "vector" if self.parts[0].space_vec is not None else "spectral"

    def vector(self, t):
        """f(t) as a coordinate vector; t may be scalar or (M,)."""
        if self.mode == "spectral":
            raise ValueError("this forcing term has no coordinate representation")
        if self.dim is None:
            raise ValueError("zero forcing of unknown dimension; set dim")
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        out = np.zeros((1 if scalar else t_arr.shape[0], self.dim))
        for p in self.parts:
            g = np.asarray(p.profile(t_arr), dtype=float).reshape(-1, 1)
            out = out + g * np.asarray(p.space_vec)
        return out[0] if scalar else out

    def hat(self, t, xi):
        """Frequency-side value sum_j g_j(t) h_j(xi).

        Scalar t with array xi gives an array over xi; array t with array xi
        gives the (len(t), len(xi)) tensor.
        """
        if self.mode == "vector":
            raise ValueError("this forcing term has no frequency representation")
        t_arr = np.asarray(t, dtype=float)
        xi_arr = np.asarray(xi)
        if self.is_zero:
            shape = t_arr.shape + xi_arr.shape[:1] if xi_arr.ndim else t_arr.shape
            z = np.zeros(shape)
            return complex(z) if z.ndim == 0 else z
        acc = None
        for p in self.parts:
            g = np.asarray(p.profile(t_arr))
            h = np.asarray(p.space_hat(xi_arr))
            term = np.multiply.outer(g, h) if (g.ndim and h.ndim) else g * h
            acc = term if acc is None else acc + term
        if acc.ndim == 0:
            return complex(acc) if np.iscomplexobj(acc) else float(acc)
        return acc

    def gram(self) -> np.ndarray:
        """Euclidean Gram matrix of the coordinate vectors.

        Spectral parts have an inner product only on a frequency grid:
        SpectralProblem.forcing_gram forms theirs.
        """
        if self.mode == "spectral":
            raise ValueError("spectral parts take the Gram matrix of their grid")
        n = len(self.parts)
        G = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                pa, pb = self.parts[a], self.parts[b]
                G[a, b] = G[b, a] = float(np.dot(pa.space_vec, pb.space_vec))
        return G

    def norm_sq_profile(self, gram: Optional[np.ndarray] = None) -> Callable:
        """t -> ||f(t, .)||^2 given (or computing) the spatial Gram matrix."""
        if self.is_zero:
            return lambda t: np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        G = self.gram() if gram is None else np.asarray(gram, dtype=float)
        profiles = [p.profile for p in self.parts]

        def value(t):
            g = [np.asarray(p(t), dtype=float) for p in profiles]
            # pair by pair in one fixed order: a time gives the same bits alone or in an array
            out = np.zeros(np.shape(t))
            for i, gi in enumerate(g):
                for j, gj in enumerate(g):
                    out += G[i, j] * gi * gj
            return float(out) if np.ndim(t) == 0 else out

        return value

    def declared_growth(self, gram: Optional[np.ndarray] = None) -> GrowthClass:
        """The set growth class, or a conservative envelope from the parts."""
        if self.growth is not None:
            return self.growth
        if self.is_zero:
            return GrowthClass.bounded(scale=0.0)
        G = self.gram() if gram is None else np.asarray(gram, dtype=float)
        norms = np.sqrt(np.clip(np.diag(G), 0.0, None))
        scale_amp = 0.0
        degree = 0.0
        rate = 0.0
        for p, n in zip(self.parts, norms):
            s, d, r = p.profile.envelope()
            scale_amp += s * n
            degree = max(degree, d)
            rate = max(rate, r)
        # squared envelope: the amplitude sum squares, exponents double
        kind = "bounded"
        if rate > 0.0:
            kind = "subexponential"
        elif degree > 0.0:
            kind = "polynomial"
        return GrowthClass(kind, degree=2.0 * degree, rate=2.0 * rate, scale=float(scale_amp) ** 2)


# ---- Certification ----


class TransformabilityError(Exception):
    """Declared growth overwhelms the weight; the functional is not finite."""

    def __init__(self, rate: float, eps: float):
        super().__init__(
            f"squared-norm growth rate {rate:.6g} reaches the weight rate "
            f"1/eps = {1.0 / eps:.6g}; the weighted integral diverges"
        )
        self.rate = rate
        self.eps = eps


class TransformabilityCertificate(NamedTuple):
    epsilon_tested: float
    weighted_norm: float
    truncation_T: float
    tail_bound: float
    growth: GrowthClass


def _envelope_tail(growth: GrowthClass, eps: float, T: float) -> float:
    """Closed-form bound on int_T^inf exp(-t/eps) * envelope(t) dt.

    Uses (1+t)^d <= (1+T)^d exp(d*(t-T)/(1+T)) for t >= T, so the bound is
    valid once the combined exponent stays negative.
    """
    gap = 1.0 / eps - growth.rate - growth.degree / (1.0 + T)
    if gap <= 0.0:
        return math.inf
    expo = -(1.0 / eps - growth.rate) * T
    if expo < -745.0:
        return 0.0
    return growth.scale * (1.0 + T) ** growth.degree * math.exp(expo) / gap


def _exponential_weighted_norm(
    forcing: ForcingTerm, eps: float, gram: Optional[np.ndarray]
) -> Optional[float]:
    """int_0^inf exp(-t/eps) ||f(t)||^2 dt in closed form, or None for power or sampled parts.

    With parts a_i exp(r_i t) h_i (a constant having r_i = 0) and Gram matrix
    G it is sum_ij G_ij a_i a_j / (1/eps - r_i - r_j), the terms added by
    fsum with one rounding.  A declared growth override can admit pairs with
    r_i + r_j >= 1/eps: their terms are summed per exponent, a nonzero sum
    raises DivergenceError, and the pairs of a sum that cancels are dropped.
    """
    form = _exponential_form([p.profile for p in forcing.parts])
    if form is None:
        return None
    a, r = form
    G = forcing.gram() if gram is None else np.asarray(gram, dtype=float)
    p = 1.0 / eps
    pairs = [(i, j) for i in range(len(a)) for j in range(len(a))]
    divergent = {}
    for i, j in pairs:
        if p - r[i] - r[j] <= 0.0:
            divergent.setdefault(r[i] + r[j], []).append(float(G[i, j]) * a[i] * a[j])
    for rate, terms in sorted(divergent.items(), reverse=True):
        if math.fsum(terms) != 0.0:
            raise DivergenceError(
                f"the squared norm grows at the exponent {rate:.6g}, at or above "
                f"1/eps = {p:.6g}; the weighted integral diverges"
            )
    return math.fsum(
        float(G[i, j]) * a[i] * a[j] / (p - r[i] - r[j])
        for i, j in pairs
        if p - r[i] - r[j] > 0.0
    )


# T doubles until the envelope tail beyond it is at most this share of the weighted norm
_TAIL_FRACTION = 1e-12


def certify_transformable(
    forcing: ForcingTerm,
    eps: float,
    gram: Optional[np.ndarray] = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> TransformabilityCertificate:
    """Check the declared growth against the weight and measure the result.

    Raises TransformabilityError when the declared squared-norm growth rate
    reaches 1/eps.  Otherwise returns the weighted squared norm (exact for
    constant and exponential parts, else by quadrature), a horizon T, and
    the closed-form envelope bound on the tail beyond T.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    growth = forcing.declared_growth(gram=gram)
    if growth.rate >= 1.0 / eps:
        raise TransformabilityError(growth.rate, eps)
    if forcing.is_zero:
        return TransformabilityCertificate(eps, 0.0, 0.0, 0.0, growth)
    weighted = _exponential_weighted_norm(forcing, eps, gram)
    if weighted is None:
        weighted = weighted_halfline(forcing.norm_sq_profile(gram=gram), eps, spec, batched=True)
    target = _TAIL_FRACTION * max(weighted, growth.scale * eps, 1e-300)
    T = max(1.0, 2.0 * growth.degree / (1.0 / eps - growth.rate))
    for _ in range(200):
        bound = _envelope_tail(growth, eps, T)
        if bound <= target:
            break
        T *= 2.0
    return TransformabilityCertificate(eps, float(weighted), T, float(bound), growth)
