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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import (
    DEFAULT_SPEC,
    DivergenceError,
    QuadratureSpec,
    _exp_guarded,
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
    "forcing_hat",
]


# ---- Time profiles ----


@dataclass(frozen=True)
class TimeProfile:
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
        own = self.rate if self.kind == "exponential" else 0.0
        if mu.size and float(mu.min()) <= max(growth_rate, own):
            raise DivergenceError(
                f"tail rate {float(mu.min()):.6g} does not dominate the growth rate "
                f"{max(growth_rate, own):.6g}"
            )
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
    for j in range(_SERIES_TERMS - 1, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(j + k)
    out[small] = acc
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl if k == 1 else (np.expm1(zl) - zl) / (zl * zl)
    return out


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


def _power_tail(degree: float, mu: np.ndarray, t: float) -> np.ndarray:
    """int_0^inf exp(-mu u) (t+u)^degree du for positive rates mu."""
    if float(degree).is_integer():
        # sum_k n!/(n-k)! t^(n-k) / mu^(k+1)
        n = int(degree)
        total = np.zeros(mu.shape)
        coef = 1.0
        for k in range(n + 1):
            total = total + coef * t ** (n - k) / mu ** (k + 1)
            coef *= n - k
        return total
    a = degree + 1.0
    x = mu * t
    out = np.empty(mu.shape)
    big = x > a + 1.0
    out[big] = t**a * _gamma_cf(a, x[big])
    xs, ms = x[~big], mu[~big]
    # exp(x) Gamma(a, x) = exp(x) Gamma(a) - x^a K(a, x)
    out[~big] = (np.exp(xs) * math.gamma(a) - xs**a * _kummer_series(a, xs)) / ms**a
    return out


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


@dataclass(frozen=True)
class GrowthClass:
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


@dataclass(frozen=True)
class ForcingPart:
    profile: TimeProfile
    space_vec: Optional[tuple] = None
    space_hat: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if (self.space_vec is None) == (self.space_hat is None):
            raise ValueError("a part carries exactly one spatial representation")


@dataclass(frozen=True)
class ForcingTerm:
    """Sum of separable parts, all in the same spatial representation.

    parts with coordinate vectors drive the finite-dimensional solvers
    through vector(); parts with frequency callables drive the multiplier
    solvers through hat().  growth, when set, overrides the conservative
    envelope derived from the profiles.
    """

    parts: tuple = ()
    growth: Optional[GrowthClass] = None
    dim: Optional[int] = None

    def __post_init__(self):
        modes = {("vector" if p.space_vec is not None else "spectral") for p in self.parts}
        if len(modes) > 1:
            raise ValueError("cannot mix vector and spectral parts in one forcing term")
        if self.parts and "vector" in modes:
            dims = {len(p.space_vec) for p in self.parts}
            if len(dims) > 1:
                raise ValueError("vector parts disagree on dimension")
            d = dims.pop()
            if self.dim is not None and self.dim != d:
                raise ValueError(f"declared dim {self.dim} but parts have length {d}")
            object.__setattr__(self, "dim", d)

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

    def gram(self, space_inner: Optional[Callable] = None) -> np.ndarray:
        """Gram matrix of the spatial parts.

        Vector parts use the Euclidean inner product; spectral parts need a
        space_inner(h_a, h_b) callable supplied by the caller, typically a
        frequency-grid quadrature.
        """
        n = len(self.parts)
        G = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                pa, pb = self.parts[a], self.parts[b]
                if self.mode == "vector":
                    v = float(np.dot(pa.space_vec, pb.space_vec))
                else:
                    if space_inner is None:
                        raise ValueError("spectral parts need a space_inner callable")
                    v = float(np.real(space_inner(pa.space_hat, pb.space_hat)))
                G[a, b] = G[b, a] = v
        return G

    def norm_sq_profile(self, gram: Optional[np.ndarray] = None) -> Callable:
        """t -> ||f(t, .)||^2 given (or computing) the spatial Gram matrix."""
        if self.is_zero:
            return lambda t: np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        G = self.gram() if gram is None else np.asarray(gram, dtype=float)
        profiles = [p.profile for p in self.parts]

        def value(t):
            g = np.stack([np.asarray(p(t), dtype=float) for p in profiles])
            out = np.einsum("it,ij,jt->t", g.reshape(len(profiles), -1), G,
                            g.reshape(len(profiles), -1))
            return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

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


def forcing_hat(forcing: ForcingTerm, t, xi):
    return forcing.hat(t, xi)


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


@dataclass(frozen=True)
class TransformabilityCertificate:
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


def certify_transformable(
    forcing: ForcingTerm,
    eps: float,
    gram: Optional[np.ndarray] = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
    tail_fraction: float = 1e-12,
) -> TransformabilityCertificate:
    """Check the declared growth against the weight and measure the result.

    Raises TransformabilityError when the declared squared-norm growth rate
    reaches 1/eps.  Otherwise returns the measured weighted squared norm, a
    horizon T, and the closed-form envelope bound on the tail beyond T.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    growth = forcing.declared_growth(gram=gram)
    if growth.rate >= 1.0 / eps:
        raise TransformabilityError(growth.rate, eps)
    if forcing.is_zero:
        return TransformabilityCertificate(eps, 0.0, 0.0, 0.0, growth)
    norm_sq = forcing.norm_sq_profile(gram=gram)
    weighted = weighted_halfline(norm_sq, eps, spec)
    target = tail_fraction * max(weighted, growth.scale * eps, 1e-300)
    T = max(1.0, 2.0 * growth.degree / (1.0 / eps - growth.rate))
    for _ in range(200):
        bound = _envelope_tail(growth, eps, T)
        if bound <= target:
            break
        T *= 2.0
    return TransformabilityCertificate(eps, float(weighted), T, float(bound), growth)
