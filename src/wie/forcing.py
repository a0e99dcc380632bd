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
int_0^inf exp(-mu u) g(t+u) du.  A constant or exponential profile takes
the phi1 function of wie.kernels, whose divided differences of exp also
serve the spectral sweep; a power or sampled profile takes the Kummer
function of wie.kummer.  Each module is imported by the first integral
that needs it, so a run compiles only the kernels its forcing kinds use.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .contract import DEFAULT_SPEC, DivergenceError, QuadratureSpec, _exp_guarded, _ReadOnly

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
        if self.kind not in ("constant", "exponential"):
            from .kummer import _duhamel
            return _duhamel(self, lam, t)
        from .kernels import _phi
        r = self.rate if self.kind == "exponential" else 0.0
        # (exp(lam t) - exp(r t)) / (lam - r) with the larger exponent factored out
        top = _exp_guarded(np.maximum(lam, r) * t)
        return self.amplitude * t * top * _phi(1, -np.abs(lam - r) * t)

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
        from .kummer import _shifted_tail
        return _shifted_tail(self, mu, t)

    def check_tail(self, mu: np.ndarray, growth_rate: float = 0.0) -> float:
        """The profile's own exponential rate; raises DivergenceError as shifted_tail does."""
        own = self.rate if self.kind == "exponential" else 0.0
        _refuse_slow_tail(mu, max(growth_rate, own))
        return own

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


# ---- Shared by the closed forms ----


def _refuse_slow_tail(mu: np.ndarray, bound: float) -> None:
    """Raise DivergenceError unless every tail rate in mu exceeds bound."""
    if mu.size and float(mu.min()) <= bound:
        raise DivergenceError(
            f"tail rate {float(mu.min()):.6g} does not dominate the growth rate {bound:.6g}"
        )


# values per batched step: a QR batch of lab._fold, where 4096 pairs of nodes make a 128 KiB
# block per column, or the whole rows of a stack that _ExpSecondDifference builds at once
_BATCH_VALUES = 4096


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

    ||f(t, .)||^2 <= scale * (1+t)^degree * exp(rate*t).
    """

    degree: float = 0.0
    rate: float = 0.0
    scale: float = 1.0

    @classmethod
    def bounded(cls, scale: float = 1.0):
        return cls(scale=scale)

    @classmethod
    def polynomial(cls, degree: float, scale: float = 1.0):
        if degree < 0.0:
            raise ValueError("polynomial growth needs a nonnegative degree")
        return cls(degree=degree, scale=scale)

    @classmethod
    def subexponential(cls, rate: float, scale: float = 1.0):
        if rate < 0.0:
            raise ValueError("declare decaying envelopes as bounded instead")
        return cls(rate=rate, scale=scale)


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

    Coordinate vectors drive the finite-dimensional solvers and frequency
    callables the multiplier solvers, which read f(t) as
    problem.forcing_values(t).  growth, when set, overrides the
    conservative envelope derived from the profiles.
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
        return GrowthClass(degree=2.0 * degree, rate=2.0 * rate, scale=float(scale_amp) ** 2)


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
    epsilon: float
    weighted_norm: float
    truncation_T: float
    tail_bound: float
    growth_rate: float  # of the declared squared-norm growth


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
        return TransformabilityCertificate(eps, 0.0, 0.0, 0.0, growth.rate)
    weighted = _exponential_weighted_norm(forcing, eps, gram)
    if weighted is None:
        from .quadrature import weighted_halfline  # the fallback for power and sampled parts
        weighted = weighted_halfline(forcing.norm_sq_profile(gram=gram), eps, spec, batched=True)
    target = _TAIL_FRACTION * max(weighted, growth.scale * eps, 1e-300)
    T = max(1.0, 2.0 * growth.degree / (1.0 / eps - growth.rate))
    for _ in range(200):
        bound = _envelope_tail(growth, eps, T)
        if bound <= target:
            break
        T *= 2.0
    return TransformabilityCertificate(eps, float(weighted), T, float(bound), growth.rate)
