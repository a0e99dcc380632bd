"""Frequency-side solvers for multiplier generators.

Everything here works on a fixed set of frequency nodes.  A uniform FFT
grid adds exact physical-side transforms under the unitary convention with
angular frequency, so squared norms agree between the two sides to
roundoff; an explicit grid is just nodes and quadrature weights.

The characteristic-root bundle per node mirrors the finite-dimensional
case: a tame branch of size comparable to the symbol and a fast branch of
size 1/eps.  Construction checks the full set of root estimates and
refuses nodes where the discriminant 1 + 4*eps*symbol drops to one half,
which is exactly where the estimates start to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .forcing import ForcingTerm
from .quadrature import (
    DEFAULT_SPEC,
    ENERGY_CEILING,
    ExponentOverflowError,
    QuadratureSpec,
    _exp_guarded,
    _laguerre_rule,
)
from .symbols import MultiplierSymbol, admissible_discriminant

__all__ = [
    "FrequencyGrid",
    "real_field",
    "SpectralProblem",
    "RootData",
    "root_data",
    "root_margins",
    "inequality_report",
    "SemigroupSolution",
    "semigroup_solution",
    "SelectedSpectralMinimizer",
    "minimizer_hat",
    "l2_norm",
    "vl_norm",
    "energy_spectral",
    "energy_physical",
    "apriori_bound",
    "el_residual",
    "SpectralField",
]

_TWO_PI = 2.0 * math.pi
# one ulp below sqrt(0.5), so sqrt(disc) passes when disc > 0.5 holds exactly
_DISC_SQRT_FLOOR = 1.0 / math.sqrt(2.0)


# ---- Grids and transforms ----


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Frequency nodes with quadrature weights, optionally FFT-backed.

    Transforms use the unitary convention with angular frequency: the
    forward integral carries exp(-i xi x) and a prefactor (2 pi)^(-1/2).
    On a uniform grid the discrete sums then satisfy the discrete identity
    sum |u|^2 dx = sum |u_hat|^2 dxi with no error at all, which the energy
    cross-checks rely on.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    n: Optional[int] = None
    dx: Optional[float] = None
    x: Optional[np.ndarray] = None

    @classmethod
    def uniform_fft(cls, n: int, dx: float, x0: Optional[float] = None):
        if n < 2 or dx <= 0.0:
            raise ValueError("need n >= 2 samples and a positive spacing")
        if x0 is None:
            x0 = -0.5 * n * dx
        nodes = _TWO_PI * np.fft.fftfreq(n, d=dx)
        dxi = _TWO_PI / (n * dx)
        return cls(
            kind="uniform_fft",
            nodes=nodes,
            weights=np.full(n, dxi),
            n=n,
            dx=float(dx),
            x=x0 + dx * np.arange(n),
        )

    @classmethod
    def explicit(cls, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        return cls(kind="explicit", nodes=nodes, weights=weights)

    def _require_fft(self):
        if self.kind != "uniform_fft":
            raise ValueError("physical-side transforms need a uniform_fft grid")

    def to_physical(self, u_hat) -> np.ndarray:
        """Inverse transform onto the physical grid x; complex output."""
        self._require_fft()
        u_hat = np.asarray(u_hat, dtype=complex)
        phased = u_hat * np.exp(1j * self.nodes * self.x[0])
        return (math.sqrt(_TWO_PI) / self.dx) * np.fft.ifft(phased)

    def from_physical(self, u) -> np.ndarray:
        self._require_fft()
        u = np.asarray(u, dtype=complex)
        return (self.dx / math.sqrt(_TWO_PI)) * np.fft.fft(u) * np.exp(
            -1j * self.nodes * self.x[0]
        )

    def conjugate_symmetry_residual(self, u_hat) -> float:
        """Largest mismatch between u_hat(-xi) and conj(u_hat(xi))."""
        self._require_fft()
        u_hat = np.asarray(u_hat, dtype=complex)
        neg = (-np.arange(self.n)) % self.n
        return float(np.abs(u_hat[neg] - np.conj(u_hat)).max())


def real_field(u, tol: float = 1e-10) -> np.ndarray:
    """Strip a negligible imaginary residue, or refuse if it is not one."""
    u = np.asarray(u)
    scale = float(np.abs(u).max()) + 1e-300
    resid = float(np.abs(u.imag).max()) if np.iscomplexobj(u) else 0.0
    if resid > tol * scale:
        raise ValueError(f"imaginary residue {resid:.3g} exceeds {tol:.1g} of the field scale")
    return u.real if np.iscomplexobj(u) else u


# ---- Problems ----


@dataclass(frozen=True, eq=False)
class SpectralProblem:
    """Initial frequency data plus symbol and forcing on a fixed grid."""

    grid: FrequencyGrid
    symbol: MultiplierSymbol
    initial_hat: np.ndarray
    forcing: ForcingTerm = ForcingTerm.zero()

    def __post_init__(self):
        if self.forcing.mode == "vector":
            raise ValueError("multiplier problems need frequency-side forcing")
        u0 = self.initial_hat
        if callable(u0):
            u0 = u0(self.grid.nodes)
        u0 = np.asarray(u0, dtype=complex)
        if u0.shape != self.grid.nodes.shape:
            raise ValueError("initial data does not match the grid")
        object.__setattr__(self, "initial_hat", u0)
        object.__setattr__(self, "symbol_values", np.asarray(self.symbol(self.grid.nodes)))
        parts = tuple(
            (p.profile, np.asarray(p.space_hat(self.grid.nodes), dtype=complex))
            for p in self.forcing.parts
        )
        object.__setattr__(self, "forcing_parts", parts)

    def forcing_values(self, t: float) -> np.ndarray:
        """f_hat(t, .) on the grid nodes."""
        out = np.zeros(self.grid.nodes.shape, dtype=complex)
        for profile, H in self.forcing_parts:
            out += profile(float(t)) * H
        return out

    @property
    def amplitude_growth_rate(self) -> float:
        # declared envelope covers the squared norm; amplitudes grow half as fast
        return self.forcing.declared_growth(gram=np.eye(max(len(self.forcing.parts), 1))).rate / 2.0


# ---- Characteristic roots with their estimate bundle ----


@dataclass(frozen=True, eq=False)
class RootData:
    """Per-node roots of eps*r^2 = r + symbol, with guarantees checked.

    slow is written as -2*symbol/(1 + disc_sqrt) and fast as
    (1 + disc_sqrt)/(2*eps); the two satisfy slow + fast = 1/eps and
    slow*fast = -symbol/eps.  Construction through root_data() verifies the
    whole inequality bundle and raises on any violation, so downstream code
    can lean on the estimates without rechecking.
    """

    eps: float
    symbol_values: np.ndarray
    lower_bound: float
    disc_sqrt: np.ndarray
    slow: np.ndarray
    fast: np.ndarray


def root_margins(rd: RootData) -> dict:
    """Per-node margins for every estimate in the bundle.

    A nonnegative margin means the inequality holds at that node; margins
    are normalized by the natural scale of each inequality so they are
    comparable across eps and symbols.
    """
    eps = rd.eps
    ell = rd.symbol_values
    z = rd.disc_sqrt
    lam = rd.slow
    mu = rd.fast
    K = rd.lower_bound
    inv_eps = 1.0 / eps
    margins = {}
    margins["disc_sqrt_floor"] = z - _DISC_SQRT_FLOOR
    cap = 0.25 * inv_eps
    margins["symbol_over_disc"] = (cap - np.abs(ell) / (z * z)) / cap
    scale_r = (1.0 + math.sqrt(2.0)) / (2.0 * eps)
    margins["ratio_order"] = (mu / z - np.abs(lam) / z) / scale_r
    margins["ratio_cap"] = (scale_r - mu / z) / scale_r
    margins["fast_root_floor"] = (mu - 0.5 * inv_eps) / inv_eps
    scale_k = max(abs(K), 1.0)
    margins["slow_root_cap"] = (-2.0 * K - lam) / scale_k
    margins["slow_root_sqrt"] = (np.sqrt(np.abs(ell) * inv_eps) - np.abs(lam)) / np.maximum(
        np.abs(lam), inv_eps * 1e-6
    )
    scale_l = np.maximum(np.abs(ell), 1e-6)
    margins["slow_root_symbol"] = (ell + lam) / scale_l
    margins["vieta_sum"] = 1e-12 - np.abs((lam + mu) * eps - 1.0)
    prod_scale = np.maximum(np.abs(ell) * inv_eps, inv_eps)
    margins["vieta_product"] = 1e-12 - np.abs(lam * mu + ell * inv_eps) / prod_scale
    return margins


def _root_checks(rd: RootData, tol: float = 1e-9) -> dict:
    checks = {}
    for name, m in root_margins(rd).items():
        m = np.asarray(m, dtype=float)
        checks[name] = {
            "checked": int(m.size),
            "violations": int(np.count_nonzero(m < -tol)),
            "worst_margin": float(m.min()) if m.size else 0.0,
        }
    return checks


def root_data(
    symbol_values,
    eps: float,
    lower_bound: Optional[float] = None,
    check: bool = True,
) -> RootData:
    disc = admissible_discriminant(symbol_values, eps)
    ell = np.atleast_1d(np.asarray(symbol_values, dtype=float))
    if lower_bound is None:
        lower_bound = min(0.0, float(ell.min()))
    elif lower_bound > 0.0:
        raise ValueError("lower_bound is capped at zero by convention")
    z = np.sqrt(disc)
    rd = RootData(
        eps=float(eps),
        symbol_values=ell,
        lower_bound=float(lower_bound),
        disc_sqrt=z,
        slow=-2.0 * ell / (1.0 + z),
        fast=(1.0 + z) / (2.0 * eps),
    )
    if check:
        report = _root_checks(rd)
        broken = {k: v for k, v in report.items() if v["violations"]}
        if broken:
            names = ", ".join(sorted(broken))
            raise AssertionError(f"root estimate(s) violated at construction: {names}")
    return rd


def inequality_report(rd: RootData, tol: float = 1e-9) -> dict:
    """Margins and violation counts for the root estimate bundle."""
    return _root_checks(rd, tol=tol)


# ---- Evolution and selection ----


class SemigroupSolution:
    """First-order flow u_hat' = -symbol * u_hat + f_hat on the grid."""

    def __init__(self, problem: SpectralProblem):
        self.problem = problem
        self._cache: dict = {}

    def value(self, t: float) -> np.ndarray:
        t = float(t)
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        p = self.problem
        out = _exp_guarded(-p.symbol_values * t) * p.initial_hat
        if t > 0.0:
            for profile, H in p.forcing_parts:
                out = out + H * profile.duhamel(-p.symbol_values, t)
        self._cache[t] = out
        return out

    def derivative(self, t: float) -> np.ndarray:
        p = self.problem
        return -p.symbol_values * self.value(t) + p.forcing_values(t)

    __call__ = value


def semigroup_solution(problem: SpectralProblem):
    return SemigroupSolution(problem)


class SelectedSpectralMinimizer:
    """The finite-energy trajectory of eps*u'' = u' + symbol*u - f per node.

    The initial tame-branch coefficient absorbs a forcing tail; the
    trajectory is that coefficient flowing on the tame branch, plus a
    causal convolution and an anticausal tail, both scaled by the
    discriminant root.  At t = 0 the tail computations coincide with the
    ones used for the initial correction, so value(0) reproduces the
    initial data bit for bit.
    """

    def __init__(
        self,
        problem: SpectralProblem,
        eps: float,
        *,
        lower_bound: Optional[float] = None,
    ):
        self.problem = problem
        self.eps = float(eps)
        self.roots = root_data(problem.symbol_values, eps, lower_bound=lower_bound)
        self.growth_rate = problem.amplitude_growth_rate
        tail0 = self._tail(0.0)
        self.slow_initial = problem.initial_hat - tail0
        self._cache: dict = {0.0: (self.slow_initial, np.zeros_like(tail0), tail0)}

    def _tail(self, t: float) -> np.ndarray:
        p = self.problem
        out = np.zeros(p.grid.nodes.shape, dtype=complex)
        for profile, H in p.forcing_parts:
            out = out + H * profile.shifted_tail(self.roots.fast, t, self.growth_rate)
        return out / self.roots.disc_sqrt

    def _parts(self, t: float):
        t = float(t)
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        p = self.problem
        decayed = _exp_guarded(self.roots.slow * t) * self.slow_initial
        conv = np.zeros(p.grid.nodes.shape, dtype=complex)
        if t > 0.0:
            for profile, H in p.forcing_parts:
                conv = conv + H * profile.duhamel(self.roots.slow, t)
            conv = conv / self.roots.disc_sqrt
        out = (decayed, conv, self._tail(t))
        self._cache[t] = out
        return out

    def value(self, t: float) -> np.ndarray:
        decayed, conv, tail = self._parts(t)
        return decayed + conv + tail

    def derivative(self, t: float) -> np.ndarray:
        # boundary terms of the two time integrals cancel each other
        decayed, conv, tail = self._parts(t)
        return self.roots.slow * (decayed + conv) + self.roots.fast * tail

    __call__ = value


def minimizer_hat(
    problem: SpectralProblem,
    eps: float,
    *,
    lower_bound: Optional[float] = None,
) -> SelectedSpectralMinimizer:
    return SelectedSpectralMinimizer(problem, eps, lower_bound=lower_bound)


# ---- Norms, energies, bounds ----


def l2_norm(u_hat, weights) -> float:
    u_hat = np.asarray(u_hat)
    return math.sqrt(float(np.sum(np.asarray(weights) * np.abs(u_hat) ** 2)))


def vl_norm(u_hat, weights, symbol_values) -> float:
    """Graph norm of the generator: sqrt(sum w (1+|symbol|) |u_hat|^2)."""
    u_hat = np.asarray(u_hat)
    w = np.asarray(weights) * (1.0 + np.abs(np.asarray(symbol_values)))
    return math.sqrt(float(np.sum(w * np.abs(u_hat) ** 2)))


def energy_spectral(
    value_fn: Callable,
    deriv_fn: Callable,
    problem: SpectralProblem,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    ceiling: float = ENERGY_CEILING,
):
    """Weighted action evaluated with frequency-side norms.

    integral exp(-t/eps) [ (eps/2)||u'||^2 + (1/2)<symbol u, u> - Re<f, u> ]
    over the half line, at the substituted Gauss-Laguerre nodes.  Returns
    (value, crossed_at) like the finite-dimensional energy.
    """
    w = problem.grid.weights
    ell = problem.symbol_values
    tau, gl_w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        u = np.asarray(value_fn(t))
        du = np.asarray(deriv_fn(t))
        f = problem.forcing_values(t)
        quad = (
            0.5 * eps * float(np.sum(w * np.abs(du) ** 2))
            + 0.5 * float(np.sum(w * ell * np.abs(u) ** 2))
            - float(np.real(np.sum(w * f * np.conj(u))))
        )
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf, t
        vals[k] = quad
    return eps * float((gl_w * vals).sum()), None


def energy_physical(
    value_fn: Callable,
    deriv_fn: Callable,
    problem: SpectralProblem,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    ceiling: float = ENERGY_CEILING,
):
    """The same weighted action, but every term summed on the spatial grid.

    The trajectory is transported to physical space sample by sample, the
    generator is applied spectrally and transported too, and all three
    quadratic terms are dx-sums.  Agreement with energy_spectral is a
    transform-consistency check, so this routine deliberately shares no
    norm code with it.
    """
    grid = problem.grid
    grid._require_fft()
    dx = grid.dx
    ell = problem.symbol_values
    tau, gl_w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        u_hat = np.asarray(value_fn(t))
        u = grid.to_physical(u_hat)
        du = grid.to_physical(np.asarray(deriv_fn(t)))
        gen_u = grid.to_physical(ell * u_hat)
        f_phys = grid.to_physical(problem.forcing_values(t))
        quad = (
            0.5 * eps * dx * float(np.sum(np.abs(du) ** 2))
            + 0.5 * dx * float(np.real(np.sum(np.conj(u) * gen_u)))
            - dx * float(np.real(np.sum(f_phys * np.conj(u))))
        )
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf, t
        vals[k] = quad
    return eps * float((gl_w * vals).sum()), None


def apriori_bound(
    lower_bound: float,
    horizon: float,
    initial_vl_sq: float,
    forcing_l2_integral: float = 0.0,
) -> float:
    """Growth bound for the graph norm of the first-order flow up to T.

    2 (1-K) (T+1) exp(-2KT) (||u0||_VL^2 + int_0^T ||f||^2), with K the
    symbol's lower bound capped at zero.
    """
    if lower_bound > 0.0:
        raise ValueError("lower_bound is capped at zero by convention")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    expo = -2.0 * lower_bound * horizon
    if expo > 700.0:
        raise ExponentOverflowError("a-priori bound overflows; shorten the horizon")
    return (
        2.0
        * (1.0 - lower_bound)
        * (horizon + 1.0)
        * math.exp(expo)
        * (initial_vl_sq + forcing_l2_integral)
    )


def el_residual(minimizer, problem: SpectralProblem, t: float, h: float = 1e-3):
    """Centered-difference residual of the second-order balance per node.

    eps*u'' - u' - symbol*u + f, reduced to an L2 number over the grid.
    Returns (residual_norm, scale) with scale the largest competing term.
    """
    if t < h:
        raise ValueError("need t >= h for the centered stencil")
    w = problem.grid.weights
    u_m = np.asarray(minimizer.value(t - h))
    u_0 = np.asarray(minimizer.value(t))
    u_p = np.asarray(minimizer.value(t + h))
    d2 = (u_p - 2.0 * u_0 + u_m) / (h * h)
    d1 = (u_p - u_m) / (2.0 * h)
    sym = problem.symbol_values * u_0
    f = problem.forcing_values(t)
    res = minimizer.eps * d2 - d1 - sym + f
    norm = lambda v: math.sqrt(float(np.sum(w * np.abs(v) ** 2)))
    scale = max(norm(minimizer.eps * d2), norm(d1), norm(sym), norm(f), 1e-30)
    return norm(res), scale


# ---- Sampled fields for serialization ----


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A trajectory sampled on (times x frequency nodes), ready to store."""

    times: np.ndarray
    grid: FrequencyGrid
    values: np.ndarray

    @classmethod
    def sample(cls, solution, grid: FrequencyGrid, times):
        times = np.asarray(times, dtype=float)
        vals = np.stack([np.asarray(solution.value(float(t)), dtype=complex) for t in times])
        return cls(times=times, grid=grid, values=vals)

    def to_bytes(self) -> bytes:
        # little-endian complex128 = interleaved f64 (re, im), row-major
        return np.ascontiguousarray(self.values.astype("<c16")).tobytes()

    def meta(self) -> dict:
        return {
            "layout": "row-major, time index outermost",
            "dtype": "complex128 as interleaved float64 (re, im), little-endian",
            "shape": [int(self.values.shape[0]), int(self.values.shape[1])],
            "times": [float(t) for t in self.times],
            "frequencies": [float(x) for x in self.grid.nodes],
            "transform_convention": "unitary, angular frequency",
        }
