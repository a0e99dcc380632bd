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
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .forcing import ForcingTerm, _exponential_form
from .quadrature import (
    DEFAULT_SPEC,
    ENERGY_CEILING,
    ExponentOverflowError,
    QuadratureSpec,
    _exp_guarded,
    _laguerre_rule,
    _modal_energy,
)
from .symbols import AdmissibilityError, MultiplierSymbol, admissible_discriminant

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
        # fftfreq(n, dx) in numpy's own steps, bit for bit, without importing numpy.fft
        k = np.arange(n)
        k[(n + 1) // 2 :] -= n
        nodes = _TWO_PI * (k * (1.0 / (n * dx)))
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


class _Distinct(NamedTuple):
    """The distinct values of a node array and where its nodes sit among them.

    values are ascending and values[inverse] is the node array again.
    Values that compare equal are one value, the first node's.
    """

    values: np.ndarray
    inverse: np.ndarray


def _distinct(node_values: np.ndarray) -> _Distinct:
    """The map of np.unique(return_inverse=True), from one stable argsort.

    Each new value of the sorted array is marked, and the running count of
    marks is scattered back through the order.
    """
    order = np.argsort(node_values, kind="stable")
    ranked = node_values[order]
    new = np.empty(ranked.shape, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    ids = np.cumsum(new)
    ids -= 1
    inverse = np.empty_like(order)
    inverse[order] = ids
    return _Distinct(ranked[new], inverse)


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

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    @cached_property
    def distinct(self) -> _Distinct:
        """The distinct symbol values and their nodes, formed on first use and kept."""
        return _distinct(self.symbol_values)

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


class RootData(NamedTuple):
    """Per-node roots of eps*r^2 = r + symbol, with guarantees checked.

    The symbol values are frequency-node values on the spectral path and
    eigenvalues on the ODE path.  slow is written as
    -2*symbol/(1 + disc_sqrt), so it stays accurate when eps*symbol is
    tiny, and fast as (1 + disc_sqrt)/(2*eps); the two satisfy
    slow + fast = 1/eps and slow*fast = -symbol/eps.  Construction through
    root_data() verifies the whole inequality bundle and raises on any
    violation, unless check=False, so downstream code can lean on the
    estimates without rechecking.
    """

    eps: float
    symbol_values: np.ndarray
    lower_bound: float
    disc_sqrt: np.ndarray
    slow: np.ndarray
    fast: np.ndarray


def _margins(rd: RootData):
    """(name, per-node margin) of each estimate in turn, each formed when it is asked for."""
    eps = rd.eps
    ell = rd.symbol_values
    z = rd.disc_sqrt
    lam = rd.slow
    mu = rd.fast
    K = rd.lower_bound
    inv_eps = 1.0 / eps
    yield "disc_sqrt_floor", z - _DISC_SQRT_FLOOR
    cap = 0.25 * inv_eps
    yield "symbol_over_disc", (cap - np.abs(ell) / (z * z)) / cap
    scale_r = (1.0 + math.sqrt(2.0)) / (2.0 * eps)
    yield "ratio_order", (mu / z - np.abs(lam) / z) / scale_r
    yield "ratio_cap", (scale_r - mu / z) / scale_r
    yield "fast_root_floor", (mu - 0.5 * inv_eps) / inv_eps
    scale_k = max(abs(K), 1.0)
    yield "slow_root_cap", (-2.0 * K - lam) / scale_k
    yield "slow_root_sqrt", (np.sqrt(np.abs(ell) * inv_eps) - np.abs(lam)) / np.maximum(
        np.abs(lam), inv_eps * 1e-6
    )
    yield "slow_root_symbol", (ell + lam) / np.maximum(np.abs(ell), 1e-6)
    yield "vieta_sum", 1e-12 - np.abs((lam + mu) * eps - 1.0)
    prod_scale = np.maximum(np.abs(ell) * inv_eps, inv_eps)
    yield "vieta_product", 1e-12 - np.abs(lam * mu + ell * inv_eps) / prod_scale


def root_margins(rd: RootData) -> dict:
    """Per-node margins for every estimate in the bundle.

    A nonnegative margin means the inequality holds at that node; margins
    are normalized by the natural scale of each inequality so they are
    comparable across eps and symbols.
    """
    return dict(_margins(rd))


def _root_checks(rd: RootData, tol: float = 1e-9) -> dict:
    """Counts per estimate, each margin reduced as soon as it is formed.

    So one margin array is alive at a time, not all ten of root_margins.
    """
    checks = {}
    for name, m in _margins(rd):
        m = np.asarray(m, dtype=float)
        checks[name] = {
            "checked": int(m.size),
            "violations": int(np.count_nonzero(m < -tol)),
            "worst_margin": float(m.min()) if m.size else 0.0,
        }
        del m
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


def _times(t):
    """(t, tc): a float twice, or a 1-D array of times and its column to broadcast over nodes."""
    if isinstance(t, np.ndarray) and t.ndim:
        return t, t[:, None]
    t = float(t)
    return t, t


class SemigroupSolution:
    """First-order flow u_hat' = -symbol * u_hat + f_hat on the grid.

    Every call evaluates afresh; nothing is kept per time.  The returned
    arrays are new, and the forcing terms are added into them in place.
    value() also takes a 1-D array of times and returns one row per time,
    row k bit for bit value(t[k]).
    """

    def __init__(self, problem: SpectralProblem):
        self.problem = problem

    def value(self, t) -> np.ndarray:
        t, tc = _times(t)
        p = self.problem
        out = _exp_guarded(p.symbol_values * -tc) * p.initial_hat
        for profile, H in p.forcing_parts:
            out += H * profile.duhamel(-p.symbol_values, t)
        return out

    def state(self, t: float):
        """(value, derivative) at t from one evaluation of the flow."""
        p = self.problem
        u = self.value(t)
        du = -p.symbol_values * u
        if p.forcing_parts:
            du += p.forcing_values(t)
        return u, du

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]

    __call__ = value


def semigroup_solution(problem: SpectralProblem):
    return SemigroupSolution(problem)


def _over(H, z) -> np.ndarray:
    """H / z, each float component of H divided by z.

    numpy divides a complex array by a real one as a product with 1/z, so
    the real parts of complex data would part from real data in the last
    bit; this way real data (the eigenbasis view of a system) and the real
    parts of complex data give the same bits.
    """
    pairs = H.view(float).reshape(H.shape + (-1,))
    return (pairs / z[:, None]).view(H.dtype).reshape(H.shape)


class SelectedSpectralMinimizer:
    """The finite-energy trajectory of eps*u'' = u' + symbol*u - f per node.

    The initial tame-branch coefficient absorbs a forcing tail; the
    trajectory is that coefficient flowing on the tame branch, plus a
    causal convolution and an anticausal tail, both scaled by the
    discriminant root.  The roots depend on a node only through its symbol
    value, so they are built and checked once per distinct value
    (problem.distinct), and so is every kernel of an evaluation; a value
    reaches the nodes by one gather (_nodes), which gives each node the
    bits of its own per-node evaluation.  Every call evaluates afresh; only
    the tail at t = 0 is kept, for the initial correction.  An unforced
    problem has no convolution and no tail (tail0 is None); value adds
    +0.0 in their place, and state adds nothing, so its zeros may keep a
    negative sign.  The returned arrays are new; every further step runs in
    place on them, in the dtype of the data.  value() also takes a 1-D
    array of times and returns one row per time, row k bit for bit
    value(t[k]).
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
        distinct = problem.distinct
        try:
            self.roots = root_data(distinct.values, eps, lower_bound=lower_bound)
        except AdmissibilityError:
            admissible_discriminant(problem.symbol_values, eps)  # count the nodes, not the values
            raise
        self._inverse = distinct.inverse
        self.growth_rate = problem.amplitude_growth_rate
        self.tail0 = self._tail(0.0)
        self.slow_initial = problem.initial_hat
        if self.tail0 is not None:
            self.slow_initial = self.slow_initial - self.tail0

    def _nodes(self, per_value: np.ndarray) -> np.ndarray:
        """A new array of the values' entries (last axis) gathered onto the nodes."""
        return np.take(per_value, self._inverse, axis=-1)

    def _forced(self, kernel: Callable, t) -> Optional[np.ndarray]:
        """sum of H/z * kernel(profile) over the forcing parts, z the discriminant root.

        None for an unforced problem.
        """
        p = self.problem
        if not p.forcing_parts:
            return None
        z = self._nodes(self.roots.disc_sqrt)
        out = np.zeros(np.shape(t) + p.symbol_values.shape, dtype=p.forcing_parts[0][1].dtype)
        for profile, H in p.forcing_parts:
            out += _over(H, z) * self._nodes(kernel(profile))
        return out

    def _tail(self, t) -> Optional[np.ndarray]:
        return self._forced(lambda g: g.shifted_tail(self.roots.fast, t, self.growth_rate), t)

    def _parts(self, t):
        """(decayed, convolution, tail) at t as new arrays; the last two None when unforced."""
        t, tc = _times(t)
        decayed = self._nodes(_exp_guarded(self.roots.slow * tc))
        decayed = decayed * self.slow_initial
        conv = self._forced(lambda g: g.duhamel(self.roots.slow, t), t)
        return decayed, conv, self._tail(t)

    def value(self, t) -> np.ndarray:
        out, conv, tail = self._parts(t)
        if tail is None:
            # adding the zero parts turned every -0.0 into +0.0; field dumps keep that
            out += 0.0
            return out
        if conv is not None:
            out += conv
        out += tail
        return out

    def state(self, t: float):
        """(value, derivative) at t from one evaluation of the three parts."""
        slow, conv, tail = self._parts(t)
        if conv is not None:
            slow += conv
        if tail is None:
            # the roots gathered in the data's dtype take the product in place, with no cast
            derivative = self._nodes(self.roots.slow.astype(slow.dtype))
            derivative *= slow
            return slow, derivative
        value = slow + tail
        # boundary terms of the two time integrals cancel each other
        slow *= self._nodes(self.roots.slow)
        tail *= self._nodes(self.roots.fast)
        slow += tail
        return value, slow

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]

    def energy(self, spec: QuadratureSpec = DEFAULT_SPEC):
        """(value, crossed_at, source) of the weighted energy.

        Unforced, constant and exponential forcing give every node a closed
        form (source "exact").  When that diverges the value is +inf and
        crossed_at is where the weighted integrand first passed the ceiling
        at the Gauss-Laguerre nodes of spec, None if it never did there.
        Power and sampled parts, or a closed form that is not finite, take
        energy_spectral at those nodes (source "gauss_laguerre").
        """
        p = self.problem
        form = _exponential_form([profile for profile, _H in p.forcing_parts])
        if form is not None:
            amps, rates = form
            columns = [a * H for a, (_g, H) in zip(amps, p.forcing_parts)]
            amplitudes = np.stack(columns, axis=1) if columns else np.empty((p.symbol_values.size, 0))
            value = _modal_energy(
                p.symbol_values, self._nodes(self.roots.slow), p.weights, p.initial_hat,
                amplitudes, rates, self.eps,
            )
            if value == math.inf:
                return value, energy_spectral(self.state, p, self.eps, spec)[1], "exact"
            if value is not None:
                return value, None, "exact"
        value, crossed = energy_spectral(self.state, p, self.eps, spec)
        return value, crossed, "gauss_laguerre"

    __call__ = value


def minimizer_hat(
    problem: SpectralProblem,
    eps: float,
    *,
    lower_bound: Optional[float] = None,
) -> SelectedSpectralMinimizer:
    return SelectedSpectralMinimizer(problem, eps, lower_bound=lower_bound)


# ---- Norms, energies, bounds ----


def _weighted_sq_sum(u, weights, work: Optional[np.ndarray] = None) -> float:
    """sum(weights * |u|^2), reduced in one real work array (new unless given)."""
    work = np.abs(u, out=work, dtype=float)
    np.square(work, out=work)
    work *= weights
    return float(np.sum(work))


def l2_norm(u_hat, weights) -> float:
    return math.sqrt(_weighted_sq_sum(np.asarray(u_hat), np.asarray(weights)))


def vl_norm(u_hat, weights, symbol_values) -> float:
    """Graph norm of the generator: sqrt(sum w (1+|symbol|) |u_hat|^2)."""
    w = np.abs(np.asarray(symbol_values, dtype=float))
    w += 1.0
    w *= np.asarray(weights)
    return math.sqrt(_weighted_sq_sum(np.asarray(u_hat), w))


def energy_spectral(
    state: Callable,
    problem: SpectralProblem,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    ceiling: float = ENERGY_CEILING,
):
    """Weighted action evaluated with frequency-side norms.

    integral exp(-t/eps) [ (eps/2)||u'||^2 + (1/2)<symbol u, u> - Re<f, u> ]
    over the half line, at the substituted Gauss-Laguerre nodes.  state(t)
    gives the trajectory and its derivative as one (value, derivative)
    pair.  Returns (value, crossed_at) like the finite-dimensional energy.
    """
    w = problem.weights
    w_ell = w * problem.symbol_values
    work = np.empty(w.shape)
    tau, gl_w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        u, du = (np.asarray(v) for v in state(t))
        quad = 0.5 * eps * _weighted_sq_sum(du, w, work) + 0.5 * _weighted_sq_sum(u, w_ell, work)
        if problem.forcing_parts:
            f = problem.forcing_values(t)
            quad = quad - float(np.real(np.sum(w * f * np.conj(u))))
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf, t
        vals[k] = quad
    return eps * float((gl_w * vals).sum()), None


def energy_physical(
    state: Callable,
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
        u_hat, du_hat = (np.asarray(v) for v in state(t))
        u = grid.to_physical(u_hat)
        du = grid.to_physical(du_hat)
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


class SpectralField(NamedTuple):
    """A trajectory sampled on (times x frequency nodes), ready to store.

    A field dump that streams its rows as one-time fields keeps no values
    for the whole field (None); its meta() is the same.
    """

    times: np.ndarray
    grid: FrequencyGrid
    values: Optional[np.ndarray]

    @classmethod
    def sample(cls, solution, grid: FrequencyGrid, times):
        times = np.asarray(times, dtype=float)
        vals = np.empty(times.shape + grid.nodes.shape, dtype=complex)
        for row, t in zip(vals, times):
            row[...] = solution.value(float(t))
        return cls(times=times, grid=grid, values=vals)

    def to_bytes(self) -> memoryview:
        """The stored bytes as a view of the sampled array, not a copy.

        Little-endian complex128 is interleaved float64 (re, im), row-major;
        on a little-endian machine the sampled array already is that layout.
        """
        return memoryview(np.ascontiguousarray(self.values, dtype="<c16")).cast("B")

    def meta(self) -> dict:
        """The layout of to_bytes, and the grid in the config's own form.

        A uniform FFT grid is given by n, dx and x0 (its nodes are
        2 pi fftfreq(n, dx)); an explicit grid echoes its nodes and weights.
        """
        g = self.grid
        if g.kind == "uniform_fft":
            grid = {"kind": g.kind, "n": g.n, "dx": g.dx, "x0": float(g.x[0])}
        else:
            grid = {"kind": g.kind, "nodes": g.nodes.tolist(), "weights": g.weights.tolist()}
        return {
            "meta_version": 2,
            "layout": "row-major, time index outermost",
            "dtype": "complex128 as interleaved float64 (re, im), little-endian",
            "shape": [len(self.times), int(g.nodes.size)],
            "times": self.times.tolist(),
            "frequency_grid": grid,
            "transform_convention": "unitary, angular frequency",
        }
