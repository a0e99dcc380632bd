"""Frequency-side solvers for multiplier generators.

Everything here works on a fixed set of frequency nodes with quadrature
weights: the angular FFT frequencies of a uniform physical grid, or an
explicit set of nodes.  No solver leaves the frequency side; a uniform
grid keeps its physical window (n, dx, x0) only to describe a field dump.

The characteristic-root bundle per node mirrors the finite-dimensional
case: a tame branch of size comparable to the symbol and a fast branch of
size 1/eps.  Construction checks the full set of root estimates and
refuses nodes where the discriminant 1 + 4*eps*symbol drops to one half,
which is exactly where the estimates start to fail.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .contract import DEFAULT_SPEC, ENERGY_CEILING, ExponentOverflowError, QuadratureSpec, _exp_guarded, _ReadOnly
from .forcing import ForcingTerm, _exponential_form
from .symbols import AdmissibilityError, MultiplierSymbol, admissible_discriminant

__all__ = [
    "FrequencyGrid",
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
    "apriori_bound",
    "SpectralField",
]

_TWO_PI = 2.0 * math.pi
# one ulp below sqrt(0.5), so sqrt(disc) passes when disc > 0.5 holds exactly
_DISC_SQRT_FLOOR = 1.0 / math.sqrt(2.0)


# ---- Grids ----


class FrequencyGrid(_ReadOnly):
    """Frequency nodes with quadrature weights, optionally FFT-backed.

    A uniform_fft grid holds the nodes 2 pi fftfreq(n, dx) of n physical
    samples at spacing dx from x0, each weighted 2 pi/(n dx), under the
    unitary convention with angular frequency; an explicit grid holds the
    nodes and weights it is given.
    """

    def __init__(
        self,
        kind: str,
        nodes: np.ndarray,
        weights: np.ndarray,
        n: Optional[int] = None,
        dx: Optional[float] = None,
        x0: Optional[float] = None,
    ):
        vars(self).update(kind=kind, nodes=nodes, weights=weights, n=n, dx=dx, x0=x0)

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
            x0=x0 + 0.0,  # a -0.0 origin reads 0.0, as the first point x0 + 0*dx does
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


# ---- Problems ----


class _Distinct:
    """The distinct values of a node array and where its nodes sit among them.

    values are ascending and values[inverse] is the node array again.
    Values that compare equal are one value, the first node's.  A plain
    class: it is read only by attribute.
    """

    def __init__(self, values: np.ndarray, inverse: np.ndarray):
        self.values = values
        self.inverse = inverse


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


class SpectralProblem(_ReadOnly):
    """Initial frequency data plus symbol and forcing on a fixed grid.

    Its data are complex.  An OdeProblem is the subclass with real data,
    its eigenvalues the nodes of an explicit grid.
    """

    def __init__(
        self,
        grid: FrequencyGrid,
        symbol: MultiplierSymbol,
        initial_hat: np.ndarray,
        forcing: ForcingTerm = ForcingTerm.zero(),
    ):
        if forcing.mode == "vector":
            raise ValueError("multiplier problems need frequency-side forcing")
        u0 = initial_hat(grid.nodes) if callable(initial_hat) else initial_hat
        u0 = np.asarray(u0, dtype=complex)
        if u0.shape != grid.nodes.shape:
            raise ValueError("initial data does not match the grid")
        vars(self).update(
            grid=grid,
            symbol=symbol,
            initial_hat=u0,
            forcing=forcing,
            symbol_values=np.asarray(symbol(grid.nodes)),
            forcing_parts=tuple(
                (p.profile, np.asarray(p.space_hat(grid.nodes), dtype=complex))
                for p in forcing.parts
            ),
        )

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    @cached_property
    def distinct(self) -> _Distinct:
        """The distinct symbol values and their nodes, formed on first use and kept."""
        return _distinct(self.symbol_values)

    def forcing_values(self, t: float) -> np.ndarray:
        """f_hat(t, .) on the grid nodes, in the dtype of the data."""
        out = np.zeros(self.grid.nodes.shape, dtype=self.initial_hat.dtype)
        for profile, H in self.forcing_parts:
            out += profile(float(t)) * H
        return out

    def forcing_gram(self) -> np.ndarray:
        """Gram matrix of the forcing's spatial parts in the grid's weighted inner product."""
        w, xi = self.grid.weights, self.grid.nodes
        parts = self.forcing.parts
        G = np.zeros((len(parts), len(parts)))
        for a, pa in enumerate(parts):
            for b in range(a, len(parts)):
                ha, hb = pa.space_hat, parts[b].space_hat
                G[a, b] = G[b, a] = float(np.real(np.sum(w * np.conj(ha(xi)) * hb(xi))))
        return G

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


def inequality_report(rd: RootData, tol: float = 1e-9) -> dict:
    """Per estimate: the nodes checked, the margins below -tol, the worst margin.

    Each margin is reduced as soon as it is formed, so one margin array is
    alive at a time, not all ten of root_margins.
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


def root_data(symbol_values, eps: float, check: bool = True) -> RootData:
    disc = admissible_discriminant(symbol_values, eps)
    ell = np.atleast_1d(np.asarray(symbol_values, dtype=float))
    z = np.sqrt(disc)
    rd = RootData(
        eps=float(eps),
        symbol_values=ell,
        lower_bound=min(0.0, float(ell.min())),
        disc_sqrt=z,
        slow=-2.0 * ell / (1.0 + z),
        fast=(1.0 + z) / (2.0 * eps),
    )
    if check:
        report = inequality_report(rd)
        broken = {k: v for k, v in report.items() if v["violations"]}
        if broken:
            names = ", ".join(sorted(broken))
            raise AssertionError(f"root estimate(s) violated at construction: {names}")
    return rd


# ---- Evolution and selection ----


class SemigroupSolution:
    """First-order flow u_hat' = -symbol * u_hat + f_hat on the grid.

    Every call evaluates afresh; nothing is kept per time.  The returned
    arrays are new, and the forcing terms are added into them in place.
    """

    def __init__(self, problem: SpectralProblem):
        self.problem = problem

    def value(self, t: float) -> np.ndarray:
        t = float(t)
        p = self.problem
        out = _exp_guarded(p.symbol_values * -t) * p.initial_hat
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


def semigroup_solution(problem: SpectralProblem):
    return SemigroupSolution(problem)


def _over(H, z) -> np.ndarray:
    """H / z, each float component of H divided by z.

    numpy divides a complex array by a real one as a product with 1/z, so
    the real parts of complex data would part from real data in the last
    bit; this way real data (an OdeProblem's) and the real parts of
    complex data give the same bits.
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
    the initial coefficient corrected by the tail at t = 0 (slow_initial)
    is kept, formed on the first evaluation, while construction refuses a
    tail rate as that tail would: a study that reads only the roots and
    the closed-form energy never forms it.  An unforced problem has no
    convolution and no tail, so slow_initial is the initial data itself;
    value adds +0.0 in their place, and state adds nothing, so its zeros
    may keep a negative sign.  The returned arrays are new; every further step runs in
    place on them, in the dtype of the data.
    """

    def __init__(self, problem: SpectralProblem, eps: float):
        self.problem = problem
        self.eps = float(eps)
        distinct = problem.distinct
        try:
            self.roots = root_data(distinct.values, eps)
        except AdmissibilityError:
            admissible_discriminant(problem.symbol_values, eps)  # count the nodes, not the values
            raise
        self._inverse = distinct.inverse
        self.growth_rate = problem.amplitude_growth_rate
        for profile, _H in problem.forcing_parts:
            profile.check_tail(self.roots.fast, self.growth_rate)

    @cached_property
    def slow_initial(self) -> np.ndarray:
        """The initial data less the tail at t = 0."""
        tail0 = self._tail(0.0)
        return self.problem.initial_hat if tail0 is None else self.problem.initial_hat - tail0

    def _nodes(self, per_value: np.ndarray) -> np.ndarray:
        """A new array of the values' entries (last axis) gathered onto the nodes."""
        return np.take(per_value, self._inverse, axis=-1)

    def _forced(self, kernel: Callable) -> Optional[np.ndarray]:
        """sum of H/z * kernel(profile) over the forcing parts, z the discriminant root.

        None for an unforced problem.
        """
        p = self.problem
        if not p.forcing_parts:
            return None
        z = self._nodes(self.roots.disc_sqrt)
        out = np.zeros(p.symbol_values.shape, dtype=p.forcing_parts[0][1].dtype)
        for profile, H in p.forcing_parts:
            out += _over(H, z) * self._nodes(kernel(profile))
        return out

    def _tail(self, t: float) -> Optional[np.ndarray]:
        return self._forced(lambda g: g.shifted_tail(self.roots.fast, t, self.growth_rate))

    def _parts(self, t: float):
        """(decayed, convolution, tail) at t as new arrays; the last two None when unforced."""
        t = float(t)
        decayed = self._nodes(_exp_guarded(self.roots.slow * t))
        decayed = decayed * self.slow_initial
        conv = self._forced(lambda g: g.duhamel(self.roots.slow, t))
        return decayed, conv, self._tail(t)

    def value(self, t: float) -> np.ndarray:
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
        """(value, source) of the weighted energy.

        Unforced, constant and exponential forcing give every node a closed
        form (source "exact"), +inf where it diverges.  Power and sampled
        parts, or a closed form that is not finite, take energy_spectral at
        the Gauss-Laguerre nodes of spec (source "gauss_laguerre").
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
            if value is not None:
                return value, "exact"
        return energy_spectral(self.state, p, self.eps, spec), "gauss_laguerre"


def minimizer_hat(problem: SpectralProblem, eps: float) -> SelectedSpectralMinimizer:
    return SelectedSpectralMinimizer(problem, eps)


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
        factor = np.multiply(s, eps, out=gap_ss)  # p - 2 s is read no more
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


def energy_spectral(
    state: Callable,
    problem: SpectralProblem,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Weighted action evaluated with frequency-side norms.

    integral exp(-t/eps) [ (eps/2)||u'||^2 + (1/2)<symbol u, u> - Re<f, u> ]
    over the half line, at the substituted Gauss-Laguerre nodes.  state(t)
    gives the trajectory and its derivative as one (value, derivative)
    pair.  +inf once the weighted integrand at a node passes the ceiling.
    """
    from .quadrature import _laguerre_rule  # the fallback of the closed forms
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
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ENERGY_CEILING:
            return math.inf
        vals[k] = quad
    return eps * float((gl_w * vals).sum())


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
        """The solution's values at the times; one time's field is its fresh row, not a copy of it."""
        times = np.asarray(times, dtype=float)
        if times.size == 1:
            row = solution.value(times.item())
            return cls(times=times, grid=grid, values=row.reshape(times.shape + row.shape))
        vals = np.empty(times.shape + grid.nodes.shape, dtype=complex)
        for row, t in zip(vals, times):
            row[...] = solution.value(float(t))
        return cls(times=times, grid=grid, values=vals)

    def to_bytes(self) -> memoryview:
        """The stored bytes as a view of the sampled array, not a copy.

        Little-endian complex128 is interleaved float64 (re, im), row-major:
        a complex field on a little-endian machine; a real row is converted.
        """
        return memoryview(np.ascontiguousarray(self.values, dtype="<c16")).cast("B")

    def meta(self) -> dict:
        """The layout of to_bytes, and the grid in the config's own form.

        A uniform FFT grid is given by n, dx and x0 (its nodes are
        2 pi fftfreq(n, dx)); an explicit grid echoes its nodes and weights.
        """
        g = self.grid
        if g.kind == "uniform_fft":
            grid = {"kind": g.kind, "n": g.n, "dx": g.dx, "x0": float(g.x0)}
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
