"""Independent reference computations for the test suite.

The boundary-value oracle discretizes the second-order equation directly
and solves one banded linear system.  It never touches the package's
closed-form machinery, so agreement between the two routes is a genuine
cross-check rather than the same formula evaluated twice.

laplace_tail and weighted_energy are quadratures of the package's
solver era that only the tests still call; they live here, built on the
package's Gauss-Laguerre helpers.  energy_ode is the weighted action of a
system trajectory summed in the system's own coordinates, independent of
the eigenbasis the solvers work in.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from wie.quadrature import (
    DEFAULT_SPEC,
    ENERGY_CEILING,
    EXPONENT_CAP,
    QuadratureError,
    _halfline_adaptive,
    _laguerre_rule,
    _needs_fallback,
    laplace_tail_shifted,
)


def bvp_grid_solve(matrix, initial, forcing_fn, eps, window, h):
    """Finite differences for eps*y'' = y' + A*y - f on [0, window].

    Dirichlet data y(0) = initial and y(window) = 0.  The zero far
    boundary is what rejects the growing branch: any contamination decays
    like exp(fast_rate * (t - window)) coming back toward t = 0.  Returns
    (times, values) with values.shape == (len(times), n).
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    y0 = np.atleast_1d(np.asarray(initial, dtype=float))
    n = A.shape[0]
    m = int(round(window / h))
    times = np.linspace(0.0, window, m + 1)
    inner = m - 1
    size = inner * n

    lo = eps / h**2 + 1.0 / (2.0 * h)   # couples y[i-1]
    hi = eps / h**2 - 1.0 / (2.0 * h)   # couples y[i+1]

    # interleaved ordering k = i*n + c; bandwidth n both sides
    ab = np.zeros((2 * n + 1, size))
    ab[n, :] = -2.0 * eps / h**2 - np.tile(np.diag(A), inner)
    ab[0, n:] = hi      # row k, col k+n
    ab[2 * n, :-n] = lo  # row k, col k-n
    for d in range(1, n):
        # within-node coupling -A[c, c+d]; valid where both components exist
        upper = np.tile(np.concatenate([-A.diagonal(d), np.zeros(d)]), inner)[:-d]
        lower = np.tile(np.concatenate([-A.diagonal(-d), np.zeros(d)]), inner)[:-d]
        ab[n - d, d:] = upper
        ab[n + d, :-d] = lower

    f_vals = np.atleast_2d(np.asarray(forcing_fn(times[1:m]), dtype=float))
    if f_vals.shape != (inner, n):
        f_vals = np.broadcast_to(f_vals.reshape(-1, n), (inner, n))
    rhs = -f_vals.reshape(-1).copy()
    rhs[:n] -= lo * y0   # known left boundary moved to the right-hand side

    sol = solve_banded((n, n), ab, rhs)
    values = np.empty((m + 1, n))
    values[0] = y0
    values[-1] = 0.0
    values[1:-1] = sol.reshape(inner, n)
    return times, values


def bvp_selected(matrix, initial, forcing_fn, eps, window, h):
    """Richardson pair: solve at h and h/2, cancel the h^2 error term."""
    t_coarse, y_coarse = bvp_grid_solve(matrix, initial, forcing_fn, eps, window, h)
    _, y_fine = bvp_grid_solve(matrix, initial, forcing_fn, eps, window, h / 2.0)
    return t_coarse, (4.0 * y_fine[::2] - y_coarse) / 3.0


def random_symmetric(rng, n, lo=0.2, hi=2.5):
    """Seeded symmetric matrix with eigenvalues drawn from [lo, hi]."""
    mu = rng.uniform(lo, hi, size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * mu) @ q.T


def decimal_sup_distance(problem, eps, times, norm="sup_vl", digits=40):
    """sup_t ||u_eps(t) - u_0(t)|| in `digits`-digit decimal arithmetic.

    For any number of constant or exponential parts a_k exp(r_k t) H_k, on
    a SpectralProblem or on the eigenbasis view of an OdeProblem (its
    `_modal`: eigenvalues as symbol values, unit weights, real data).
    Every input double (symbol values, weights, data, eps, times) is taken
    exactly, and the roots and exponentials are evaluated at `digits`
    digits, so the result is the exact sup distance of the discretized
    problem to far below double precision.  Per node, with s the selected
    root of eps s^2 = s + ell,

        u_eps = e^{st} c0 + sum_k P_k (e^{r_k t} - e^{st}),      P_k = a_k H_k / (ell + r_k - eps r_k^2),
        u_0   = e^{-ell t} c0 + sum_k Q_k (e^{r_k t} - e^{-ell t}),  Q_k = a_k H_k / (ell + r_k).
    """
    from decimal import Decimal, localcontext

    parts = problem.forcing_parts
    if any(g.kind not in ("constant", "exponential") for g, _H in parts):
        raise ValueError("the decimal oracle covers constant and exponential parts only")
    with localcontext() as ctx:
        ctx.prec = digits
        D = Decimal
        e = D(float(eps))
        ells = [D(float(v)) for v in problem.symbol_values]
        weights = [D(float(v)) for v in problem.weights]
        if norm == "sup_vl":
            weights = [w * (1 + abs(ell)) for w, ell in zip(weights, ells)]
        c0 = [(D(float(v.real)), D(float(v.imag))) for v in problem.initial_hat]
        slow = [-2 * ell / (1 + (1 + 4 * e * ell).sqrt()) for ell in ells]
        forms = []  # per part (r, [(P_i, Q_i) per node], [H_i per node])
        for g, H in parts:
            amp = D(float(g.amplitude))
            r = D(float(g.rate)) if g.kind == "exponential" else D(0)
            pq = [(amp / (ell + r - e * r * r), amp / (ell + r)) for ell in ells]
            forms.append((r, pq, [(D(float(v.real)), D(float(v.imag))) for v in H]))
        sup = D(0)
        for t in times:
            t = D(float(t))
            grows = [(r * t).exp() for r, _pq, _h in forms]
            total = D(0)
            for i, ell in enumerate(ells):
                selected = (slow[i] * t).exp()
                flow = (-ell * t).exp()
                a = selected - flow
                re, im = a * c0[i][0], a * c0[i][1]
                for grow, (_r, pq, h) in zip(grows, forms):
                    p, q = pq[i]
                    b = p * (grow - selected) - q * (grow - flow)
                    re += b * h[i][0]
                    im += b * h[i][1]
                total += weights[i] * (re * re + im * im)
            sup = max(sup, total.sqrt())
        return sup


def decimal_exp_differences(x0, delta, x2, t, digits=60):
    """Divided differences of x -> exp(x t) at x0, x1 = x0 + delta and x2, in decimal.

    Returns (e01, d12, d02, d12 - d02): the undivided difference
    exp(x1 t) - exp(x0 t), and the first divided differences
    dij = (exp(xi t) - exp(xj t))/(xi - xj), which is t exp(xi t) where the
    rates are equal.  Every input double is taken exactly, and x1 and the
    gaps between the rates are formed exactly.  Each of the two nested
    differences loses about as many digits as the smallest gap's exponent,
    so those are added to `digits`.
    """
    from decimal import Decimal, localcontext

    x0, delta, x2, t = (Decimal(float(v)) for v in (x0, delta, x2, t))
    with localcontext() as ctx:
        ctx.prec = 2000  # the exact sums of any doubles
        x1 = x0 + delta
        gaps = [abs(g) for g in (delta, x2 - x0, x2 - x1) if g]
    with localcontext() as ctx:
        ctx.prec = digits + 2 * max([0] + [-g.adjusted() for g in gaps])

        def first(a, b):
            if a == b:
                return t * (a * t).exp()
            return ((a * t).exp() - (b * t).exp()) / (a - b)

        d12, d02 = first(x1, x2), first(x0, x2)
        return (x1 * t).exp() - (x0 * t).exp(), d12, d02, d12 - d02


def laplace_tail(
    phi,
    mu: float,
    t0: float = 0.0,
    spec=DEFAULT_SPEC,
    growth_rate: float = 0.0,
):
    """integral_t0^inf exp(-mu*s) phi(s) ds for mu above the growth rate."""
    shifted = laplace_tail_shifted(phi, mu, t0, spec, growth_rate)
    damp = math.exp(-min(mu * t0, EXPONENT_CAP)) if mu * t0 > -EXPONENT_CAP else math.inf
    if mu * t0 > EXPONENT_CAP:
        damp = 0.0
    return damp * shifted


def weighted_energy(
    phi,
    eps: float,
    spec=DEFAULT_SPEC,
    ceiling: float = ENERGY_CEILING,
):
    """Weighted half-line integral that reports divergence instead of failing.

    Returns (value, crossed_at).  When the weighted integrand exp(-t/eps)
    phi(t) exceeds `ceiling` or stops being finite, the value is +inf and
    crossed_at records the time where that first happened.
    """
    tau, w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for i, tk in enumerate(tau):
        t = eps * float(tk)
        with np.errstate(over="ignore", invalid="ignore"):
            v = float(phi(t))
        weighted = math.exp(-float(tk)) * v if math.isfinite(v) else math.inf
        if not math.isfinite(v) or abs(weighted) > ceiling:
            return math.inf, t
        vals[i] = v
    if _needs_fallback(vals, w, spec.variation_limit):
        try:
            return _halfline_adaptive(phi, eps, spec), None
        except QuadratureError:
            return math.inf, None
    return eps * float((w * vals).sum()), None


def energy_ode(state, matrix, forcing, eps, spec=DEFAULT_SPEC, ceiling=ENERGY_CEILING):
    """Weighted action of an arbitrary trajectory of a system.

    integral exp(-t/eps) [ (eps/2)|y'|^2 + (1/2) y.Ay - f.y ] dt, sampled at
    the substituted Gauss-Laguerre nodes, where state(t) gives the pair
    (y(t), y'(t)).  Returns (value, crossed_at); when the weighted integrand
    blows past `ceiling` the value is +inf and crossed_at is the first
    offending time.
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    tau, w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        yv, dv = (np.asarray(v, dtype=float) for v in state(t))
        quad = 0.5 * eps * float(dv @ dv) + 0.5 * float(yv @ (A @ yv))
        if not forcing.is_zero:
            quad -= float(np.dot(forcing.vector(t), yv))
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf, t
        vals[k] = quad
    return eps * float((w * vals).sum()), None
