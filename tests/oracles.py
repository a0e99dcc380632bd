"""Independent reference computations for the test suite.

The boundary-value oracle discretizes the second-order equation directly
and solves one banded linear system.  It never touches the package's
closed-form machinery, so agreement between the two routes is a genuine
cross-check rather than the same formula evaluated twice.

lemma_tail is the weighted tail of a lemma-tech density in mpmath,
through the incomplete gamma function for a power density.

laplace_tail and weighted_energy are quadratures of the package's
solver era that only the tests still call; they live here, built on the
package's Gauss-Laguerre helpers.  energy_ode is the weighted action of a
system trajectory summed in the system's own coordinates, independent of
the eigenbasis the solvers work in.

real_field, energy_physical, el_residual and viscous_residual are checks
that no run needs: the physical-side energy, a transform-consistency check
of energy_spectral, and the centered-difference residuals of the
second-order balance on each path.  They live with the tests, so a run
does not compile them, and so do the references they stand on: the
physical points and transform pair of a uniform FFT grid (grid_points,
to_physical, from_physical) and the coordinate form of a system's forcing
(forcing_vector).
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from wie.contract import ENERGY_CEILING, EXPONENT_CAP
from wie.quadrature import (
    DEFAULT_SPEC,
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
    any SpectralProblem, an OdeProblem included (its eigenvalues as symbol
    values, unit weights, real data).
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


def lemma_tail(density, eps, horizon, times, digits=50):
    """G(t) = int_t^T exp(-(s-t)/eps) |g(s)| ds at each time, in mpmath.

    With w = T - t, a constant or exponential density a exp(r s) gives
    |a| exp(r t) expm1(k w)/k, k = r - 1/eps (w where k = 0); a power
    density a s^d gives |a| eps^(d+1) exp(t/eps) times mpmath.gammainc of
    d + 1 over [t/eps, T/eps], the incomplete gamma function between the
    two limits.  Every input double is taken exactly.
    """
    import mpmath

    with mpmath.workdps(digits):
        eps, horizon = mpmath.mpf(float(eps)), mpmath.mpf(float(horizon))
        amplitude = abs(mpmath.mpf(float(density.amplitude)))
        out = []
        for t in times:
            t = mpmath.mpf(float(t))
            if density.kind == "power":
                a = mpmath.mpf(float(density.degree)) + 1
                g = eps**a * mpmath.exp(t / eps) * mpmath.gammainc(a, t / eps, horizon / eps)
            else:
                r = mpmath.mpf(float(density.rate)) if density.kind == "exponential" else 0
                k, w = r - 1 / eps, horizon - t
                g = mpmath.exp(r * t) * (mpmath.expm1(k * w) / k if k else w)
            out.append(float(amplitude * g))
    return np.array(out)


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
            quad -= float(np.dot(forcing_vector(forcing, t), yv))
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf, t
        vals[k] = quad
    return eps * float((w * vals).sum()), None


def forcing_vector(forcing, t):
    """f(t) of a coordinate-vector forcing term; t may be scalar or (M,)."""
    if forcing.mode == "spectral":
        raise ValueError("this forcing term has no coordinate representation")
    if forcing.dim is None:
        raise ValueError("zero forcing of unknown dimension; set dim")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    out = np.zeros((1 if scalar else t_arr.shape[0], forcing.dim))
    for p in forcing.parts:
        g = np.asarray(p.profile(t_arr), dtype=float).reshape(-1, 1)
        out = out + g * np.asarray(p.space_vec)
    return out[0] if scalar else out


# Transforms of a uniform FFT grid use the unitary convention with angular frequency:
# the forward integral carries exp(-i xi x) and a prefactor (2 pi)^(-1/2).  The discrete
# sums then satisfy sum |u|^2 dx = sum |u_hat|^2 dxi with no error at all, which the
# energy cross-check relies on.


def require_fft(grid):
    if grid.kind != "uniform_fft":
        raise ValueError("physical-side transforms need a uniform_fft grid")


def grid_points(grid):
    """The physical points x0 + dx*k of a uniform FFT grid."""
    require_fft(grid)
    return grid.x0 + grid.dx * np.arange(grid.n)


def to_physical(grid, u_hat):
    """Inverse transform onto the physical points; complex output."""
    require_fft(grid)
    u_hat = np.asarray(u_hat, dtype=complex)
    phased = u_hat * np.exp(1j * grid.nodes * grid.x0)
    return (math.sqrt(2.0 * math.pi) / grid.dx) * np.fft.ifft(phased)


def from_physical(grid, u):
    require_fft(grid)
    u = np.asarray(u, dtype=complex)
    return (grid.dx / math.sqrt(2.0 * math.pi)) * np.fft.fft(u) * np.exp(-1j * grid.nodes * grid.x0)


def real_field(u, tol: float = 1e-10):
    """Strip a negligible imaginary residue, or refuse if it is not one."""
    u = np.asarray(u)
    scale = float(np.abs(u).max()) + 1e-300
    resid = float(np.abs(u.imag).max()) if np.iscomplexobj(u) else 0.0
    if resid > tol * scale:
        raise ValueError(f"imaginary residue {resid:.3g} exceeds {tol:.1g} of the field scale")
    return u.real if np.iscomplexobj(u) else u


def energy_physical(state, problem, eps, spec=DEFAULT_SPEC, ceiling=ENERGY_CEILING):
    """The same weighted action, but every term summed on the spatial grid.

    The trajectory is transported to physical space sample by sample, the
    generator is applied spectrally and transported too, and all three
    quadratic terms are dx-sums.  Agreement with energy_spectral is a
    transform-consistency check, so this routine deliberately shares no
    norm code with it.  +inf, as there, once the weighted integrand passes
    ceiling.
    """
    grid = problem.grid
    require_fft(grid)
    dx = grid.dx
    ell = problem.symbol_values
    tau, gl_w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        u_hat, du_hat = (np.asarray(v) for v in state(t))
        u = to_physical(grid, u_hat)
        du = to_physical(grid, du_hat)
        gen_u = to_physical(grid, ell * u_hat)
        f_phys = to_physical(grid, problem.forcing_values(t))
        quad = (
            0.5 * eps * dx * float(np.sum(np.abs(du) ** 2))
            + 0.5 * dx * float(np.real(np.sum(np.conj(u) * gen_u)))
            - dx * float(np.real(np.sum(f_phys * np.conj(u))))
        )
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf
        vals[k] = quad
    return eps * float((gl_w * vals).sum())


def el_residual(minimizer, problem, t: float, h: float = 1e-3):
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


def viscous_residual(minimizer, t: float, h: float = 1e-3):
    """Centered-difference check of eps*y'' - y' - A*y + f at time t.

    Returns (residual_norm, scale) where scale is the largest term entering
    the balance, so callers can judge the residual relative to it.
    """
    if t < h:
        raise ValueError("need t >= h for the centered stencil")
    y_m = minimizer.value(t - h)
    y_0 = minimizer.value(t)
    y_p = minimizer.value(t + h)
    d2 = (y_p - 2.0 * y_0 + y_m) / (h * h)
    d1 = (y_p - y_m) / (2.0 * h)
    A = minimizer.problem.matrix
    fv = forcing_vector(minimizer.problem.forcing, float(t))
    res = minimizer.eps * d2 - d1 - A @ y_0 + fv
    scale = max(
        float(np.linalg.norm(minimizer.eps * d2)),
        float(np.linalg.norm(d1)),
        float(np.linalg.norm(A @ y_0)),
        float(np.linalg.norm(np.atleast_1d(fv))),
        1e-30,
    )
    return float(np.linalg.norm(res)), scale
