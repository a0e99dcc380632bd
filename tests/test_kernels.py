"""Exact modal kernels: the Duhamel convolution and the shifted Laplace tail.

Two layers of checks.  Through `wie run`, spectral configs with power and
sampled forcing are compared node by node against scipy.integrate.quad at
the QuadratureSpec contract.  Directly, every profile kind's kernels are
compared against the package's adaptive quadrature and against scipy
closed forms, over rates of both signs, near-cancelling rates, kinks at
sample nodes and large tail arguments.
"""

import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import wie.cli as cli
from oracles import decimal_exp_differences
from wie.config import parse_config
from wie.forcing import (
    TimeProfile,
    _ExpDifference,
    _ExpSecondDifference,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from wie.quadrature import (
    QuadratureSpec,
    DivergenceError,
    ExponentOverflowError,
    convolution_integral,
    convolution_integral_batch,
    finite_interval,
    laplace_tail_shifted,
    laplace_tail_shifted_batch,
)
from wie.spectral import semigroup_solution

ABS_TOL = 1e-12
REL_TOL = 1e-10

KINKS = (0.0, 0.3, 1.0)
POWER = {"kind": "power", "amplitude": "1.0", "degree": "0.5"}
SAMPLED = {"kind": "sampled", "times": ["0.0", "0.3", "1.0"], "values": ["0.0", "1.0", "1.0"]}
FIELD_TIMES = (0.0, 0.2, 0.3, 0.5, 1.0)
NODES = (0, 1, 3, 7)  # grid indices: xi = 0, the first modes, a mid frequency


def _quad(f, a, b, points=()):
    """int_a^b f, asked for to 1e-3 of the tests' contract ABS_TOL + REL_TOL int |f|.

    A relative request alone cannot be met where f cancels far below int |f|,
    or is far below ABS_TOL: quad's roundoff floor is 50 ulps of int |f|, and
    quad then says that its error estimate may be too small.  Nor can quad
    split a width near the underflow threshold; there one midpoint is exact
    far below any tolerance.
    """
    if b - a < 1e-300:
        return (b - a) * f(0.5 * (a + b))
    opts = dict(points=[p for p in points if a < p < b] or None, limit=400)
    scale, _err = integrate.quad(
        lambda s: abs(f(s)), a, b, epsabs=1e-3 * ABS_TOL, epsrel=1e-8, **opts
    )
    tol = 1e-3 * (ABS_TOL + REL_TOL * scale)
    val, _err = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-13, **opts)
    return val


def _ref_duhamel(g, lam, t, kinks=()):
    """int_0^t exp(lam (t-s)) g(s) ds by adaptive quadrature."""
    if t == 0.0:
        return 0.0
    return _quad(lambda s: math.exp(lam * (t - s)) * g(s), 0.0, t, kinks)


def _ref_tail(g, mu, t, kinks=()):
    """int_0^inf exp(-mu u) g(t+u) du, in the variable v = mu*u."""
    # past v = 700 the weight has beaten every growth rate the tests use
    f = lambda v: math.exp(-v) * g(t + v / mu) if v < 700.0 else 0.0
    cut = max([mu * (k - t) for k in kinks if k > t] + [1.0])
    # break points at the kinks, and geometric ones resolving (t + v/mu)^degree near v = 0;
    # panels narrower than 1e-15 (a subnormal t) only feed quad roundoff
    geometric = [mu * t * 10.0**k for k in range(16)]
    points = [mu * (k - t) for k in kinks] + [v for v in geometric if v > 1e-15]
    head = _quad(f, 0.0, cut, points)
    rest, _err = integrate.quad(f, cut, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return (head + rest) / mu


def _spectral_config(profile, ladder=("1e-1",)):
    return {
        "schema_version": 1,
        "mode": "spectral",
        "problem_id": "kernel-regression",
        "symbol": {"kind": "fractional", "s": "0.5"},
        "frequency_grid": {"kind": "uniform_fft", "n": 16, "dx": "0.5"},
        "initial": {"kind": "gaussian", "amplitude": "1.0", "variance": "1.0"},
        "forcing": {
            "parts": [
                {
                    "profile": profile,
                    "multiplier": {"kind": "gaussian", "amplitude": "1.0", "variance": "1.0"},
                }
            ]
        },
        "epsilon_ladder": list(ladder),
        "horizon": "1.0",
        "time_points": 21,
        "output": {"write_field": True, "field_times": [repr(t) for t in FIELD_TIMES]},
    }


def _run(tmp_path, profile):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_spectral_config(profile)))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    cfg = parse_config(str(cfg_path))
    meta = json.loads((out / "field_meta.json").read_text())
    field = np.frombuffer((out / "field.bin").read_bytes(), dtype="<c16")
    return cfg, meta["epsilon"], field.reshape(len(FIELD_TIMES), -1)


@pytest.mark.parametrize("profile", [POWER, SAMPLED], ids=["power-0.5", "sampled-kink"])
def test_selected_minimizer_and_flow_match_quad(tmp_path, profile):
    cfg, eps, field = _run(tmp_path, profile)
    problem = cfg.spectral_problem
    g = problem.forcing.parts[0].profile
    kinks = KINKS if g.kind == "sampled" else ()
    H = np.asarray(problem.forcing_parts[0][1])
    ell = problem.symbol_values
    u0 = problem.initial_hat
    flow = semigroup_solution(problem)
    for i in NODES:
        z = math.sqrt(1.0 + 4.0 * eps * ell[i])
        lam = -2.0 * ell[i] / (1.0 + z)
        mu = (1.0 + z) / (2.0 * eps)
        slow0 = u0[i] - H[i] * _ref_tail(g, mu, 0.0, kinks) / z
        for k, t in enumerate(FIELD_TIMES):
            decayed = math.exp(lam * t) * slow0
            conv = H[i] * _ref_duhamel(g, lam, t, kinks) / z
            tail = H[i] * _ref_tail(g, mu, t, kinks) / z
            want = decayed + conv + tail
            tol = 2 * ABS_TOL + REL_TOL * (abs(decayed) + abs(conv) + abs(tail))
            assert abs(field[k, i] - want) <= tol, (i, t, field[k, i], want)

            f_conv = H[i] * _ref_duhamel(g, -ell[i], t, kinks)
            f_want = math.exp(-ell[i] * t) * u0[i] + f_conv
            f_tol = ABS_TOL + REL_TOL * (abs(f_want) + abs(f_conv))
            assert abs(flow.value(t)[i] - f_want) <= f_tol, (i, t)


# ---- Property tests: every kind against quadrature oracles ----

amplitudes = st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 1e-3)


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["constant", "exponential", "power", "sampled"]))
    if kind == "constant":
        return constant_profile(draw(amplitudes))
    if kind == "exponential":
        return exponential_profile(draw(amplitudes), draw(st.floats(-3.0, 3.0)))
    if kind == "power":
        degree = draw(st.one_of(st.integers(0, 3).map(float), st.floats(0.05, 3.5)))
        return power_profile(draw(amplitudes), degree)
    n = draw(st.integers(2, 5))
    times = sorted(draw(st.lists(st.floats(-0.5, 3.0), min_size=n, max_size=n, unique=True)))
    assume(min(b - a for a, b in zip(times, times[1:])) > 1e-3)
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return sampled_profile(times, values)


def _kinks(p: TimeProfile):
    return tuple(p.times) if p.kind == "sampled" else ()


def _close(got, want, scale=None):
    scale = abs(want) if scale is None else scale
    return abs(got - want) <= ABS_TOL + REL_TOL * scale


def _adaptive_duhamel(p, lam, t, tol):
    """The package's adaptive engine on panels no wider than the kernel's decay scale.

    Its first 7/15-node pair can miss a narrow peak, and across an interior
    kink its estimate can miss by 1e-10 while reporting 1e-16, so it is
    split at the kinks (as scipy is by points=) and at steps of 1/|lam|
    from both ends.
    """
    steps = [k / abs(lam) for k in range(1, 65)] if lam else []
    inner = [k for k in _kinks(p) if 0.0 < k < t] + steps + [t - d for d in steps]
    cuts = sorted({0.0, t, *(c for c in inner if 0.0 < c < t)})
    f = lambda s: math.exp(lam * (t - s)) * p(s)
    return sum(finite_interval(f, a, b, tol)[0] for a, b in zip(cuts, cuts[1:]))


def _adaptive_tail(p, mu, t, tol):
    """Unit panels in v = mu*(s-t) up to the last kink, then the adaptive half-line rule."""
    kinks = [mu * (k - t) for k in _kinks(p) if k > t]
    last = max(kinks, default=0.0)
    cuts = sorted({0.0, *kinks, *(float(k) for k in range(1, 65) if k < last)})
    f = lambda v: math.exp(-v) * p(t + v / mu)
    head = sum(finite_interval(f, a, b, tol * mu)[0] for a, b in zip(cuts, cuts[1:])) / mu
    rest = laplace_tail_shifted(p, mu, t + last / mu, QuadratureSpec(method="adaptive"))
    return head + math.exp(-last) * rest


def _abs_duhamel(p, lam, t):
    """int_0^t exp(lam (t-s)) |g(s)| ds, the scale the contract applies to."""
    return _ref_duhamel(lambda s: abs(p(s)), lam, t, _kinks(p))


@given(p=profiles(), lam=st.floats(-60.0, 20.0), t=st.floats(0.0, 3.0))
@settings(deadline=None, max_examples=150)
def test_duhamel_matches_scipy_and_adaptive_quadrature(p, lam, t):
    got = float(p.duhamel(np.array([lam]), t)[0])
    scale = _abs_duhamel(p, lam, t)
    assert _close(got, _ref_duhamel(p, lam, t, _kinks(p)), scale)
    assert _close(got, _adaptive_duhamel(p, lam, t, 1e-3 * ABS_TOL + 1e-3 * REL_TOL * scale), scale)


@given(p=profiles(), mu=st.floats(3.5, 2e3), t=st.floats(0.0, 3.0))
@settings(deadline=None, max_examples=150)
def test_tail_matches_scipy_and_adaptive_quadrature(p, mu, t):
    got = float(p.shifted_tail(np.array([mu]), t)[0])
    scale = _ref_tail(lambda s: abs(p(s)), mu, t, _kinks(p))
    assert _close(got, _ref_tail(p, mu, t, _kinks(p)), scale)
    assert _close(got, _adaptive_tail(p, mu, t, 1e-3 * ABS_TOL + 1e-3 * REL_TOL * scale), scale)


@given(
    rate=st.floats(-3.0, 3.0),
    gap=st.floats(1e-12, 1e-2),
    sign=st.sampled_from([-1.0, 1.0]),
    t=st.floats(0.01, 3.0),
)
@settings(deadline=None, max_examples=100)
def test_duhamel_near_equal_rates(rate, gap, sign, t):
    # |lam - r| t down to 1e-12: the phi1 series branch, where expm1 alone would cancel
    p = exponential_profile(0.5, rate)
    lam = rate + sign * gap / t
    got = float(p.duhamel(np.array([lam]), t)[0])
    want = _ref_duhamel(p, lam, t)
    assert _close(got, want)
    # the limit lam == r is t exp(r t) times the amplitude
    assert got == pytest.approx(0.5 * t * math.exp(rate * t), rel=2 * gap + 1e-14)


@pytest.mark.parametrize("t", [0.0, 0.2, 0.3, 0.65, 1.0, 1.7])
def test_sampled_kernels_at_and_between_kinks(t):
    # t before, at and after the interior node and the ends of the range
    p = sampled_profile([0.3, 1.0, 1.5], [0.0, 1.0, -0.5])
    lam = np.array([-40.0, -1.0, -1e-9, 0.0, 2.5])
    mu = np.array([0.7, 10.0, 400.0])
    for l, got in zip(lam, p.duhamel(lam, t)):
        assert _close(got, _ref_duhamel(p, l, t, _kinks(p)), _abs_duhamel(p, l, t))
    for m, got in zip(mu, p.shifted_tail(mu, t)):
        assert _close(got, _ref_tail(p, m, t, _kinks(p)), _ref_tail(abs, m, t))


@given(
    degree=st.one_of(st.integers(0, 4).map(float), st.floats(0.05, 4.0)),
    x=st.floats(1e-3, 1e4),
    t=st.floats(1e-3, 3.0),
)
@settings(deadline=None, max_examples=150)
def test_power_tail_large_arguments(degree, x, t):
    # mu t up to 1e4; reference in the scaled variable v = mu u, plus the gamma closed form
    mu = x / t
    p = power_profile(1.0, degree)
    got = float(p.shifted_tail(np.array([mu]), t)[0])
    assert _close(got, _ref_tail(p, mu, t))
    if x < 500.0:
        a = degree + 1.0
        closed = math.exp(x) * special.gammaincc(a, x) * special.gamma(a) / mu**a
        assert got == pytest.approx(closed, rel=1e-11)


@given(
    degree=st.one_of(st.integers(0, 4).map(float), st.floats(0.05, 4.0)),
    z=st.floats(-2e4, 650.0),
)
@settings(deadline=None, max_examples=150)
def test_power_duhamel_every_regime(degree, z):
    # z = lam t crosses the series, finite-sum, continued-fraction, Poisson and asymptotic regimes
    got = float(power_profile(1.0, degree).duhamel(np.array([z]), 1.0)[0])
    a = degree + 1.0
    if z > 1.0:
        want = math.exp(z) * special.gammainc(a, z) * special.gamma(a) / z**a
    else:
        # int_0^1 exp(z u) (1-u)^degree du, with break points inside the peak at u = 0
        width = 1.0 / max(abs(z), 1.0)
        f = lambda u: math.exp(z * u) * (1.0 - u) ** degree
        want = _quad(f, 0.0, 1.0, [k * width for k in (1.0, 10.0, 40.0)])
    assert got == pytest.approx(want, rel=1e-11, abs=ABS_TOL)


def test_zero_time():
    for p in (constant_profile(1.0), exponential_profile(1.0, 0.5), power_profile(1.0, 0.5),
              sampled_profile([0.0, 1.0], [1.0, 2.0])):
        np.testing.assert_array_equal(p.duhamel(np.array([-3.0, 0.0, 4.0]), 0.0), 0.0)
        assert _close(float(p.shifted_tail(np.array([5.0]), 0.0)[0]), _ref_tail(p, 5.0, 0.0))


def test_unknown_kind_raises():
    p = TimeProfile("bogus")
    with pytest.raises(ValueError, match="bogus"):
        p.duhamel(np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="bogus"):
        p.shifted_tail(np.array([1.0]), 1.0)


@pytest.mark.parametrize(
    "p",
    [constant_profile(1.0), exponential_profile(1.0, -0.5), power_profile(1.0, 1.5),
     sampled_profile([0.0, 1.0], [1.0, 2.0])],
    ids=["constant", "exponential", "power", "sampled"],
)
def test_error_parity_with_quadrature(p):
    # a rate whose exponent passes the cap: the kernels refuse exactly where quadrature does
    lam, t = 300.0, 2.5
    with pytest.raises(ExponentOverflowError):
        convolution_integral(p, lam, t)
    with pytest.raises(ExponentOverflowError):
        convolution_integral_batch(p, np.array([1.0, lam]), t)
    with pytest.raises(ExponentOverflowError):
        p.duhamel(np.array([1.0, lam]), t)
    p.duhamel(np.array([1.0, 279.0]), t)  # 697.5 stays below the cap
    # a tail rate that does not exceed the declared growth diverges in both
    with pytest.raises(DivergenceError):
        laplace_tail_shifted(p, 2.0, 0.5, growth_rate=2.0)
    with pytest.raises(DivergenceError):
        laplace_tail_shifted_batch(p, np.array([5.0, 2.0]), 0.5, growth_rate=2.0)
    with pytest.raises(DivergenceError):
        p.shifted_tail(np.array([5.0, 2.0]), 0.5, growth_rate=2.0)
    p.shifted_tail(np.array([5.0, 2.001]), 0.5, growth_rate=2.0)


def test_tail_refuses_rate_below_profile_growth():
    with pytest.raises(DivergenceError):
        exponential_profile(1.0, 3.0).shifted_tail(np.array([10.0, 2.5]), 0.0)


# ---- Block evaluation over a time grid ----

BLOCK_PROFILES = [
    constant_profile(-0.7),
    exponential_profile(1.3, -0.4),
    exponential_profile(-2.0, 0.9),
    power_profile(0.5, 0.5),
    power_profile(-1.5, 2.0),
    sampled_profile([0.0, 0.2, 0.5, 0.55, 1.3], [1.0, -2.0, 0.5, 3.0, 0.0]),
]
BLOCK_IDS = ["constant", "exponential", "exponential-growing", "power", "power-integer", "sampled"]
# t = 0 rows, the sample kinks, a time past the last sample and a dense grid
BLOCK_TIMES = np.concatenate(([0.0, 0.0, 1e-9, 0.2, 0.55, 2.0], np.linspace(0.0, 1.5, 61)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("p", BLOCK_PROFILES, ids=BLOCK_IDS)
def test_block_rows_are_the_scalar_calls_bit_for_bit(p):
    rng = np.random.default_rng(41)
    lam = np.concatenate((-rng.uniform(0.0, 60.0, 7), [0.3, 0.0]))
    mu = rng.uniform(1.5, 200.0, 9)
    duhamel = p.duhamel(lam, BLOCK_TIMES)
    tail = p.shifted_tail(mu, BLOCK_TIMES, 1.0)
    assert duhamel.shape == tail.shape == (BLOCK_TIMES.size, 9)
    for k, t in enumerate(BLOCK_TIMES):
        np.testing.assert_array_equal(_bits(duhamel[k]), _bits(p.duhamel(lam, float(t))))
        np.testing.assert_array_equal(_bits(tail[k]), _bits(p.shifted_tail(mu, float(t), 1.0)))
    # t = 0 rows are +0.0, as the scalar call gives them, whatever the amplitude's sign
    np.testing.assert_array_equal(_bits(duhamel[:2]), 0)


@pytest.mark.parametrize("p", BLOCK_PROFILES, ids=BLOCK_IDS)
def test_block_refuses_what_some_row_refuses(p):
    times = np.array([0.0, 1.0, 2.5])
    with pytest.raises(ExponentOverflowError):
        p.duhamel(np.array([1.0, 300.0]), times)  # only the last row passes the cap
    with pytest.raises(ValueError, match="nonnegative"):
        p.duhamel(np.array([1.0]), np.array([0.5, -1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        p.shifted_tail(np.array([5.0]), np.array([0.5, -1.0]))
    with pytest.raises(DivergenceError):
        p.shifted_tail(np.array([5.0, 2.0]), times, growth_rate=2.0)
    with pytest.raises(ValueError, match="1-D"):
        p.duhamel(np.array([1.0]), np.zeros((2, 2)))
    assert p.duhamel(np.array([1.0, 2.0]), np.array([])).shape == (0, 2)


@st.composite
def _rate_triples(draw):
    """(x0, delta, x2, t) with x1 = x0 + delta: x2 below, at or above both, or between.

    The spread of the three rates is 0, 1e-12 to 1e-6, on either side of
    the Taylor radius 1/2 (in units of 1/t), or far past it.
    """
    t = draw(st.floats(1e-2, 4.0))
    x0 = draw(st.floats(-20.0, 5.0))
    scale = draw(st.sampled_from(["equal", "close", "radius", "far"]))
    spread = {
        "equal": lambda: 0.0,
        "close": lambda: 10.0 ** draw(st.floats(-12.0, -6.0)),
        "radius": lambda: draw(st.floats(0.25, 1.0)) / t,
        "far": lambda: draw(st.floats(1.0, 40.0)) / t,
    }[scale]()
    place = draw(st.sampled_from(["below", "at x0", "between", "at x1", "above"]))
    frac = draw(st.sampled_from([0.0, 1.0])) or 10.0 ** draw(st.floats(-15.0, 0.0))
    if place == "below":
        return x0, frac * spread, x0 - (1.0 - frac) * spread, t
    if place == "at x0":
        return x0, spread, x0, t
    if place == "between":
        return x0, spread, x0 + frac * spread, t
    if place == "at x1":
        x2 = x0 + spread  # resonance: x1 = x2
        return x0, x2 - x0, x2, t
    return x0, frac * spread, x0 + spread, t


@given(triple=_rate_triples(), weight=st.floats(-2.0, -0.1) | st.just(0.0) | st.floats(0.1, 2.0))
@example(triple=(-1.0, 0.0, -1.0, 0.7), weight=1.0)  # three equal rates
@example(triple=(-1.0, 0.25, -0.75, 2.0), weight=1.0)  # x2 = x1, spread t at the radius
@example(triple=(-3.0, 1e-12, -3.0 - 1e-12, 1.0), weight=0.5)  # 1e-12 apart
@settings(deadline=None, max_examples=300)
def test_second_difference_matches_the_decimal_oracle(triple, weight):
    # D[x1, x2] - D[x0, x2] = delta E[x0, x1, x2] from exactly rounded first differences,
    # within 8 ulps of the exponent's own conditioning; without the Taylor series, or
    # with the direct difference everywhere, rates 1e-12 apart miss by 1e-4 or more
    x0, delta, x2, t = triple
    e01, d12, d02, want = decimal_exp_differences(x0, delta, x2, t)
    kernel = _ExpSecondDifference(np.array([x0]), np.array([delta]), x2, weight)
    got = kernel(t, *(np.array([float(v)]) for v in (e01, d12, d02)))
    want *= Decimal(weight)
    tol = Decimal(8 * 2.0**-52 * (1.0 + t * max(abs(x0), abs(x0 + delta), abs(x2))))
    assert abs(Decimal(float(got[0])) - want) <= tol * abs(want)
    # the first difference as the spectral sweep forms it, with x1 - x2 from delta
    x1 = np.array([x0 + delta])
    first = _ExpDifference(x1, x2, gap=np.array([delta - (x2 - x0)]))
    assert abs(Decimal(float(first(t, np.exp(x1 * t))[0])) - d12) <= tol * d12


def test_second_difference_takes_many_rates_at_once():
    # one call on arrays gives each rate triple's own value, in every branch
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-10.0, 2.0, 64)
    delta = np.where(rng.uniform(size=64) < 0.3, 0.0, 10.0 ** rng.uniform(-9.0, 0.5, 64))
    x2 = -1.0
    kernel = _ExpSecondDifference(x0, delta, x2, 0.5)
    for t in (0.05, 0.8, 3.0):
        first = [decimal_exp_differences(*v, x2, t) for v in zip(x0, delta)]
        e01, d12, d02 = (np.array([float(d[k]) for d in first]) for k in range(3))
        got = kernel(t, e01, d12, d02)
        for g, d, a, b in zip(got, first, x0, delta):
            want = Decimal(0.5) * d[3]
            tol = Decimal(8 * 2.0**-52 * (1.0 + t * max(abs(a), abs(a + b), abs(x2))))
            assert abs(Decimal(float(g)) - want) <= tol * abs(want)
