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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import wie.cli as cli
from wie.config import parse_config
from wie.forcing import (
    TimeProfile,
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
    inside = [p for p in points if a < p < b]
    val, _err = integrate.quad(
        f, a, b, points=inside or None, epsabs=0.0, epsrel=1e-13, limit=400
    )
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
