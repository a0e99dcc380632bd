"""Closed-form and property checks for the weighted quadrature layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laplace_tail, weighted_energy
from wie.quadrature import (
    DEFAULT_SPEC,
    DivergenceError,
    ExponentOverflowError,
    QuadratureFailure,
    QuadratureSpec,
    convolution_integral,
    convolution_integral_batch,
    finite_interval,
    laplace_tail_shifted,
    laplace_tail_shifted_batch,
    poincare_sides,
    weighted_halfline,
)


class TestWeightedHalfline:
    def test_exponential_integrand(self):
        # int exp(-4t) exp(-t) = 1/5
        val = weighted_halfline(lambda t: math.exp(-t), 0.25)
        assert val == pytest.approx(0.2, rel=1e-13)

    def test_linear_integrand(self):
        # int exp(-5t) t = eps^2
        val = weighted_halfline(lambda t: t, 0.2)
        assert val == pytest.approx(0.04, rel=1e-13)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            weighted_halfline(lambda t: 1.0, 0.0)

    @given(k=st.integers(min_value=0, max_value=5), eps=st.floats(0.01, 1.0))
    @settings(deadline=None, max_examples=60)
    def test_monomial_exactness(self, k, eps):
        # int exp(-t/eps) t^k = k! eps^(k+1); Gauss-Laguerre is exact here
        val = weighted_halfline(lambda t: t**k, eps)
        assert val == pytest.approx(math.factorial(k) * eps ** (k + 1), rel=1e-10)

    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        eps=st.floats(0.05, 0.5),
    )
    @settings(deadline=None, max_examples=60)
    def test_linearity(self, a, b, eps):
        phi1 = lambda t: math.exp(-t)
        phi2 = lambda t: t * math.exp(-0.5 * t)
        combined = weighted_halfline(lambda t: a * phi1(t) + b * phi2(t), eps)
        separate = a * weighted_halfline(phi1, eps) + b * weighted_halfline(phi2, eps)
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-12)

    def test_adaptive_agrees_with_gauss(self):
        spec = QuadratureSpec(method="adaptive")
        phi = lambda t: math.exp(-t) * math.cos(3.0 * t)
        assert weighted_halfline(phi, 0.3, spec) == pytest.approx(
            weighted_halfline(phi, 0.3), rel=1e-9
        )


class TestLaplaceTails:
    def test_constant_tail(self):
        assert laplace_tail(lambda s: 1.0, 8.0) == pytest.approx(0.125, rel=1e-13)

    def test_shifted_constant_tail(self):
        # int_{1/2}^inf exp(-10 s) ds = exp(-5)/10
        val = laplace_tail(lambda s: 1.0, 10.0, t0=0.5)
        assert val == pytest.approx(math.exp(-5.0) / 10.0, rel=1e-12)

    def test_shift_identity(self):
        phi = lambda s: math.exp(-0.4 * s) * (1.0 + s)
        mu, t0 = 3.0, 0.7
        lhs = laplace_tail(phi, mu, t0)
        rhs = math.exp(-mu * t0) * laplace_tail_shifted(phi, mu, t0)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_growth_must_be_dominated(self):
        with pytest.raises(DivergenceError):
            laplace_tail_shifted(lambda s: math.exp(2.0 * s), 2.0, 0.0, growth_rate=2.0)

    @given(mu=st.floats(0.5, 20.0), t0=st.floats(0.0, 3.0))
    @settings(deadline=None, max_examples=60)
    def test_exponential_tail_closed_form(self, mu, t0):
        # int_0^inf exp(-mu u) exp(-(t0+u)) du = exp(-t0)/(mu+1)
        val = laplace_tail_shifted(lambda s: math.exp(-s), mu, t0)
        assert val == pytest.approx(math.exp(-t0) / (mu + 1.0), rel=1e-10)

    def test_batch_matches_scalar(self):
        mus = np.array([0.7, 2.0, 9.0, 31.0])
        phi = lambda s: np.exp(-0.2 * np.asarray(s)) * (2.0 + np.sin(np.asarray(s)))
        batch = laplace_tail_shifted_batch(phi, mus, 0.4)
        for i, mu in enumerate(mus):
            single = laplace_tail_shifted(phi, float(mu), 0.4)
            assert batch[i] == pytest.approx(single, rel=1e-12)


class TestConvolution:
    def test_zero_upper_limit(self):
        assert convolution_integral(lambda s: 1.0, -2.0, 0.0) == 0.0

    def test_constant_decaying_kernel(self):
        # int_0^1 exp(-2(1-s)) ds = (1 - exp(-2))/2
        val = convolution_integral(lambda s: 1.0, -2.0, 1.0)
        assert val == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)

    def test_exponential_source(self):
        # int_0^1 exp(-2(1-s)) exp(-s) ds = exp(-1) - exp(-2)
        val = convolution_integral(lambda s: math.exp(-s), -2.0, 1.0)
        assert val == pytest.approx(math.exp(-1.0) - math.exp(-2.0), rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(ExponentOverflowError):
            convolution_integral(lambda s: 1.0, 1.0, 800.0)

    def test_batch_matches_scalar(self):
        lams = np.array([-0.3, -2.0, -15.0])
        phi = lambda s: np.cos(np.asarray(s))
        batch = convolution_integral_batch(phi, lams, 1.3)
        for i, lam in enumerate(lams):
            single = convolution_integral(phi, float(lam), 1.3)
            assert batch[i] == pytest.approx(single, rel=1e-10, abs=1e-14)

    @given(lam=st.floats(-8.0, -0.1), t=st.floats(0.1, 4.0))
    @settings(deadline=None, max_examples=60)
    def test_constant_source_closed_form(self, lam, t):
        val = convolution_integral(lambda s: 1.0, lam, t)
        assert val == pytest.approx((math.exp(lam * t) - 1.0) / lam, rel=1e-9)


class TestFiniteInterval:
    def test_smooth(self):
        val, err = finite_interval(lambda s: math.sin(s), 0.0, math.pi, 1e-12)
        assert val == pytest.approx(2.0, rel=1e-12)
        assert err < 1e-10

    def test_endpoint_singularity(self):
        # worst-first refinement digs into the corner without drowning in panels
        val, err = finite_interval(lambda s: s**-0.5, 0.0, 1.0, 1e-9)
        assert val == pytest.approx(2.0, rel=1e-7)

    def test_budget_exhaustion_reports_partial(self):
        with pytest.raises(QuadratureFailure) as info:
            finite_interval(lambda s: s**-0.5, 0.0, 1.0, 1e-15, max_panels=16)
        assert info.value.partial == pytest.approx(2.0, rel=1e-2)
        assert info.value.error_estimate > 0.0

    @given(a=st.floats(-2.0, 0.0), b=st.floats(0.5, 3.0))
    @settings(deadline=None, max_examples=50)
    def test_polynomial_exact(self, a, b):
        val, _ = finite_interval(lambda s: 3.0 * s * s, a, b, 1e-12)
        assert val == pytest.approx(b**3 - a**3, rel=1e-11, abs=1e-11)


class TestWeightedEnergy:
    def test_finite_case(self):
        val, crossed = weighted_energy(lambda t: math.exp(-t), 0.5)
        assert crossed is None
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_ceiling_crossing(self):
        # exp(40 t) against exp(-t/0.5): weighted integrand blows up
        val, crossed = weighted_energy(lambda t: math.exp(40.0 * t), 0.5)
        assert val == math.inf
        assert crossed is not None and crossed > 0.0


class TestPoincareSides:
    def test_closed_form_exponential(self):
        eps = 0.1
        # y = exp(-t): |y|^2 = exp(-2t), |y'|^2 = exp(-2t), y(0)^2 = 1
        lhs, rhs = poincare_sides(
            lambda t: math.exp(-2.0 * t), lambda t: math.exp(-2.0 * t), 1.0, eps
        )
        denom = 2.0 + 1.0 / eps
        assert lhs == pytest.approx(0.5 / denom, rel=1e-12)
        assert rhs == pytest.approx(eps + 2.0 * eps * eps / denom, rel=1e-12)
        assert lhs <= rhs

    @given(rate=st.floats(0.1, 4.0), eps=st.floats(0.02, 0.4))
    @settings(deadline=None, max_examples=60)
    def test_estimate_holds_for_decaying_paths(self, rate, eps):
        lhs, rhs = poincare_sides(
            lambda t: math.exp(-2.0 * rate * t),
            lambda t: rate * rate * math.exp(-2.0 * rate * t),
            1.0,
            eps,
        )
        assert lhs <= rhs * (1.0 + 1e-10)
