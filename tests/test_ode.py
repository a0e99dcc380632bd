"""Finite-system selection: eigen machinery, roots, minimizer, exact flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_symmetric
from wie.forcing import ForcingTerm, constant_profile, exponential_profile
from wie.ode import (
    OdeProblem,
    decoupled_forcing,
    eigendecompose,
    energy_ode,
    exact_solution,
    regularized_spectrum,
    selected_minimizer,
    selection_initial,
    viscous_residual,
)
from wie.spectral import root_data


def _problem(matrix, initial, forcing=None):
    return OdeProblem(
        matrix=np.asarray(matrix, dtype=float),
        initial=np.asarray(initial, dtype=float),
        forcing=forcing if forcing is not None else ForcingTerm.zero(),
    )


class TestEigendecompose:
    def test_two_by_two(self):
        eigen = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eigen.values, [1.0, 3.0], atol=1e-14)
        # sign fix: the largest-magnitude entry of each column is positive
        for col in eigen.vectors.T:
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5))
    @settings(deadline=None, max_examples=40)
    def test_project_reconstruct_roundtrip(self, seed, n):
        rng = np.random.default_rng(seed)
        eigen = eigendecompose(random_symmetric(rng, n))
        y = rng.standard_normal(n)
        np.testing.assert_allclose(eigen.reconstruct(eigen.project(y)), y, atol=1e-12)


class TestRegularizedSpectrum:
    def test_positive_eigenvalue_roots(self):
        sp = regularized_spectrum(3.0, 0.1)
        assert sp.slow[0] == pytest.approx(-2.416198487095663, rel=1e-14)
        assert sp.fast[0] == pytest.approx(12.416198487095663, rel=1e-14)

    def test_negative_eigenvalue_roots(self):
        # below zero the slow branch grows, but stays the small root
        sp = regularized_spectrum(-1.0, 0.1)
        assert sp.slow[0] == pytest.approx(1.1270166537925831, rel=1e-13)
        assert sp.fast[0] == pytest.approx(8.872983346207417, rel=1e-13)

    def test_inadmissible_eps_named(self):
        with pytest.raises(ValueError, match="-3"):
            regularized_spectrum(-3.0, 0.1)

    def test_same_admissibility_rule_as_spectral_roots(self):
        # A=[[-1]] at eps=0.15: 1 + 4*eps*mu = 0.4 lies in (0, 1/2], refused by both paths
        with pytest.raises(ValueError, match="-1"):
            regularized_spectrum(-1.0, 0.15)
        with pytest.raises(ValueError, match="-1"):
            root_data(np.array([-1.0]), 0.15)
        with pytest.raises(ValueError, match="-1"):
            selected_minimizer(_problem([[-1.0]], [1.0]), 0.15)

    @given(mu=st.floats(-2.0, 60.0), eps=st.floats(1e-5, 0.12))
    @settings(deadline=None, max_examples=120)
    def test_vieta_identities(self, mu, eps):
        if 1.0 + 4.0 * eps * mu <= 0.5:
            return
        sp = regularized_spectrum(mu, eps)
        lam, fast = float(sp.slow[0]), float(sp.fast[0])
        assert lam + fast == pytest.approx(1.0 / eps, rel=1e-12)
        # products run through intermediates of size mu/eps and eps*fast^2,
        # so "relative" means relative to those scales, not to a tiny mu
        scale_prod = max(1.0, abs(mu) / eps)
        assert lam * fast == pytest.approx(-mu / eps, abs=1e-12 * scale_prod)
        scale_id = max(1.0, abs(mu), eps * fast * fast)
        assert fast * (eps * fast - 1.0) == pytest.approx(mu, abs=1e-12 * scale_id)

    def test_tiny_eps_no_cancellation(self):
        # slow root tends to -mu without losing digits to 1 - sqrt(1+x)
        sp = regularized_spectrum(2.0, 1e-12)
        assert sp.slow[0] == pytest.approx(-2.0, rel=1e-10)


class TestDecoupledForcing:
    @given(t=st.floats(0.0, 3.0))
    @settings(deadline=None, max_examples=60)
    def test_matches_projected_forcing(self, t):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        eigen = eigendecompose(A)
        eps = 0.1
        sp = regularized_spectrum(eigen.values, eps)
        forcing = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -0.5), (1.0, 0.0)),
                (constant_profile(0.5), (0.0, 1.0)),
            ]
        )
        g = decoupled_forcing(eigen, sp, forcing)
        direct = eigen.project(forcing.vector(t)) / sp.disc_sqrt
        np.testing.assert_allclose(g(t), direct, atol=1e-13)
        for i in range(2):
            assert g.component(i)(t) == pytest.approx(direct[i], abs=1e-13)


class TestSelectionInitial:
    def test_zero_forcing_selects_zero(self):
        eigen = eigendecompose(np.array([[1.0]]))
        sp = regularized_spectrum(eigen.values, 0.1)
        g = decoupled_forcing(eigen, sp, ForcingTerm.zero(1))
        np.testing.assert_array_equal(selection_initial(sp, g), np.zeros(1))

    def test_constant_forcing_closed_form(self):
        # g_i constant c: the tail integral is c / fast_rate
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        eigen = eigendecompose(A)
        eps = 0.05
        sp = regularized_spectrum(eigen.values, eps)
        forcing = ForcingTerm.from_vectors([(constant_profile(1.0), (0.3, -0.7))])
        g = decoupled_forcing(eigen, sp, forcing)
        got = selection_initial(sp, g)
        want = g(0.0) / sp.fast
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestSelectedMinimizer:
    def test_initial_value_recovered(self):
        rng = np.random.default_rng(7)
        A = random_symmetric(rng, 3)
        y0 = rng.uniform(-1.0, 1.0, 3)
        forcing = ForcingTerm.from_vectors([(exponential_profile(1.0, -0.4), tuple(rng.uniform(-1, 1, 3)))])
        m = selected_minimizer(_problem(A, y0, forcing), 0.05)
        np.testing.assert_allclose(m(0.0), y0, atol=1e-13)

    def test_satisfies_second_order_equation(self):
        rng = np.random.default_rng(11)
        A = random_symmetric(rng, 2)
        y0 = rng.uniform(-1.0, 1.0, 2)
        forcing = ForcingTerm.from_vectors([(exponential_profile(0.8, -0.6), (1.0, -0.5))])
        m = selected_minimizer(_problem(A, y0, forcing), 0.05)
        res, scale = viscous_residual(m, 0.5, h=1e-3)
        assert res <= 1e-5 * scale

    def test_residual_shrinks_second_order(self):
        rng = np.random.default_rng(13)
        A = random_symmetric(rng, 2)
        m = selected_minimizer(_problem(A, rng.uniform(-1, 1, 2)), 0.05)
        r1, s1 = viscous_residual(m, 0.5, h=1e-3)
        r2, s2 = viscous_residual(m, 0.5, h=5e-4)
        assert r2 * s1 <= r1 * s2 / 3.5 or r1 <= 1e-12 * s1

    def test_energy_below_exact_flow_energy(self):
        # the minimizer beats every admissible path, the first-order flow included
        rng = np.random.default_rng(17)
        A = random_symmetric(rng, 2)
        y0 = rng.uniform(-1.0, 1.0, 2)
        prob = _problem(A, y0)
        eps = 0.1
        m = selected_minimizer(prob, eps)
        e_min, _ = m.energy()
        flow = exact_solution(prob)
        e_flow, _ = energy_ode(flow, flow.derivative, A, prob.forcing, eps)
        assert e_min <= e_flow + 1e-12


class TestExactSolution:
    def test_diagonal_decay(self):
        prob = _problem(np.diag([1.0, 3.0]), [1.0, -2.0])
        y = exact_solution(prob)
        t = 0.7
        np.testing.assert_allclose(
            y(t), [math.exp(-t), -2.0 * math.exp(-3.0 * t)], rtol=1e-13
        )

    def test_constant_forcing_closed_form(self):
        # y' = -a y + c from y0: y = (y0 - c/a) exp(-a t) + c/a
        a, c, y0 = 2.0, 0.6, 1.0
        prob = _problem([[a]], [y0], ForcingTerm.from_vectors([(constant_profile(c), (1.0,))]))
        y = exact_solution(prob)
        for t in (0.0, 0.3, 1.0, 2.5):
            want = (y0 - c / a) * math.exp(-a * t) + c / a
            assert y(t)[0] == pytest.approx(want, rel=1e-11)

    def test_derivative_is_the_equation(self):
        rng = np.random.default_rng(23)
        A = random_symmetric(rng, 3)
        y0 = rng.uniform(-1.0, 1.0, 3)
        forcing = ForcingTerm.from_vectors([(exponential_profile(1.0, -0.2), (0.5, 0.0, -0.5))])
        prob = _problem(A, y0, forcing)
        y = exact_solution(prob)
        for t in (0.0, 0.4, 1.7):
            want = -A @ y(t) + forcing.vector(t)
            np.testing.assert_allclose(y.derivative(t), want, atol=1e-11)


class TestEnergy:
    def test_explicit_path_closed_form(self):
        # y = exp(-t), A = (1), f = 0:
        # int exp(-t/eps) (eps/2 + 1/2) exp(-2t) dt
        eps = 0.2
        val, crossed = energy_ode(
            lambda t: np.array([math.exp(-t)]),
            lambda t: np.array([-math.exp(-t)]),
            np.array([[1.0]]),
            ForcingTerm.zero(1),
            eps,
        )
        want = (0.5 * eps + 0.5) / (2.0 + 1.0 / eps)
        assert crossed is None
        assert val == pytest.approx(want, rel=1e-12)

    def test_divergent_path_reports_crossing(self):
        val, crossed = energy_ode(
            lambda t: np.array([math.exp(30.0 * t)]),
            lambda t: np.array([30.0 * math.exp(30.0 * t)]),
            np.array([[1.0]]),
            ForcingTerm.zero(1),
            0.5,
        )
        assert val == math.inf
        assert crossed is not None
