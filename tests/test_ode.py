"""Finite-system selection: eigen machinery, roots, minimizer, exact flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import energy_ode, random_symmetric
from wie import symbols
from wie.forcing import (
    ForcingTerm,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from wie.ode import (
    OdeProblem,
    SelectedOdeMinimizer,
    eigendecompose,
    exact_solution,
    selected_minimizer,
    viscous_residual,
)
from wie.quadrature import DEFAULT_SPEC
from wie.spectral import (
    FrequencyGrid,
    RootData,
    SelectedSpectralMinimizer,
    SpectralProblem,
    energy_spectral,
    minimizer_hat,
    root_data,
    semigroup_solution,
)


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
        sp = root_data(3.0, 0.1, check=False)
        assert sp.slow[0] == pytest.approx(-2.416198487095663, rel=1e-14)
        assert sp.fast[0] == pytest.approx(12.416198487095663, rel=1e-14)

    def test_negative_eigenvalue_roots(self):
        # below zero the slow branch grows, but stays the small root
        sp = root_data(-1.0, 0.1, check=False)
        assert sp.slow[0] == pytest.approx(1.1270166537925831, rel=1e-13)
        assert sp.fast[0] == pytest.approx(8.872983346207417, rel=1e-13)

    def test_inadmissible_eps_named(self):
        with pytest.raises(ValueError, match="-3"):
            root_data(-3.0, 0.1, check=False)

    def test_same_admissibility_rule_as_spectral_roots(self):
        # A=[[-1]] at eps=0.15: 1 + 4*eps*mu = 0.4 lies in (0, 1/2], refused by both paths
        with pytest.raises(ValueError, match="-1"):
            root_data(-1.0, 0.15, check=False)
        with pytest.raises(ValueError, match="-1"):
            root_data(np.array([-1.0]), 0.15)
        with pytest.raises(ValueError, match="-1"):
            selected_minimizer(_problem([[-1.0]], [1.0]), 0.15)

    @given(mu=st.floats(-2.0, 60.0), eps=st.floats(1e-5, 0.12))
    @settings(deadline=None, max_examples=120)
    def test_vieta_identities(self, mu, eps):
        if 1.0 + 4.0 * eps * mu <= 0.5:
            return
        sp = root_data(mu, eps, check=False)
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
        sp = root_data(2.0, 1e-12, check=False)
        assert sp.slow[0] == pytest.approx(-2.0, rel=1e-10)

    def test_minimizer_spectrum_is_the_root_data(self):
        # the ODE path builds its roots with the spectral path's one constructor
        rng = np.random.default_rng(5)
        A, eps = random_symmetric(rng, 4), 0.05
        m = SelectedOdeMinimizer(_problem(A, rng.uniform(-1.0, 1.0, 4)), eps)
        want = root_data(m.eigen.values, eps, check=False)
        assert isinstance(m.spectrum, RootData)
        for name in ("slow", "fast", "disc_sqrt"):
            np.testing.assert_array_equal(getattr(m.spectrum, name), getattr(want, name))


class TestModalView:
    @given(t=st.floats(0.0, 3.0))
    @settings(deadline=None, max_examples=60)
    def test_forcing_matches_projected_forcing(self, t):
        forcing = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -0.5), (1.0, 0.0)),
                (constant_profile(0.5), (0.0, 1.0)),
            ]
        )
        prob = _problem([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], forcing)
        modal = prob._modal
        np.testing.assert_array_equal(modal.symbol_values, prob.eigen.values)
        np.testing.assert_array_equal(modal.weights, np.ones(2))
        direct = prob.eigen.project(forcing.vector(t))
        np.testing.assert_allclose(modal.forcing_values(t), direct, atol=1e-13)


class TestSelectionInitial:
    def test_zero_forcing_selects_zero(self):
        m = selected_minimizer(_problem([[1.0]], [0.5]), 0.1)
        assert m._solver.tail0 is None
        np.testing.assert_array_equal(m._solver.slow_initial, [0.5])

    def test_constant_forcing_closed_form(self):
        # g_i constant c: the tail integral is c / fast_rate
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        forcing = ForcingTerm.from_vectors([(constant_profile(1.0), (0.3, -0.7))])
        m = selected_minimizer(_problem(A, [0.0, 0.0], forcing), 0.05)
        sp = m.spectrum
        want = m.eigen.project(forcing.vector(0.0)) / sp.disc_sqrt / sp.fast
        np.testing.assert_allclose(m._solver.tail0, want, rtol=1e-10)


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
        e_min, _, source = m.energy()
        assert source == "exact"
        flow = exact_solution(prob)
        e_flow, _ = energy_ode(flow.state, A, prob.forcing, eps)
        assert e_min <= e_flow + 1e-12

    def test_one_evaluation_per_energy_node(self, monkeypatch):
        rng = np.random.default_rng(29)
        A = random_symmetric(rng, 3)
        forcing = ForcingTerm.from_vectors([(exponential_profile(1.0, -0.3), (0.5, 1.0, -1.0))])
        m = selected_minimizer(_problem(A, rng.uniform(-1.0, 1.0, 3), forcing), 0.1)
        times = []
        parts = SelectedSpectralMinimizer._parts
        monkeypatch.setattr(
            SelectedSpectralMinimizer, "_parts", lambda self, t: times.append(t) or parts(self, t)
        )
        value, crossed = energy_ode(m.state, A, forcing, 0.1)
        assert crossed is None and math.isfinite(value)
        assert len(times) == len(set(times)) == DEFAULT_SPEC.nodes

    def test_state_pairs_value_and_derivative(self):
        rng = np.random.default_rng(31)
        A = random_symmetric(rng, 3)
        forcing = ForcingTerm.from_vectors([(exponential_profile(0.7, -1.2), (0.0, 1.0, 0.5))])
        prob = _problem(A, rng.uniform(-1.0, 1.0, 3), forcing)
        for y in (selected_minimizer(prob, 0.05), exact_solution(prob)):
            for t in (0.0, 0.3, 1.1):
                value, deriv = y.state(t)
                np.testing.assert_array_equal(value, y(t))
                np.testing.assert_array_equal(deriv, y.derivative(t))


class TestTimeBlocks:
    TIMES = np.concatenate(([0.0, 1e-9], np.linspace(0.0, 2.0, 41)))

    def _problem(self):
        rng = np.random.default_rng(43)
        A = random_symmetric(rng, 5)
        forcing = ForcingTerm.from_vectors(
            [
                (exponential_profile(0.7, -1.2), tuple(rng.uniform(-1.0, 1.0, 5))),
                (power_profile(0.5, 0.5), tuple(rng.uniform(-1.0, 1.0, 5))),
                (sampled_profile([0.0, 0.3, 0.7, 1.5], [1.0, -1.0, 2.0, 0.0]),
                 tuple(rng.uniform(-1.0, 1.0, 5))),
            ]
        )
        return _problem(A, rng.uniform(-1.0, 1.0, 5), forcing)

    def test_values_rows_are_value_bit_for_bit(self):
        prob = self._problem()
        for y in (exact_solution(prob), *(selected_minimizer(prob, e) for e in (1e-1, 1e-3))):
            block = y.values(self.TIMES)
            assert block.shape == (self.TIMES.size, 5)
            rows = np.stack([y.value(float(t)) for t in self.TIMES])
            np.testing.assert_array_equal(block.view(np.uint64), rows.view(np.uint64))

    def test_call_is_value(self):
        prob = self._problem()
        for y in (exact_solution(prob), selected_minimizer(prob, 0.05)):
            assert type(y).__call__ is type(y).value
            assert y.values([]).shape == (0, 5)


class TestExactEnergy:
    def test_closed_form_matches_gauss_laguerre_within_contract(self):
        rng = np.random.default_rng(37)
        A = random_symmetric(rng, 4)
        forcing = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -0.3), tuple(rng.uniform(-1.0, 1.0, 4))),
                (exponential_profile(0.7, 0.4), tuple(rng.uniform(-1.0, 1.0, 4))),
                (constant_profile(-0.2), tuple(rng.uniform(-1.0, 1.0, 4))),
            ]
        )
        prob = _problem(A, rng.uniform(-1.0, 1.0, 4), forcing)
        for eps in (0.1, 0.01, 0.001):
            m = selected_minimizer(prob, eps)
            value, crossed, source = m.energy()
            gl, _ = energy_ode(m.state, A, forcing, eps)
            assert (crossed, source) == (None, "exact")
            assert abs(value - gl) <= DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * abs(gl)

    def test_power_part_takes_gauss_laguerre(self):
        rng = np.random.default_rng(41)
        A = random_symmetric(rng, 3)
        forcing = ForcingTerm.from_vectors([(power_profile(0.5, 2.0), (1.0, 0.0, -0.5))])
        m = selected_minimizer(_problem(A, rng.uniform(-1.0, 1.0, 3), forcing), 0.05)
        value, crossed, source = m.energy()
        assert source == "gauss_laguerre"
        # the fallback is the spectral path's, on the modal view
        assert (value, crossed) == energy_spectral(m._solver.state, m.problem._modal, 0.05)


    @pytest.mark.parametrize("crosses", [False, True], ids=["at_edge", "past_edge"])
    def test_divergent_closed_form_is_inf(self, crosses):
        # rate 1/(2 eps) diverges unseen by the nodes; 0.9 of the fast root crosses the ceiling
        A, eps = np.array([[1.0]]), 0.1
        rate = 0.9 * float(root_data(1.0, eps, check=False).fast[0]) if crosses else 5.0
        forcing = ForcingTerm.from_vectors([(exponential_profile(1.0, rate), (1.0,))])
        m = selected_minimizer(_problem(A, [1.0], forcing), eps)
        gl, gl_crossed = energy_ode(m.state, A, forcing, eps)
        assert (gl == math.inf) == crosses == (gl_crossed is not None)
        assert m.energy() == (math.inf, gl_crossed, "exact")


class TestOneModalCore:
    def test_diagonal_system_is_the_spectral_path_on_its_eigenvalues(self):
        # nodes = eigenvalues, unit weights, symbol(xi) = xi: the same per-mode problem
        eigenvalues = np.array([0.3, 0.9, 1.7, 2.4])
        y0 = np.array([1.0, -0.5, 0.25, 0.75])
        profiles = [exponential_profile(1.0, -0.3), exponential_profile(0.7, -1.2)]
        vectors = [(0.5, 1.0, -1.0, 0.25), (-0.25, 0.0, 0.75, 1.0)]
        system = _problem(np.diag(eigenvalues), y0, ForcingTerm.from_vectors(zip(profiles, vectors)))
        spectral = SpectralProblem(
            grid=FrequencyGrid.explicit(eigenvalues, np.ones(4)),
            symbol=symbols.custom(lambda xi: xi),
            initial_hat=y0,
            forcing=ForcingTerm.from_multipliers(
                [(g, lambda xi, v=v: np.asarray(v)) for g, v in zip(profiles, vectors)]
            ),
        )
        times = np.linspace(0.0, 2.0, 41)
        flow = semigroup_solution(spectral)
        np.testing.assert_array_equal(
            exact_solution(system).values(times), np.stack([flow.value(t).real for t in times])
        )
        for eps in (1e-1, 1e-2, 1e-4):
            m, ref = selected_minimizer(system, eps), minimizer_hat(spectral, eps)
            np.testing.assert_array_equal(
                m.values(times), np.stack([ref.value(t).real for t in times])
            )
            # the closed form divides the amplitudes by real denominators; complex spectral data
            # divide by multiplying with the reciprocal, so the energies may part in the last bits
            (value, crossed, source), (want, *rest) = m.energy(), ref.energy()
            assert [crossed, source] == rest == [None, "exact"]
            assert value == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)


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
            lambda t: (np.array([math.exp(-t)]), np.array([-math.exp(-t)])),
            np.array([[1.0]]),
            ForcingTerm.zero(1),
            eps,
        )
        want = (0.5 * eps + 0.5) / (2.0 + 1.0 / eps)
        assert crossed is None
        assert val == pytest.approx(want, rel=1e-12)

    def test_divergent_path_reports_crossing(self):
        val, crossed = energy_ode(
            lambda t: (np.array([math.exp(30.0 * t)]), np.array([30.0 * math.exp(30.0 * t)])),
            np.array([[1.0]]),
            ForcingTerm.zero(1),
            0.5,
        )
        assert val == math.inf
        assert crossed is not None
