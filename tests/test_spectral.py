"""Frequency-side machinery: grids, roots with their estimate bundle, flows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import el_residual, energy_physical, from_physical, grid_points, real_field, to_physical
from wie import spectral, symbols
from wie.forcing import (
    ForcingTerm,
    _exponential_form,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from wie.lab import convergence_study
from wie.contract import _exp_guarded
from wie.quadrature import DEFAULT_SPEC, DivergenceError, ExponentOverflowError, _laguerre_rule
from wie.spectral import (
    FrequencyGrid,
    SelectedSpectralMinimizer,
    SpectralField,
    SpectralProblem,
    _modal_energy,
    apriori_bound,
    energy_spectral,
    inequality_report,
    l2_norm,
    minimizer_hat,
    root_data,
    root_margins,
    semigroup_solution,
    vl_norm,
)

MARGIN_KEYS = {
    "disc_sqrt_floor",
    "symbol_over_disc",
    "ratio_order",
    "ratio_cap",
    "fast_root_floor",
    "slow_root_cap",
    "slow_root_sqrt",
    "slow_root_symbol",
    "vieta_sum",
    "vieta_product",
}


def _grid(n=64, dx=0.25):
    return FrequencyGrid.uniform_fft(n, dx)


def _gaussian_problem(grid, symbol=None, forcing=None):
    kwargs = {} if forcing is None else {"forcing": forcing}
    return SpectralProblem(
        grid=grid,
        symbol=symbol if symbol is not None else symbols.classical(),
        initial_hat=np.exp(-0.5 * grid.nodes**2).astype(complex),
        **kwargs,
    )


class TestFrequencyGrid:
    def test_uniform_fft_layout(self):
        g = FrequencyGrid.uniform_fft(8, 0.5)
        np.testing.assert_allclose(g.nodes, 2.0 * math.pi * np.fft.fftfreq(8, d=0.5))
        np.testing.assert_allclose(g.weights, np.full(8, 2.0 * math.pi / 4.0))
        # default spatial window is centered at the origin
        np.testing.assert_allclose(grid_points(g), -2.0 + 0.5 * np.arange(8))

    @pytest.mark.parametrize(
        "n, dx, x0", [(8, 0.5, None), (7, 0.3, -0.0), (16, 0.125, 0.0), (5, 0.1, 1.7), (9, 0.25, -3)]
    )
    def test_x_is_formed_from_x0_bit_for_bit(self, n, dx, x0):
        # the grid keeps x0 alone; its points and the meta's origin read as x0 + dx*arange(n),
        # so a -0.0 origin prints as 0.0, the first of those points
        g = FrequencyGrid.uniform_fft(n, dx, x0)
        stored = (-0.5 * n * dx if x0 is None else x0) + dx * np.arange(n)
        assert grid_points(g).tobytes() == stored.tobytes()
        meta = SpectralField(np.zeros(1), g, None).meta()["frequency_grid"]
        assert repr(meta["x0"]) == repr(float(stored[0]))

    def test_plancherel_is_discrete_exact(self):
        g = _grid()
        rng = np.random.default_rng(7)
        for u in (
            np.exp(-0.5 * grid_points(g) ** 2),
            rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n),
        ):
            lhs = g.dx * float(np.sum(np.abs(u) ** 2))
            rhs = float(np.sum(g.weights * np.abs(from_physical(g, u)) ** 2))
            assert rhs == pytest.approx(lhs, rel=1e-14)

    def test_transform_roundtrip(self):
        g = _grid()
        rng = np.random.default_rng(11)
        u = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        back = to_physical(g, from_physical(g, u))
        assert np.abs(back - u).max() <= 1e-13 * np.abs(u).max()

    def test_gaussian_transform_pair(self):
        # exp(-x^2/2) is its own transform in this convention
        g = _grid()
        u_hat = from_physical(g, np.exp(-0.5 * grid_points(g) ** 2))
        assert np.abs(u_hat - np.exp(-0.5 * g.nodes**2)).max() <= 1e-13

    def test_real_field_strips_or_refuses(self):
        g = _grid()
        u = np.exp(-0.5 * grid_points(g) ** 2)
        recovered = real_field(to_physical(g, from_physical(g, u)))
        assert not np.iscomplexobj(recovered)
        np.testing.assert_allclose(recovered, u, atol=1e-13)
        bad = from_physical(g, u)
        bad[3] += 0.5j
        with pytest.raises(ValueError, match="imaginary residue"):
            real_field(to_physical(g, bad))

    def test_explicit_grid_validation(self):
        with pytest.raises(ValueError, match="matching 1-d"):
            FrequencyGrid.explicit([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="positive"):
            FrequencyGrid.explicit([0.0, 1.0], [1.0, 0.0])
        g = FrequencyGrid.explicit([0.0, 1.0, 2.0], [0.5, 1.0, 0.5])
        with pytest.raises(ValueError, match="uniform_fft"):
            to_physical(g, np.ones(3, dtype=complex))


class TestRootData:
    def test_refuses_deep_negative_symbol(self):
        with pytest.raises(ValueError, match=r"1 \+ 4\*eps\*symbol <= 1/2"):
            root_data(np.array([-1.0]), 0.2)

    def test_refuses_bad_scalars(self):
        with pytest.raises(ValueError, match="positive"):
            root_data(np.array([1.0]), 0.0)

    def test_margin_bundle_keys_and_signs(self):
        g = _grid()
        rd = root_data(g.nodes**2, 0.05)
        margins = root_margins(rd)
        assert set(margins) == MARGIN_KEYS
        for name, m in margins.items():
            assert np.asarray(m).min() >= -1e-9, name

    def test_inequality_report_clean(self):
        g = _grid(n=128, dx=0.125)
        rd = root_data(g.nodes**2, 0.01)
        report = inequality_report(rd)
        assert set(report) == MARGIN_KEYS
        for entry in report.values():
            assert entry["checked"] == 128
            assert entry["violations"] == 0

    @given(
        eps=st.floats(1e-5, 0.12),
        shift=st.floats(-0.9, 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_vieta_on_admissible_inputs(self, eps, shift):
        ell = np.array([shift, 0.0, 0.7, 12.0, 400.0])
        if float(1.0 + 4.0 * eps * ell.min()) <= 0.5:
            ell = ell[1:]
        rd = root_data(ell, eps, check=True)
        scale_sum = 1.0 / eps
        assert np.abs(rd.slow + rd.fast - 1.0 / eps).max() <= 1e-12 * scale_sum
        scale_prod = np.maximum(1.0, np.abs(ell) / eps)
        assert np.abs(rd.slow * rd.fast + ell / eps).max() <= float(
            (1e-12 * scale_prod).max()
        )


class TestSemigroup:
    def test_matches_closed_form(self):
        g = _grid()
        prob = _gaussian_problem(g)
        flow = semigroup_solution(prob)
        for t in (0.0, 0.37, 1.4):
            expected = np.exp(-g.nodes**2 * t) * prob.initial_hat
            assert np.abs(flow.value(t) - expected).max() <= 1e-14

    def test_derivative_is_generator_action(self):
        g = _grid()
        fc = ForcingTerm.from_multipliers(
            [(exponential_profile(0.7, -0.4), lambda xi: np.exp(-(xi**2)))]
        )
        prob = _gaussian_problem(g, forcing=fc)
        flow = semigroup_solution(prob)
        t = 0.52
        lhs = flow.derivative(t)
        rhs = -prob.symbol_values * flow.value(t) + prob.forcing_values(t)
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_constant_forcing_closed_form(self):
        g = _grid()
        c = 0.8
        fc = ForcingTerm.from_multipliers(
            [(constant_profile(c), lambda xi: np.exp(-(xi**2)))]
        )
        prob = _gaussian_problem(g, forcing=fc)
        flow = semigroup_solution(prob)
        t = 0.6
        ell = prob.symbol_values
        H = np.exp(-g.nodes**2)
        safe = np.where(ell > 0.0, ell, 1.0)
        ramp = np.where(ell > 0.0, (1.0 - np.exp(-ell * t)) / safe, t)
        expected = np.exp(-ell * t) * prob.initial_hat + c * H * ramp
        assert np.abs(flow.value(t) - expected).max() <= 1e-10

    def test_growing_mode_overflow_guard(self):
        g = _grid()
        unstable = symbols.from_table([0.0, 8.0], [-1.0, -1.0])
        flow = semigroup_solution(_gaussian_problem(g, symbol=unstable))
        with pytest.raises(ExponentOverflowError, match="exp\\(700\\)"):
            flow.value(800.0)


class TestSelectedMinimizer:
    def test_tail_is_checked_at_construction_and_formed_on_first_evaluation(self):
        # a part growing at rate 5 outruns the fast roots near 1/eps = 2 at eps = 0.5:
        # construction refuses as the tail at t = 0 does, with its message
        profile = exponential_profile(0.7, 5.0)
        prob = _gaussian_problem(
            _grid(), forcing=ForcingTerm.from_multipliers([(profile, lambda xi: np.exp(-(xi**2)))])
        )
        with pytest.raises(DivergenceError) as got:
            minimizer_hat(prob, 0.5)
        fast = root_data(prob.distinct.values, 0.5).fast
        with pytest.raises(DivergenceError) as want:
            profile.shifted_tail(fast, 0.0, prob.amplitude_growth_rate)
        assert str(got.value) == str(want.value)
        # an admissible rung forms its initial coefficient only when a value is asked for
        m = minimizer_hat(prob, 0.05)
        assert "slow_initial" not in vars(m)
        m.value(0.5)
        assert "slow_initial" in vars(m)

    def test_starts_at_initial_data(self):
        g = _grid()
        prob = _gaussian_problem(g)
        m = minimizer_hat(prob, 0.05)
        assert np.array_equal(m.value(0.0), prob.initial_hat)
        fc = ForcingTerm.from_multipliers(
            [(exponential_profile(0.7, -0.4), lambda xi: np.exp(-(xi**2)))]
        )
        forced = _gaussian_problem(g, forcing=fc)
        mf = minimizer_hat(forced, 0.05)
        dev = np.abs(mf.value(0.0) - forced.initial_hat).max()
        assert dev <= 1e-14 * np.abs(forced.initial_hat).max()

    def test_el_residual_small_and_second_order(self):
        g = _grid()
        fc = ForcingTerm.from_multipliers(
            [(exponential_profile(0.7, -0.4), lambda xi: np.exp(-(xi**2)))]
        )
        prob = _gaussian_problem(g, forcing=fc)
        m = minimizer_hat(prob, 0.05)
        res, scale = el_residual(m, prob, 0.5, h=1e-3)
        assert res <= 1e-5 * scale
        res_half, scale_half = el_residual(m, prob, 0.5, h=5e-4)
        assert (res / scale) / (res_half / scale_half) >= 3.5
        with pytest.raises(ValueError, match="centered stencil"):
            el_residual(m, prob, 1e-4, h=1e-3)

    def test_energy_at_most_semigroup_energy(self):
        g = _grid()
        fc = ForcingTerm.from_multipliers(
            [(exponential_profile(0.7, -0.4), lambda xi: np.exp(-(xi**2)))]
        )
        prob = _gaussian_problem(g, forcing=fc)
        for eps in (0.1, 0.02):
            m = minimizer_hat(prob, eps)
            flow = semigroup_solution(prob)
            j_min = energy_spectral(m.state, prob, eps)
            j_flow = energy_spectral(flow.state, prob, eps)
            assert math.isfinite(j_min)
            assert j_min <= j_flow + 1e-12

    def test_gap_to_semigroup_shrinks_with_eps(self):
        g = _grid()
        prob = _gaussian_problem(g)
        flow = semigroup_solution(prob)
        ell = prob.symbol_values

        def gap(eps):
            m = minimizer_hat(prob, eps)
            return max(
                vl_norm(m.value(float(t)) - flow.value(float(t)), g.weights, ell)
                for t in np.linspace(0.0, 1.0, 21)
            )

        assert gap(0.01) < 0.2 * gap(0.1)


class TestStreaming:
    def test_study_memory_stays_flat_in_times_and_rungs(self):
        # nothing per time or per rung stays alive: a 4-rung study over 201
        # times peaks below 64 complex arrays of the grid's length
        n = 1 << 14
        prob = _gaussian_problem(_grid(n=n, dx=0.125), symbol=symbols.fractional(0.5))
        tracemalloc.start()
        try:
            report = convergence_study(prob, [1e-1, 1e-2, 1e-3, 1e-4], 1.0, time_points=201)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdicts["all_members_completed"]
        assert peak < 64 * 16 * n

    @pytest.mark.parametrize("energy", [energy_spectral, energy_physical])
    def test_one_evaluation_per_energy_node(self, energy, monkeypatch):
        forcing = ForcingTerm.from_multipliers(
            [(exponential_profile(0.5, -1.0), lambda xi: np.exp(-0.5 * xi**2))]
        )
        prob = _gaussian_problem(_grid(), forcing=forcing)
        m = minimizer_hat(prob, 0.1)
        times = []
        parts = SelectedSpectralMinimizer._parts
        monkeypatch.setattr(
            SelectedSpectralMinimizer, "_parts", lambda self, t: times.append(t) or parts(self, t)
        )
        assert math.isfinite(energy(m.state, prob, 0.1))
        assert len(times) == len(set(times)) == DEFAULT_SPEC.nodes

    def test_state_pairs_value_and_derivative(self):
        forcing = ForcingTerm.from_multipliers(
            [(exponential_profile(0.5, -1.0), lambda xi: np.exp(-0.5 * xi**2))]
        )
        prob = _gaussian_problem(_grid(), forcing=forcing)
        for y in (minimizer_hat(prob, 0.1), semigroup_solution(prob)):
            for t in (0.0, 0.3, 1.1):
                value, deriv = y.state(t)
                np.testing.assert_array_equal(value, y.value(t))
                np.testing.assert_array_equal(deriv, y.derivative(t))


class TestTemporaries:
    """Hot paths allocate what they return plus at most a few work arrays.

    Each figure is the tracemalloc peak of one call above the memory traced
    before it, in units of one complex array of the grid's length.
    """

    N = 1 << 14

    @pytest.fixture(scope="class")
    def minimizer(self):
        prob = _gaussian_problem(_grid(n=self.N, dx=0.125), symbol=symbols.fractional(0.5))
        return prob, minimizer_hat(prob, 1e-2)

    def _arrays_made_by(self, call):
        _laguerre_rule(DEFAULT_SPEC.nodes)  # the cached rule is not a temporary
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - before) / (16 * self.N)

    def test_state_builds_its_two_arrays_in_place(self, minimizer):
        _prob, m = minimizer
        assert self._arrays_made_by(lambda: m.state(0.3)) < 3.0

    def test_l2_norm_reduces_in_one_real_array(self, minimizer):
        prob, m = minimizer
        u = m.value(0.3)
        assert self._arrays_made_by(lambda: l2_norm(u, prob.grid.weights)) < 0.75

    def test_energy_holds_one_state_and_its_work_arrays(self, minimizer):
        prob, m = minimizer
        assert self._arrays_made_by(lambda: energy_spectral(m.state, prob, 1e-2)) < 7.0


def _per_node_reference(prob, eps, t):
    """(value(t), state(t), energy) from roots formed on every node, not on the distinct values.

    The solver's own expressions, written out on root_data(symbol_values):
    a forcing column is divided by the discriminant root component by
    component, and the parts are added in the solver's order.
    """
    rd = root_data(prob.symbol_values, eps, check=False)
    growth = prob.amplitude_growth_rate

    def forced(kernel, at):
        if not prob.forcing_parts:
            return None
        out = np.zeros(np.shape(at) + rd.slow.shape, dtype=complex)
        for g, H in prob.forcing_parts:
            over = np.empty_like(H)
            over.real = H.real / rd.disc_sqrt
            over.imag = H.imag / rd.disc_sqrt
            out += over * kernel(g)
        return out

    tail0 = forced(lambda g: g.shifted_tail(rd.fast, 0.0, growth), 0.0)
    c = prob.initial_hat if tail0 is None else prob.initial_hat - tail0
    tc = t[:, None] if np.ndim(t) else t
    slow = _exp_guarded(rd.slow * tc) * c
    conv = forced(lambda g: g.duhamel(rd.slow, t), t)
    tail = forced(lambda g: g.shifted_tail(rd.fast, t, growth), t)
    if tail is None:
        value, state = slow + 0.0, (slow, rd.slow * slow)
    else:
        slow = slow + conv
        value = slow + tail
        state = (value, slow * rd.slow + tail * rd.fast)
    amps, rates = _exponential_form([g for g, _H in prob.forcing_parts])
    columns = [a * H for a, (_g, H) in zip(amps, prob.forcing_parts)]
    amplitudes = np.stack(columns, axis=1) if columns else np.empty((rd.slow.size, 0))
    energy = _modal_energy(
        prob.symbol_values, rd.slow, prob.weights, prob.initial_hat, amplitudes, rates, eps
    )
    return value, state, energy


def _repeated_values_problem(kind, forced):
    forcing = None
    if forced:
        forcing = ForcingTerm.from_multipliers(
            [
                (exponential_profile(0.5, -1.0), lambda xi: np.exp(-0.5 * xi**2).astype(complex)),
                (constant_profile(-0.25), lambda xi: (0.5 + 1j * xi) * np.exp(-(xi**2))),
            ]
        )
    if kind == "even_fft":
        grid, symbol = _grid(n=256, dx=0.125), symbols.fractional(0.5)
    elif kind == "duplicate_nodes":
        nodes = [-1.5, 0.5, 2.0, 0.5, -1.5, 3.0, 0.5, -0.25, 0.25]
        grid = FrequencyGrid.explicit(nodes, [0.5 + 0.125 * k for k in range(len(nodes))])
        symbol = symbols.classical()
    else:  # an increasing symbol: every node has a value of its own
        grid, symbol = _grid(n=256, dx=0.125), symbols.MultiplierSymbol("custom", lambda xi: np.exp(xi / 8.0))
    kwargs = {} if forcing is None else {"forcing": forcing}
    return SpectralProblem(
        grid=grid,
        symbol=symbol,
        initial_hat=(1.0 - 0.5j * grid.nodes) * np.exp(-0.25 * grid.nodes**2),
        **kwargs,
    )


class TestDistinctRoots:
    """Roots on the distinct symbol values give every node its per-node bits."""

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize(
        "kind, distinct",
        [("even_fft", 129), ("duplicate_nodes", 5), ("all_distinct", 256)],
    )
    def test_value_state_and_energy_match_per_node_roots(self, kind, distinct, forced):
        prob = _repeated_values_problem(kind, forced)
        eps = 1e-2
        m = minimizer_hat(prob, eps)
        assert m.roots.slow.size == distinct
        times = np.array([0.0, 0.3, 1.0])
        for t in times:
            value, state, energy = _per_node_reference(prob, eps, float(t))
            assert m.value(float(t)).tobytes() == value.tobytes()
            for got, want in zip(m.state(float(t)), state):
                assert got.tobytes() == want.tobytes()
        got_energy, source = m.energy()
        assert source == "exact"
        assert repr(got_energy) == repr(energy)

    def test_inadmissible_value_is_counted_per_node(self):
        # 1 + 4 eps (xi^2 - 1) <= 1/2 at the two nodes xi = +-0.25, one distinct value
        grid = FrequencyGrid.explicit([-0.25, 0.25, 2.0], [1.0, 1.0, 1.0])
        prob = SpectralProblem(
            grid=grid,
            symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 1.0),
            initial_hat=np.ones(3, dtype=complex),
        )
        with pytest.raises(symbols.AdmissibilityError, match="^2 node"):
            minimizer_hat(prob, 0.2)


class TestMemoryGuard:
    """Retained and transient memory of the rung's roots and of their checks.

    Figures are tracemalloc counts in units of one float array of the
    grid's length.
    """

    N = 1 << 14

    def _traced(self, call):
        """(result, retained, peak) of call, the last two above the memory traced before it."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = call()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = 8 * self.N
        return result, (after - before) / unit, (peak - before) / unit

    def test_rung_keeps_its_roots_on_the_distinct_values(self):
        # an even symbol on an FFT grid: n//2 + 1 values; three root arrays of
        # that length are 1.5 node arrays, per node they would be 3
        prob = _gaussian_problem(_grid(n=self.N, dx=0.125), symbol=symbols.fractional(0.5))
        prob.distinct  # the problem's map is kept by the problem, not by the rung
        m, retained, _peak = self._traced(lambda: minimizer_hat(prob, 1e-2))
        for name in ("slow", "fast", "disc_sqrt"):
            assert getattr(m.roots, name).size == self.N // 2 + 1
        assert retained < 2.0

    def test_root_checks_hold_one_margin_at_a_time(self):
        # the roots, their discriminant and the temporaries of one margin stay
        # below 10 arrays; all ten margins alive at once would add about ten more
        values = np.linspace(0.0, 50.0, self.N)
        root_data(values, 1e-2)  # warm-up
        _rd, _retained, peak = self._traced(lambda: root_data(values, 1e-2))
        assert peak < 10.0


def _one_node_problem(ell, c0, parts):
    """A single frequency node whose symbol value is ell; parts are (profile, complex H)."""
    grid = FrequencyGrid.explicit([float(ell)], [1.0])
    forcing = ForcingTerm.from_multipliers(
        [(g, lambda xi, h=complex(h): np.full(np.shape(xi), h)) for g, h in parts]
    )
    return SpectralProblem(
        grid=grid,
        symbol=symbols.MultiplierSymbol("custom", lambda xi: xi),
        initial_hat=np.array([complex(c0)]),
        forcing=forcing,
    )


def _quad_energy(m, prob, eps):
    """int exp(-t/eps) [(eps/2)|u'|^2 + (ell/2)|u|^2 - Re(conj(f) u)] dt by adaptive quad.

    Integrated in tau = t/eps up to where the weight has beaten the fastest
    growth of u by exp(-120), so nothing squared overflows; returns (value,
    error estimate, scale), the scale being the integral of the terms'
    magnitudes.  The terms may cancel down to a value far below that scale,
    and quad's roundoff floor is 50 ulps of it, so the value is asked for to
    1e-13 of the scale, which double precision can deliver: then the error
    estimate can be trusted.  One quad call over the whole range can still
    miss that request in roundoff, where the terms cancel or |term| has a
    kink, so both integrals are summed over the pieces [0, 1], [1, 2],
    [2, 4], ..., each asked for its share of the absolute tolerance.
    """
    ell = float(prob.symbol_values[0])
    rates = [float(m.roots.slow[0])] + [g.rate for g, _H in prob.forcing_parts]
    decay = 1.0 - 2.0 * eps * max(max(rates), 0.0)
    horizon = 120.0 / decay

    def terms(tau):
        t = eps * tau
        u, du = (complex(v[0]) for v in m.state(t))
        f = complex(prob.forcing_values(t)[0])
        return (
            0.5 * eps * abs(du) ** 2,
            0.5 * ell * abs(u) ** 2,
            -(f.conjugate() * u).real,
        )

    edges = [0.0, 1.0]
    while edges[-1] < horizon:
        edges.append(min(2.0 * edges[-1], horizon))
    pieces = list(zip(edges, edges[1:]))

    def integral(f, epsabs):
        share = dict(epsabs=epsabs / len(pieces), epsrel=1e-13, limit=400)
        found = [quad(f, lo, hi, **share) for lo, hi in pieces]
        return sum(v for v, _e in found), sum(e for _v, e in found)

    scale, _ = integral(lambda tau: math.exp(-tau) * sum(abs(x) for x in terms(tau)), 1e-15)
    value, err = integral(lambda tau: math.exp(-tau) * sum(terms(tau)), 1e-13 * scale)
    return eps * value, eps * err, eps * scale


_complex = st.builds(
    complex, st.floats(-2.0, 2.0, allow_nan=False), st.floats(-2.0, 2.0, allow_nan=False)
)


class TestExactEnergy:
    """The closed-form modal energy against adaptive quadrature of the trajectory."""

    @settings(max_examples=20, deadline=None)
    @given(
        eps=st.floats(1e-3, 0.5),
        # ell in units of the admissibility edge -1/(8 eps); near -1 the symbol is negative
        # and the slow root positive
        edge=st.one_of(st.floats(-0.999999, 40.0), st.floats(-0.999999, -0.99)),
        rate_kind=st.sampled_from(["free", "resonant", "near"]),
        free_rate=st.floats(-5.0, 0.4),
        offset=st.floats(1e-12, 1e-6),
        second_rate=st.floats(-5.0, 0.4),
        c0=_complex,
        h1=_complex,
        h2=_complex,
    )
    # each made the reference's quad call warn that it missed its own request
    @example(
        eps=0.2637827298953382,
        edge=0.984375,
        rate_kind="free",
        free_rate=-2.299464999360033,
        offset=9.684243410953497e-07,
        second_rate=-3.71484375,
        c0=0.0703125j,
        h1=-1.9,
        h2=-0.16172462868154502 - 0.5927436882077781j,
    )
    @example(
        eps=0.25,
        edge=-0.75,
        rate_kind="free",
        free_rate=-1.0,
        offset=9.999999999999997e-07,
        second_rate=0.0,
        c0=-1j,
        h1=1,
        h2=2 + 0.015625j,
    )
    def test_closed_form_matches_quad(
        self, eps, edge, rate_kind, free_rate, offset, second_rate, c0, h1, h2
    ):
        ell = edge / (8.0 * eps)
        slow = float(root_data([ell], eps).slow[0])
        # part rates stay below p/2 = 1/(2 eps), where the forcing energy diverges
        rate = {
            "free": free_rate / eps,
            "resonant": slow,
            "near": slow + offset * max(abs(slow), 1.0),
        }[rate_kind]
        parts = [(exponential_profile(1.0, rate), h1), (exponential_profile(0.5, second_rate), h2)]
        prob = _one_node_problem(ell, c0, parts)
        m = minimizer_hat(prob, eps)
        value, source = m.energy()
        assert source == "exact"
        want, err, scale = _quad_energy(m, prob, eps)
        assert abs(value - want) <= 1e-10 * scale + 2.0 * err + 1e-15

    def test_resonance_has_no_special_case(self):
        # r = s exactly: the Duhamel term is t exp(s t) and the formulas need no limit
        eps, ell = 0.05, 2.0
        slow = float(root_data([ell], eps).slow[0])
        prob = _one_node_problem(ell, 1.0 - 0.5j, [(exponential_profile(1.0, slow), 0.3 + 1.0j)])
        m = minimizer_hat(prob, eps)
        value, source = m.energy()
        want, err, scale = _quad_energy(m, prob, eps)
        assert source == "exact"
        assert abs(value - want) <= 1e-12 * scale + 2.0 * err

    def test_matches_gauss_laguerre_within_contract(self):
        forcing = ForcingTerm.from_multipliers(
            [
                (exponential_profile(0.5, -1.0), lambda xi: np.exp(-0.5 * xi**2)),
                (constant_profile(0.2), lambda xi: 1j * xi * np.exp(-(xi**2))),
            ]
        )
        prob = _gaussian_problem(_grid(), symbol=symbols.fractional(0.5), forcing=forcing)
        for eps in (1e-1, 1e-2, 1e-3):
            m = minimizer_hat(prob, eps)
            value, source = m.energy()
            gl = energy_spectral(m.state, prob, eps)
            assert source == "exact"
            assert abs(value - gl) <= DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * abs(gl)

    @pytest.mark.parametrize(
        "profile",
        [power_profile(0.5, 1.5), sampled_profile([0.0, 0.5, 2.0], [1.0, -0.5, 0.25])],
        ids=["power", "sampled"],
    )
    def test_power_and_sampled_parts_take_gauss_laguerre(self, profile):
        prob = _gaussian_problem(
            _grid(), forcing=ForcingTerm.from_multipliers([(profile, lambda xi: np.exp(-(xi**2)))])
        )
        m = minimizer_hat(prob, 0.05)
        value, source = m.energy()
        assert source == "gauss_laguerre"
        assert value == energy_spectral(m.state, prob, 0.05)

    def test_divergent_closed_form_is_inf_and_runs_no_fallback(self, monkeypatch):
        # a forcing rate past 1/(2 eps), still below the fast root, makes the energy diverge
        eps = 0.1
        rate = 0.9 * float(root_data([1.0], eps).fast[0])
        prob = _one_node_problem(1.0, 1.0, [(exponential_profile(1.0, rate), 1.0)])
        m = minimizer_hat(prob, eps)
        calls = []
        monkeypatch.setattr(
            spectral, "energy_spectral", lambda *a: calls.append(a) or energy_spectral(*a)
        )
        assert m.energy() == (math.inf, "exact")
        assert calls == []
        # the spy does see a fallback: a power part takes Gauss-Laguerre
        power = _one_node_problem(1.0, 1.0, [(power_profile(1.0, 1.0), 1.0)])
        assert minimizer_hat(power, eps).energy()[1] == "gauss_laguerre" and len(calls) == 1
        # and the Gauss-Laguerre route alone crosses the ceiling on the divergent problem
        assert energy_spectral(m.state, prob, eps) == math.inf

    def test_divergence_the_nodes_miss_is_still_inf(self):
        # at rate 1/(2 eps) the weighted integrand stays bounded at every node, so the
        # Gauss-Laguerre sum is finite although the energy diverges
        eps = 0.1
        prob = _one_node_problem(1.0, 1.0, [(exponential_profile(1.0, 5.0), 1.0)])
        m = minimizer_hat(prob, eps)
        assert math.isfinite(energy_spectral(m.state, prob, eps))
        assert m.energy() == (math.inf, "exact")

    def test_parts_cancelling_past_the_edge_are_dropped(self):
        eps = 0.1
        tame = (exponential_profile(1.0, -1.0), 0.5)
        cancelling = [(exponential_profile(1.0, 6.0), 1.0), (exponential_profile(2.0, 6.0), -0.5)]
        with_parts = minimizer_hat(_one_node_problem(1.0, 1.0, [tame, *cancelling]), eps)
        without = minimizer_hat(_one_node_problem(1.0, 1.0, [tame]), eps)
        assert with_parts.energy() == without.energy()
        assert without.energy()[1] == "exact"


class TestNormsAndBounds:
    def test_norm_literals(self):
        # 1*(1+0)*1 + 1*(1+1)*1 + 1*(1+4)*0.25 = 4.25
        got = vl_norm([1.0, 1.0j, 0.5], [1.0, 1.0, 1.0], [0.0, 1.0, 4.0])
        assert got == pytest.approx(2.0615528128088303, rel=1e-15)
        assert l2_norm([1.0, 1.0j, 0.5], [1.0, 1.0, 1.0]) == pytest.approx(1.5)

    def test_energy_routes_agree(self):
        g = _grid()
        fc = ForcingTerm.from_multipliers(
            [(exponential_profile(0.7, -0.4), lambda xi: np.exp(-(xi**2)))]
        )
        prob = _gaussian_problem(g, forcing=fc)
        eps = 0.05
        m = minimizer_hat(prob, eps)
        j_spec = energy_spectral(m.state, prob, eps)
        j_phys = energy_physical(m.state, prob, eps)
        assert j_phys == pytest.approx(j_spec, rel=1e-10)

    def test_apriori_bound_values(self):
        assert apriori_bound(0.0, 1.0, 1.0) == 4.0
        assert apriori_bound(-1.0, 1.0, 1.0) == pytest.approx(
            8.0 * math.e**2, rel=1e-13
        )
        with pytest.raises(ValueError, match="capped at zero"):
            apriori_bound(0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            apriori_bound(0.0, -1.0, 1.0)
        with pytest.raises(ExponentOverflowError):
            apriori_bound(-400.0, 1.0, 1.0)


class TestSpectralField:
    def test_bytes_roundtrip_and_meta(self):
        g = _grid()
        prob = _gaussian_problem(g)
        m = minimizer_hat(prob, 0.05)
        times = [0.0, 0.1, 0.2]
        field = SpectralField.sample(m, g, times)
        blob = field.to_bytes()
        assert len(blob) == 16 * len(times) * g.n
        back = np.frombuffer(blob, dtype="<c16").reshape(len(times), g.n)
        assert np.array_equal(back, field.values)
        assert np.shares_memory(back, field.values)  # a view, not a copy
        meta = field.meta()
        assert meta["meta_version"] == 2
        assert meta["shape"] == [3, 64]
        assert meta["times"] == [0.0, 0.1, 0.2]
        assert meta["frequency_grid"] == {"kind": "uniform_fft", "n": 64, "dx": 0.25, "x0": -8.0}

    def test_one_time_field_is_its_fresh_row(self):
        # the dump samples one time per field: the row value(t) returns is the field
        # itself, with no second array to copy it into, and gives the bytes of a wider field
        g = _grid()
        m = minimizer_hat(_gaussian_problem(g), 0.05)
        rows = []

        class Spy:
            def value(self, t):
                rows.append(m.value(t))
                return rows[-1]

        field = SpectralField.sample(Spy(), g, [0.1])
        assert field.values.shape == (1, g.n)
        assert np.shares_memory(field.values, rows[0])
        wide = SpectralField.sample(m, g, [0.1, 0.2]).to_bytes()
        assert bytes(field.to_bytes()) == bytes(wide)[: 16 * g.n]

    def test_problem_rejects_bad_inputs(self):
        g = _grid()
        with pytest.raises(ValueError, match="frequency-side"):
            SpectralProblem(
                grid=g,
                symbol=symbols.classical(),
                initial_hat=np.zeros(g.n, dtype=complex),
                forcing=ForcingTerm.from_vectors(
                    [(constant_profile(1.0), np.ones(2))]
                ),
            )
        with pytest.raises(ValueError, match="does not match the grid"):
            SpectralProblem(
                grid=g,
                symbol=symbols.classical(),
                initial_hat=np.zeros(g.n - 1, dtype=complex),
            )
