"""Desk-scale studies: lemma sweeps, branch divergence, ladders, audits."""

import math
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from oracles import decimal_sup_distance
from wie import lab, symbols
from wie.config import parse_config, validate_config
from wie.forcing import (
    ForcingTerm,
    TimeProfile,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from wie.lab import (
    bound_audit,
    branch_divergence,
    convergence_study,
    fit_rate,
    lemma_tech_profile,
)
from wie.ode import OdeProblem, exact_solution, selected_minimizer
from wie.quadrature import (
    DEFAULT_SPEC,
    DivergenceError,
    ExponentOverflowError,
    QuadratureFailure,
    QuadratureSpec,
)
from wie.spectral import (
    FrequencyGrid,
    SelectedSpectralMinimizer,
    SemigroupSolution,
    SpectralProblem,
    energy_spectral,
    l2_norm,
    minimizer_hat,
    semigroup_solution,
)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's recipes)


def _spectral_problem(symbol=None, forcing=None, n=64):
    grid = FrequencyGrid.uniform_fft(n, 0.25)
    kwargs = {} if forcing is None else {"forcing": forcing}
    return SpectralProblem(
        grid=grid,
        symbol=symbol if symbol is not None else symbols.fractional(0.5),
        initial_hat=np.exp(-0.5 * grid.nodes**2).astype(complex),
        **kwargs,
    )


def _gaussian_forcing(profile):
    return ForcingTerm.from_multipliers([(profile, lambda xi: np.exp(-0.5 * xi**2))])


def _scalar_problem(a, y0=1.0, forcing=None):
    return OdeProblem(
        matrix=np.array([[float(a)]]),
        initial=np.array([float(y0)]),
        forcing=forcing if forcing is not None else ForcingTerm.zero(),
    )


class TestLemmaSweep:
    def test_constant_g_closed_form(self):
        # int_t^T exp(-(s-t)/eps) ds peaks at t = 0 with value eps(1 - exp(-T/eps))
        for eps, horizon in ((0.1, 1.0), (0.02, 0.5)):
            profile = lemma_tech_profile(lambda s: 1.0, eps, horizon)
            closed = eps * (1.0 - math.exp(-horizon / eps))
            assert profile.sup == pytest.approx(closed, rel=1e-12)
            assert profile.argmax == 0.0

    def test_integrable_singularity(self):
        # g(s) = 1/sqrt(s): the weighted tail at t = 0 is sqrt(pi eps) erf(sqrt(T/eps))
        eps = 0.1
        profile = lemma_tech_profile(lambda s: s**-0.5, eps, 1.0)
        closed = math.sqrt(math.pi * eps) * math.erf(math.sqrt(1.0 / eps))
        assert profile.sup == pytest.approx(closed, rel=1e-7)
        assert profile.argmax == 0.0
        assert np.all(np.isfinite(profile.values))

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_singular_profile_meets_contract_everywhere(self, eps):
        # G(t) = int_t^T exp(-(s-t)/eps) s^-1/2 ds in closed form; at eps = 1e-4 the
        # weight's peak is narrower than the first nodes of a rule spread on [0, T-t]
        horizon = 1.0
        profile = lemma_tech_profile(lambda s: s**-0.5, eps, horizon)
        t = profile.times
        exact = math.sqrt(math.pi * eps) * (
            erfcx(np.sqrt(t / eps)) - np.exp((t - horizon) / eps) * erfcx(math.sqrt(horizon / eps))
        )
        bound = DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * np.abs(exact)
        assert len(t) == 801
        assert np.all(np.abs(profile.values - exact) <= bound)

    def test_as_dict_shape(self):
        profile = lemma_tech_profile(lambda s: 1.0, 0.1, 1.0, time_points=11)
        d = profile.as_dict()
        assert set(d) == {"eps", "horizon", "sup", "argmax", "times", "values"}
        assert len(d["times"]) == len(d["values"]) == 11

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            lemma_tech_profile(lambda s: 1.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="grid points"):
            lemma_tech_profile(lambda s: 1.0, 0.1, 1.0, time_points=1)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_sup_grows_with_eps(self, eps_a, eps_b):
        lo, hi = sorted((eps_a, eps_b))
        if hi - lo < 1e-6:
            return
        sup_lo = lemma_tech_profile(lambda s: 1.0, lo, 1.0, time_points=3).sup
        sup_hi = lemma_tech_profile(lambda s: 1.0, hi, 1.0, time_points=3).sup
        assert sup_lo < sup_hi


class TestBranchDivergence:
    def test_pushed_branch_blows_up_like_leading_term(self):
        prob = _scalar_problem(1.0)
        result = branch_divergence(prob, 0.1, 1e-6, [3.0, 4.0, 5.0])
        z = math.sqrt(1.0 + 4.0 * 0.1 * 1.0)
        # once the fast branch dominates, energy tracks (delta^2 eps/Z) e^{ZT/eps}
        for T, numeric, closed_log in zip(
            result.horizons, result.numeric_energies, result.closed_form_log
        ):
            assert numeric / math.exp(closed_log) == pytest.approx(1.0, abs=5e-3)
        assert result.slopes[-1] == pytest.approx(z / 0.1, rel=1e-2)

    def test_zero_push_saturates(self):
        prob = _scalar_problem(1.0)
        result = branch_divergence(prob, 0.1, 0.0, [3.0, 4.0, 5.0])
        assert result.closed_form_log == (None, None, None)
        e3, e4, e5 = result.numeric_energies
        assert e4 == pytest.approx(e3, rel=1e-8)
        assert e5 == pytest.approx(e4, rel=1e-8)

    def test_zero_push_meets_contract_against_closed_form(self):
        # unforced, delta = 0: |y|^2 = sum c_i^2 exp(2 lam_i t), integrated exactly
        eps = 0.1
        prob = OdeProblem(
            matrix=np.array([[2.0, 1.0], [1.0, 2.0]]),
            initial=np.array([1.0, -0.5]),
            forcing=ForcingTerm.zero(),
        )
        mu = np.array([1.0, 3.0])
        lam = -2.0 * mu / (1.0 + np.sqrt(1.0 + 4.0 * eps * mu))
        c_sq = np.array([1.5**2 / 2.0, 0.5**2 / 2.0])
        rate = 1.0 / eps - 2.0 * lam
        result = branch_divergence(prob, eps, 0.0, [1.0, 3.0, 5.0])
        for T, numeric in zip(result.horizons, result.numeric_energies):
            exact = float(np.sum(c_sq * -np.expm1(-rate * T) / rate))
            assert abs(numeric - exact) <= DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * exact

    def test_missed_contract_raises_naming_eps_and_horizon(self):
        prob = _scalar_problem(1.0)
        tight = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-20)
        with pytest.raises(QuadratureFailure, match=r"eps=0\.1, T=1: error estimate"):
            branch_divergence(prob, 0.1, 1e-6, [1.0, 2.0], spec=tight)
        with pytest.raises(QuadratureFailure, match=r"eps=0\.1, T=2: .*panel budget"):
            branch_divergence(prob, 0.1, 1e-6, [1.0, 2.0], spec=QuadratureSpec(max_panels=8))

    def test_overflow_horizon_falls_back_to_closed_form(self):
        prob = _scalar_problem(1.0)
        result = branch_divergence(prob, 0.1, 1e-6, [1.0, 100.0])
        assert result.numeric_energies[1] is None
        assert result.log_energies[1] == result.closed_form_log[1]
        assert math.isfinite(result.log_energies[1])

    def test_validation(self):
        prob = _scalar_problem(1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            branch_divergence(prob, 0.1, 1e-6, [2.0, 1.0])
        with pytest.raises(ValueError, match="out of range"):
            branch_divergence(prob, 0.1, 1e-6, [1.0], direction=3)

    def test_direction_past_a_repeated_eigenvalue_takes_its_own_roots(self):
        # eigenvalues 1, 1, 3: the roots are per distinct eigenvalue, and direction 2 is 3's
        prob = OdeProblem(
            matrix=np.diag([1.0, 1.0, 3.0]),
            initial=np.array([1.0, -0.5, 0.25]),
            forcing=ForcingTerm.zero(),
        )
        eps, delta = 0.1, 1e-6
        result = branch_divergence(prob, eps, delta, [1.0, 2.0], direction=2)
        z = math.sqrt(1.0 + 4.0 * eps * 3.0)
        for T, closed in zip(result.horizons, result.closed_form_log):
            assert closed == lab._log_leading_term(delta, eps, z, T)

    def test_as_dict_roundtrip(self):
        prob = _scalar_problem(1.0)
        d = branch_divergence(prob, 0.1, 1e-6, [1.0, 2.0]).as_dict()
        assert d["eps"] == 0.1
        assert d["horizons"] == [1.0, 2.0]
        assert len(d["slopes"]) == 1


class TestFitRate:
    def test_exact_power_law(self):
        ladder = [0.1, 0.05, 0.01, 0.005]
        rate, half_width = fit_rate(ladder, [3.0 * e**0.97 for e in ladder])
        assert rate == pytest.approx(0.97, abs=1e-12)
        assert half_width <= 1e-10

    def test_degenerate_inputs(self):
        assert fit_rate([0.1], [0.5]) == (None, None)
        assert fit_rate([0.1, 0.05], [0.0, 0.0]) == (None, None)


class TestConvergenceStudy:
    def test_scalar_decay_and_verdicts(self):
        prob = _scalar_problem(1.0)
        report = convergence_study(prob, [0.1, 0.01, 0.001], 1.0, problem_id="decay")
        errors = [e.sup_error for e in report.entries]
        assert errors[0] > errors[1] > errors[2]
        assert report.verdicts["monotone_decay"]
        assert report.verdicts["all_members_completed"]
        assert report.verdicts["zero_audit_violations"]
        assert report.fitted_rate == pytest.approx(1.0, abs=0.15)

    def test_flat_flow_is_reproduced_exactly(self):
        # zero generator with constant forcing: both flows are y0 + c t
        forcing = ForcingTerm.from_vectors([(constant_profile(0.7), np.array([1.0]))])
        prob = _scalar_problem(0.0, forcing=forcing)
        report = convergence_study(prob, [0.1, 0.01], 1.0)
        for entry in report.entries:
            assert entry.sup_error <= 1e-12
        assert report.verdicts["all_members_completed"]

    def test_failing_rung_is_recorded_not_raised(self):
        prob = _scalar_problem(-2.0)
        report = convergence_study(prob, [0.1, 0.01], 1.0)
        first, second = report.entries
        assert first.failure is not None
        assert "1 + 4*eps*symbol <= 1/2" in first.failure
        assert math.isnan(first.sup_error)
        assert second.failure is None
        assert not report.verdicts["all_members_completed"]

    def test_validation(self):
        prob = _scalar_problem(1.0)
        with pytest.raises(ValueError, match="decrease strictly"):
            convergence_study(prob, [0.01, 0.1], 1.0)
        with pytest.raises(ValueError, match="positive"):
            convergence_study(prob, [], 1.0)
        with pytest.raises(ValueError, match="unknown norm"):
            convergence_study(prob, [0.1], 1.0, norm="energy")
        with pytest.raises(TypeError, match="unsupported problem"):
            convergence_study(object(), [0.1], 1.0)


class TestSpectralStudy:
    LADDER = [1e-1, 1e-2, 1e-3, 1e-4]

    def test_one_reference_evaluation_per_time(self, monkeypatch):
        calls = []
        flow = lab._SpectralGap.flow
        monkeypatch.setattr(
            lab._SpectralGap, "flow", lambda self, t: calls.append(t) or flow(self, t)
        )
        report = convergence_study(_spectral_problem(), self.LADDER, 1.0, time_points=201)
        assert report.verdicts["all_members_completed"]
        assert len(calls) == len(set(calls)) == 201

    def test_rungs_match_one_rung_at_a_time(self):
        # side by side, each rung gives the very floats it gives alone
        prob = _spectral_problem(forcing=_gaussian_forcing(exponential_profile(0.5, -1.0)))
        together = convergence_study(prob, self.LADDER, 1.0)
        for entry, eps in zip(together.entries, self.LADDER):
            (alone,) = convergence_study(prob, [eps], 1.0).entries
            assert entry.as_dict() == alone.as_dict()
            assert entry.energy_source == "exact"

    @pytest.mark.parametrize("profile", [constant_profile(0.7), exponential_profile(0.5, -1.0)])
    def test_exponential_part_sweeps_without_generic_kernels(self, monkeypatch, profile):
        # the tail and Duhamel kernels run in each rung's initial correction and never
        # in the sweep: b_j comes from one first and one second divided difference
        prob = _spectral_problem(forcing=_gaussian_forcing(profile))
        rungs = [minimizer_hat(prob, eps) for eps in self.LADDER]
        calls = []
        for name in ("shifted_tail", "duhamel"):
            kernel = getattr(TimeProfile, name)
            monkeypatch.setattr(
                TimeProfile,
                name,
                lambda self, *args, _k=kernel, **kw: calls.append(_k) or _k(self, *args, **kw),
            )
        gap = lab._SpectralGap(prob, prob.grid.weights)
        folded = [gap.rung(m) for m in rungs]
        for t in np.linspace(0.0, 1.0, 11):
            flow = gap.flow(float(t))
            for rung in folded:
                assert gap.gap_sq(rung, float(t), flow) >= 0.0
        assert calls == []

    def test_rung_refuses_a_tail_rate_below_the_growth_rate(self):
        # as the generic route's shifted_tail(f, 0) did, with the same message
        profile = exponential_profile(0.5, -1.0)
        prob = _spectral_problem(forcing=_gaussian_forcing(profile))
        m = minimizer_hat(prob, 1e-2)
        m.growth_rate = 1e3  # above every fast root
        gap = lab._SpectralGap(prob, prob.grid.weights)
        with pytest.raises(DivergenceError) as got:
            gap.rung(m)
        with pytest.raises(DivergenceError) as want:
            profile.shifted_tail(m.roots.fast, 0.0, m.growth_rate)
        assert str(got.value) == str(want.value)

    def test_failing_rung_is_recorded_while_the_others_complete(self):
        # symbol xi^2 - 1 dips to -1: 1 + 4*eps*(-1) <= 1/2 refuses eps = 0.2 only
        prob = _spectral_problem(symbol=symbols.custom(lambda xi: xi * xi - 1.0))
        report = convergence_study(prob, [0.2, 0.01, 0.001], 1.0)
        first, *rest = report.entries
        assert "1 + 4*eps*symbol <= 1/2" in first.failure
        assert math.isnan(first.sup_error) and first.energy_source is None
        for entry in rest:
            assert entry.failure is None and entry.energy_source == "exact"
            assert entry.sup_error > 0.0
        assert not report.verdicts["all_members_completed"]

    def test_rung_failing_mid_sweep_leaves_the_others(self, monkeypatch):
        gap_sq = lab._SpectralGap.gap_sq

        def flaky(self, m, t, flow):
            if m.eps == 1e-2 and t > 0.5:
                raise ExponentOverflowError("rung gave up")
            return gap_sq(self, m, t, flow)

        monkeypatch.setattr(lab._SpectralGap, "gap_sq", flaky)
        report = convergence_study(_spectral_problem(), self.LADDER, 1.0)
        failed = [e for e in report.entries if e.failure is not None]
        assert [e.eps for e in failed] == [1e-2]
        assert failed[0].failure == "rung gave up"
        assert sum(e.failure is None for e in report.entries) == 3

    def test_reference_failure_fails_every_live_rung(self, monkeypatch):
        flow = lab._SpectralGap.flow

        def flaky(self, t):
            if t > 0.5:
                raise ExponentOverflowError("reference gave up")
            return flow(self, t)

        monkeypatch.setattr(lab._SpectralGap, "flow", flaky)
        prob = _spectral_problem(symbol=symbols.custom(lambda xi: xi * xi - 1.0))
        report = convergence_study(prob, [0.2, 0.01, 0.001], 1.0)
        assert "1 + 4*eps*symbol <= 1/2" in report.entries[0].failure
        assert [e.failure for e in report.entries[1:]] == ["reference gave up"] * 2

    def test_rung_growing_past_the_cap_fails_alone(self):
        # the symbol dips to -650, so exp(-ell t) stays under exp(700) up to T = 1;
        # near the admissibility edge the slow root is about 752 and the rung's own
        # exp(s t) passes the cap near t = 0.93, while at eps = 1e-5 it stays near 654.
        # Tiny data keep every norm finite.
        grid = FrequencyGrid.uniform_fft(64, 0.25)
        prob = SpectralProblem(
            grid=grid,
            symbol=symbols.custom(lambda xi: xi * xi - 650.0),
            initial_hat=1e-300 * np.exp(-0.5 * grid.nodes**2).astype(complex),
        )
        ladder = [1.8e-4, 1e-5]
        report = convergence_study(prob, ladder, 1.0)
        edge, inner = report.entries
        assert edge.failure == (
            "a mode grows past exp(700) at the requested time; shorten the horizon"
        )
        assert inner.failure is None and 0.0 < inner.sup_error < math.inf
        # it fails at the first time where the rung's value(t) refuses, the flow's not
        times = np.linspace(0.0, 1.0, 201)
        gap = lab._SpectralGap(prob, grid.weights)
        rung = minimizer_hat(prob, ladder[0])
        folded = gap.rung(rung)
        flow = semigroup_solution(prob)

        def first_refusal(fn):
            for t in times:
                try:
                    fn(float(t))
                except ExponentOverflowError:
                    return float(t)

        first = first_refusal(lambda t: gap.gap_sq(folded, t, gap.flow(t)))
        assert 0.9 < first < 1.0
        assert first == first_refusal(rung.value)
        assert first_refusal(flow.value) is None

    def test_power_profile_study_reports_gauss_laguerre(self):
        prob = _spectral_problem(forcing=_gaussian_forcing(power_profile(0.5, 1.0)))
        report = convergence_study(prob, [1e-1, 1e-2], 1.0)
        for entry in report.entries:
            assert entry.energy_source == "gauss_laguerre"
            want, _ = energy_spectral(minimizer_hat(prob, entry.eps).state, prob, entry.eps)
            assert entry.energy == want


_AMPLITUDES = st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 1e-3)


@st.composite
def _profiles(draw):
    kind = draw(st.sampled_from(["constant", "exponential", "power", "sampled"]))
    if kind == "constant":
        return constant_profile(draw(_AMPLITUDES))
    if kind == "exponential":
        return exponential_profile(draw(_AMPLITUDES), draw(st.floats(-3.0, 3.0)))
    if kind == "power":
        return power_profile(draw(_AMPLITUDES), draw(st.floats(0.0, 3.0)))
    times = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3, unique=True)))
    assume(min(b - a for a, b in zip(times, times[1:])) > 1e-3)
    return sampled_profile(times, draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))


def _assert_gap_matches_the_difference_of_values(prob, eps, norm):
    # the real-kernel distance against the norm of value(t) differences, to within
    # the rounding of that route: 1e-13 of the two trajectories' norms
    w = prob.grid.weights
    if norm == "sup_vl":
        w = w * (1.0 + np.abs(prob.symbol_values))
    gap = lab._SpectralGap(prob, w)
    rung = minimizer_hat(prob, eps)
    folded = gap.rung(rung)
    flow = semigroup_solution(prob)
    for t in np.linspace(0.0, 1.5, 7):
        t = float(t)
        got = math.sqrt(gap.gap_sq(folded, t, gap.flow(t)))
        selected, first_order = rung.value(t), flow.value(t)
        want = l2_norm(selected - first_order, w)
        scale = l2_norm(selected, w) + l2_norm(first_order, w)
        assert abs(got - want) <= 1e-13 * scale


@given(
    n=st.sampled_from([8, 16, 32]),
    dx=st.floats(0.05, 1.0),
    order=st.one_of(st.none(), st.floats(0.1, 0.9)),
    eps=st.floats(1e-5, 0.2),
    profiles=st.lists(_profiles(), min_size=0, max_size=2),
    widths=st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
)
# a classical symbol on a fine grid: ell t passes the exponent cap, and delta t
# reaches 5700, past where expm1 overflows; unforced and forced
@example(
    n=32, dx=0.05, order=None, eps=0.2, profiles=[], widths=[0.3, 1.0, 1.0], norm="sup_uniform"
)
@example(
    n=32,
    dx=0.05,
    order=None,
    eps=0.2,
    profiles=[exponential_profile(0.5, -1.0)],
    widths=[0.3, 1.0, 1.0],
    norm="sup_vl",
)
@settings(deadline=None, max_examples=60)
def test_spectral_gap_matches_the_difference_of_values(n, dx, order, eps, profiles, widths, norm):
    grid = FrequencyGrid.uniform_fft(n, dx)
    xi = grid.nodes
    forcing = ForcingTerm.from_multipliers(
        [(g, lambda xi, v=v: np.exp(-0.5 * v * xi**2)) for g, v in zip(profiles, widths[1:])]
    )
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.classical() if order is None else symbols.fractional(order),
        initial_hat=(1.0 - 0.5j) * np.exp(-0.5 * widths[0] * xi**2),
        forcing=forcing,
    )
    _assert_gap_matches_the_difference_of_values(prob, eps, norm)


@st.composite
def _uneven_grids(draw):
    """(symbol, nodes, weights): values repeating 1 to 4 times, one value, or none repeating."""
    kind = draw(st.sampled_from(["repeats", "constant", "odd"]))
    if kind == "repeats":
        # floor(|xi|) is constant on [k, k + 1), so a level's nodes share its value
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
        offsets = st.lists(st.floats(0.0, 0.95), min_size=4, max_size=4, unique=True)
        nodes = [
            sign * (level + offset)
            for level, size in enumerate(sizes)
            for sign, offset in zip([1.0, -1.0, 1.0, -1.0], draw(offsets)[:size])
        ]
        scale = draw(st.floats(0.1, 3.0))
        symbol = symbols.custom(lambda xi: scale * np.floor(np.abs(xi)))
    elif kind == "constant":
        nodes = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
        value = draw(st.floats(0.0, 3.0))
        symbol = symbols.custom(lambda xi: np.full(np.shape(xi), value))
    else:
        nodes = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12, unique=True))
        symbol = symbols.custom(lambda xi: np.exp(0.5 * xi))  # not even: no value repeats
    weights = draw(st.lists(st.floats(0.05, 2.0), min_size=len(nodes), max_size=len(nodes)))
    return symbol, nodes, weights


@given(
    grid=_uneven_grids(),
    eps=st.floats(1e-5, 0.2),
    profiles=st.lists(_profiles(), min_size=0, max_size=2),
    phases=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
)
@settings(deadline=None, max_examples=60)
def test_folded_gap_matches_the_difference_of_values_on_uneven_grids(
    grid, eps, profiles, phases, norm
):
    # nodes of one value fold into one small triangle; the data differ between
    # those nodes and are not symmetric in xi
    symbol, nodes, weights = grid
    grid = FrequencyGrid.explicit(nodes, weights)
    xi = grid.nodes
    forcing = ForcingTerm.from_multipliers(
        [
            (g, lambda xi, k=k: np.exp(-0.5 * xi**2 + 1j * k * xi) * (1.0 + 0.3 * xi))
            for g, k in zip(profiles, phases[1:])
        ]
    )
    prob = SpectralProblem(
        grid=grid,
        symbol=symbol,
        initial_hat=(1.0 - 0.5j + xi) * np.exp(-0.25 * xi**2 + 1j * phases[0] * xi),
        forcing=forcing,
    )
    _assert_gap_matches_the_difference_of_values(prob, eps, norm)


def test_a_large_group_folds_into_one_small_triangle():
    # the 2048 negative nodes share the value 1; the others are distinct
    grid = FrequencyGrid.uniform_fft(4096, 0.25)
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.custom(lambda xi: np.where(xi < 0.0, 1.0, xi * xi + 2.0)),
        initial_hat=(1.0 + 0.5j * grid.nodes) * np.exp(-0.5 * grid.nodes**2),
        forcing=_gaussian_forcing(exponential_profile(0.5, -1.0)),
    )
    distinct = np.unique(prob.symbol_values).size
    assert distinct == 2049
    gap = lab._SpectralGap(prob, grid.weights)
    assert gap.factor.size <= distinct * 2**2
    rung = minimizer_hat(prob, 1e-2)
    want = l2_norm(rung.value(0.5) - semigroup_solution(prob).value(0.5), grid.weights)
    got = math.sqrt(gap.gap_sq(gap.rung(rung), 0.5, gap.flow(0.5)))
    assert abs(got - want) <= 1e-13 * want


def test_fold_in_chunks_gives_the_bits_of_one_batch(monkeypatch):
    # LAPACK factors every matrix of a batch on its own
    prob = _spectral_problem(
        forcing=_gaussian_forcing(exponential_profile(0.5, -1.0)), n=256
    )
    columns = [prob.initial_hat] + [H for _g, H in prob.forcing_parts]
    monkeypatch.setattr(lab, "_FOLD_CHUNK", 1 << 30)
    whole = lab._fold(prob.grid.weights, columns, prob.distinct)
    monkeypatch.setattr(lab, "_FOLD_CHUNK", 7)
    chunked = lab._fold(prob.grid.weights, columns, prob.distinct)
    assert whole.shape == (2, 2, 129)
    assert chunked.tobytes() == whole.tobytes()


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "case, rel",
    [
        ("spectral_forced_small", 1e-15),
        ("spectral_unforced_field", 1e-15),
        ("spectral_signed_zeros", 1e-15),
    ],
)
def test_sup_error_matches_the_decimal_oracle(case, rel):
    cfg = parse_config(_GOLDEN / case / "config.json")
    prob = cfg.spectral_problem
    # a forced case also runs eps 1e-3 and 1e-4, where O(1) kernel terms that cancel
    # down to O(eps) would show
    ladder = list(cfg.epsilon_ladder) + ([1e-3, 1e-4] if prob.forcing_parts else [])
    report = convergence_study(prob, ladder, cfg.horizon, norm=cfg.norm, time_points=cfg.time_points)
    times = np.linspace(0.0, cfg.horizon, cfg.time_points)
    for entry in report.entries:
        want = decimal_sup_distance(prob, entry.eps, times, norm=cfg.norm)
        assert abs(Decimal(entry.sup_error) - want) <= Decimal(rel) * want, entry.eps


class TestOdeStudy:
    LADDER = [1e-1, 1e-2, 1e-3, 1e-4]

    def _problem(self, shift=0.0):
        rng = np.random.default_rng(47)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        matrix = q @ np.diag(rng.uniform(0.2, 2.5, 4) - shift) @ q.T
        forcing = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -0.3), rng.standard_normal(4)),
                (exponential_profile(0.7, -1.2), rng.standard_normal(4)),
            ]
        )
        return OdeProblem(0.5 * (matrix + matrix.T), rng.standard_normal(4), forcing)

    def test_one_reference_evaluation_per_study(self, monkeypatch):
        calls = []
        value = SemigroupSolution.value
        monkeypatch.setattr(
            SemigroupSolution, "value", lambda self, t: calls.append(t) or value(self, t)
        )
        report = convergence_study(self._problem(), self.LADDER, 1.0, time_points=201)
        assert report.verdicts["all_members_completed"]
        (times,) = calls
        np.testing.assert_array_equal(times, np.linspace(0.0, 1.0, 201))

    @pytest.mark.parametrize("norm", ["sup_uniform", "sup_vl"])
    def test_rungs_match_one_rung_at_a_time(self, norm):
        # side by side on the whole grid, each rung gives the very floats of a
        # time-by-time sweep of that rung alone, in modal coordinates
        prob = self._problem()
        times = np.linspace(0.0, 1.0, 201)
        flow = exact_solution(prob)._solver
        weights = np.ones(4) if norm == "sup_uniform" else 1.0 + np.abs(prob.eigen.values)
        together = convergence_study(prob, self.LADDER, 1.0, norm=norm)
        for entry, eps in zip(together.entries, self.LADDER):
            (alone,) = convergence_study(prob, [eps], 1.0, norm=norm).entries
            assert entry.as_dict() == alone.as_dict()
            assert entry.energy_source == "exact"
            m = selected_minimizer(prob, eps)._solver
            sup = 0.0
            for t in times:
                diff = m.value(float(t)) - flow.value(float(t))
                sup = max(sup, math.sqrt(float(np.sum(diff * diff * weights))))
            assert entry.sup_error == sup

    def test_rung_failing_mid_sweep_leaves_the_others(self, monkeypatch):
        value = SelectedSpectralMinimizer.value

        def flaky(self, t):
            if self.eps == 1e-2 and np.max(t) > 0.5:
                raise ExponentOverflowError("rung gave up")
            return value(self, t)

        monkeypatch.setattr(SelectedSpectralMinimizer, "value", flaky)
        report = convergence_study(self._problem(), self.LADDER, 1.0)
        failed = [e for e in report.entries if e.failure is not None]
        assert [e.eps for e in failed] == [1e-2]
        assert failed[0].failure == "rung gave up"
        assert math.isnan(failed[0].sup_error) and failed[0].energy_source is None
        assert sum(e.failure is None for e in report.entries) == 3
        assert not report.verdicts["all_members_completed"]

    def test_reference_failure_fails_every_live_rung(self, monkeypatch):
        value = SemigroupSolution.value

        def flaky(self, t):
            if np.max(t) > 0.5:
                raise ExponentOverflowError("reference gave up")
            return value(self, t)

        monkeypatch.setattr(SemigroupSolution, "value", flaky)
        # eigenvalues down to -1.05 refuse eps = 0.2 at build: 1 + 4*eps*mu <= 1/2
        prob = self._problem(shift=1.7)
        report = convergence_study(prob, [0.2, 0.01, 0.001], 1.0)
        assert "1 + 4*eps*symbol <= 1/2" in report.entries[0].failure
        assert [e.failure for e in report.entries[1:]] == ["reference gave up"] * 2


def _ode_forced_workload() -> OdeProblem:
    # the benchmark's ode-forced recipe at seed 1, read back from its config as `wie run` does
    return validate_config(workloads.ode_forced(1)).ode_problem


def _double_eigenvalue_problem() -> OdeProblem:
    # a rotated system whose eigenvalue 1.3 is double, with two exponential parts
    q, _ = np.linalg.qr(np.random.default_rng(53).standard_normal((4, 4)))
    matrix = q @ np.diag([0.4, 1.3, 1.3, 2.2]) @ q.T
    forcing = ForcingTerm.from_vectors(
        [
            (exponential_profile(1.0, -0.3), (0.5, 1.0, -1.0, 0.25)),
            (exponential_profile(0.7, -1.2), (-0.25, 0.0, 0.75, 1.0)),
        ]
    )
    return OdeProblem(0.5 * (matrix + matrix.T), np.array([1.0, -0.5, 0.25, 0.75]), forcing)


def _golden_ode_case():
    cfg = parse_config(_GOLDEN / "ode_forced_small" / "config.json")
    return cfg.ode_problem, cfg.epsilon_ladder, cfg.time_points


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_golden_ode_case, id="golden"),
        pytest.param(lambda: (_ode_forced_workload(), [1e-1, 1e-2, 1e-3, 1e-4], 201), id="workload"),
        pytest.param(lambda: (_double_eigenvalue_problem(), [1e-1, 1e-2, 1e-3, 1e-4], 201), id="double"),
    ],
)
@pytest.mark.parametrize("norm", ["sup_uniform", "sup_vl"])
def test_ode_sup_error_matches_the_decimal_oracle(case, norm):
    # the study's modal distances against the eigenbasis view in decimal; the floor is the
    # cancellation of u_eps - u_0, about 1e-16/eps relative
    prob, ladder, time_points = case()
    report = convergence_study(prob, ladder, 1.0, norm=norm, time_points=time_points)
    assert report.verdicts["all_members_completed"]
    times = np.linspace(0.0, 1.0, time_points)
    for entry in report.entries:
        want = decimal_sup_distance(prob._modal, entry.eps, times, norm=norm)
        assert abs(Decimal(entry.sup_error) - want) <= Decimal(1e-12) * want, entry.eps


class TestBoundAudit:
    def test_clean_for_nonnegative_symbol(self):
        result = bound_audit(
            symbols.classical(), [0.1, 0.01], np.linspace(-8.0, 8.0, 41)
        )
        assert result.clean
        assert result.lower_bound == 0.0
        assert result.violating_triples == ()
        for entry in result.entries:
            assert entry.total_violations == 0

    def test_fractional_and_zeroth_order_clean(self):
        grid = np.linspace(-6.0, 6.0, 31)
        frac = bound_audit(symbols.fractional(0.5), [0.1, 0.01], grid)
        assert frac.clean
        # kernel amplitude 2 dips the symbol to -1 at the origin
        sym = symbols.zeroth_order(1.0, lambda xi: 2.0 * np.exp(-0.5 * xi**2))
        zo = bound_audit(sym, [0.05, 0.01], grid)
        assert zo.clean
        assert zo.lower_bound < 0.0

    def test_inadmissible_eps_raises(self):
        table = symbols.from_table([0.0, 8.0], [-1.0, -1.0])
        with pytest.raises(ValueError, match=r"1 \+ 4\*eps\*symbol <= 1/2"):
            bound_audit(table, [0.2], np.linspace(0.0, 8.0, 11))

    def test_as_dict_shape(self):
        result = bound_audit(symbols.classical(), [0.1], np.linspace(-2.0, 2.0, 5))
        d = result.as_dict()
        assert d["clean"] is True
        assert d["symbol_name"] == "classical"
        assert len(d["entries"]) == 1
        assert set(d["entries"][0]) == {"eps", "counts", "total_violations"}
