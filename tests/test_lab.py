"""Desk-scale studies: lemma sweeps, branch divergence, ladders, audits."""

import math
import sys
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from oracles import decimal_sup_distance, lemma_tail, random_symmetric
from wie import cli, kernels, lab, ode, symbols
from wie.audit import BoundAuditResult, bound_audit
from wie.config import parse_config, validate_config
from wie.forcing import (
    ForcingTerm,
    GrowthClass,
    TimeProfile,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from wie.lab import convergence_study, fit_rate, lemma_tech_profile
from wie.ode import OdeProblem, branch_divergence
from wie.quadrature import (
    DEFAULT_SPEC,
    ExponentOverflowError,
    QuadratureFailure,
    QuadratureSpec,
)
from wie.spectral import (
    FrequencyGrid,
    SpectralProblem,
    energy_spectral,
    l2_norm,
    minimizer_hat,
    semigroup_solution,
)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's recipes)


def _fields(report) -> str:
    """The repr of a study's fields but its rung, whose repr holds an object address."""
    return repr(report._replace(minimizer=None))


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
            profile = lemma_tech_profile(TimeProfile("constant"), eps, horizon)
            closed = eps * (1.0 - math.exp(-horizon / eps))
            assert profile.sup == pytest.approx(closed, rel=1e-12)
            assert profile.argmax == 0.0

    def test_integrable_singularity(self):
        # g(s) = 1/sqrt(s): the weighted tail at t = 0 is sqrt(pi eps) erf(sqrt(T/eps))
        eps = 0.1
        profile = lemma_tech_profile(TimeProfile("power", degree=-0.5), eps, 1.0)
        closed = math.sqrt(math.pi * eps) * math.erf(math.sqrt(1.0 / eps))
        assert profile.sup == pytest.approx(closed, rel=1e-7)
        assert profile.argmax == 0.0
        assert np.all(np.isfinite(profile.values))

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_singular_profile_meets_contract_everywhere(self, eps):
        # G(t) = int_t^T exp(-(s-t)/eps) s^-1/2 ds through erfcx, an independent closed
        # form; the sweep takes tail(t) - exp(-(T-t)/eps) tail(T) from the incomplete-gamma
        # tail, on both of its branches (t/eps below and above 3/2) and at t = 0
        horizon = 1.0
        profile = lemma_tech_profile(TimeProfile("power", degree=-0.5), eps, horizon)
        t = profile.times
        exact = math.sqrt(math.pi * eps) * (
            erfcx(np.sqrt(t / eps)) - np.exp((t - horizon) / eps) * erfcx(math.sqrt(horizon / eps))
        )
        bound = DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * np.abs(exact)
        assert len(t) == 801
        assert np.all(np.abs(profile.values - exact) <= bound)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("degree", [-0.5, -0.8, -0.9, -0.99, 1.0])
    def test_power_density_meets_contract_against_gamma_oracle(self, degree, eps):
        # s^d near the degree -1 that config refuses, and an integer degree, whose tail
        # is a finite sum; the grid is every 8th point of the default sweep, as the
        # 50-digit oracle costs 1 to 2 ms a point
        density = TimeProfile("power", degree=degree)
        profile = lemma_tech_profile(density, eps, 1.0, time_points=101)
        exact = lemma_tail(density, eps, 1.0, profile.times)
        bound = DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * np.abs(exact)
        assert np.all(np.abs(profile.values - exact) <= bound)

    @pytest.mark.parametrize("rate, eps", [(30.0, 1e-1), (30.0, 5e-2), (10.0, 1e-1), (-3.0, 1e-2)])
    def test_exponential_density_at_any_rate_against_oracle(self, rate, eps):
        # rates above and at 1/eps, where the density has no Laplace tail, and a decaying one
        density = TimeProfile("exponential", amplitude=-1.5, rate=rate)
        profile = lemma_tech_profile(density, eps, 1.0, time_points=101)
        exact = lemma_tail(density, eps, 1.0, profile.times)
        bound = DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * np.abs(exact)
        assert np.all(np.abs(profile.values - exact) <= bound)

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            lemma_tech_profile(TimeProfile("constant"), 0.1, 0.0)
        with pytest.raises(ValueError, match="grid points"):
            lemma_tech_profile(TimeProfile("constant"), 0.1, 1.0, time_points=1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -1.0])
    def test_horizon_not_positive_and_finite_is_refused(self, horizon):
        # a NaN or infinite horizon would sweep a grid of NaN and report a NaN sup
        for density in (TimeProfile("constant"), TimeProfile("power", degree=-0.5)):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                lemma_tech_profile(density, 0.1, horizon)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_sup_grows_with_eps(self, eps_a, eps_b):
        lo, hi = sorted((eps_a, eps_b))
        if hi - lo < 1e-6:
            return
        sup_lo = lemma_tech_profile(TimeProfile("constant"), lo, 1.0, time_points=3).sup
        sup_hi = lemma_tech_profile(TimeProfile("constant"), hi, 1.0, time_points=3).sup
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
            assert closed == ode._log_leading_term(delta, eps, z, T)

    def test_serializes_to_its_fields(self):
        # each field a report key, each tuple a list
        result = branch_divergence(_scalar_problem(1.0), 0.1, 1e-6, [1.0, 2.0])
        d = cli._jsonable(result)
        assert list(d) == list(result._fields)
        assert d["eps"] == 0.1
        assert d["horizons"] == [1.0, 2.0]
        assert d["numeric_energies"] == list(result.numeric_energies)
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
        # two eps one ulp-scale apart make the weighted normal matrix singular
        assert fit_rate([1.0000000000000003e-05, 1e-05], [1.0, 2.0]) == (None, None)
        # or nearly singular, with an inverse whose variance entry comes out negative
        assert fit_rate([1.000000000000002e-06, 1e-06], [1e-3, 2e-3]) == (None, None)

    def test_non_finite_errors_are_left_out(self):
        # an overflowed rung has no logarithm: the rate is that of the finite rungs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_rate([0.1, 0.01, 0.001], [math.inf, 1.0, 0.1])
            assert got == fit_rate([0.01, 0.001], [1.0, 0.1])
            assert fit_rate([0.1, 0.01], [math.nan, 1.0]) == (None, None)
        assert got[0] == pytest.approx(1.0, abs=1e-12)


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

    def test_serializes_to_its_fields_once_it_drops_its_rung(self):
        report = convergence_study(_scalar_problem(1.0), [0.1, 0.01], 1.0, problem_id="keys")
        assert report.minimizer is not None
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._jsonable(report)
        d = cli._jsonable(report._replace(minimizer=None))
        assert list(d) == list(report._fields)
        assert d["minimizer"] is None and d["problem_id"] == "keys"
        assert [list(e) for e in d["entries"]] == [list(lab.LadderEntry._fields)] * 2
        assert d["entries"][0]["sup_error"] == report.entries[0].sup_error

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

    @pytest.mark.parametrize("kind", ["ode", "spectral"])
    def test_a_grid_over_no_data_is_refused(self, kind):
        # a NaN or infinite horizon, or under two grid points, once passed every rung
        # with sup_error 0.0 on the spectral path, or failed each on the ODE path
        prob = _scalar_problem(1.0) if kind == "ode" else _spectral_problem()
        for horizon in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                convergence_study(prob, [0.1, 0.01], horizon)
        for points in (-1, 0, 1):
            with pytest.raises(ValueError, match="need at least two grid points"):
                convergence_study(prob, [0.1, 0.01], 1.0, time_points=points)
        report = convergence_study(prob, [0.1, 0.01], 1.0, time_points=2)
        assert report.verdicts["all_members_completed"]


class TestSpectralStudy:
    LADDER = [1e-1, 1e-2, 1e-3, 1e-4]

    def test_one_reference_evaluation_per_time(self, monkeypatch):
        # the flow covers each time at most once, and a study, unforced or with a
        # constant part, skips the times its bound rules out
        calls = []
        flow = lab._SpectralGap.flow
        monkeypatch.setattr(
            lab._SpectralGap,
            "flow",
            lambda self, t: calls.extend(np.ravel(t).tolist()) or flow(self, t),
        )
        forced = _gaussian_forcing(constant_profile(0.7))
        for forcing in (None, forced):
            calls.clear()
            report = convergence_study(
                _spectral_problem(forcing=forcing), self.LADDER, 1.0, time_points=201
            )
            assert report.verdicts["all_members_completed"]
            assert len(calls) == len(set(calls)) and 2 <= len(calls) < 201

    def test_rungs_match_one_rung_at_a_time(self):
        # side by side, each rung gives the very floats it gives alone
        prob = _spectral_problem(forcing=_gaussian_forcing(exponential_profile(0.5, -1.0)))
        together = convergence_study(prob, self.LADDER, 1.0)
        for entry, eps in zip(together.entries, self.LADDER):
            (alone,) = convergence_study(prob, [eps], 1.0).entries
            assert entry == alone
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
        stack = lab._Stack(gap, rungs)
        for t in np.linspace(0.0, 1.0, 11):
            (totals,) = gap.gap_sq(stack, float(t), gap.flow(float(t)))
            assert len(totals) == len(rungs) and min(totals) >= 0.0
        assert calls == []

    def test_failing_rung_is_recorded_while_the_others_complete(self):
        # symbol xi^2 - 1 dips to -1: 1 + 4*eps*(-1) <= 1/2 refuses eps = 0.2 only
        prob = _spectral_problem(symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 1.0))
        report = convergence_study(prob, [0.2, 0.01, 0.001], 1.0)
        first, *rest = report.entries
        assert "1 + 4*eps*symbol <= 1/2" in first.failure
        assert math.isnan(first.sup_error) and first.energy_source is None
        for entry in rest:
            assert entry.failure is None and entry.energy_source == "exact"
            assert entry.sup_error > 0.0
        assert not report.verdicts["all_members_completed"]

    def test_sweep_that_raises_fails_every_rung_it_holds(self, monkeypatch):
        # the symbol dips to -650: eps = 0.2 is refused when built and eps = 1.8e-4 past
        # the cap before any stack, each with its own message; a stack that raises in the
        # rounds fails the two rungs it holds with the raised message.  Tiny data keep
        # every norm finite.
        gap_sq = lab._SpectralGap.gap_sq
        held = []

        def flaky(self, stack, t, flow):
            held.extend(m.eps for m in stack.rungs)
            if np.max(t) > 0.5:
                raise ValueError("rung gave up")
            return gap_sq(self, stack, t, flow)

        monkeypatch.setattr(lab._SpectralGap, "gap_sq", flaky)
        grid = FrequencyGrid.uniform_fft(64, 0.25)
        prob = SpectralProblem(
            grid=grid,
            symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 650.0),
            initial_hat=1e-300 * np.exp(-0.5 * grid.nodes**2).astype(complex),
        )
        report = convergence_study(prob, [0.2, 1.8e-4, 1e-5, 5e-6], 1.0)
        refused, edge, *held_rungs = report.entries
        assert "1 + 4*eps*symbol <= 1/2" in refused.failure
        assert edge.failure == lab._PAST_CAP
        assert [e.failure for e in held_rungs] == ["rung gave up"] * 2
        assert set(held) == {1e-5, 5e-6}
        assert all(math.isnan(e.sup_error) and e.energy_source is None for e in report.entries)

    def test_reference_failure_fails_every_live_rung(self, monkeypatch):
        flow = lab._SpectralGap.flow

        def flaky(self, t):
            if np.max(t) > 0.5:
                raise ExponentOverflowError("reference gave up")
            return flow(self, t)

        monkeypatch.setattr(lab._SpectralGap, "flow", flaky)
        prob = _spectral_problem(symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 1.0))
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
            symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 650.0),
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
        stack = lab._Stack(gap, [rung])
        flow = semigroup_solution(prob)

        def first_refusal(fn):
            for t in times:
                try:
                    fn(float(t))
                except ExponentOverflowError:
                    return float(t)

        first = first_refusal(lambda t: gap.gap_sq(stack, t, gap.flow(t)))
        assert 0.9 < first < 1.0
        assert first == first_refusal(rung.value)
        assert first_refusal(flow.value) is None

    def test_power_profile_study_reports_gauss_laguerre(self):
        prob = _spectral_problem(forcing=_gaussian_forcing(power_profile(0.5, 1.0)))
        report = convergence_study(prob, [1e-1, 1e-2], 1.0)
        for entry in report.entries:
            assert entry.energy_source == "gauss_laguerre"
            want = energy_spectral(minimizer_hat(prob, entry.eps).state, prob, entry.eps)
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
    stack = lab._Stack(gap, [rung])
    flow = semigroup_solution(prob)
    for t in np.linspace(0.0, 1.5, 7):
        t = float(t)
        ((got,),) = np.sqrt(gap.gap_sq(stack, t, gap.flow(t)))
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
        symbol = symbols.MultiplierSymbol("custom", lambda xi: scale * np.floor(np.abs(xi)))
    elif kind == "constant":
        nodes = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
        value = draw(st.floats(0.0, 3.0))
        symbol = symbols.MultiplierSymbol("custom", lambda xi: np.full(np.shape(xi), value))
    else:
        nodes = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12, unique=True))
        symbol = symbols.MultiplierSymbol("custom", lambda xi: np.exp(0.5 * xi))  # not even: no value repeats
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
        symbol=symbols.MultiplierSymbol("custom", lambda xi: np.where(xi < 0.0, 1.0, xi * xi + 2.0)),
        initial_hat=(1.0 + 0.5j * grid.nodes) * np.exp(-0.5 * grid.nodes**2),
        forcing=_gaussian_forcing(exponential_profile(0.5, -1.0)),
    )
    distinct = np.unique(prob.symbol_values).size
    assert distinct == 2049
    gap = lab._SpectralGap(prob, grid.weights)
    assert gap.factor.size <= distinct * 2**2
    rung = minimizer_hat(prob, 1e-2)
    want = l2_norm(rung.value(0.5) - semigroup_solution(prob).value(0.5), grid.weights)
    ((got,),) = np.sqrt(gap.gap_sq(lab._Stack(gap, [rung]), 0.5, gap.flow(0.5)))
    assert abs(got - want) <= 1e-13 * want


_LADDERS = st.lists(st.floats(1e-5, 0.2), min_size=1, max_size=5, unique=True).map(
    lambda eps: sorted(eps, reverse=True)
)


def _counting_stacks(sizes):
    """A stand-in for lab._Stack that records how many rungs each stack is built with."""
    stack = lab._Stack

    def counted(gap, rungs):
        sizes.append(len(rungs))
        return stack(gap, rungs)

    return mock.patch.object(lab, "_Stack", counted)


@given(
    n=st.sampled_from([8, 16, 32]),
    dx=st.floats(0.05, 1.0),
    order=st.one_of(st.none(), st.floats(0.1, 0.9)),
    ladder=_LADDERS,
    profiles=st.lists(_profiles(), min_size=0, max_size=2),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
    per_stack=st.sampled_from([1, 2, None]),
)
# every rung past the exponent cap after t = 0.2, one forced by a power profile
@example(
    n=32,
    dx=0.05,
    order=None,
    ladder=[0.2, 1e-2, 1e-3, 1e-4],
    profiles=[power_profile(0.5, 1.5)],
    norm="sup_vl",
    per_stack=None,
)
@settings(deadline=None, max_examples=40)
def test_stacked_study_gives_the_bits_of_one_rung_studies(
    n, dx, order, ladder, profiles, norm, per_stack
):
    # stacks of one, of two and of every rung: each entry is bit for bit its rung's
    # in a study of its own
    grid = FrequencyGrid.uniform_fft(n, dx)
    xi = grid.nodes
    forcing = ForcingTerm.from_multipliers(
        [(g, lambda xi, v=v: np.exp(-0.5 * v * xi**2)) for g, v in zip(profiles, (0.7, 1.9))]
    )
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.classical() if order is None else symbols.fractional(order),
        initial_hat=(1.0 - 0.5j) * np.exp(-0.5 * xi**2),
        forcing=forcing,
    )
    per_stack = per_stack or len(ladder)
    sizes = []
    budget = per_stack * prob.distinct.values.size
    with mock.patch.object(lab, "_STACK_VALUES", budget), _counting_stacks(sizes):
        together = convergence_study(prob, ladder, 1.0, norm=norm, time_points=21)
    assert sizes[0] == min(per_stack, len(ladder))
    for entry, eps in zip(together.entries, ladder):
        (alone,) = convergence_study(prob, [eps], 1.0, norm=norm, time_points=21).entries
        assert repr(entry) == repr(alone)


@st.composite
def _study_problems(draw):
    """A small OdeProblem or SpectralProblem with up to two parts of any profile kind."""
    profiles = draw(st.lists(_profiles(), min_size=0, max_size=2))
    if draw(st.sampled_from(["ode", "spectral"])) == "ode":
        size = draw(st.integers(1, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # eigenvalues below zero refuse the large eps; up to 400, exp(-ell t) passes the cap
        lo, hi = draw(st.floats(-3.0, 1.0)), draw(st.sampled_from([3.0, 400.0]))
        matrix = random_symmetric(rng, size, lo, hi)
        forcing = ForcingTerm.from_vectors([(g, rng.standard_normal(size)) for g in profiles])
        return OdeProblem(matrix, rng.standard_normal(size), forcing)
    grid = FrequencyGrid.uniform_fft(draw(st.sampled_from([8, 16])), draw(st.floats(0.05, 1.0)))
    forcing = ForcingTerm.from_multipliers(
        [(g, lambda xi, v=v: np.exp(-0.5 * v * xi**2)) for g, v in zip(profiles, (0.7, 1.9))]
    )
    order = draw(st.one_of(st.none(), st.floats(0.1, 0.9)))
    return SpectralProblem(
        grid=grid,
        symbol=symbols.classical() if order is None else symbols.fractional(order),
        initial_hat=(1.0 - 0.5j) * np.exp(-0.5 * grid.nodes**2),
        forcing=forcing,
    )


@given(
    prob=_study_problems(),
    ladder=_LADDERS,
    horizon=st.floats(0.1, 3.0),
    time_points=st.integers(2, 41),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
)
@settings(deadline=None, max_examples=50)
def test_blocks_of_times_give_the_bits_of_one_time_blocks(prob, ladder, horizon, time_points, norm):
    # blocks of one time, of two and of every time (while every rung builds): each
    # entry, failures included, is repr for repr the same
    rows = len(ladder) * prob.distinct.values.size
    studies = []
    for width in (1, 2, time_points):
        with mock.patch.object(lab, "_STACK_VALUES", width * rows):
            report = convergence_study(prob, ladder, horizon, norm=norm, time_points=time_points)
        studies.append(_fields(report))
    assert studies[0] == studies[1] == studies[2]


def test_forced_rung_past_the_cap_fails_alone_in_a_shared_stack(monkeypatch):
    # as test_rung_growing_past_the_cap_fails_alone, with an exponential part and a
    # third rung: the edge rung's own exp(s t) passes the cap near t = 0.93 while its
    # stack-mates stay near 654; tiny data keep every norm finite
    grid = FrequencyGrid.uniform_fft(64, 0.25)
    tiny = lambda xi: 1e-300 * np.exp(-0.5 * xi**2)  # noqa: E731
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 650.0),
        initial_hat=tiny(grid.nodes).astype(complex),
        forcing=ForcingTerm.from_multipliers([(exponential_profile(0.5, -1.0), tiny)]),
    )
    ladder = [1.8e-4, 1e-5, 5e-6]
    stacked = []
    init = lab._Stack.__init__

    def spied(self, gap, rungs):
        stacked.append([m.eps for m in rungs])
        init(self, gap, rungs)

    monkeypatch.setattr(lab._Stack, "__init__", spied)
    report = convergence_study(prob, ladder, 1.0)
    monkeypatch.undo()
    # the edge rung is refused before any stack is built, and never enters one
    assert stacked == [ladder[1:]]
    # built alone, it refuses at the last time and at every time from near t = 0.93 on
    gap = lab._SpectralGap(prob, grid.weights)
    alone = lab._Stack(gap, [minimizer_hat(prob, ladder[0])])
    refused = []
    for t in np.linspace(0.0, 1.0, 201):
        try:
            gap.gap_sq(alone, float(t), gap.flow(float(t)))
        except ExponentOverflowError:
            refused.append(float(t))
    assert refused[-1] == 1.0 and 0.9 < refused[0] < 1.0
    assert refused == [t for t in np.linspace(0.0, 1.0, 201).tolist() if t >= refused[0]]
    edge, *inner = report.entries
    assert edge.failure == "a mode grows past exp(700) at the requested time; shorten the horizon"
    assert all(e.failure is None and 0.0 < e.sup_error < math.inf for e in inner)
    for entry, eps in zip(report.entries, ladder):
        (solo,) = convergence_study(prob, [eps], 1.0).entries
        assert repr(entry) == repr(solo)


def test_rung_past_the_cap_fails_alone_beside_a_power_part():
    # a power part has no second-order bound, so the stack walks every time, here in
    # one block; the symbol dips to -650, and the edge rung's slow root passes the cap
    # near t = 0.93 while the others stay near 654.  Tiny data keep every norm finite
    grid = FrequencyGrid.uniform_fft(64, 0.25)
    tiny = lambda xi: 1e-300 * np.exp(-0.5 * xi**2)  # noqa: E731
    parts = [(power_profile(0.5, 0.5), tiny), (exponential_profile(0.5, -1.0), tiny)]
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.MultiplierSymbol("custom", lambda xi: xi * xi - 650.0),
        initial_hat=tiny(grid.nodes).astype(complex),
        forcing=ForcingTerm.from_multipliers(parts),
    )
    ladder = [1.8e-4, 1e-5, 5e-6]
    report = convergence_study(prob, ladder, 1.0)
    edge, *inner = report.entries
    assert edge.failure == lab._PAST_CAP
    assert all(e.failure is None and 0.0 < e.sup_error < math.inf for e in inner)
    for entry, eps in zip(report.entries, ladder):
        (solo,) = convergence_study(prob, [eps], 1.0).entries
        assert repr(entry) == repr(solo)


def _walk_every_time(self, live, times):
    """The sweep's reference: each rung alone, gap_sq at every time of the grid."""
    sups = {}
    for i, m in live.items():
        try:
            stack, best = lab._Stack(self, [m]), 0.0
            for t in map(float, times):
                ((total,),) = self.gap_sq(stack, t, self.flow(t))
                best = max(best, math.sqrt(total))
            sups[i] = best
        except Exception as exc:
            sups[i] = exc
    return sups


# 1e-6 to 0.2: with the symbol shifted down, only the small eps stay admissible
_WIDE_LADDERS = st.lists(st.floats(-6.0, -0.7), min_size=1, max_size=5, unique=True).map(
    lambda logs: sorted({10.0**x for x in logs}, reverse=True)
)


@st.composite
def _exact_profiles(draw):
    """A constant or exponential profile, its rate above or below 0: what the sweep bisects."""
    if draw(st.booleans()):
        return constant_profile(draw(_AMPLITUDES))
    return exponential_profile(draw(_AMPLITUDES), draw(st.floats(-3.0, 3.0)))


@given(
    n=st.sampled_from([8, 16, 32]),
    dx=st.floats(0.05, 1.0),
    power=st.floats(0.5, 2.0),
    shift=st.one_of(st.just(0.0), st.floats(0.0, 60.0), st.just(650.0)),
    scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e100]),
    parts=st.lists(_exact_profiles(), min_size=0, max_size=2),
    ladder=_WIDE_LADDERS,
    horizon=st.floats(0.1, 3.0),
    time_points=st.integers(2, 1001),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
    per_stack=st.sampled_from([1, 2, None]),
    width=st.sampled_from([1, 3]),
)
# symbol values down to -650: growing modes, the edge rung past the cap near t = 0.93
@example(
    n=32,
    dx=0.25,
    power=2.0,
    shift=650.0,
    scale=1e-300,
    parts=[],
    ladder=[1.8e-4, 1e-5],
    horizon=1.0,
    time_points=201,
    norm="sup_uniform",
    per_stack=None,
    width=1,
)
# the same, forced: the forced stack bisects past where exp(-ell t) passes the cap
@example(
    n=32,
    dx=0.25,
    power=2.0,
    shift=650.0,
    scale=1e-300,
    parts=[exponential_profile(0.5, -1.0)],
    ladder=[1.8e-4, 1e-5],
    horizon=1.0,
    time_points=201,
    norm="sup_vl",
    per_stack=None,
    width=1,
)
# a part whose exp(r t) passes the cap near t = 0.93 and overflows math.exp at t = 1
@example(
    n=16,
    dx=0.5,
    power=1.0,
    shift=0.0,
    scale=1.0,
    parts=[constant_profile(1.0), exponential_profile(0.5, 750.0)],
    ladder=[1e-4, 1e-5],
    horizon=1.0,
    time_points=201,
    norm="sup_uniform",
    per_stack=None,
    width=3,
)
@settings(deadline=None, max_examples=100)
def test_bisecting_sweep_reports_the_full_walk(
    n, dx, power, shift, scale, parts, ladder, horizon, time_points, norm, per_stack, width
):
    # the sweep skips the times its bounds rule out, unforced and forced with constant
    # and exponential parts, and reports, repr for repr, what gap_sq at every time
    # reports, failures included
    grid = FrequencyGrid.uniform_fft(n, dx)
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.MultiplierSymbol("custom", lambda xi: np.abs(xi) ** power - shift),
        initial_hat=scale * (1.0 - 0.5j) * np.exp(-0.5 * grid.nodes**2),
        forcing=ForcingTerm.from_multipliers(
            [
                (g, lambda xi, v=v: scale * np.exp(-0.5 * v * xi**2 + 1j * xi))
                for g, v in zip(parts, (0.7, 1.9))
            ]
        ),
    )
    # stacks of one or two rungs, or one stack of every rung taking blocks of width times
    budget = (per_stack or len(ladder) * width) * prob.distinct.values.size
    study = lambda: _fields(  # noqa: E731
        convergence_study(prob, ladder, horizon, norm=norm, time_points=time_points)
    )
    # data of 1e100 grown by exp(650) overflow to inf, and a forced gap to inf - inf, on
    # both sides alike
    with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(
        lab, "_STACK_VALUES", budget
    ):
        bisected = study()
        with mock.patch.object(lab._SpectralGap, "sweep", _walk_every_time):
            walked = study()
    assert bisected == walked


def test_growth_bound_rules_out_only_what_it_proves():
    # a rung's distance 1 at t = 0.5 bounds it by 2 exp(growth/2) on [0.5, 1]
    floor, margin = 1e-300, lab._BOUND_MARGIN
    seen = {0.0: 0.0, 0.5: 1.0}
    assert lab._rules_out(seen, 0.5, 1.0, 0.0, floor, 2.0 * (1.0 + 2.0 * margin))
    # within the margin of the best distance, or at t_a = 0, where the distance is 0
    assert not lab._rules_out(seen, 0.5, 1.0, 0.0, floor, 2.0 * (1.0 + 0.5 * margin))
    assert not lab._rules_out(seen, 0.0, 0.5, 0.0, floor, 1e300)
    # a growing mode widens the bound by exp(s_max (t_b - t_a))
    grown = 2.0 * math.exp(0.5 * 3.0)
    assert lab._rules_out(seen, 0.5, 1.0, 3.0, floor, grown * (1.0 + 2.0 * margin))
    assert not lab._rules_out(seen, 0.5, 1.0, 3.0, floor, 0.99 * grown)
    # an inf or NaN left end, and one whose square may have lost terms to underflow
    for left in (math.inf, math.nan, 1e-151):
        assert not lab._rules_out({0.5: left}, 0.5, 1.0, 0.0, floor, math.inf)


def test_second_order_bound_rules_out_only_what_it_proves():
    # N(0.5) = 1 with Taylor data (<g, g'>, |g'|^2, M) at 0.5, on [0.5, 1]: h = 0.5
    floor, margin = 1e-300, lab._BOUND_MARGIN
    seen = {0.0: 0.0, 0.5: 1.0}

    def holds(bound, growth, taylor):
        # rules out a best just above the bound raised by the margin, and none within it
        slopes = {0.5: taylor}
        above = lab._rules_out(seen, 0.5, 1.0, growth, floor, bound * (1.0 + 2.0 * margin), slopes)
        within = lab._rules_out(seen, 0.5, 1.0, growth, floor, bound * (1.0 + 0.5 * margin), slopes)
        return above and not within

    # flat: N stays 1; a slope of 2 along g reaches |g + h g'| = 2; one against g
    # reaches |g + h g'| = 0, so N(t_a) bounds the first-order part
    assert holds(1.0, 0.0, (0.0, 0.0, 0.0))
    assert holds(2.0, 0.0, (2.0, 4.0, 0.0))
    assert holds(1.0, 0.0, (-2.0, 4.0, 0.0))
    # a bend M adds (h^2/2) M (t_b/t_a)^2 exp(growth h)
    assert holds(1.0 + 0.125 * 4.0, 0.0, (0.0, 0.0, 1.0))
    assert holds(2.0 + 0.125 * 4.0 * math.exp(1.5), 3.0, (2.0, 4.0, 1.0))
    # at t_a = 0 the bound grows without limit; past the cap t_a has no Taylor data
    flat = {0.0: (0.0, 0.0, 0.0), 0.5: (0.0, 0.0, 0.0)}
    assert not lab._rules_out(seen, 0.0, 0.5, 0.0, floor, 1e300, flat)
    assert not lab._rules_out(seen, 0.5, 1.0, 0.0, floor, 1e300, {})
    # an inf or NaN entry, or a left end whose square may have lost terms to underflow
    for bad in (math.inf, -math.inf, math.nan):
        for k in range(3):
            taylor = [0.0, 0.0, 0.0]
            taylor[k] = bad
            assert not lab._rules_out(seen, 0.5, 1.0, 0.0, floor, 1e300, {0.5: tuple(taylor)})
    for left in (math.inf, math.nan, 1e-151):
        assert not lab._rules_out({0.5: left}, 0.5, 1.0, 0.0, floor, 1e300, flat)


@given(
    shift=st.sampled_from([0.0, 5.0]),
    parts=st.lists(_exact_profiles(), min_size=1, max_size=2),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
    ta=st.floats(1e-3, 1.0),
    length=st.floats(1e-3, 1.0),
)
@settings(deadline=None, max_examples=40)
def test_second_order_bound_holds_between_samples(shift, parts, norm, ta, length):
    # the bound from the Taylor data at t_a, raised by the margin, lies above each
    # rung's distance at 41 times across [t_a, t_b]
    grid = FrequencyGrid.uniform_fft(32, 0.25)
    xi = grid.nodes
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.MultiplierSymbol("custom", lambda xi: np.abs(xi) - shift),
        initial_hat=(1.0 - 0.5j + xi) * np.exp(-0.5 * xi**2),
        forcing=ForcingTerm.from_multipliers(
            [
                (g, lambda xi, v=v: np.exp(-0.5 * v * xi**2 + 1j * v * xi))
                for g, v in zip(parts, (0.7, 1.9))
            ]
        ),
    )
    w = prob.grid.weights
    if norm == "sup_vl":
        w = w * (1.0 + np.abs(prob.symbol_values))
    gap = lab._SpectralGap(prob, w)
    gap._use_second_order()
    stack = lab._Stack(gap, [minimizer_hat(prob, eps) for eps in (2e-2, 1e-2, 1e-3)])
    rate = max([0.0] + [f[1] for f in gap.forms])
    tb = ta + length
    (left,) = np.sqrt(gap.gap_sq(stack, ta, gap.flow(ta)))
    (taylor,) = stack.taylor.tolist()
    dense = [np.sqrt(gap.gap_sq(stack, t, gap.flow(t)))[0] for t in np.linspace(ta, tb, 41)]
    for k, (n_a, data, s) in enumerate(zip(left, taylor, stack.slow_maxima)):
        bound = kernels._reach(float(n_a), *data, ta, tb, max(s, rate))
        assert max(row[k] for row in dense) <= bound * (1.0 + lab._BOUND_MARGIN)


def test_column_norms_of_tiny_data_stay_positive():
    # data near 1e-300 have squares below the smallest subnormal; the column norms of R,
    # which scale the majorant M of the second-order bound, must not underflow to 0
    grid = FrequencyGrid.explicit(np.array([0.5, 1.0, 2.0]), np.ones(3))
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.fractional(0.5),
        initial_hat=np.full(3, 1e-300, dtype=complex),
        forcing=ForcingTerm.from_multipliers(
            [(exponential_profile(0.5, -1.0), lambda xi: np.full(np.shape(xi), 3e-300j))]
        ),
    )
    gap = lab._SpectralGap(prob, prob.grid.weights)
    gap._use_second_order()
    assert gap.norms.shape == (2, 1, 1, 3)
    assert np.all(gap.norms > 0.0)


class TestSweepWorkGuard:
    """Work of the sweep on the benchmark's recipes, 201 times and four rungs.

    The counts repeat exactly; each call counts the times it covers.
    spectral-wide (unforced, four stacks of one) bisects under its growth
    bound: 80 of 201 flows, 304 of 804 rung evaluations.  spectral-forced
    (one stack of four, one time per block) bisects under its second-order
    bound: 24 of 201 flows, 24 stack evaluations, 96 of 804 rung
    evaluations, and 27, 27 and 108 in the benchmark's sup_vl norm.  ode-forced (one stack of four rungs of eight values)
    takes every time in one block: one flow and one stack evaluation, each
    covering the 201 times.  After its first round, times 0 and T, each
    stack of the two spectral recipes is screened: every later flow and
    evaluation of spectral-wide forms 12038 of its 32769 values (37%; 12152
    in sup_vl), of spectral-forced 756 of 2049 (37%; 765 in sup_vl).
    ode-forced's stack keeps all eight.
    """

    def _count(self, monkeypatch, problem, norm="sup_uniform"):
        flows, stacks, sizes = [], [], []
        flow, gap_sq = lab._SpectralGap.flow, lab._SpectralGap.gap_sq

        def counted(self, stack, t, terms):
            stacks.append((np.size(t), len(stack.rungs)))
            sizes.append((self.kept.size, stack.slow_sq.shape[-1], self.ell.size))
            return gap_sq(self, stack, t, terms)

        monkeypatch.setattr(
            lab._SpectralGap, "flow", lambda s, t: flows.append(np.ravel(t).tolist()) or flow(s, t)
        )
        monkeypatch.setattr(lab._SpectralGap, "gap_sq", counted)
        report = convergence_study(
            problem, TestSpectralStudy.LADDER, 1.0, norm=norm, time_points=201
        )
        assert report.verdicts["all_members_completed"]
        covered = [t for block in flows for t in block]
        assert len(covered) == len(set(covered))
        self.sizes = sizes  # per evaluation: the values the flow forms, its stack's, and all
        return flows, stacks

    def _spectral(self, monkeypatch, recipe, norm="sup_uniform"):
        problem = validate_config(recipe(1)).problem
        flows, stacks = self._count(monkeypatch, problem, norm)
        return sum(map(len, flows)), sum(t for t, _r in stacks), sum(t * r for t, r in stacks)

    def test_unforced_sweep_evaluates_at_most_half_the_grid(self, monkeypatch):
        flows, _stacks, rungs = self._spectral(monkeypatch, workloads.spectral_wide)
        assert flows <= 100 and rungs <= 402

    @pytest.mark.parametrize("norm", ["sup_uniform", "sup_vl"])
    def test_forced_sweep_evaluates_at_most_a_fifth_of_the_grid(self, monkeypatch, norm):
        flows, stacks, rungs = self._spectral(monkeypatch, workloads.spectral_forced, norm)
        assert flows <= 40 and stacks <= 40 and rungs <= 160

    def test_ode_sweep_takes_every_time_in_one_block(self, monkeypatch):
        flows, stacks = self._count(monkeypatch, validate_config(workloads.ode_forced(1)).problem)
        assert [len(block) for block in flows] == [201]
        assert stacks == [(201, 4)]
        assert self.sizes == [(8, 8, 8)]

    @pytest.mark.parametrize(
        "recipe, norm, first",
        [
            (workloads.spectral_wide, "sup_uniform", 8),
            (workloads.spectral_wide, "sup_vl", 8),
            (workloads.spectral_forced, "sup_uniform", 2),
            (workloads.spectral_forced, "sup_vl", 2),
        ],
    )
    def test_screened_sweep_forms_at_most_two_fifths_of_the_values(
        self, monkeypatch, recipe, norm, first
    ):
        # the first round takes every value at times 0 and T, once per stack (four
        # stacks of one, or one of four); every later flow and evaluation forms at most
        # 40% of the values
        self._spectral(monkeypatch, recipe, norm)
        head, rest = self.sizes[:first], self.sizes[first:]
        assert all(flow == stack == every for flow, stack, every in head)
        assert rest and all(flow == stack <= 0.4 * every for flow, stack, every in rest)


def _narrowing(sizes):
    """A spy on lab._Stack.narrow that records (values kept, every value) of each build."""
    narrow = lab._Stack.narrow

    def spied(stack, gap):
        sizes.append((gap.kept.size, gap.ell.size))
        return narrow(stack, gap)

    return mock.patch.object(lab._Stack, "narrow", spied)


def test_a_planted_high_frequency_mode_stays_in_the_sweep():
    # Gaussian data leave the top of the grid to the screen, but an amplitude of 10
    # planted at xi = 18 (ell = 324) peaks near t = 0.005 and is gone by t = T: only the
    # bound over [0, T], not the mode's values at the first round's times, keeps it
    grid = FrequencyGrid.uniform_fft(256, 0.125)
    data = np.exp(-0.5 * grid.nodes**2).astype(complex)
    planted = int(np.argmin(np.abs(grid.nodes - 18.0)))
    prob = SpectralProblem(grid=grid, symbol=symbols.classical(), initial_hat=data)
    ladder = [1e-1, 1e-2, 1e-3]
    bare = convergence_study(prob, ladder, 1.0)
    data[planted] = 10.0
    prob = SpectralProblem(grid=grid, symbol=symbols.classical(), initial_hat=data)
    sizes = []
    with _narrowing(sizes):
        screened = convergence_study(prob, ladder, 1.0)
    with mock.patch.object(lab, "_SCREEN", 0.0):
        full = convergence_study(prob, ladder, 1.0)
    assert _fields(screened) == _fields(full)
    # the planted mode sets each sup, and the screen cut the grid just past it
    for got, without in zip(screened.entries, bare.entries):
        assert got.sup_error > 10.0 * without.sup_error
    cuts = [size for size, every in sizes if size < every]
    assert len(cuts) == 1 and cuts[0] == prob.distinct.inverse[planted] + 1


@st.composite
def _decaying_problems(draw):
    """An unforced or exponentially forced problem whose data decay fast at high frequency."""
    # |xi| reaches pi/dx >= 15, where exp(-v xi^2) is below exp(-110)
    grid = FrequencyGrid.uniform_fft(draw(st.sampled_from([64, 128, 256])), draw(st.floats(0.1, 0.2)))
    xi = grid.nodes
    decay = lambda v: np.exp(-v * xi**2 + 1j * draw(st.floats(-1.0, 1.0)) * xi)  # noqa: E731
    parts = draw(st.lists(_exact_profiles(), min_size=0, max_size=2))
    return SpectralProblem(
        grid=grid,
        symbol=draw(st.sampled_from([symbols.classical(), symbols.fractional(0.5)])),
        initial_hat=draw(st.floats(0.5, 2.0)) * decay(draw(st.floats(0.5, 2.0))),
        forcing=ForcingTerm.from_multipliers(
            [(g, lambda _xi, h=decay(draw(st.floats(0.5, 2.0))): h) for g in parts]
        ),
    )


@given(
    prob=_decaying_problems(),
    ladder=_LADDERS,
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
    time_points=st.integers(3, 401),
    per_stack=st.sampled_from([1, 2]),
)
@settings(deadline=None, max_examples=40)
def test_screened_sweep_gives_the_bits_of_the_unscreened_one(
    prob, ladder, norm, time_points, per_stack
):
    # with the screen's constant at 0 no value is screened.  Stacks of one or two rungs
    # take a time or two per block, so no grid fits one block, and the screen cuts each
    # of these grids; each sup keeps its bits
    study = lambda: _fields(  # noqa: E731
        convergence_study(prob, ladder, 1.0, norm=norm, time_points=time_points)
    )
    sizes = []
    with mock.patch.object(lab, "_STACK_VALUES", per_stack * prob.distinct.values.size):
        with _narrowing(sizes):
            screened = study()
        with mock.patch.object(lab, "_SCREEN", 0.0):
            full = study()
    assert screened == full
    assert any(size < every for size, every in sizes)


@given(
    shift=st.sampled_from([0.0, 20.0]),
    parts=st.lists(_exact_profiles(), min_size=0, max_size=2),
    norm=st.sampled_from(["sup_uniform", "sup_vl"]),
)
@settings(deadline=None, max_examples=30)
def test_the_screened_distance_bounds_what_the_screen_left_out(shift, parts, norm):
    # at 41 times across [0, T] each rung's full distance lies within its kept one plus
    # the screened distance the sweep takes from best; growing modes (shift 20) too
    grid = FrequencyGrid.uniform_fft(128, 0.125)
    xi = grid.nodes
    prob = SpectralProblem(
        grid=grid,
        symbol=symbols.MultiplierSymbol("custom", lambda xi: np.abs(xi) - shift),
        initial_hat=(1.0 - 0.5j + xi) * np.exp(-0.5 * xi**2),
        forcing=ForcingTerm.from_multipliers(
            [(g, lambda xi, v=v: np.exp(-0.5 * v * xi**2 + 1j * xi)) for g, v in zip(parts, (0.7, 1.9))]
        ),
    )
    w = prob.grid.weights * ((1.0 + np.abs(prob.symbol_values)) if norm == "sup_vl" else 1.0)
    gap = lab._SpectralGap(prob, w)
    if parts:
        gap._use_second_order()
    # eps below 1/(8 shift), where the dip of the symbol stays admissible
    stack = lab._Stack(gap, [minimizer_hat(prob, eps) for eps in (5e-3, 1e-3, 1e-4)])
    times = np.linspace(0.0, 1.0, 41)
    every = [np.sqrt(gap.gap_sq(stack, t, gap.flow(t))[0]) for t in times]
    group = list(range(len(stack.rungs)))
    sups = {i: {0.0: float(every[0][i]), 1.0: float(every[-1][i])} for i in group}
    gap.screened = dict.fromkeys(group, 0.0)
    gap._screen([[group, stack, None, None]], sups, 1.0)
    assert stack.slow_sq.shape[-1] == gap.kept.size < gap.ell.size
    for t, full in zip(times, every):
        kept = np.sqrt(gap.gap_sq(stack, t, gap.flow(t))[0])
        for i in group:
            assert full[i] <= (kept[i] + gap.screened[i]) * (1.0 + 2.0**-40)


@pytest.mark.parametrize("forcing", [None, _gaussian_forcing(exponential_profile(0.5, -1.0))])
def test_every_rule_out_takes_best_less_the_screened_distance(monkeypatch, forcing):
    # a skipped time lies below the sup only if its bound on the kept values lies below
    # best less the distance the screen left out.  No end-to-end check shows a sweep that
    # forgets the subtraction, even with a coarse cut (CHANGES.md), so the rule's input is
    # checked where the sweep forms it; the coarse cut leaves out a distance to subtract
    gaps, calls = [], []
    init, rules_out = lab._SpectralGap.__init__, lab._rules_out

    def spied(seen, ta, tb, growth, floor, best, taylor=None):
        calls.append((max(seen.values()), best))
        return rules_out(seen, ta, tb, growth, floor, best, taylor)

    monkeypatch.setattr(lab._SpectralGap, "__init__", lambda g, *a: gaps.append(g) or init(g, *a))
    monkeypatch.setattr(lab, "_rules_out", spied)
    monkeypatch.setattr(lab, "_SCREEN", 2.0**-10)
    report = convergence_study(_spectral_problem(forcing=forcing), TestSpectralStudy.LADDER, 1.0)
    assert report.verdicts["all_members_completed"]
    (gap,) = gaps
    screened = sorted(gap.screened.values())
    assert screened[-1] > 0.0
    # top - best is a rung's screened distance, up to the rounding of the subtraction
    assert all(any(abs(top - best - s) <= 2.0**-50 * top for s in screened) for top, best in calls)
    assert max(top - best for top, best in calls) > 0.5 * screened[-1]


@pytest.mark.parametrize(
    "problem",
    [
        _spectral_problem(forcing=_gaussian_forcing(power_profile(1.0, 1.0))),
        _spectral_problem(forcing=_gaussian_forcing(sampled_profile([0.0, 0.5, 1.0], [1.0, 0.5, 0.2]))),
        validate_config(workloads.ode_forced(1)).problem,
        _scalar_problem(2.0),
        SpectralProblem(
            grid=FrequencyGrid.uniform_fft(4096, 0.125),
            symbol=symbols.fractional(0.5),
            initial_hat=np.zeros(4096, dtype=complex),
        ),
    ],
    ids=["power-part", "sampled-part", "ode-forced", "one-block", "best-zero"],
)
def test_walking_stacks_and_one_block_grids_are_never_screened(problem):
    # a power or sampled part walks every time, as a grid in one block does, and a rung
    # whose best distance is 0 keeps every value
    sizes = []
    with _narrowing(sizes):
        report = convergence_study(problem, TestSpectralStudy.LADDER, 1.0)
    assert report.verdicts["all_members_completed"]
    assert sizes and all(size == every for size, every in sizes)


@pytest.mark.parametrize(
    "recipe, values, sizes",
    [(workloads.spectral_forced, 2049, [4]), (workloads.spectral_wide, 32769, [1, 1, 1, 1])],
)
def test_stacks_hold_at_most_the_values_budget(recipe, values, sizes):
    # the four rungs of a 4096-node grid share one stack; a rung of 32769 values is
    # a stack of its own
    prob = validate_config(recipe(1)).problem
    assert prob.distinct.values.size == values
    built = []
    with _counting_stacks(built):
        report = convergence_study(prob, TestSpectralStudy.LADDER, 1.0, time_points=3)
    assert report.verdicts["all_members_completed"]
    assert built == sizes


class TestStackMemoryGuard:
    """Transient memory of a stack of four forced rungs against a stack of one,
    and of its second-order Taylor data.

    Figures are tracemalloc counts in units of one float array of a rung's
    values (the distinct symbol values).
    """

    def _traced(self, call, unit):
        """(result, retained, peak) of call, the last two above the memory traced before it."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = call()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, (after - before) / unit, (peak - before) / unit

    def test_a_stack_is_built_within_one_rungs_temporaries(self):
        # blocks allocated once and filled rung by rung: the peak above the blocks kept
        # is what building one rung takes, where blocks formed whole would hold four
        # rungs' temporaries at once
        prob = validate_config(workloads.spectral_forced(1)).problem
        rungs = [minimizer_hat(prob, eps) for eps in TestSpectralStudy.LADDER]
        gap = lab._SpectralGap(prob, prob.grid.weights)
        gap.work(len(rungs))  # as the sweep does before any stack is built
        unit = 8 * prob.distinct.values.size
        one, one_kept, one_peak = self._traced(lambda: lab._Stack(gap, rungs[:1]), unit)
        four, kept, peak = self._traced(lambda: lab._Stack(gap, rungs), unit)
        assert kept <= 4.0 * one_kept + 0.5
        assert peak - kept <= one_peak - one_kept + 1.0
        # an evaluation holds about one more block per rung than a stack of one does:
        # the stack forms its Taylor terms in chunks of 2/k of a rung's values
        t = float(TestSpectralStudy.LADDER[-1]) * 50.0  # every rate takes the series
        flow = gap.flow(t)
        _, _, one_eval = self._traced(lambda: gap.gap_sq(one, t, flow), unit)
        _, _, four_eval = self._traced(lambda: gap.gap_sq(four, t, flow), unit)
        assert four_eval <= one_eval + len(rungs)

    def test_second_order_data_take_one_row_and_one_block(self):
        # a stack that bisects under the second-order bound keeps one more row per rung,
        # delta |s - ell|, and its evaluation holds one more block: the derivatives and
        # majorants are formed in place of the arrays that the evaluation already holds
        prob = validate_config(workloads.spectral_forced(1)).problem
        rungs = [minimizer_hat(prob, eps) for eps in TestSpectralStudy.LADDER]
        unit = 8 * prob.distinct.values.size
        figures = []
        for second_order in (False, True):
            gap = lab._SpectralGap(prob, prob.grid.weights)
            gap.work(len(rungs))
            if second_order:
                gap._use_second_order()
            stack, kept, _peak = self._traced(lambda: lab._Stack(gap, rungs), unit)
            flow = gap.flow(0.5)
            _, left, peak = self._traced(lambda: gap.gap_sq(stack, 0.5, flow), unit)
            assert (stack.taylor is not None) == second_order and left < 0.1
            figures.append((kept, peak))
        (kept, peak), (second_kept, second_peak) = figures
        assert second_kept <= kept + len(rungs) + 0.5
        assert second_peak <= peak + len(rungs) + 0.5


class TestStudyPeakGuard:
    """The peak of a whole unforced study, grid and problem included, in units
    of one float array of the grid's length (tracemalloc)."""

    N = 1 << 16

    def test_an_unforced_study_peaks_below_twelve_node_arrays(self):
        # the grid forms its nodes on read and holds no weights, and each of the four
        # rungs keeps one root array on the n//2 + 1 distinct values: the peak was 16.2
        # node arrays when a grid held both arrays and a rung three root arrays
        def study():
            grid = FrequencyGrid.uniform_fft(self.N, 0.125)
            prob = SpectralProblem(
                grid=grid,
                symbol=symbols.fractional(0.5),
                initial_hat=lambda xi: np.exp(-0.5 * xi**2),
            )
            return convergence_study(prob, TestSpectralStudy.LADDER, 1.0, norm="sup_vl")

        study()  # warm-up
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = study()
            _after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdicts["all_members_completed"]
        assert len(report.entries) == 4
        assert (peak - before) / (8 * self.N) < 12.0


def test_fold_in_chunks_gives_the_bits_of_one_batch(monkeypatch):
    # LAPACK factors every matrix of a batch on its own
    prob = _spectral_problem(
        forcing=_gaussian_forcing(exponential_profile(0.5, -1.0)), n=256
    )
    columns = [prob.initial_hat] + [H for _g, H in prob.forcing_parts]
    monkeypatch.setattr(lab, "_BATCH_VALUES", 1 << 30)
    whole = lab._fold(prob.grid.weights, columns, prob.distinct)
    monkeypatch.setattr(lab, "_BATCH_VALUES", 7)
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
    prob = cfg.problem
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
        # four rungs of four eigenvalues fit the whole grid in one block: one flow
        calls = []
        flow = lab._SpectralGap.flow
        monkeypatch.setattr(
            lab._SpectralGap, "flow", lambda self, t: calls.append(np.ravel(t).tolist()) or flow(self, t)
        )
        report = convergence_study(self._problem(), self.LADDER, 1.0, time_points=201)
        assert report.verdicts["all_members_completed"]
        (times,) = calls
        assert times == np.linspace(0.0, 1.0, 201).tolist()

    @pytest.mark.parametrize("norm", ["sup_uniform", "sup_vl"])
    def test_rungs_match_one_rung_at_a_time(self, norm):
        # side by side in one block of every time, each rung gives the very floats of a
        # time-by-time walk of that rung alone, on the system's modes
        prob = self._problem()
        weights = np.ones(4) if norm == "sup_uniform" else 1.0 + np.abs(prob.eigen.values)
        gap = lab._SpectralGap(prob, weights)
        times = np.linspace(0.0, 1.0, 201)
        together = convergence_study(prob, self.LADDER, 1.0, norm=norm)
        for entry, eps in zip(together.entries, self.LADDER):
            (alone,) = convergence_study(prob, [eps], 1.0, norm=norm).entries
            assert entry == alone
            assert entry.energy_source == "exact"
            (walked,) = _walk_every_time(gap, {0: minimizer_hat(prob, eps)}, times).values()
            assert entry.sup_error == walked

    def test_sweep_that_raises_fails_every_rung_it_holds(self, monkeypatch):
        # the block of every time raises: the one stack's rungs fail with its message,
        # while the rung refused when built and the rung past the cap keep their own
        gap_sq = lab._SpectralGap.gap_sq

        def flaky(self, stack, t, flow):
            if np.max(t) > 0.5:
                raise ValueError("rung gave up")
            return gap_sq(self, stack, t, flow)

        monkeypatch.setattr(lab._SpectralGap, "gap_sq", flaky)
        # the eigenvalue -650 grows the slow root of eps = 1.8e-4 past the cap near t = 0.93
        q, _ = np.linalg.qr(np.random.default_rng(59).standard_normal((3, 3)))
        matrix = q @ np.diag([-650.0, 1.0, 2.0]) @ q.T
        part = (exponential_profile(1.0, -1.0), (1e-300, 0.0, 2e-300))
        forcing = ForcingTerm.from_vectors([part])
        prob = OdeProblem(0.5 * (matrix + matrix.T), np.array([1e-300, -1e-300, 2e-300]), forcing)
        report = convergence_study(prob, [0.1, 1.8e-4, 1e-5, 5e-6], 1.0)
        assert [e.failure for e in report.entries] == [
            "1 node(s) or eigenvalue(s) have 1 + 4*eps*symbol <= 1/2 at eps=0.1, the lowest"
            " value being -650; the root estimates fail there, lower eps",
            lab._PAST_CAP,
            "rung gave up",
            "rung gave up",
        ]
        assert all(math.isnan(e.sup_error) and e.energy_source is None for e in report.entries)
        assert not report.verdicts["all_members_completed"]

    def test_reference_failure_fails_every_live_rung(self, monkeypatch):
        flow = lab._SpectralGap.flow

        def flaky(self, t):
            if np.max(t) > 0.5:
                raise ExponentOverflowError("reference gave up")
            return flow(self, t)

        monkeypatch.setattr(lab._SpectralGap, "flow", flaky)
        # eigenvalues down to -1.05 refuse eps = 0.2 at build: 1 + 4*eps*mu <= 1/2
        prob = self._problem(shift=1.7)
        report = convergence_study(prob, [0.2, 0.01, 0.001], 1.0)
        assert "1 + 4*eps*symbol <= 1/2" in report.entries[0].failure
        assert [e.failure for e in report.entries[1:]] == ["reference gave up"] * 2

    def test_refusals_keep_their_entries(self):
        # the eigenvalue -650 refuses eps = 0.1 at build; a declared growth rate 4600 of
        # the amplitudes refuses eps = 1.9e-4, whose fast root is 4503.52; the slow root
        # of eps = 1.8e-4 grows past the cap near t = 0.93, in the block of every time,
        # while eps = 1e-5 stays near 654.  Tiny data keep every norm finite.  The
        # strings are those of the study that subtracted the two trajectories.
        q, _ = np.linalg.qr(np.random.default_rng(59).standard_normal((3, 3)))
        matrix = q @ np.diag([-650.0, 1.0, 2.0]) @ q.T
        forcing = ForcingTerm.from_vectors(
            [(exponential_profile(1.0, -1.0), (1e-300, 0.0, 2e-300))],
            growth=GrowthClass.subexponential(9200.0),
        )
        prob = OdeProblem(0.5 * (matrix + matrix.T), np.array([1e-300, -1e-300, 2e-300]), forcing)
        report = convergence_study(prob, [0.1, 1.9e-4, 1.8e-4, 1e-5], 1.0)
        assert [e.failure for e in report.entries] == [
            "1 node(s) or eigenvalue(s) have 1 + 4*eps*symbol <= 1/2 at eps=0.1, the lowest"
            " value being -650; the root estimates fail there, lower eps",
            "tail rate 4503.52 does not dominate the growth rate 4600",
            "a mode grows past exp(700) at the requested time; shorten the horizon",
            None,
        ]
        assert 0.0 < report.entries[-1].sup_error < math.inf


def _ode_forced_workload() -> OdeProblem:
    # the benchmark's ode-forced recipe at seed 1, read back from its config as `wie run` does
    return validate_config(workloads.ode_forced(1)).problem


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
    return cfg.problem, cfg.epsilon_ladder, cfg.time_points


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
    # the study's modal distances against the system's modes in decimal: the real kernels
    # of the spectral sweep, with no cancellation of u_eps - u_0
    prob, ladder, time_points = case()
    report = convergence_study(prob, ladder, 1.0, norm=norm, time_points=time_points)
    assert report.verdicts["all_members_completed"]
    times = np.linspace(0.0, 1.0, time_points)
    for entry in report.entries:
        want = decimal_sup_distance(prob, entry.eps, times, norm=norm)
        assert abs(Decimal(entry.sup_error) - want) <= Decimal(1e-15) * want, entry.eps


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

    def test_serializes_to_its_fields(self):
        result = bound_audit(symbols.classical(), [0.1], np.linspace(-2.0, 2.0, 5))
        d = cli._jsonable(result)
        assert list(d) == list(result._fields)
        assert d["clean"] is True
        assert d["symbol_name"] == "classical"
        assert d["violating_triples"] == []
        (entry,) = d["entries"]
        assert list(entry) == ["eps", "counts", "total_violations"]
        assert entry["counts"] == result.entries[0].counts

    def test_witnesses_serialize_as_lists(self):
        result = BoundAuditResult("table", -1.0, False, (), ((0.5, 0.1, "slow_bound"),))
        assert cli._jsonable(result)["violating_triples"] == [[0.5, 0.1, "slow_bound"]]
