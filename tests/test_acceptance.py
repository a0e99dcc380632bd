"""Acceptance gate: ten desk-scale checks, one printed verdict line each.

Each test pins its tolerances as constants, prints a single [PASS]/[FAIL]
line with the measured numbers, and then asserts.  The printed detail is
the record of how far off a failing measurement is.
"""

import math

import numpy as np
import pytest

from oracles import (
    bvp_selected,
    el_residual,
    energy_physical,
    forcing_vector,
    random_symmetric,
    viscous_residual,
)
from wie import symbols
from wie.forcing import ForcingTerm, TimeProfile, constant_profile, exponential_profile
from wie.audit import bound_audit
from wie.lab import convergence_study, lemma_tech_profile
from wie.ode import OdeProblem, branch_divergence, exact_solution, selected_minimizer
from wie.quadrature import DEFAULT_SPEC, poincare_sides
from wie.spectral import (
    FrequencyGrid,
    SpectralProblem,
    apriori_bound,
    energy_spectral,
    l2_norm,
    minimizer_hat,
    root_data,
    semigroup_solution,
    vl_norm,
)

# pinned tolerances, one block for the whole gate
ROOT_IDENTITY_RTOL = 1e-12
ORACLE_SUP_RTOL = 1e-6
RESIDUAL_TOL = 1e-4
RESIDUAL_SHRINK = 3.5
RATE_WINDOW = (0.85, 1.15)
EXACT_CASE_TOL = 1e-12
MONOTONE_ALLOWANCE = 1.05
# e/eps -> C0 with gap O(eps): 1.8e-4 (f=0) and 1.4e-4 (forced) measured at eps=1e-4
LEADING_GAP_FINAL = 1e-3
# an O(eps) gap shrinks tenfold per decade: measured 8.0x, 9.7x, 10.0x
LEADING_GAP_SHRINK = 5.0
DIVERGED_ENERGY_FLOOR = 1e10
CLOSED_FORM_RTOL = 5e-2
SATURATION_RTOL = 1e-8
LEMMA_CONSTANT_ATOL = 1e-10
# the QuadratureSpec contract abs_tol + rel_tol*|value| the sweep is asked to meet
LEMMA_CONTRACT_ATOL = DEFAULT_SPEC.abs_tol
LEMMA_CONTRACT_RTOL = DEFAULT_SPEC.rel_tol
PLANCHEREL_RTOL = 1e-8
COMPETITOR_SLACK = 1e-10
POINCARE_RTOL = 1e-9

LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _seeded_problems():
    """The three forced symmetric systems shared by the oracle checks."""
    rng = np.random.default_rng(42)
    out = []
    for n in (1, 2, 3):
        A = random_symmetric(rng, n)
        y0 = rng.standard_normal(n)
        v1 = rng.standard_normal(n)
        v2 = rng.standard_normal(n)
        forcing = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -0.3), v1),
                (exponential_profile(0.7, -1.2), v2),
            ]
        )
        out.append(OdeProblem(matrix=A, initial=y0, forcing=forcing))
    return out


def _fractional_grid():
    return FrequencyGrid.uniform_fft(256, 0.125)


def _first_order_constant(prob, forced: bool, times) -> float:
    """C0 = max_t ||w(t)||_VL for the corrector in u_eps = u + eps*w + O(eps^2).

    Inserting the expansion into -eps u'' + u' + Lu = f gives w' + Lw = u''
    with w(0) = 0, since the selected branch has no initial layer.  Node by
    node, with mu = L(xi): w = mu^2 t e^{-mu t} u0 unforced, plus
    0.5 phi (D - mu^2 t e^{-mu t})/(mu - 1) for f = 0.5 e^{-t} phi, where
    D = (e^{-t} - e^{-mu t})/(mu - 1).  The grid's |xi| are multiples of
    pi/16, so mu = 1 never occurs.
    """
    mu = prob.symbol_values
    phi = np.exp(-0.5 * prob.grid.nodes**2)
    c0 = 0.0
    for t in times:
        layer = mu**2 * t * np.exp(-mu * t)
        w = layer * prob.initial_hat
        if forced:
            duhamel = (np.exp(-t) - np.exp(-mu * t)) / (mu - 1.0)
            w = w + 0.5 * phi * (duhamel - layer) / (mu - 1.0)
        c0 = max(c0, vl_norm(w, prob.grid.weights, mu))
    return c0


def _fractional_problem(forced: bool):
    grid = _fractional_grid()
    kwargs = {}
    if forced:
        kwargs["forcing"] = ForcingTerm.from_multipliers(
            [(exponential_profile(0.5, -1.0), lambda xi: np.exp(-0.5 * xi**2))]
        )
    return SpectralProblem(
        grid=grid,
        symbol=symbols.fractional(0.5),
        initial_hat=np.exp(-0.5 * grid.nodes**2).astype(complex),
        **kwargs,
    )


def test_01_root_identities_hold_at_scale():
    # 100 eps x 100 symbol values = 1e4 admissible pairs; residuals are read
    # against the size of the terms entering each identity
    rng = np.random.default_rng(12345)
    eps_values = 10.0 ** rng.uniform(-6.0, math.log10(0.5), size=100)
    worst_sum = worst_prod = worst_fast = 0.0
    for eps in eps_values:
        dip_floor = -0.999 / (8.0 * eps)
        mu = np.concatenate(
            [
                rng.uniform(dip_floor, 0.0, size=33),
                np.zeros(1),
                10.0 ** rng.uniform(-3.0, 4.0, size=66),
            ]
        )
        rd = root_data(mu, eps)
        sp = root_data(mu, eps, check=False)
        for slow, fast in ((rd.slow, rd.fast), (sp.slow, sp.fast)):
            r_sum = np.abs((slow + fast) * eps - 1.0).max()
            prod_scale = np.maximum(1.0, np.abs(mu) / eps)
            r_prod = (np.abs(slow * fast + mu / eps) / prod_scale).max()
            id_scale = np.maximum(1.0, np.maximum(np.abs(mu), eps * fast**2))
            r_fast = (np.abs(fast * (eps * fast - 1.0) - mu) / id_scale).max()
            worst_sum = max(worst_sum, float(r_sum))
            worst_prod = max(worst_prod, float(r_prod))
            worst_fast = max(worst_fast, float(r_fast))
    ok = max(worst_sum, worst_prod, worst_fast) <= ROOT_IDENTITY_RTOL
    assert _verdict(
        "roots-identities",
        ok,
        f"1e4 pairs, residuals sum={worst_sum:.2e} product={worst_prod:.2e} "
        f"fast-root={worst_fast:.2e} vs {ROOT_IDENTITY_RTOL:.0e}",
    )


def test_02_selection_matches_boundary_value_oracle():
    eps, tol = 0.05, 1e-6
    window = 40.0 * eps * math.log(1.0 / tol)
    worst = 0.0
    for prob in _seeded_problems():
        minimizer = selected_minimizer(prob, eps)
        times, oracle = bvp_selected(
            prob.matrix,
            prob.initial,
            lambda t, p=prob: forcing_vector(p.forcing, t),
            eps,
            window,
            h=1e-3,
        )
        keep = times <= 1.0 + 1e-12
        times, oracle = times[keep][::25], oracle[keep][::25]
        mine = np.stack([minimizer.value(float(t)) for t in times])
        rel = float(np.abs(mine - oracle).max() / np.abs(oracle).max())
        worst = max(worst, rel)
    ok = worst <= ORACLE_SUP_RTOL
    assert _verdict(
        "selection-vs-bvp-oracle",
        ok,
        f"n in 1..3, eps={eps}, window={window:.3f}: worst sup rel err "
        f"{worst:.3e} vs {ORACLE_SUP_RTOL:.0e}",
    )


def test_03_second_order_residuals_vanish_quadratically():
    prob = _seeded_problems()[1]
    m = selected_minimizer(prob, 0.05)
    res, scale = viscous_residual(m, 0.5, h=1e-3)
    res_h, scale_h = viscous_residual(m, 0.5, h=5e-4)
    ode_rel, ode_ratio = res / scale, (res / scale) / (res_h / scale_h)

    spec_prob = _fractional_problem(forced=True)
    mh = minimizer_hat(spec_prob, 0.01)
    sres, sscale = el_residual(mh, spec_prob, 0.5, h=1e-3)
    sres_h, sscale_h = el_residual(mh, spec_prob, 0.5, h=5e-4)
    spec_rel, spec_ratio = sres / sscale, (sres / sscale) / (sres_h / sscale_h)

    ok = (
        ode_rel <= RESIDUAL_TOL
        and spec_rel <= RESIDUAL_TOL
        and ode_ratio >= RESIDUAL_SHRINK
        and spec_ratio >= RESIDUAL_SHRINK
    )
    assert _verdict(
        "balance-residuals",
        ok,
        f"h=1e-3: state-space {ode_rel:.2e} (shrink {ode_ratio:.2f}x), "
        f"frequency-side {spec_rel:.2e} (shrink {spec_ratio:.2f}x) "
        f"vs tol {RESIDUAL_TOL:.0e}, shrink >= {RESIDUAL_SHRINK}",
    )


def test_04_scalar_ladder_converges_at_first_order():
    prob = OdeProblem(
        matrix=np.array([[1.0]]),
        initial=np.array([1.0]),
        forcing=ForcingTerm.zero(),
    )
    report = convergence_study(prob, LADDER, 1.0, problem_id="scalar-decay")
    errors = [e.sup_error for e in report.entries]
    rate = report.fitted_rate

    flat = OdeProblem(
        matrix=np.array([[0.0]]),
        initial=np.array([1.0]),
        forcing=ForcingTerm.from_vectors([(constant_profile(0.7), np.array([1.0]))]),
    )
    flat_report = convergence_study(flat, (1e-1, 1e-2), 1.0, problem_id="flat")
    flat_worst = max(e.sup_error for e in flat_report.entries)

    ok = (
        report.verdicts["monotone_decay"]
        and RATE_WINDOW[0] <= rate <= RATE_WINDOW[1]
        and flat_worst <= EXACT_CASE_TOL
    )
    assert _verdict(
        "state-space-convergence",
        ok,
        f"errors {errors[0]:.2e}->{errors[-1]:.2e} monotone="
        f"{report.verdicts['monotone_decay']}, rate {rate:.4f} in {RATE_WINDOW}, "
        f"exact flat case {flat_worst:.2e} vs {EXACT_CASE_TOL:.0e}",
    )


def test_05_fractional_ladder_converges_in_graph_norm():
    clauses = []
    details = []
    times = np.linspace(0.0, 1.0, 201)
    for tag, forced in (("f=0", False), ("forced", True)):
        prob = _fractional_problem(forced)
        report = convergence_study(
            prob,
            LADDER,
            1.0,
            norm="sup_vl",
            time_points=len(times),
            problem_id=f"fractional-{tag}",
        )
        errors = [e.sup_error for e in report.entries]
        monotone = all(b <= MONOTONE_ALLOWANCE * a for a, b in zip(errors, errors[1:]))
        rate = report.fitted_rate
        rate_ok = RATE_WINDOW[0] <= rate <= RATE_WINDOW[1]
        c0 = _first_order_constant(prob, forced, times)
        gaps = [abs(e / eps - c0) / c0 for e, eps in zip(errors, LADDER)]
        shrinking = all(b * LEADING_GAP_SHRINK <= a for a, b in zip(gaps, gaps[1:]))
        clauses += [monotone, gaps[-1] <= LEADING_GAP_FINAL, shrinking, rate_ok]
        details.append(
            f"{tag}: monotone={monotone} C0={c0:.6f} gaps of e/eps to C0 "
            + " > ".join(f"{g:.2e}" for g in gaps)
            + f" (final <= {LEADING_GAP_FINAL:.0e}, shrink >= {LEADING_GAP_SHRINK}x "
            f"per decade: {shrinking}) rate={rate:.4f}"
        )
    ok = all(clauses)
    assert _verdict("graph-norm-convergence", ok, "; ".join(details))


def test_06_root_audits_clean_and_apriori_bound_holds():
    grid = np.linspace(-8.0, 8.0, 161)
    ladder = (1e-1, 1e-2, 1e-3)
    zeroth = symbols.zeroth_order(1.0, lambda xi: 2.0 * np.exp(-0.5 * xi**2))
    audits = {
        "classical": bound_audit(symbols.classical(), ladder, grid),
        "fractional": bound_audit(symbols.fractional(0.5), ladder, grid),
        "zeroth-order": bound_audit(zeroth, ladder, grid),
    }
    all_clean = all(a.clean for a in audits.values())

    fgrid = _fractional_grid()
    u0 = np.exp(-0.5 * fgrid.nodes**2).astype(complex)
    forcing = ForcingTerm.from_multipliers(
        [(exponential_profile(0.5, -1.0), lambda xi: np.exp(-0.5 * xi**2))]
    )
    worst_ratio = 0.0
    horizon = 1.0
    ts = np.linspace(0.0, horizon, 101)
    for sym, forced in (
        (symbols.classical(), False),
        (symbols.classical(), True),
        (symbols.fractional(0.5), False),
        (zeroth, False),
        (zeroth, True),
    ):
        kwargs = {"forcing": forcing} if forced else {}
        prob = SpectralProblem(grid=fgrid, symbol=sym, initial_hat=u0, **kwargs)
        flow = semigroup_solution(prob)
        ell = prob.symbol_values
        sup_sq = max(vl_norm(flow.value(float(t)), fgrid.weights, ell) ** 2 for t in ts)
        f_int = 0.0
        if forced:
            f_sq = [l2_norm(prob.forcing_values(float(t)), fgrid.weights) ** 2 for t in ts]
            f_int = float(np.trapezoid(f_sq, ts))
        bound = apriori_bound(
            min(0.0, float(ell.min())),
            horizon,
            vl_norm(u0, fgrid.weights, ell) ** 2,
            f_int,
        )
        worst_ratio = max(worst_ratio, sup_sq / bound)

    ok = all_clean and worst_ratio <= 1.0
    assert _verdict(
        "estimate-audits",
        ok,
        f"grid x ladder clean for {sorted(audits)}: {all_clean}; "
        f"worst measured sup/bound ratio {worst_ratio:.4f} vs 1",
    )


def test_07_pushed_branch_diverges_selected_branch_saturates():
    prob = OdeProblem(
        matrix=np.array([[1.0]]), initial=np.array([1.0]), forcing=ForcingTerm.zero()
    )
    pushed = branch_divergence(prob, 0.1, 1e-6, [3.0, 4.0, 5.0])
    final = pushed.numeric_energies[-1]
    worst_match = max(
        abs(num / math.exp(closed) - 1.0)
        for num, closed in zip(pushed.numeric_energies, pushed.closed_form_log)
    )

    selected = branch_divergence(prob, 0.1, 0.0, [3.0, 4.0, 5.0])
    e3, e4, e5 = selected.numeric_energies
    drift = max(abs(e4 / e3 - 1.0), abs(e5 / e4 - 1.0))

    ok = (
        final >= DIVERGED_ENERGY_FLOOR
        and worst_match <= CLOSED_FORM_RTOL
        and drift <= SATURATION_RTOL
    )
    assert _verdict(
        "branch-divergence",
        ok,
        f"pushed energy at T=5 is {final:.3e} (floor {DIVERGED_ENERGY_FLOOR:.0e}), "
        f"closed-form mismatch {worst_match:.2e} vs {CLOSED_FORM_RTOL}, "
        f"selected drift past T=3 is {drift:.2e} vs {SATURATION_RTOL:.0e}",
    )


def test_08_weighted_tail_sweep_closed_form_and_singular_decay():
    worst_const = 0.0
    for eps, horizon in ((0.1, 1.0), (0.02, 0.5)):
        profile = lemma_tech_profile(TimeProfile("constant"), eps, horizon)
        closed = eps * (1.0 - math.exp(-horizon / eps))
        worst_const = max(worst_const, abs(profile.sup - closed))

    # G' = G/eps - g < 0 for g = s^-1/2, so the sup sits at t = 0
    sups = []
    singular_ok = True
    worst_singular = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        sup = lemma_tech_profile(TimeProfile("power", degree=-0.5), eps, 1.0).sup
        exact = math.sqrt(math.pi * eps) * math.erf(math.sqrt(1.0 / eps))
        singular_ok &= abs(sup - exact) <= LEMMA_CONTRACT_ATOL + LEMMA_CONTRACT_RTOL * exact
        worst_singular = max(worst_singular, abs(sup - exact))
        sups.append(sup)
    decreasing = sups[0] > sups[1] > sups[2]

    ok = worst_const <= LEMMA_CONSTANT_ATOL and decreasing and singular_ok
    assert _verdict(
        "weighted-tail-sweep",
        ok,
        f"constant-density closed form off by {worst_const:.2e} "
        f"(tol {LEMMA_CONSTANT_ATOL:.0e}); singular sups "
        f"{sups[0]:.6f} > {sups[1]:.6f} > {sups[2]:.9f} (decreasing={decreasing}), "
        f"worst error against sqrt(pi*eps)*erf(sqrt(T/eps)) {worst_singular:.2e} "
        f"(within {LEMMA_CONTRACT_ATOL:.0e} + {LEMMA_CONTRACT_RTOL:.0e}*exact: {singular_ok})",
    )


def test_09_energy_routes_agree_and_minimizer_wins():
    prob = _fractional_problem(forced=True)
    grid = prob.grid
    rng = np.random.default_rng(20260822)
    worst_rel = 0.0
    worst_margin = math.inf
    for eps in LADDER:
        m = minimizer_hat(prob, eps)
        j_spec = energy_spectral(m.state, prob, eps)
        j_phys = energy_physical(m.state, prob, eps)
        assert math.isfinite(j_spec)
        worst_rel = max(worst_rel, abs(j_phys - j_spec) / max(abs(j_spec), 1e-300))
        for k in range(20):
            a = 0.5 + 4.0 * rng.random()
            b = a + 0.5 + 3.0 * rng.random()
            c = (rng.random() - 0.5) * 0.6
            center = (rng.random() - 0.5) * 4.0
            bump = np.exp(-((grid.nodes - center) ** 2))
            if k % 3 == 2:
                bump = 1j * bump
            if k % 3 == 0:
                phi = lambda t, a=a, c=c: c * t * math.exp(-a * t)
                dphi = lambda t, a=a, c=c: c * (1.0 - a * t) * math.exp(-a * t)
            else:
                phi = lambda t, a=a, b=b, c=c: c * (math.exp(-a * t) - math.exp(-b * t))
                dphi = lambda t, a=a, b=b, c=c: c * (
                    -a * math.exp(-a * t) + b * math.exp(-b * t)
                )

            def competitor(t, phi=phi, dphi=dphi, bump=bump):
                u, du = m.state(t)
                return u + phi(t) * bump, du + dphi(t) * bump

            j_comp = energy_spectral(competitor, prob, eps)
            worst_margin = min(worst_margin, j_comp - j_spec)
    floor = -COMPETITOR_SLACK
    ok = worst_rel <= PLANCHEREL_RTOL and worst_margin >= floor
    assert _verdict(
        "energy-consistency-and-minimality",
        ok,
        f"physical vs frequency energies differ by {worst_rel:.2e} "
        f"(tol {PLANCHEREL_RTOL:.0e}); 20 competitors per rung, worst margin "
        f"{worst_margin:.3e} vs floor {floor:.0e}",
    )


def test_10_weighted_poincare_holds_for_all_trajectories():
    trajectories = []

    ode_prob = _seeded_problems()[1]
    for eps in (0.05, 0.01):
        m = selected_minimizer(ode_prob, eps)
        trajectories.append(
            (
                f"state-minimizer eps={eps}",
                eps,
                lambda t, m=m: float(m.value(t) @ m.value(t)),
                lambda t, m=m: float(m.derivative(t) @ m.derivative(t)),
                float(ode_prob.initial @ ode_prob.initial),
            )
        )
    flow = exact_solution(ode_prob)
    trajectories.append(
        (
            "state-flow eps=0.05",
            0.05,
            lambda t: float(flow.value(t) @ flow.value(t)),
            lambda t: float(flow.derivative(t) @ flow.derivative(t)),
            float(ode_prob.initial @ ode_prob.initial),
        )
    )

    for forced in (False, True):
        prob = _fractional_problem(forced)
        w = prob.grid.weights
        init_sq = l2_norm(prob.initial_hat, w) ** 2
        for eps in (0.1, 0.001):
            m = minimizer_hat(prob, eps)
            trajectories.append(
                (
                    f"frequency-minimizer forced={forced} eps={eps}",
                    eps,
                    lambda t, m=m, w=w: l2_norm(m.value(t), w) ** 2,
                    lambda t, m=m, w=w: l2_norm(m.derivative(t), w) ** 2,
                    init_sq,
                )
            )
        sg = semigroup_solution(prob)
        trajectories.append(
            (
                f"semigroup forced={forced} eps=0.05",
                0.05,
                lambda t, sg=sg, w=w: l2_norm(sg.value(t), w) ** 2,
                lambda t, sg=sg, w=w: l2_norm(sg.derivative(t), w) ** 2,
                init_sq,
            )
        )

    min_slack = math.inf
    failures = []
    for label, eps, norm_sq, deriv_sq, init_sq in trajectories:
        lhs, rhs = poincare_sides(norm_sq, deriv_sq, init_sq, eps)
        slack = rhs - lhs
        min_slack = min(min_slack, slack)
        if lhs > rhs * (1.0 + POINCARE_RTOL) + 1e-12:
            failures.append(f"{label} (lhs={lhs:.6g} rhs={rhs:.6g})")
    ok = not failures
    assert _verdict(
        "weighted-poincare",
        ok,
        f"{len(trajectories)} trajectories, min slack {min_slack:.3e}"
        + (f"; violated by {failures}" if failures else ""),
    )
