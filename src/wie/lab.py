"""Convergence ladders and decay profiles.

The routines here orchestrate the solvers into the desk-scale experiments
the package exists to run: shrink the regularization along a ladder and
watch the selected trajectory approach the first-order flow, and sweep the
weighted decay profile of a forcing density (the root-estimate audit is
wie.audit.bound_audit, the divergence demo wie.ode.branch_divergence).
A study comes back as named tuples whose fields are its report keys, so
the report writer serializes it from the fields alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .contract import DEFAULT_SPEC, EXPONENT_CAP, _PAST_CAP, ExponentOverflowError, QuadratureSpec
from .contract import _exp_guarded, _refuse_past_cap
from .forcing import TimeProfile, _BATCH_VALUES, _exponential_form
from .spectral import SpectralProblem, minimizer_hat

__all__ = [
    "LemmaTechProfile",
    "lemma_tech_profile",
    "LadderEntry",
    "ConvergenceReport",
    "convergence_study",
    "fit_rate",
]


# ---- Weighted decay profile of a forcing density ----


def _check_horizon(horizon: float, time_points: int) -> None:
    """Refuse a time grid over no data: a horizon not positive and finite, or under two points."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be positive and finite")
    if time_points < 2:
        raise ValueError("need at least two grid points")


class LemmaTechProfile(NamedTuple):
    """G(t) = int_t^T exp(-(s-t)/eps) |g(s)| ds on a dense t grid."""

    times: np.ndarray
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(self.values.max())

    @property
    def argmax(self) -> float:
        return float(self.times[int(np.argmax(self.values))])


def lemma_tech_profile(
    density: TimeProfile, eps: float, horizon: float, time_points: int = 801
) -> LemmaTechProfile:
    """Sweep the shifted weighted integral of |g| over a dense grid, in closed form.

    With w = T - t, a constant or exponential density a exp(r s) gives

        G(t) = |a| exp(r t) w phi1((r - 1/eps) w),

    for any rate, at or above 1/eps too.  A power density a s^d, d > -1,
    gives |a| (tail(t) - exp(-w/eps) tail(T)), where tail is its shifted
    Laplace tail at the rate 1/eps, an incomplete-gamma function of t/eps
    (kummer._power_tail), taken over the whole grid at once.  A rate whose
    exponent r T passes the overflow cap raises ExponentOverflowError
    naming eps.
    """
    _check_horizon(horizon, time_points)
    times = np.linspace(0.0, horizon, time_points)
    w = horizon - times
    if density.kind in ("constant", "exponential"):
        r = density.rate if density.kind == "exponential" else 0.0
        if r * horizon > EXPONENT_CAP:
            raise ExponentOverflowError(
                f"lemma-tech sweep at eps={eps:g}: the density's exponent {r * horizon:g} "
                f"at T={horizon:g} passes the cap {EXPONENT_CAP:g}"
            )
        from .kernels import _phi
        values = np.exp(r * times) * w * _phi(1, (r - 1.0 / eps) * w)
    elif density.kind == "power":
        from .kummer import _power_tail
        tail = _power_tail(density.degree, 1.0 / eps, times)
        values = tail - np.exp(-w / eps) * tail[-1]  # the grid ends at T
    else:
        raise ValueError(f"the lemma-tech sweep has no closed form for a {density.kind} density")
    values *= abs(density.amplitude)
    return LemmaTechProfile(times=times, values=values)


# ---- Ladder studies ----


def fit_rate(epsilons: Sequence[float], errors: Sequence[float]):
    """Log-log slope of error against eps, with a confidence half-width.

    Weighted least squares; the two smallest-eps points count double since
    that is where the asymptotic regime lives.  An error that is zero, inf
    or NaN has no logarithm to fit and is left out.  Returns (rate,
    half_width), or (None, None) when fewer than two errors are positive
    and finite or their eps are too close for the fit.
    """
    eps_arr = np.asarray(epsilons, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
    keep = (err_arr > 0.0) & (err_arr < math.inf)
    if int(keep.sum()) < 2:
        return None, None
    x = np.log(eps_arr[keep])
    y = np.log(err_arr[keep])
    w = np.ones(x.shape)
    order = np.argsort(eps_arr[keep])
    w[order[:2]] = 2.0
    X = np.stack([np.ones(x.shape), x], axis=1)
    XtW = X.T * w
    try:
        cov = np.linalg.inv(XtW @ X)
    except np.linalg.LinAlgError:
        return None, None  # the logs of the eps are too close to tell two apart
    if not cov[1, 1] > 0.0:
        return None, None  # so close that the inverse lost its sign
    beta = cov @ (XtW @ y)
    resid = y - X @ beta
    dof = max(int(keep.sum()) - 2, 1)
    sigma_sq = float((w * resid**2).sum()) / dof
    half_width = 2.0 * math.sqrt(sigma_sq * cov[1, 1])
    return float(beta[1]), float(half_width)


class LadderEntry(NamedTuple):
    """One rung; energy_source is "exact" or "gauss_laguerre", None on a failed rung."""

    eps: float
    sup_error: float
    energy: float
    audit_violations: int
    failure: Optional[str] = None
    energy_source: Optional[str] = None

    @classmethod
    def failed(cls, eps: float, exc: Exception) -> "LadderEntry":
        return cls(eps, math.nan, math.nan, -1, failure=str(exc))


class ConvergenceReport(NamedTuple):
    problem_id: str
    norm: str
    horizon: float
    entries: tuple
    fitted_rate: Optional[float]
    rate_half_width: Optional[float]
    verdicts: dict
    minimizer: Optional[object] = None  # the last rung's, when it completed; not a report key


def _check_ladder(ladder) -> list:
    ladder = [float(e) for e in ladder]
    if not ladder or any(e <= 0.0 for e in ladder):
        raise ValueError("epsilon ladder must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must decrease strictly")
    return ladder


class _Stack:
    """Rungs side by side: each per-value array of a rung is one row of a (1 x rungs x values) block.

    The leading axis of one broadcasts against the times of a block, with
    no ufunc call paying to line up arrays of different dimensions.  Each
    block is allocated once and filled rung by rung, so building a stack
    holds no temporary larger than one rung's.  parts holds per forcing
    part its _ExponentialGap (wie.kernels) or, for a power or sampled part,
    its _GenericGap (wie.kummer).  The gap's work block (_SpectralGap.work),
    shared by its stacks, first holds each rung's delta = eps s^2 while the
    parts are built.

    A stack that bisects under the second-order bound (gap.second_order)
    also holds the row bend = delta |s - ell|, which the majorants of |a''|
    and |b_j''| take (_SpectralGap.gap_sq); otherwise bend is None.  taylor
    holds what its last evaluation left there.
    """

    def __init__(self, gap: "_SpectralGap", rungs: list):
        self.rungs = rungs
        self.eps = np.array([[[m.eps] for m in rungs]])
        # over every value, so that no refusal or growth bound depends on the screen
        self.slow_maxima = [float(m.roots.slow.max()) for m in rungs]
        self.slow_max = max(self.slow_maxima)
        self.narrow(gap)

    def narrow(self, gap: "_SpectralGap") -> None:
        """Build the per-value rows on the values the gap keeps (gap.kept), in place of any before."""
        ell = gap.kept
        shape = (1, len(self.rungs), ell.size)
        self.slow_sq = np.empty(shape)
        for row, m in zip(self.slow_sq[0], self.rungs):
            np.multiply(m.roots.slow[: ell.size], m.roots.slow[: ell.size], out=row)
        self.alpha = gap.work(len(self.rungs))  # the work block of one time
        delta = np.multiply(self.slow_sq, self.eps, out=self.alpha[..., : ell.size])
        self.bend = self.taylor = None
        if gap.second_order:
            # s - ell = delta - 2 ell
            self.bend = np.subtract(delta, 2.0 * ell)
            np.abs(self.bend, out=self.bend)
            self.bend *= delta
            self.ell_sq, self.norms = gap.ell_sq[: ell.size], gap.norms[..., : ell.size]
        self.parts = []
        for k, ((g, _H), form) in enumerate(zip(gap.problem.forcing_parts, gap.forms), 1):
            if form is None:
                from .kummer import _GenericGap
                self.parts.append(_GenericGap(g, self.rungs, shape))
                continue
            from .kernels import _ExponentialGap
            norm = self.norms[k] if gap.second_order else None
            self.parts.append(_ExponentialGap(*form, ell, self, delta, norm))


class _SpectralGap:
    """Squared distances of the rungs to the first-order flow, from real kernels.

    Per node, with slow and fast roots s and f and discriminant root z,

        u_eps(t) - u_0(t) = a(t) c0 + sum_j b_j(t) H_j,
        a(t)   = exp(-ell t) expm1(delta t),  delta = s + ell = eps s^2,

    delta has no cancellation.  Past the exponent cap exp(-ell t) may be
    denormal and expm1(delta t) overflow, so a(t) is then
    -exp(s t) expm1(-delta t).  A constant or exponential part takes b_j
    from _ExponentialGap; a power or sampled part from its generic kernels,

        b_j(t) = (duhamel_j(s, t) + tail_j(f, t))/z - duhamel_j(-ell, t) - exp(s t) tail0_j,

    with tail0_j = tail_j(f, 0)/z from the rung's initial correction.  Each
    kernel runs once per distinct symbol value u, and the nodes of u fold
    into an upper triangle R_u (_fold): their sum of
    w |a c0 + sum_j b_j H_j|^2 is |R_u (a, b_1, ..., b_J)|^2.

    The rungs run in stacks (_Stack), and a block of times runs at once:
    every per-time array is a (times x rungs x values) block, one ufunc call
    serves the whole block, and the generic kernels, whose series and
    continued fractions stop when every entry of a call has converged, run
    one rung at one time.  Each rung's sum at each time keeps the bits it
    has in a stack of its own at that time alone.  An OdeProblem is such a
    problem, with its eigenvalues as symbol values and unit weights.
    """

    def __init__(self, problem: SpectralProblem, weights: np.ndarray):
        self.problem = problem
        distinct = problem.distinct
        ell = self.ell = distinct.values
        self.highest = float(ell[-1])
        columns = [problem.initial_hat] + [H for _g, H in problem.forcing_parts]
        # with leading axes of one, as the stacks' per-value arrays have
        self.factor = _fold(weights, columns, distinct)[:, :, None, None, :]
        self._work, self._decay = np.empty((0, ell.size)), np.empty((0, 1, ell.size))
        forms = [_exponential_form([g]) for g, _H in problem.forcing_parts]
        # (amplitude, rate) of each constant or exponential part, None for the others
        self.forms = [None if f is None else (f[0][0], f[1][0]) for f in forms]
        self._keep(ell.size)
        # set by sweep for a study whose stacks bisect under the second-order bound
        self.second_order = False
        self.taylor = {}

    def _keep(self, size: int) -> None:
        """Have the flow, gap_sq and the stacks built from now on form the first size values (sweep)."""
        ell = self.kept = self.ell[:size]
        # per fold row i, R_ii and the R_ik right of it
        self.rows = [(row[i, ..., :size], row[i + 1 :, ..., :size]) for i, row in enumerate(self.factor)]
        # the flow's D[-ell, r], its rate arrays formed once per size
        if any(self.forms):
            from .kernels import _ExpDifference  # a study with no exponential part never compiles it
        self.flows = [
            None if f is None else _ExpDifference(-ell, f[1], gap=-(ell + f[1]).reshape(1, 1, -1))
            for f in self.forms
        ]

    def work(self, rows: int, times: int = 1) -> np.ndarray:
        """A (times x rows x values) work block, shared by the stacks, since one stack runs at a time."""
        if self._work.shape[0] < rows * times:
            self._work = np.empty((rows * times, self.ell.size))
        return self._work[: rows * times].reshape(times, rows, -1)

    def flow(self, t) -> tuple:
        """(exp(-ell t), or None past the cap, and each part's flow term) at the ascending times t.

        Each array is a (times x 1 x values) block.  The flow term is
        (D[-ell, r], exp(r t)) for a constant or exponential part, with
        exp(r t) a column from math.exp, and duhamel(-ell, t) for the
        others, one time at a time.  The times lie all within the cap of
        exp(-ell t) or all past it (_SpectralGap._round).
        """
        t = np.asarray(t)
        if len(self._decay) < t.size:
            self._decay = np.empty((t.size, 1, self.ell.size))
        decay = self._decay[: t.size, :, : self.kept.size]
        # the values ascend, so -ell t is largest at the first value and the last time
        _exp_guarded(np.multiply(self.kept, -t, out=decay), self.ell.item(0) * -t.item(-1))
        times = t.ravel().tolist()
        terms = []
        for (g, _H), d in zip(self.problem.forcing_parts, self.flows):
            if d is None:
                terms.append(np.array([[g.duhamel(-self.ell, tk)] for tk in times]))
                continue
            # refused before math.exp overflows, so that every refusal has the cap's message
            _refuse_past_cap(d.rate * times[-1])
            exp_r = np.array([math.exp(d.rate * tk) for tk in times]).reshape(t.shape)
            # past the cap the clamped exp(-ell t) still gives each D[-ell, r] its exp(max(-ell, r) t)
            terms.append((d(t, np.maximum(decay, exp_r)), exp_r))
        return (None if self.highest * times[-1] > EXPONENT_CAP else decay), terms

    def gap_sq(self, stack: _Stack, t, flow: tuple) -> np.ndarray:
        """Each rung's squared distance at the ascending times t: a (times x rungs) array.

        On a stack that bisects under the second-order bound, within the
        cap, it also leaves in stack.taylor each rung's (<g, g'>, |g'|^2, M)
        at each time, a (times x rungs x 3) array, where g = R x and M is a
        majorant of |g''|: the sum over the columns k of R of |c_k m_k|, c_k
        the column's norm and m_k the majorant of |x_k''|.  Otherwise
        stack.taylor is None.
        """
        decay, terms = flow
        t = np.asarray(t)
        ell = self.kept
        block = stack.alpha if t.size == 1 else self.work(len(stack.rungs), t.size)
        a = block[..., : ell.size]
        np.multiply(stack.slow_sq, np.multiply(stack.eps, t), out=a)
        if decay is not None:
            _refuse_past_cap(stack.slow_max * t.item(-1))  # the largest exponent of exp(s t)
            np.expm1(a, out=a)
            a *= decay
            past_cap = None
        else:
            past_cap = np.empty(a.shape)
            for k, m in enumerate(stack.rungs):
                np.multiply(m.roots.slow[: ell.size], t.reshape(-1, 1), out=past_cap[:, k])
            _exp_guarded(past_cap)
            np.negative(a, out=a)
            np.expm1(a, out=a)
            a *= past_cap
            np.negative(a, out=a)

        def grow():
            # exp(s t) as a new array; within the cap formed where it is read, so no block of it stays
            return decay + a if past_cap is None else past_cap.copy()

        stack.taylor = None
        # per column k of R, |c_k m_k|, m_k the majorant of |x_k''| (_ExponentialGap)
        bends = [] if stack.bend is not None and past_cap is None else None
        x = [a]
        for part, term in zip(stack.parts, terms):
            x.append(part(t, a, grow, term, bends))
        slopes = None
        if bends is not None:
            from .kernels import _slopes  # already imported by the stack's _ExponentialGap
            slopes = _slopes(stack, ell, a, decay, x, terms, bends)
        # y_i = sum_{k >= i} R_ik x_k, formed in the block in place of a = x_0, which no
        # later row reads, and y_i' in place of x_i'
        squares, dots, steep = [], [], []
        for i, ((diagonal, right), xi) in enumerate(zip(self.rows, x)):
            y = np.multiply(xi, diagonal, out=a)
            for r, xk in zip(right, x[i + 1 :]):
                y += r * xk
            # vecdot forms each rung's y . y at each time as np.dot does, bit for bit, over the block
            squares.append(np.vecdot(block, block))
            if slopes is not None:
                dy = slopes[i]
                dy *= diagonal
                for r, xk in zip(right, slopes[i + 1 :]):
                    dy += r * xk
                dots.append(np.vecdot(y, dy))
                steep.append(np.vecdot(dy, dy))
        if slopes is not None:
            totals = [sum(column[1:], column[0]) for column in (dots, steep, bends)]
            stack.taylor = np.stack(totals, -1)
        return sum(squares[1:], squares[0])

    def sweep(self, live: dict, times) -> dict:
        """Per index of live, the rung's sup distance over times, or the exception that stopped it.

        The rungs run in stacks in ladder order, which share one work block,
        and each stack takes its times in blocks: rungs x times x values stay
        within _STACK_VALUES.  The sweep goes in rounds: each round forms the
        flow once per block of the times that some stack needs, in ascending
        order, and evaluates only the stacks that need them.

        A stack bisects the grid.  It needs the first and last times, then,
        round by round, the midpoint of every interval [t_a, t_b] between two
        evaluated times that one of its rungs cannot rule out.  A rung rules
        the interval out when a bound on its distance N over [t_a, t_b],
        raised by _BOUND_MARGIN, lies below the largest distance it has so
        far, best (_rules_out).  So sup_error is still the maximum of the grid
        values: every skipped time lies below one that was evaluated, and
        each evaluated one has the bits of the full walk.  The bounds hold
        for 0 < t_a <= t <= t_b, with h = t_b - t_a.

        Unforced, N^2 = sum_u R_u^2 a_u^2, and

            N(t) <= N(t_a) (t_b/t_a) exp(max(s_max, 0) h),

        since per value a(t)/a(t_a) = exp(-ell (t - t_a)) expm1(delta t)/expm1(delta t_a)
        <= (t/t_a) exp(s (t - t_a)) by delta >= 0 and phi1(x + y) <= e^y phi1(x)
        for y >= 0.

        Forced, b_j(t) can change sign, and the bound is of second order in
        g = R x, x = (a, b_1, ...).  By Taylor's theorem

            N(t) <= max(N(t_a), |g(t_a) + h g'(t_a)|) + (h^2/2) max |g''|,

        as |g + tau g'|^2 is convex in tau.  |g + h g'|^2 is
        N^2 + 2h <g, g'> + h^2 |g'|^2, and |g''| is at most the M that
        gap_sq forms at t_a from nonnegative terms: a, exp(-ell t),
        exp(r t), D[s, r] and E[-ell, s, r] with positive weights.  Each
        term at t is at most its value at t_a times (t_b/t_a)^2
        exp(rho h), rho = max(s_max, r_max, 0): a by the bound above (-ell
        <= s), and D and E, integrals of exp(c t) over c between their
        rates, grow by (t/t_a) and (t/t_a)^2 times exp(max(c, 0) h).  So a
        forced stack bisects when every part is constant or exponential
        and its grid takes more than one block; otherwise, and at times
        past the exponent cap, where gap_sq forms no Taylor data, it walks
        every time.

        A sweep that bisects screens its stacks once, after the first round
        (_screen).  Over [0, T] per value, 0 <= a <= min(1, delta T) exp(max(s, 0) T)
        and |b_j| <= (|kappa_j| T + |A_j| delta T^2/2) exp(max(s, r_j, 0) T);
        with the norms of R's columns they bound |R_u x_u| by B_u.  A rung
        needs the ascending values before the first k with sum_{u >= k} B_u^2
        < _SCREEN best^2; every stack keeps the widest such prefix, which the
        flow forms once for all (spectral-wide 12038 of 32769 values and
        spectral-forced 756 of 2049; 12152 and 765 in sup_vl), and each best
        drops by the root of its rung's sum left out.  The work block, zeroed
        once past the kept values, is summed whole by vecdot: that kept the
        full sum's bits at all 804 (rung, time) pairs of both recipes, where
        a sum over the kept values alone moved 443 of spectral-wide's.
        Exempt: a grid in one block, a power or sampled part, best = 0.

        A rung whose largest exponent on [0, T], max(s_max, r_max) T with
        r_max the largest rate of the constant and exponential parts, passes
        the exponent cap is refused, with the cap's message, before any stack
        is built: D[s, r] peaks at max(s, r), the Taylor centres of E lie
        below it, and the flow's exp(-ell t) and duhamel(-ell, t) stay below
        exp(s t), as -ell <= s for ell < 0.  No kernel of the rungs left
        refuses; should anything raise in the rounds all the same, every rung
        still running fails with its message.
        """
        times = [float(t) for t in times]
        last = len(times) - 1
        rates = [f[1] for f in self.forms if f]
        failed = {
            i: ExponentOverflowError(_PAST_CAP)
            for i, m in live.items()
            if max([m.roots.slow.max(), *rates]) * times[last] > EXPONENT_CAP
        }
        ids = [i for i in live if i not in failed]
        if not ids:
            return failed
        sups = {i: {} for i in ids}  # per rung, its distance at each time evaluated
        self.taylor = {i: {} for i in ids}  # and its Taylor data, from _take
        self.screened = dict.fromkeys(ids, 0.0)  # and a bound on what the screen left out
        self._keep(self.ell.size)
        per = max(1, _STACK_VALUES // self.ell.size)
        rows = min(per, len(ids))
        # times per block; above one only when every rung shares a single stack
        width = max(1, _STACK_VALUES // (rows * self.ell.size))
        self.work(rows, width)  # the largest block's, before any stack is built
        forced = bool(self.problem.forcing_parts)
        self.second_order = False
        if forced and 1 < last and width <= last and None not in self.forms:
            self._use_second_order()
        bisect = last > 1 and (self.second_order or not forced)
        # every term of the bound grows at most at this rate beside each rung's s_max
        lowest = max([0.0, *rates]) if self.second_order else 0.0
        # per stack: [its rungs' indices, the stack, the times it needs this round, its intervals]
        need = {0, last} if bisect else set(range(len(times)))
        stacks = [
            [group, _Stack(self, [live[i] for i in group]), need, [(0, last)] if bisect else []]
            for group in (ids[lo : lo + per] for lo in range(0, len(ids), per))
        ]
        scale = float(np.abs(self.factor).max())
        # a term R_ik x_k that underflow touched is off by about R_ik 2**-1074: while N(t_a)^2
        # is above this floor, all of them move N(t_a) by far less than _BOUND_MARGIN
        floor = self.ell.size * max(scale * scale, 1.0) * 2.0**-1022 / _BOUND_MARGIN
        screen = bisect and width <= last  # a grid in one block has no later round to spare
        try:
            while stacks:
                self._round(stacks, times, width, sups)
                if screen:
                    self._screen(stacks, sups, times[last])
                    screen = False
                running = []
                for group, stack, _need, spans in stacks:
                    # an interval stays open while one rung cannot rule it out
                    rungs = [
                        (
                            sups[i],
                            max(s, lowest),
                            # less what the values the screen left out add, which no bound holds
                            max([0.0, *sups[i].values()]) - self.screened[i],
                            self.taylor[i] if self.second_order else None,
                        )
                        for i, s in zip(group, stack.slow_maxima)
                    ]
                    spans = [
                        (a, b)
                        for a, b in spans
                        if b - a > 1
                        and not all(
                            _rules_out(seen, times[a], times[b], growth, floor, best, taylor)
                            for seen, growth, best, taylor in rungs
                        )
                    ]
                    if spans:
                        mids = [(a + b) // 2 for a, b in spans]
                        halves = [h for (a, b), m in zip(spans, mids) for h in ((a, m), (m, b))]
                        running.append([group, stack, set(mids), halves])
                stacks = running
        except Exception as exc:
            failed.update((i, exc) for group, *_rest in stacks for i in group)
        return {**{i: max([0.0, *s.values()]) for i, s in sups.items()}, **failed}

    def _screen(self, stacks, sups, horizon: float) -> None:
        """Keep the values that could still move a rung's sup (sweep); then rebuild the stacks."""
        # the column norms c_k of R that _use_second_order formed; unforced, R_00 alone, whose
        # sign the square drops.  The bounds form in the work block, their tails in slow_sq,
        # which narrow rebuilds
        norms = (self.norms if self.second_order else self.factor[0])[:, 0]
        stacks, cut = [entry[:2] for entry in stacks], 0
        for group, stack in stacks:
            bound = np.multiply(stack.slow_sq, stack.eps * horizon, out=stack.alpha)
            grow = stack.slow_sq
            for row, m in zip(grow[0], stack.rungs):
                np.maximum(m.roots.slow, 0.0, out=row)
            np.exp(np.multiply(grow, horizon, out=grow), out=grow)  # exp(max(s, 0) T)
            terms = [
                (np.abs(part.kappa) * horizon + abs(amplitude) * horizon / 2.0 * bound)
                * (c * np.maximum(grow, math.exp(rate * horizon)))
                for c, part, (amplitude, rate) in zip(norms[1:], stack.parts, self.forms)
            ]
            np.minimum(bound, 1.0, out=bound)
            bound *= grow
            bound *= norms[0]
            bound += sum(terms, 0.0)
            np.cumsum(np.square(bound, out=bound)[..., ::-1], axis=-1, out=grow[..., ::-1])  # tails
            for i, tail in zip(group, grow[0]):
                # a tail does not increase, so the values below _SCREEN best^2 are a suffix
                best = max(sups[i].values())
                kept = tail.size - np.count_nonzero(tail < _SCREEN * best * best) if best < math.inf else tail.size
                self.screened[i] = math.sqrt(tail[kept]) if kept < tail.size else 0.0
                cut = max(cut, kept)
        self._keep(cut)
        for _group, stack in stacks:
            stack.narrow(self)
        self._work[:, cut:] = 0.0  # and past the cut, which no stack writes from now on

    def _use_second_order(self) -> None:
        """Have the stacks built from now on form the Taylor data of the second-order bound."""
        self.second_order = True
        # per column k of R, its norm c_k, by hypot so that tiny data do not underflow to 0,
        # and ell^2, which the majorants take
        self.norms = np.hypot.reduce(self.factor, axis=0)
        self.ell_sq = np.square(self.ell)

    def _round(self, stacks, times, width, sups) -> None:
        """Evaluate each stack at the times it needs.

        The times go in blocks of at most width, cut where exp(-ell t)
        passes the cap, so that each block takes one form of a(t).  With
        more than one stack a block holds one time, so a stack needs all of
        a block or none of it.
        """
        need = sorted(set().union(*(need for _group, _stack, need, _spans in stacks)))
        within = [k for k in need if self.highest * times[k] <= EXPONENT_CAP]
        for part in (within, need[len(within) :]):
            for lo in range(0, len(part), width):
                block = part[lo : lo + width]
                ts = [times[k] for k in block]
                t = _column(ts)
                flow = self.flow(t)
                for group, stack, wants, _spans in stacks:
                    if block[0] in wants:
                        self._take(group, stack, ts, t, flow, sups)

    def _take(self, group, stack, ts, t, flow, sups) -> None:
        """Record the stack's distances at the times ts, the column t, with its rungs, indexed by group."""
        for time, totals in zip(ts, self.gap_sq(stack, t, flow).tolist()):
            for i, total in zip(group, totals):
                sups[i][time] = math.sqrt(total)
        if stack.taylor is not None:
            for time, rows in zip(ts, stack.taylor.tolist()):
                for i, data in zip(group, rows):
                    self.taylor[i][time] = data


def _column(ts) -> np.ndarray:
    """Ascending times as a column (times x 1 x 1) against the (times x rungs x values) blocks.

    One time is a 0-d array: it broadcasts as a column of one, since every
    per-value array of the sweep has a leading axis, and a ufunc takes it
    as cheaply as a float.
    """
    if len(ts) == 1:
        return np.array(float(ts[0]))
    return np.array(ts, dtype=float).reshape(-1, 1, 1)


def _rules_out(
    seen: dict, ta: float, tb: float, growth: float, floor: float, best: float, taylor=None
) -> bool:
    """Whether a rung's distance provably stays below best strictly between ta and tb.

    seen holds the rung's distance at each evaluated time, ta among them;
    taylor, for a forced rung, its Taylor data at each of them within the
    cap (_SpectralGap.gap_sq), and None for an unforced one.  At ta = 0 the
    distance is 0 and bounds nothing, and a forced bound grows without limit
    there.  A left end whose square lies below floor may have lost terms to
    underflow.  An inf or NaN bound rules nothing out.  The rung was
    evaluated at the last time, so growth * tb stays within the exponent cap
    and exp() cannot overflow.
    """
    if ta == 0.0:
        return False
    left = seen[ta]
    if not left * left >= floor:
        return False
    if taylor is None:
        bound = left * (tb / ta) * math.exp(growth * (tb - ta))
    elif ta in taylor:
        from .kernels import _reach  # a forced stack has imported it already
        bound = _reach(left, *taylor[ta], ta, tb, growth)
    else:
        return False  # past the cap, where no Taylor data is formed
    return bound * (1.0 + _BOUND_MARGIN) < best


# values per stack of rungs in the sweep (_SpectralGap.sweep), so a (rungs x values) block
# is at most 128 KiB: stacking gains least on wide rungs (measured table in ROADMAP)
_STACK_VALUES = 16384
# relative slack of the bounds of the bisecting sweep (_SpectralGap.sweep).  Each
# distance it compares carries the rounding of exp and expm1 at arguments up to
# EXPONENT_CAP: about 700 ulps, 1.6e-13 relative, and as much again for the bound's own
# exp; N^2 + 2h <g, g'> + h^2 |g'|^2 loses a few times as much against the larger of it
# and N^2, since |<g, g'>| <= N |g'|.  2**-30 (9.3e-10) covers their sum many times over
# and skips no fewer times.
_BOUND_MARGIN = 2.0**-30
# the sweep leaves out the highest values whose summed bound on |R_u x_u|^2 stays below
# this fraction of a rung's largest squared distance (_SpectralGap._screen)
_SCREEN = 2.0**-110


def _fold(weights, columns, distinct) -> np.ndarray:
    """R[i, k, u]: the triangle of a QR of the rows sqrt(w) [Re c0, Re H_1, ...] and
    sqrt(w) [Im c0, Im H_1, ...] of the nodes of value u, batched per multiplicity.

    Each batch gathers its nodes straight from the columns and holds at
    most _BATCH_VALUES values; LAPACK factors every matrix of a batch on its own,
    so the chunks give the bits of one batch.  Never the Gram matrix: its
    squares lose a gap where a c0 and b H nearly cancel, and underflow on
    tiny data.
    """
    width = len(columns)
    # the nodes of each value together, in node order
    order = np.argsort(distinct.inverse, kind="stable")
    sizes = np.bincount(distinct.inverse)
    starts = np.cumsum(sizes) - sizes
    factor = np.zeros((width, width, sizes.size))
    for size in np.flatnonzero(np.bincount(sizes)):
        groups = np.flatnonzero(sizes == size)
        for lo in range(0, groups.size, _BATCH_VALUES):
            part = groups[lo : lo + _BATCH_VALUES]
            nodes = order[starts[part][:, None] + np.arange(size)]
            block = np.empty(nodes.shape + (2, width))
            for j, c in enumerate(columns):
                v = c[nodes]
                block[..., 0, j] = v.real
                block[..., 1, j] = v.imag
            block *= np.sqrt(weights[nodes])[..., None, None]
            r = np.linalg.qr(block.reshape(part.size, 2 * size, width), mode="r")
            factor[: r.shape[1], :, part] = r.transpose(1, 2, 0)
    return factor


def _study(problem, ladder, norm, times, spec) -> tuple:
    """The rungs side by side: per block of times, the flow's terms once, then each stack's gaps.

    No trajectory value is formed: the distances come from the real kernels
    of _SpectralGap.  Each rung is its minimizer, which holds its roots and
    its initial coefficient and nothing per time: a (times x nodes) block
    would be as large as the whole sampled field.  The nodes fold before any
    rung is built, so the fold's temporaries never sit on top of the rungs'
    roots, and the gap goes before the energies, with its blocks and work
    arrays.  A rung refused when built, by the sweep or by its energy
    becomes a failure entry, and the other rungs go on.  It runs serially:
    building a rung or its closed-form energy takes about a millisecond.
    It returns the entries and the last rung's minimizer, or None when that
    rung failed.
    """
    w = problem.weights
    if norm == "sup_vl":
        # the graph-norm weights of vl_norm, needed only while the nodes fold
        w = w * (1.0 + np.abs(problem.symbol_values))
    gap = _SpectralGap(problem, w)
    del w
    entries = [None] * len(ladder)
    live = {}
    for i, eps in enumerate(ladder):
        try:
            live[i] = minimizer_hat(problem, eps)
        except Exception as exc:
            entries[i] = LadderEntry.failed(eps, exc)
    sups = gap.sweep(live, times)
    del gap
    for i, m in live.items():
        outcome = sups[i]
        if not isinstance(outcome, Exception):
            try:
                energy, source = m.energy(spec)
                # minimizer_hat checks the root bundle at tol 1e-9 and raises on any violation
                entries[i] = LadderEntry(ladder[i], outcome, energy, 0, energy_source=source)
                continue
            except Exception as exc:
                outcome = exc
        entries[i] = LadderEntry.failed(ladder[i], outcome)
    return entries, None if entries[-1].failure else live[len(ladder) - 1]


def convergence_study(
    problem: SpectralProblem,
    ladder: Sequence[float],
    horizon: float,
    norm: str = "sup_uniform",
    time_points: int = 201,
    spec: QuadratureSpec = DEFAULT_SPEC,
    problem_id: str = "study",
) -> ConvergenceReport:
    """Shrink eps along the ladder and compare against the first-order flow.

    Per rung: the selected minimizer, its sup-norm distance to the
    reference over a dense grid on [0, horizon], its weighted energy, and
    the root-estimate violation count.  A failing rung is recorded and the
    study continues.  The fitted log-log rate is a diagnostic; the verdict
    that matters is monotone decay of the error.  An OdeProblem is the
    spectral problem of its modes (its eigenvalues, unit weights), so a
    system and a multiplier run one sweep: the rungs side by side,
    serially, against one evaluation of the reference per time.
    """
    ladder = _check_ladder(ladder)
    _check_horizon(horizon, time_points)
    if norm not in ("sup_uniform", "sup_vl"):
        raise ValueError(f"unknown norm {norm!r}")
    if not isinstance(problem, SpectralProblem):
        raise TypeError(f"unsupported problem type {type(problem).__name__}")
    times = np.linspace(0.0, float(horizon), time_points)
    entries, last = _study(problem, ladder, norm, times, spec)
    ok = [e for e in entries if e.failure is None]
    errors = [e.sup_error for e in ok]
    rate, half_width = fit_rate([e.eps for e in ok], errors)
    monotone = len(ok) == len(entries) and all(
        b < a or b == 0.0 for a, b in zip(errors, errors[1:])
    )
    verdicts = {
        "monotone_decay": bool(monotone),
        "all_members_completed": len(ok) == len(entries),
        "zero_audit_violations": all(e.audit_violations == 0 for e in ok),
    }
    return ConvergenceReport(
        problem_id=problem_id,
        norm=norm,
        horizon=float(horizon),
        entries=tuple(entries),
        fitted_rate=rate,
        rate_half_width=half_width,
        verdicts=verdicts,
        minimizer=last,
    )
