"""The kernels of constant and exponential profiles, which a forced sweep runs.

The phi functions of exponential integrators (Hochbruck and Ostermann,
Acta Numerica 2010) and the first and second divided differences of
x -> exp(x t) over arrays of rates and blocks of times; _ExponentialGap,
_slopes and _reach put them to the study sweep (wie.lab._SpectralGap).
Imported where a forced stack or a profile integral is first built.
"""

from __future__ import annotations

import math

import numpy as np

from .contract import _refuse_past_cap
from .forcing import _BATCH_VALUES


_SERIES_RADIUS = 0.5
_SERIES_TERMS = 17  # the first omitted term is below 1e-19 inside the radius


# the Horner coefficients 1/(j+k)! of phi_k, highest power first
_PHI_COEFFS = {
    k: [1.0 / math.factorial(j + k) for j in range(_SERIES_TERMS - 1, -1, -1)] for k in (1, 2)
}


def _phi(k: int, z) -> np.ndarray:
    """phi_k(z) = sum_j z^j/(j+k)! for k = 1, 2.

    A Taylor series inside |z| < 1/2, so nearly equal rates do not cancel,
    and expm1-based closed forms outside.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    small = np.abs(z) < _SERIES_RADIUS
    zs = z[small]
    acc = np.zeros(zs.shape)
    for c in _PHI_COEFFS[k]:
        acc = acc * zs + c
    out[small] = acc
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl if k == 1 else (np.expm1(zl) - zl) / (zl * zl)
    return out


_SMALLEST_NORMAL = float(np.finfo(float).tiny)

class _ExpDifference:
    """D[x, r](t) = (exp(x t) - exp(r t))/(x - r) for a rate array x and one rate r.

    The first divided difference of x -> exp(x t), as exp(max(x, r) t)
    expm1(-|gap| t)/(-|gap|), so nearly equal rates do not cancel; it is
    t exp(x t) where x = r.  gap is x - r, which the caller forms without
    the subtraction's cancellation; it may be a block of several rate
    arrays, one per row, and it is consumed: its float array becomes the
    kernel's own.  Only the largest rate of x is read, so x may be that
    number.  Each call takes ascending times t >= 0, a column (times x 1
    x ...) that broadcasts against gap, or one time as a 0-d array, with
    exp(max(x, r) t), which the caller forms from the exponentials it has
    at hand, and gives one row per time.  It raises ExponentOverflowError
    when max(x, r) t passes the cap at the last time.
    """

    def __init__(self, x, r: float, gap):
        self.rate = float(r)
        self.top_max = max(float(np.max(x, initial=-math.inf)), self.rate)
        gap = np.asarray(gap, dtype=float)
        np.negative(np.abs(gap, out=gap), out=gap)
        self.flat = np.flatnonzero(gap == 0.0)
        self.gap = gap
        gap.reshape(-1)[self.flat] = -1.0  # any stand-in: the flat entries are set to t
        self.least = float(-self.gap.max(initial=-math.inf))

    def __call__(self, t: np.ndarray, top: np.ndarray) -> np.ndarray:
        _refuse_past_cap(self.top_max * t.item(-1))
        q = np.multiply(self.gap, t)
        np.expm1(q, out=q)
        q /= self.gap
        if self.flat.size:
            q.reshape(t.size, -1)[:, self.flat] = t.reshape(-1, 1)
        # the least time but zero, where every entry already is
        low = t.item(0) if t.size == 1 or t.item(0) > 0.0 else t.item(1)
        if self.least * low < _SMALLEST_NORMAL:
            # a subnormal gap t keeps too few digits; phi1 is 1 there
            np.copyto(q, t, where=np.abs(self.gap) * t < _SMALLEST_NORMAL)
        q *= top
        return q


_DIFFERENCE_RADIUS = 0.5  # the Taylor series serves rates whose spread times t is below this
# about their midpoint the rates lie within spread/2 of it; at spread t = 1/2 the
# terms past the 12th add at most 1.1e-17 of the sum
_DIFFERENCE_TERMS = 12
# the powers t^(k+2), highest first, along the first axis of a (terms x rates x times) block
_DIFFERENCE_POWERS = np.arange(_DIFFERENCE_TERMS + 1.0, 1.0, -1.0)[:, None, None]


class _ExpSecondDifference:
    """weight (D[x1, x2] - D[x0, x2]) = weight delta E[x0, x1, x2], where x1 = x0 + delta.

    E is the second divided difference of x -> exp(x t) and D the first
    (_ExpDifference).  x0 is an array and delta >= 0 an array of its size,
    or a block of such rows, one per stacked set of rates; they are passed
    apart so that a small delta keeps its digits; x2 is one rate.
    Everything independent of t is built here, in steps of whole rows, as
    many as _BATCH_VALUES values hold and at least one: which rate lies
    between the other two, and the Taylor coefficients in one order of
    spread over the whole block.  Each call takes ascending times t >= 0 as _ExpDifference
    does, the undivided difference e01 = exp(x1 t) - exp(x0 t), and
    d12 = D[x1, x2] and d02 = D[x0, x2], each with one row per time, and
    gives one row per time.

    As in McCurdy, Ng and Parlett (Math. Comp. 43, 1984), rates whose
    spread times t is below 1/2 take the Taylor series about their
    midpoint c,

        E = t^2 exp(c t) sum_k h_k(x - c) t^k/(k+2)!,

    h_k the complete homogeneous symmetric polynomial of degree k, and
    the others nested first differences with the extreme pair of rates in
    the denominator, which cancel by at most a small factor there:
    (e01 - delta d02)/(x1 - x2) when x2 <= x0, (delta d12 - e01)/(x2 - x0)
    when x2 >= x1, and d12 - d02 when x2 lies between.  Every entry gets
    the bits it gets in a block of its row alone, at a time of its own.
    """

    def __init__(self, x0, delta, x2: float, weight: float):
        x0 = np.asarray(x0, dtype=float)
        delta = np.asarray(delta, dtype=float)
        width = x0.size
        span = width * max(1, _BATCH_VALUES // width)  # values per build step
        # a block of k rows forms its Taylor terms 2 width/k rates at a time, which
        # keeps the per-time memory of a stack of rungs near that of one rung
        self.chunk = max(1, 2 * width * width // delta.size)
        # every per-rate row in one allocation, large enough to be mapped on its own,
        # so that the kernels leave no holes in the heap
        rows = np.empty((_DIFFERENCE_TERMS + 5, delta.size))
        self.table, self.center, self.spread, nested = rows[:-5], rows[-5], rows[-4], rows[-3:]
        # the Taylor rows and the centers with an axis of one time
        self.terms, self.centers = self.table[:, :, None], self.center[:, None]
        off = x2 - x0  # and x1 - x2 = delta - off
        lo = np.minimum(off, 0.0)
        spread = self.center  # the spread in rate order, until the centers are formed
        for start in range(0, delta.size, span):
            piece = slice(start, start + span)
            d = delta.reshape(-1, width)[start // width : (start + span) // width]
            np.subtract(np.maximum(off, d), lo, out=spread[piece].reshape(d.shape))
            _nested_coefficients(
                off, d, spread[piece].reshape(d.shape), weight, nested[:, piece].reshape(3, *d.shape)
            )
        self.c01, self.c12, self.c02 = (c.reshape(delta.shape) for c in nested)
        self.order = np.argsort(spread, kind="stable")
        np.take(spread, self.order, out=self.spread)
        # the Taylor rows in spread order, as many rates at a time
        delta = delta.reshape(-1)
        for start in range(0, delta.size, span):
            piece = slice(start, start + span)
            at = self.order[piece]
            col = at % width
            x0c, dc = x0[col], delta[at]
            center = np.add(x0c, 0.5 * (lo[col] + np.maximum(off[col], dc)), out=self.center[piece])
            y0 = x0c - center
            _taylor_table(y0, y0 + dc, x2 - center, weight * dc, self.table[:, piece])

    def __call__(self, t: np.ndarray, e01, d12, d02, series=None) -> np.ndarray:
        """The difference at the times t; series is self.series(t) when the caller has formed it."""
        counts, series = self.series(t) if series is None else series
        out = self.c01 * e01
        part = self.c12 * d12
        out += part
        out += np.multiply(self.c02, d02, out=part)
        at = self.order[: len(series)]
        if len(counts) == 1:
            out.reshape(-1)[at] = series[:, 0]
        elif at.size:
            # each time takes its own prefix of the block's longest one
            rows = out.reshape(len(counts), -1)
            taken = np.arange(at.size)[:, None] < np.array(counts)
            rows[:, at] = np.where(taken, series, rows[:, at].T).T
        return out

    def series(self, t: np.ndarray) -> tuple:
        """(counts, series): the Taylor form of the rates whose spread times t is below the radius.

        At the k-th time they are a prefix of the spread order, counts[k]
        rates long; none at t = 0, where every difference is zero.  series
        holds the block's longest prefix, in that order, one row per rate
        and one column per time.  Each rate's terms are summed from the
        highest power down, a chunk of rates at a time over every time of
        the block; numpy would sum a lone rate at a lone time pairwise, so
        that one is summed in order here.
        """
        limits = [_DIFFERENCE_RADIUS / x if x > 0.0 else 0.0 for x in t.ravel().tolist()]
        counts = self.spread.searchsorted(limits).tolist()
        top = max(counts)
        series = np.empty((top, t.size))
        if not top:
            return counts, series
        # the times along the last axis; one time, a 0-d array, broadcasts as it is
        powers = (t.reshape(1, 1, -1) if t.ndim else t) ** _DIFFERENCE_POWERS
        terms = np.empty((_DIFFERENCE_TERMS, min(self.chunk, top), t.size))
        for start in range(0, top, self.chunk):
            stop = min(start + self.chunk, top)
            part = np.multiply(self.terms[:, start:stop], powers, out=terms[:, : stop - start])
            if part.size > _DIFFERENCE_TERMS:
                np.add.reduce(part, out=series[start:stop])
            else:
                total, *rest = part.ravel().tolist()
                for term in rest:
                    total += term
                series[start:stop] = total
        del terms, part  # freed before the exponentials are formed
        # c is below max(x1, x2), whose exponent D[x1, x2] has checked against the cap
        growth = np.multiply(self.centers[:top], t.reshape(1, -1) if t.ndim else t)
        series *= np.exp(growth, out=growth)
        return counts, series


def _nested_coefficients(off, delta, spread, weight, coefficients) -> np.ndarray:
    """Fill the rows c01, c12, c02 of weight delta E = c01 e01 + c12 d12 + c02 d02.

    Which pair of first differences they weigh depends on where x2 lies.
    """
    below = off <= 0.0
    above = ~below & (off >= delta)
    coefficients[...] = 0.0
    c01, c12, c02 = coefficients
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = weight / spread  # the extreme pair: delta - off below, off above
        np.copyto(c01, inv, where=below)
        np.negative(inv, out=c01, where=above)
        inv *= delta
        np.copyto(c12, inv, where=above)
        np.negative(inv, out=c02, where=below)
    between = ~below & ~above
    c12[between] = weight
    c02[between] = -weight
    # rates too close for 1/spread: the series serves them at every time
    coefficients[~np.isfinite(coefficients)] = 0.0
    return coefficients


def _taylor_table(y0, y1, y2, scale, table) -> np.ndarray:
    """Fill row K-1-k of table with scale h_k(y0, y1, y2)/(k+2)!, the highest power first.

    h_k(y0), h_k(y0, y1) and h_k(y0, y1, y2) are built one rate at a time;
    the rows run from the highest power down, so that the smallest terms
    are summed first.
    """
    h0, h01, h = np.ones(y0.shape), np.zeros(y0.shape), np.zeros(y0.shape)
    for k in range(_DIFFERENCE_TERMS):
        if k:
            h0 *= y0
        h01 *= y1
        h01 += h0
        h *= y2
        h += h01
        np.multiply(h, scale / math.factorial(k + 2), out=table[-1 - k])
    return table


class _ExponentialGap:
    """b(t) of one part A exp(r t) on a stack of rungs, from one first and one second difference.

    With f - s = z/eps and f + s = 1/eps, the generic route's terms collapse:

        b(t) = A D[s, r] (s + r)/(f - r) + A (D[s, r] - D[-ell, r]),

    D the first divided difference of x -> exp(x t) and the last term
    A delta E[-ell, s, r] (_ExpSecondDifference).  Both are O(eps)
    with no cancellation.  Everything independent of t is built here, one
    row per rung.

    On a stack that bisects under the second-order bound (lab._SpectralGap.sweep)
    it also gives |c M_b|, c the norm of the part's column of R and M_b the
    majorant of |b''|.  With D' = s D + exp(r t) and E' = D - ell E,

        |b''| <= |kappa| s^2 D + |A| delta |s - ell| D + ell^2 |A delta E|
                 + (|kappa| |s + r| + |A| delta) exp(r t),

    since D and E are integrals of positive exponentials, and
    |c M_b| <= |c (the first three terms)| + exp(r t) |c (the last weight)|,
    the last norm a number per rung, formed here.
    """

    def __init__(self, amplitude, rate, ell, stack, delta, norm=None):
        self.amplitude = amplitude
        self.kappa = np.empty(delta.shape)
        for row, m in zip(self.kappa[0], stack.rungs):
            r = m.roots
            np.divide(amplitude * (r.slow[: ell.size] + rate), r.fast[: ell.size] - rate, out=row)
        # s - r = delta - (ell + r), which keeps the digits of a small delta
        self.first = _ExpDifference(stack.slow_max, rate, gap=np.subtract(delta, ell + rate))
        self.second = _ExpSecondDifference(-ell, delta, rate, amplitude)
        if norm is None:
            return
        # the stack's rows, not the stack, so that no cycle outlives the sweep
        self.rows, self.norm = (stack.bend, stack.slow_sq, stack.ell_sq), norm
        weight = np.empty(delta.shape)
        for row, m in zip(weight[0], stack.rungs):
            np.add(m.roots.slow[: ell.size], rate, out=row)
        np.abs(weight, out=weight)
        weight *= np.abs(self.kappa)
        weight += np.multiply(delta, abs(amplitude))
        weight *= norm
        self.reach = np.sqrt(np.vecdot(weight, weight))

    def __call__(self, t: np.ndarray, a, grow, flow, bends=None) -> np.ndarray:
        """b at the times t from a = exp(s t) - exp(-ell t), grow() = exp(s t) and the flow's term.

        The flow's term is (D[-ell, r], exp(r t)).  When bends is a list,
        |c M_b| is appended to it.
        """
        d02, exp_r = flow
        # the Taylor entries first, while no other per-time block of the part is alive
        series = self.second.series(t)
        top = grow()  # exp(max(s, r) t), formed in place of exp(s t)
        first = self.first(t, np.maximum(top, exp_r, out=top))
        del top
        b = self.second(t, a, first, d02, series)
        if bends is None:
            b += np.multiply(self.kappa, first, out=first)
            return b
        spread, slow_sq, ell_sq = self.rows
        bend = np.multiply(spread, first)  # delta |s - ell| D
        bend *= abs(self.amplitude)
        first *= self.kappa
        work = np.abs(first)
        work *= slow_sq
        bend += work
        del work
        # b = A delta E + kappa D, the same bits in kappa D's place
        first += b
        np.abs(b, out=b)
        b *= ell_sq
        bend += b
        del b
        bend *= self.norm
        bends.append(np.sqrt(np.vecdot(bend, bend)) + exp_r.reshape(exp_r.shape[:-1]) * self.reach)
        return first


def _slopes(stack, ell, a, decay, x, terms, bends) -> list:
    """x' = (a', b_1', ...) of a stack under the second-order bound, from x = (a, b_1, ...).

    It also puts |c_0 m_0|, the bend of a, at the head of bends (lab._SpectralGap.gap_sq).
    """
    # |a''| <= s^2 a + delta |s - ell| exp(-ell t)
    bend = np.multiply(stack.bend, decay)
    work = np.multiply(stack.slow_sq, a)
    bend += work
    bend *= stack.norms[0]
    bends.insert(0, np.sqrt(np.vecdot(bend, bend)))
    del bend
    # b_j' = s b_j + A delta D[-ell, r] + kappa exp(r t), by D[x, r]' = x D[x, r] + exp(r t),
    # and a' = delta exp(s t) - ell a, formed in delta's place, with s = delta - ell
    delta = np.multiply(stack.slow_sq, stack.eps, out=np.empty(a.shape))
    slopes = [delta]
    for part, (d02, exp_r), b in zip(stack.parts, terms, x[1:]):
        slope = np.multiply(delta, d02)
        slope *= part.amplitude
        slope += np.multiply(part.kappa, exp_r, out=work)
        slope += np.multiply(delta, b, out=work)
        slope -= np.multiply(ell, b, out=work)
        slopes.append(slope)
    delta *= np.add(decay, a, out=work)
    delta -= np.multiply(ell, a, out=work)
    return slopes


def _reach(left, dot, steep, bend, ta, tb, growth) -> float:
    """The second-order bound on a forced rung's distance over [ta, tb] (lab._SpectralGap.sweep).

    left is N(ta), dot <g, g'>, steep |g'|^2 and bend the majorant M of
    |g''|, all at ta; inf where an input is not finite.
    """
    h = tb - ta
    reach = left * left + h * (2.0 * dot + h * steep)
    if not (math.isfinite(reach) and math.isfinite(bend)):
        return math.inf
    spread = (tb / ta) ** 2 * math.exp(growth * h)
    return max(left, math.sqrt(max(reach, 0.0))) + 0.5 * h * h * bend * spread
