"""Fourier multipliers for the generators and the regularization budget.

A generator acts in frequency as multiplication by a real symbol.  The
classical Laplacian, its fractional powers, and bounded jump generators of
the form mass - kernel_hat all fit this shape, as does anything the user
supplies as a callable or a sampled table.

Symbols may dip below zero.  The budget policy turns the worst dip seen on
a reference grid into a ceiling on the regularization parameter, so the
slow decay branch of the characteristic roots stays decaying at every
frequency that matters.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .contract import _ReadOnly

__all__ = [
    "MultiplierSymbol",
    "classical",
    "fractional",
    "zeroth_order",
    "from_table",
    "EpsilonPolicy",
    "AdmissibilityError",
    "admissible_discriminant",
]


def _normalize_points(xi):
    """Coerce a frequency or 1-d batch of frequencies to a batch, noting scalars."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), True
    if arr.ndim == 1:
        return arr, False
    raise ValueError(f"expected a scalar or 1-d batch of frequencies, got shape {arr.shape}")


class MultiplierSymbol(_ReadOnly):
    """A real one-dimensional frequency multiplier and its name.

    func receives an (M,) batch of frequencies and must return (M,) real
    values.  Calling the symbol accepts a scalar or a batch and mirrors the
    input arity back.
    """

    def __init__(self, name: str, func: Callable):
        vars(self).update(name=name, func=func)

    def __call__(self, xi):
        pts, scalar = _normalize_points(xi)
        vals = np.asarray(self.func(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError(
                f"symbol {self.name!r} returned shape {vals.shape} for {pts.shape[0]} points"
            )
        if scalar:
            return float(vals[0])
        return vals


def classical() -> MultiplierSymbol:
    """Squared frequency, the local diffusion multiplier."""
    return MultiplierSymbol("classical", lambda p: p * p)


def fractional(s: float) -> MultiplierSymbol:
    """(|xi|^2)^s for an order s strictly between 0 and 1."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")
    return MultiplierSymbol("fractional", lambda p: (p * p) ** s)


def zeroth_order(mass: float, kernel_hat: Callable) -> MultiplierSymbol:
    """mass - kernel_hat(xi), the bounded jump-generator shape.

    mass is an independent knob; it is not forced to equal kernel_hat(0),
    so truncated or unnormalized kernels are representable as-is.
    """
    f = lambda p: mass - np.asarray(kernel_hat(p), dtype=float)
    return MultiplierSymbol("zeroth_order", f)


def from_table(xi_points, values) -> MultiplierSymbol:
    """One-dimensional symbol sampled on a grid, linearly interpolated.

    Evaluation clamps to the nearest table value outside the sampled range.
    """
    x = np.asarray(xi_points, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != v.shape:
        raise ValueError("table needs matching 1-d point and value columns")
    if x.size < 2:
        raise ValueError("table needs at least two samples")
    order = np.argsort(x)
    x, v = x[order], v[order]
    if np.any(np.diff(x) == 0.0):
        raise ValueError("table points must be distinct")
    return MultiplierSymbol("table", lambda p: np.interp(p, x, v))


class EpsilonPolicy(_ReadOnly):
    """Regularization budget derived from the symbol's worst dip.

    lower_bound caps the reported infimum at zero: a nonnegative symbol
    needs no dissipation margin and gets the flat cap instead.  margin is
    subtracted before capping, to absorb grid coarseness.
    """

    def __init__(self, safety: float = 1.0, zero_bound_cap: float = 0.5, margin: float = 0.0):
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety factor must lie in (0, 1]")
        if zero_bound_cap <= 0.0:
            raise ValueError("cap for nonnegative symbols must be positive")
        if margin < 0.0:
            raise ValueError("margin must be nonnegative")
        vars(self).update(safety=safety, zero_bound_cap=zero_bound_cap, margin=margin)

    def lower_bound(self, values) -> float:
        """The lowest of the symbol values (or eigenvalues) less margin, capped at zero."""
        return min(0.0, float(np.min(values)) - self.margin)

    def epsilon_threshold(self, bound: float) -> float:
        """Largest admissible regularization for a symbol bounded below by `bound`.

        Negative bounds force eps below safety/(8|bound|), keeping the
        discriminant 1 + 4*eps*symbol comfortably above one half everywhere.
        """
        if bound > 0.0:
            raise ValueError("bound must come from lower_bound, which caps at zero")
        if bound == 0.0:
            return self.zero_bound_cap
        return self.safety / (8.0 * abs(bound))


class AdmissibilityError(ValueError):
    """eps is too large for the symbol values or eigenvalues it meets."""


def admissible_discriminant(values, eps: float) -> np.ndarray:
    """1 + 4*eps*value per symbol value or eigenvalue, checked against one rule.

    Every solver refuses a value whose discriminant is at most one half:
    that is exactly where the root estimates start to fail.  The error
    names the lowest offending value.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    disc = 1.0 + 4.0 * eps * vals
    bad = int(np.count_nonzero(disc <= 0.5))
    if bad:
        raise AdmissibilityError(
            f"{bad} node(s) or eigenvalue(s) have 1 + 4*eps*symbol <= 1/2 at eps={eps:.6g}, "
            f"the lowest value being {float(vals.min()):.6g}; the root estimates fail there, "
            "lower eps"
        )
    return disc
