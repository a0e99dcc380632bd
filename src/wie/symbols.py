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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "MultiplierSymbol",
    "classical",
    "fractional",
    "zeroth_order",
    "custom",
    "from_table",
    "build_symbol",
    "EpsilonPolicy",
    "AdmissibilityError",
    "admissible_discriminant",
    "audit_lower_bound",
]


def _normalize_points(xi, dim: int):
    """Coerce a point or batch of points to the batch shape, noting scalars.

    Batch shape is (M,) for dim 1 and (M, dim) otherwise; a single point in
    dim > 1 arrives as a length-dim vector.
    """
    arr = np.asarray(xi, dtype=float)
    if dim == 1:
        if arr.ndim == 0:
            return arr.reshape(1), True
        if arr.ndim == 1:
            return arr, False
        raise ValueError(f"expected scalar or 1-d batch for dim 1, got shape {arr.shape}")
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"point has {arr.shape[0]} coordinates, symbol lives in dim {dim}")
        return arr.reshape(1, dim), True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise ValueError(f"expected (M, {dim}) batch, got shape {arr.shape}")


@dataclass(frozen=True)
class MultiplierSymbol:
    """A real frequency multiplier together with its bookkeeping.

    func receives points in batch shape, (M,) in one dimension and (M, dim)
    otherwise, and must return (M,) real values.  Calling the symbol accepts
    scalars, single points and batches, and mirrors the input arity back.
    """

    name: str
    dim: int
    func: Callable = field(repr=False)
    params: dict = field(default_factory=dict)

    def __call__(self, xi):
        pts, scalar = _normalize_points(xi, self.dim)
        vals = np.asarray(self.func(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError(
                f"symbol {self.name!r} returned shape {vals.shape} for {pts.shape[0]} points"
            )
        if scalar:
            return float(vals[0])
        return vals


def classical(dim: int = 1) -> MultiplierSymbol:
    """Squared frequency magnitude, the local diffusion multiplier."""
    if dim == 1:
        f = lambda p: p * p
    else:
        f = lambda p: (p * p).sum(axis=1)
    return MultiplierSymbol("classical", dim, f)


def fractional(s: float, dim: int = 1) -> MultiplierSymbol:
    """(|xi|^2)^s for an order s strictly between 0 and 1."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")
    if dim == 1:
        f = lambda p: (p * p) ** s
    else:
        f = lambda p: ((p * p).sum(axis=1)) ** s
    return MultiplierSymbol("fractional", dim, f, params={"order": s})


def zeroth_order(mass: float, kernel_hat: Callable, dim: int = 1) -> MultiplierSymbol:
    """mass - kernel_hat(xi), the bounded jump-generator shape.

    mass is an independent knob; it is not forced to equal kernel_hat(0),
    so truncated or unnormalized kernels are representable as-is.
    """
    f = lambda p: mass - np.asarray(kernel_hat(p), dtype=float)
    return MultiplierSymbol("zeroth_order", dim, f, params={"mass": mass})


def custom(fn: Callable, dim: int = 1, name: str = "custom") -> MultiplierSymbol:
    return MultiplierSymbol(name, dim, lambda p: np.asarray(fn(p), dtype=float))


def from_table(xi_points, values, name: str = "table") -> MultiplierSymbol:
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
    return MultiplierSymbol(name, 1, lambda p: np.interp(p, x, v), params={"samples": x.size})


_BUILDERS = {
    "classical": lambda p: classical(dim=p.get("dim", 1)),
    "fractional": lambda p: fractional(p["order"], dim=p.get("dim", 1)),
    "zeroth_order": lambda p: zeroth_order(p["mass"], p["kernel_hat"], dim=p.get("dim", 1)),
    "custom": lambda p: custom(p["fn"], dim=p.get("dim", 1), name=p.get("name", "custom")),
    "table": lambda p: from_table(p["xi_points"], p["values"], name=p.get("name", "table")),
}


def build_symbol(kind: str, **params) -> MultiplierSymbol:
    """Factory dispatch on the symbol kind; see the named constructors."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown symbol kind {kind!r}; expected one of {sorted(_BUILDERS)}"
        ) from None
    return builder(params)


@dataclass(frozen=True)
class EpsilonPolicy:
    """Regularization budget derived from the symbol's worst dip.

    lower_bound caps the reported infimum at zero: a nonnegative symbol
    needs no dissipation margin and gets the flat cap instead.  margin is
    subtracted before capping, to absorb grid coarseness.
    """

    safety: float = 1.0
    zero_bound_cap: float = 0.5
    margin: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety factor must lie in (0, 1]")
        if self.zero_bound_cap <= 0.0:
            raise ValueError("cap for nonnegative symbols must be positive")
        if self.margin < 0.0:
            raise ValueError("margin must be nonnegative")

    def lower_bound(self, symbol: MultiplierSymbol, grid) -> float:
        vals = symbol(np.asarray(grid, dtype=float))
        return min(0.0, float(np.min(vals)) - self.margin)

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

    def threshold_for(self, symbol: MultiplierSymbol, grid) -> float:
        return self.epsilon_threshold(self.lower_bound(symbol, grid))


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


def audit_lower_bound(symbol: MultiplierSymbol, grid, bound: float):
    """Count grid nodes where the symbol dips below the claimed bound.

    Returns (violations, worst_value); violations are data for the caller
    to report, not an error.
    """
    vals = symbol(np.asarray(grid, dtype=float))
    below = vals < bound
    return int(np.count_nonzero(below)), float(np.min(vals))
