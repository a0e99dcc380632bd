"""What every run shares: the accuracy contract, the exponent cap and the errors.

Every number of a report meets QuadratureSpec's abs_tol + rel_tol*|value|,
and every kernel refuses an exponent past EXPONENT_CAP instead of
overflowing.  The adaptive fallbacks are wie.quadrature, imported only by
a run that falls back.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# exp() overflows just above 709; stay clear of the edge
EXPONENT_CAP = 700.0
ENERGY_CEILING = 1e12


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class QuadratureFailure(QuadratureError):
    """Adaptive refinement exhausted its panel budget.

    Carries the partial value and the error estimate accumulated so far.
    """

    def __init__(self, message: str, partial, error_estimate: float):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class DivergenceError(QuadratureError):
    """The requested integral diverges for the declared growth rate."""


class ExponentOverflowError(QuadratureError):
    """An exponent exceeded the overflow cap; work in log space instead."""


# the message of every refusal past the cap
_PAST_CAP = "a mode grows past exp(700) at the requested time; shorten the horizon"


def _refuse_past_cap(exponent: float) -> None:
    """Raise ExponentOverflowError when the largest exponent of a kernel passes the cap."""
    if exponent > EXPONENT_CAP:
        raise ExponentOverflowError(_PAST_CAP)


def _exp_guarded(exponent, largest: Optional[float] = None) -> np.ndarray:
    """exp() of an array, refusing exponents past the cap instead of overflowing.

    The argument is consumed: a float array is clamped and exponentiated in
    place and returned, so callers pass a temporary they no longer need.
    largest is its largest entry where the caller knows it without a search.
    """
    exponent = np.asarray(exponent, dtype=float)
    if largest is None and exponent.size:
        largest = float(exponent.max())
    if largest is not None:
        _refuse_past_cap(largest)
    np.maximum(exponent, -745.0, out=exponent)
    return np.exp(exponent, out=exponent)


class _ReadOnly:
    """A value set once, by __init__ through vars(self); assigning or deleting raises."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")


class QuadratureSpec(_ReadOnly):
    """Numerical policy for the weighted integrals.

    method:          "gauss_laguerre" uses a fixed substituted rule with an
                     adaptive fallback; "adaptive" always uses panels.
    nodes:           Gauss-Laguerre node count (>= 4).
    panel_tol:       per-panel absolute tolerance of the adaptive engine.
    max_panels:      panel budget before the engine gives up.
    abs_tol/rel_tol: accuracy contract |result - exact| <= abs + rel*|result|
                     for integrands in their declared growth class.
    variation_limit: spread of significant integrand values beyond which the
                     fixed rule is distrusted and panels take over.
    """

    def __init__(
        self,
        method: str = "gauss_laguerre",
        nodes: int = 64,
        panel_tol: float = 1e-12,
        max_panels: int = 4096,
        abs_tol: float = 1e-12,
        rel_tol: float = 1e-10,
        variation_limit: float = 1e6,
    ):
        if method not in ("gauss_laguerre", "adaptive"):
            raise ValueError(f"unknown quadrature method {method!r}")
        if nodes < 4:
            raise ValueError("need at least 4 Gauss-Laguerre nodes")
        if min(panel_tol, abs_tol, rel_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if max_panels < 8:
            raise ValueError("max_panels too small to be useful")
        vars(self).update(
            method=method,
            nodes=nodes,
            panel_tol=panel_tol,
            max_panels=max_panels,
            abs_tol=abs_tol,
            rel_tol=rel_tol,
            variation_limit=variation_limit,
        )


DEFAULT_SPEC = QuadratureSpec()
