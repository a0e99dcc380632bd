"""Finite-dimensional selection: symmetric systems solved by eigenbasis.

The second-order system eps*y'' = y' + A*y - f(t) with y(0) fixed has a
one-parameter family of solutions; exactly one of them keeps the weighted
energy finite.  In the eigenbasis of A the system decouples into scalar
problems whose characteristic roots split into a tame branch and a fast
branch of size 1/eps.  The selected trajectory is the tame-branch flow of
a corrected initial coefficient plus a pure forcing tail on the fast
branch, and both pieces are computed here in forms that neither cancel
catastrophically for small eps*mu nor overflow for large t.

The first-order flow y' = -A*y + f(t) is solved in the same basis for
comparison; its coefficients are plain decaying exponentials plus a
Duhamel convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forcing import ForcingTerm, _exponential_form, _time_array
from .quadrature import (
    DEFAULT_SPEC,
    ENERGY_CEILING,
    QuadratureSpec,
    _exp_guarded,
    _laguerre_rule,
    _modal_energy,
)
from .spectral import RootData, root_data

__all__ = [
    "OdeProblem",
    "EigenData",
    "eigendecompose",
    "DecoupledForcing",
    "decoupled_forcing",
    "SelectedOdeMinimizer",
    "selected_minimizer",
    "ExactOdeSolution",
    "exact_solution",
    "energy_ode",
    "viscous_residual",
]


@dataclass(frozen=True, eq=False)
class OdeProblem:
    """Symmetric system data: matrix, initial state, forcing term."""

    matrix: np.ndarray
    initial: np.ndarray
    forcing: ForcingTerm

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        y0 = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if y0.shape != (A.shape[0],):
            raise ValueError(f"initial state has shape {y0.shape}, matrix is {A.shape}")
        if self.forcing.mode == "spectral":
            raise ValueError("system forcing must use coordinate vectors")
        f = self.forcing
        if f.is_zero and f.dim is None:
            f = ForcingTerm.zero(dim=A.shape[0])
        elif f.dim != A.shape[0]:
            raise ValueError(f"forcing dimension {f.dim} does not match system size {A.shape[0]}")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "initial", y0)
        object.__setattr__(self, "forcing", f)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class EigenData:
    """Orthonormal eigenbasis of a symmetric matrix, eigenvalues ascending.

    Columns of vectors are fixed to a sign convention (largest-magnitude
    entry positive) so decompositions are reproducible across runs.
    """

    values: np.ndarray
    vectors: np.ndarray

    def project(self, v):
        return self.vectors.T @ np.asarray(v, dtype=float)

    def reconstruct(self, c):
        return self.vectors @ np.asarray(c)


def eigendecompose(matrix) -> EigenData:
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    scale = 1.0 + float(np.abs(A).max())
    if float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(A)
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return EigenData(values=vals, vectors=vecs)


def _times(t):
    """(t, tc): a float twice, or a 1-D array of times and its column to broadcast over modes."""
    if isinstance(t, np.ndarray) and t.ndim:
        return t, t[:, None]
    t = float(t)
    return t, t


def _reconstruct_rows(eigen: EigenData, coeffs: np.ndarray) -> np.ndarray:
    # one matrix-vector product per row, as value() makes it: a single matrix
    # product over all rows sums in another order and moves the last bits
    out = np.empty(coeffs.shape)
    for k, c in enumerate(coeffs):
        out[k] = eigen.reconstruct(c)
    return out


def _project_parts(eigen: EigenData, forcing: ForcingTerm) -> np.ndarray:
    """Eigenbasis coordinates of the parts' space vectors, one column per part."""
    if forcing.is_zero:
        return np.zeros((eigen.values.size, 0))
    V = np.stack([np.asarray(p.space_vec, dtype=float) for p in forcing.parts], axis=1)
    return eigen.vectors.T @ V


class DecoupledForcing:
    """Eigenbasis forcing coefficients scaled by 1/sqrt(1 + 4*eps*mu).

    For separable forcing the i-th component is a fixed linear combination
    of the time profiles, so each profile's kernel runs over all modes at
    once and never touches the full vector field.
    """

    def __init__(self, eigen: EigenData, spectrum: RootData, forcing: ForcingTerm):
        self.size = eigen.values.shape[0]
        self.profiles = [p.profile for p in forcing.parts]
        self.coeffs = _project_parts(eigen, forcing) / spectrum.disc_sqrt[:, None]

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[1] == 0 or not np.any(self.coeffs)

    def duhamel(self, lam, t) -> np.ndarray:
        """Per mode, int_0^t exp(lam_i (t-s)) g_i(s) ds; each profile's kernel spans all modes.

        A 1-D array t gives one row per time.
        """
        out = np.zeros(np.shape(t) + (self.size,))
        if not self.is_zero:
            for j, p in enumerate(self.profiles):
                out = out + self.coeffs[:, j] * p.duhamel(lam, t)
        return out

    def tail(self, mu, t, growth_rate: float = 0.0) -> np.ndarray:
        """Per mode, int_0^inf exp(-mu_i u) g_i(t+u) du, all modes at once; rows as duhamel."""
        out = np.zeros(np.shape(t) + (self.size,))
        if not self.is_zero:
            for j, p in enumerate(self.profiles):
                out = out + self.coeffs[:, j] * p.shifted_tail(mu, t, growth_rate)
        return out


def decoupled_forcing(
    eigen: EigenData, spectrum: RootData, forcing: ForcingTerm
) -> DecoupledForcing:
    return DecoupledForcing(eigen, spectrum, forcing)


class SelectedOdeMinimizer:
    """The unique finite-energy trajectory of the second-order system.

    value(t) (also the call) gives the state at any t >= 0, and
    values(times) the states at a whole time grid from one evaluation of
    the modes.  derivative() is analytic, not a difference quotient.
    Every call evaluates afresh, and state(t) gives value and derivative
    from one evaluation of the modes.
    """

    def __init__(self, problem: OdeProblem, eps: float, spec: QuadratureSpec = DEFAULT_SPEC):
        self.problem = problem
        self.eps = float(eps)
        self.spec = spec
        self.eigen = eigendecompose(problem.matrix)
        self.spectrum = root_data(self.eigen.values, eps, check=False)
        growth = problem.forcing.declared_growth()
        self.growth_rate = growth.rate / 2.0  # envelope was for the squared norm
        self.g = decoupled_forcing(self.eigen, self.spectrum, problem.forcing)
        # fast-branch coefficients at time zero, one tail integral per mode
        self.fast_initial = self.g.tail(self.spectrum.fast, 0.0, self.growth_rate)
        self.slow_initial = self.eigen.project(problem.initial) - self.fast_initial

    def _modes(self, t):
        """Slow and fast coefficient vectors at time t; a 1-D t gives one row per time."""
        t, tc = _times(t)
        lam = self.spectrum.slow
        slow = _exp_guarded(lam * tc) * self.slow_initial + self.g.duhamel(lam, t)
        fast = self.g.tail(self.spectrum.fast, t, self.growth_rate)
        return slow, fast

    def value(self, t: float) -> np.ndarray:
        slow, fast = self._modes(t)
        return self.eigen.reconstruct(slow + fast)

    def values(self, times) -> np.ndarray:
        """The states at a 1-D array of times, one row each, row k bit for bit value(times[k])."""
        slow, fast = self._modes(_time_array(times))
        return _reconstruct_rows(self.eigen, slow + fast)

    def state(self, t: float):
        """(value, derivative) at t from one evaluation of the modes."""
        slow, fast = self._modes(t)
        d = self.spectrum.slow * slow + self.spectrum.fast * fast
        return self.eigen.reconstruct(slow + fast), self.eigen.reconstruct(d)

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]

    __call__ = value

    def energy(self):
        """(value, crossed_at, source) of the weighted energy.

        Unforced, constant and exponential forcing give every eigenmode a
        closed form (source "exact").  When that diverges the value is +inf
        and crossed_at is where the weighted integrand first passed the
        ceiling at the Gauss-Laguerre nodes of spec, None if it never did
        there.  Power and sampled parts, or a closed form that is not
        finite, take energy_ode at those nodes (source "gauss_laguerre").
        """
        forcing = self.problem.forcing
        form = _exponential_form([part.profile for part in forcing.parts])
        if form is not None:
            amps, rates = form
            amplitudes = _project_parts(self.eigen, forcing) * np.asarray(amps)
            value = _modal_energy(
                self.eigen.values, self.spectrum.slow, np.ones(self.problem.size),
                self.eigen.project(self.problem.initial), amplitudes, rates, self.eps,
            )
            if value == math.inf:
                return value, self._energy_ode()[1], "exact"
            if value is not None:
                return value, None, "exact"
        value, crossed = self._energy_ode()
        return value, crossed, "gauss_laguerre"

    def _energy_ode(self):
        return energy_ode(self.state, self.problem.matrix, self.problem.forcing, self.eps, self.spec)


def selected_minimizer(
    problem: OdeProblem, eps: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> SelectedOdeMinimizer:
    return SelectedOdeMinimizer(problem, eps, spec)


class ExactOdeSolution:
    """First-order flow y' = -A*y + f(t), y(0) given, via the eigenbasis.

    value(t) (also the call) and values(times) as on SelectedOdeMinimizer.
    """

    def __init__(self, problem: OdeProblem):
        self.problem = problem
        self.eigen = eigendecompose(problem.matrix)
        self.coeff0 = self.eigen.project(problem.initial)
        self._proj = _project_parts(self.eigen, problem.forcing)

    def _coeffs(self, t) -> np.ndarray:
        """Eigen-coefficients at time t, one row per time of a 1-D t."""
        t, tc = _times(t)
        mu = self.eigen.values
        with np.errstate(over="raise"):
            c = np.exp(-mu * tc) * self.coeff0
        for j, part in enumerate(self.problem.forcing.parts):
            c = c + self._proj[:, j] * part.profile.duhamel(-mu, t)
        return c

    def value(self, t: float) -> np.ndarray:
        return self.eigen.reconstruct(self._coeffs(t))

    def values(self, times) -> np.ndarray:
        """The states at a 1-D array of times, one row each, row k bit for bit value(times[k])."""
        return _reconstruct_rows(self.eigen, self._coeffs(_time_array(times)))

    def state(self, t: float):
        """(value, derivative) at t; the flow satisfies its own equation exactly."""
        y = self.value(t)
        return y, -self.problem.matrix @ y + self.problem.forcing.vector(float(t))

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]

    __call__ = value


def exact_solution(problem: OdeProblem) -> ExactOdeSolution:
    return ExactOdeSolution(problem)


def energy_ode(
    state: Callable,
    matrix,
    forcing: ForcingTerm,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    ceiling: float = ENERGY_CEILING,
):
    """Weighted action of an arbitrary trajectory.

    integral exp(-t/eps) [ (eps/2)|y'|^2 + (1/2) y.Ay - f.y ] dt, sampled at
    the substituted Gauss-Laguerre nodes, where state(t) gives the pair
    (y(t), y'(t)).  Returns (value, crossed_at); when the weighted integrand
    blows past `ceiling` the value is +inf and crossed_at is the first
    offending time.
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    tau, w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        yv, dv = (np.asarray(v, dtype=float) for v in state(t))
        quad = 0.5 * eps * float(dv @ dv) + 0.5 * float(yv @ (A @ yv))
        if not forcing.is_zero:
            quad -= float(np.dot(forcing.vector(t), yv))
        if not math.isfinite(quad) or abs(quad) * math.exp(-float(tk)) > ceiling:
            return math.inf, t
        vals[k] = quad
    return eps * float((w * vals).sum()), None


def viscous_residual(minimizer: SelectedOdeMinimizer, t: float, h: float = 1e-3):
    """Centered-difference check of eps*y'' - y' - A*y + f at time t.

    Returns (residual_norm, scale) where scale is the largest term entering
    the balance, so callers can judge the residual relative to it.
    """
    if t < h:
        raise ValueError("need t >= h for the centered stencil")
    y_m = minimizer.value(t - h)
    y_0 = minimizer.value(t)
    y_p = minimizer.value(t + h)
    d2 = (y_p - 2.0 * y_0 + y_m) / (h * h)
    d1 = (y_p - y_m) / (2.0 * h)
    A = minimizer.problem.matrix
    fv = minimizer.problem.forcing.vector(float(t))
    res = minimizer.eps * d2 - d1 - A @ y_0 + fv
    scale = max(
        float(np.linalg.norm(minimizer.eps * d2)),
        float(np.linalg.norm(d1)),
        float(np.linalg.norm(A @ y_0)),
        float(np.linalg.norm(np.atleast_1d(fv))),
        1e-30,
    )
    return float(np.linalg.norm(res)), scale
