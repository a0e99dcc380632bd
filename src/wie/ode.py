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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .forcing import ForcingTerm
from .quadrature import (
    DEFAULT_SPEC,
    ENERGY_CEILING,
    QuadratureSpec,
    _exp_guarded,
    _laguerre_rule,
)
from .symbols import admissible_discriminant

__all__ = [
    "OdeProblem",
    "EigenData",
    "eigendecompose",
    "RegularizedSpectrum",
    "regularized_spectrum",
    "DecoupledForcing",
    "decoupled_forcing",
    "selection_initial",
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


@dataclass(frozen=True, eq=False)
class RegularizedSpectrum:
    """Characteristic roots of eps*r^2 = r + mu per eigenvalue.

    disc_sqrt is sqrt(1 + 4*eps*mu).  slow is the tame root, written as
    -2*mu/(1 + disc_sqrt) so it stays accurate when eps*mu is tiny; fast is
    the root of size 1/eps.  slow + fast = 1/eps and slow*fast = -mu/eps.
    """

    eps: float
    disc_sqrt: np.ndarray
    slow: np.ndarray
    fast: np.ndarray


def regularized_spectrum(values, eps: float) -> RegularizedSpectrum:
    mu = np.atleast_1d(np.asarray(values, dtype=float))
    z = np.sqrt(admissible_discriminant(mu, eps))
    slow = -2.0 * mu / (1.0 + z)
    fast = (1.0 + z) / (2.0 * eps)
    return RegularizedSpectrum(eps=eps, disc_sqrt=z, slow=slow, fast=fast)


class DecoupledForcing:
    """Eigenbasis forcing coefficients scaled by 1/sqrt(1 + 4*eps*mu).

    For separable forcing the i-th component is a fixed linear combination
    of the time profiles, so scalar evaluation never touches the full
    vector field.
    """

    def __init__(self, eigen: EigenData, spectrum: RegularizedSpectrum, forcing: ForcingTerm):
        self.size = eigen.values.shape[0]
        self.profiles = [p.profile for p in forcing.parts]
        if forcing.is_zero:
            self.coeffs = np.zeros((self.size, 0))
        else:
            V = np.stack([np.asarray(p.space_vec, dtype=float) for p in forcing.parts], axis=1)
            self.coeffs = (eigen.vectors.T @ V) / spectrum.disc_sqrt[:, None]

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[1] == 0 or not np.any(self.coeffs)

    def __call__(self, t):
        """All components at once: (size,) for scalar t, (M, size) for arrays."""
        t_arr = np.asarray(t, dtype=float)
        if not self.profiles:
            shape = (self.size,) if t_arr.ndim == 0 else (t_arr.shape[0], self.size)
            return np.zeros(shape)
        g = np.stack([np.asarray(p(t_arr), dtype=float).reshape(-1) for p in self.profiles], axis=1)
        out = g @ self.coeffs.T
        return out[0] if t_arr.ndim == 0 else out

    def duhamel(self, lam, t: float) -> np.ndarray:
        """Per mode, int_0^t exp(lam_i (t-s)) g_i(s) ds; each profile's kernel spans all modes."""
        out = np.zeros(self.size)
        if not self.is_zero:
            for j, p in enumerate(self.profiles):
                out = out + self.coeffs[:, j] * p.duhamel(lam, t)
        return out

    def tail(self, mu, t: float, growth_rate: float = 0.0) -> np.ndarray:
        """Per mode, int_0^inf exp(-mu_i u) g_i(t+u) du, all modes at once."""
        out = np.zeros(self.size)
        if not self.is_zero:
            for j, p in enumerate(self.profiles):
                out = out + self.coeffs[:, j] * p.shifted_tail(mu, t, growth_rate)
        return out

    def component(self, i: int) -> Callable:
        row = self.coeffs[i]
        profiles = self.profiles

        def gi(t):
            return float(sum(c * p(t) for c, p in zip(row, profiles)))

        return gi


def decoupled_forcing(
    eigen: EigenData, spectrum: RegularizedSpectrum, forcing: ForcingTerm
) -> DecoupledForcing:
    return DecoupledForcing(eigen, spectrum, forcing)


def selection_initial(
    spectrum: RegularizedSpectrum,
    g: DecoupledForcing,
    growth_rate: float = 0.0,
) -> np.ndarray:
    """Fast-branch coefficients at time zero, one tail integral per mode.

    growth_rate bounds the amplitude growth of the scaled forcing so the
    tail kernel can refuse divergent inputs.
    """
    return g.tail(spectrum.fast, 0.0, growth_rate)


class SelectedOdeMinimizer:
    """The unique finite-energy trajectory of the second-order system.

    Callable at any t >= 0; derivative() is analytic, not a difference
    quotient.  Values are memoized per time so energy quadratures and
    pointwise comparisons share evaluations.
    """

    def __init__(self, problem: OdeProblem, eps: float, spec: QuadratureSpec = DEFAULT_SPEC):
        self.problem = problem
        self.eps = float(eps)
        self.spec = spec
        self.eigen = eigendecompose(problem.matrix)
        self.spectrum = regularized_spectrum(self.eigen.values, eps)
        growth = problem.forcing.declared_growth()
        self.growth_rate = growth.rate / 2.0  # envelope was for the squared norm
        self.g = decoupled_forcing(self.eigen, self.spectrum, problem.forcing)
        self.fast_initial = selection_initial(self.spectrum, self.g, self.growth_rate)
        self.slow_initial = self.eigen.project(problem.initial) - self.fast_initial
        self._modes_cache: dict = {}

    def _modes(self, t: float):
        """Slow and fast coefficient vectors at time t, cached."""
        t = float(t)
        hit = self._modes_cache.get(t)
        if hit is not None:
            return hit
        lam = self.spectrum.slow
        slow = _exp_guarded(lam * t) * self.slow_initial + self.g.duhamel(lam, t)
        fast = self.g.tail(self.spectrum.fast, t, self.growth_rate)
        out = (slow, fast)
        self._modes_cache[t] = out
        return out

    def __call__(self, t: float) -> np.ndarray:
        slow, fast = self._modes(t)
        return self.eigen.reconstruct(slow + fast)

    def derivative(self, t: float) -> np.ndarray:
        slow, fast = self._modes(t)
        gt = self.g(float(t))
        d = self.spectrum.slow * slow + gt + self.spectrum.fast * fast - gt
        return self.eigen.reconstruct(d)

    def energy(self, ceiling: float = ENERGY_CEILING):
        return energy_ode(
            self, self.derivative, self.problem.matrix, self.problem.forcing,
            self.eps, self.spec, ceiling=ceiling,
        )


def selected_minimizer(
    problem: OdeProblem, eps: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> SelectedOdeMinimizer:
    return SelectedOdeMinimizer(problem, eps, spec)


class ExactOdeSolution:
    """First-order flow y' = -A*y + f(t), y(0) given, via the eigenbasis."""

    def __init__(self, problem: OdeProblem):
        self.problem = problem
        self.eigen = eigendecompose(problem.matrix)
        self.coeff0 = self.eigen.project(problem.initial)
        if problem.forcing.is_zero:
            self._proj = None
        else:
            V = np.stack(
                [np.asarray(p.space_vec, dtype=float) for p in problem.forcing.parts], axis=1
            )
            self._proj = self.eigen.vectors.T @ V
        self._cache: dict = {}

    def _coeffs(self, t: float) -> np.ndarray:
        t = float(t)
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        mu = self.eigen.values
        with np.errstate(over="raise"):
            c = np.exp(-mu * t) * self.coeff0
        if self._proj is not None:
            for j, part in enumerate(self.problem.forcing.parts):
                c = c + self._proj[:, j] * part.profile.duhamel(-mu, t)
        self._cache[t] = c
        return c

    def __call__(self, t: float) -> np.ndarray:
        return self.eigen.reconstruct(self._coeffs(t))

    def derivative(self, t: float) -> np.ndarray:
        # the flow satisfies its own equation exactly
        y = self(t)
        return -self.problem.matrix @ y + self.problem.forcing.vector(float(t))


def exact_solution(problem: OdeProblem) -> ExactOdeSolution:
    return ExactOdeSolution(problem)


def energy_ode(
    y: Callable,
    dy: Callable,
    matrix,
    forcing: ForcingTerm,
    eps: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    ceiling: float = ENERGY_CEILING,
):
    """Weighted action of an arbitrary trajectory.

    integral exp(-t/eps) [ (eps/2)|y'|^2 + (1/2) y.Ay - f.y ] dt, sampled at
    the substituted Gauss-Laguerre nodes.  Returns (value, crossed_at);
    when the weighted integrand blows past `ceiling` the value is +inf and
    crossed_at is the first offending time.
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    tau, w = _laguerre_rule(spec.nodes)
    vals = np.empty(tau.shape)
    for k, tk in enumerate(tau):
        t = eps * float(tk)
        yv = np.asarray(y(t), dtype=float)
        dv = np.asarray(dy(t), dtype=float)
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
    y_m = minimizer(t - h)
    y_0 = minimizer(t)
    y_p = minimizer(t + h)
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
