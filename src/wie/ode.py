"""Finite-dimensional selection: symmetric systems solved by eigenbasis.

The second-order system eps*y'' = y' + A*y - f(t) with y(0) fixed has a
one-parameter family of solutions; exactly one of them keeps the weighted
energy finite.  In the orthonormal eigenbasis of A the system decouples
into one scalar problem per eigenvalue, which is the spectral path's
per-node problem with the eigenvalue as symbol value and unit weight.  So
an OdeProblem is a SpectralProblem: it projects itself once onto that
basis, on an explicit grid whose nodes are the eigenvalues, and every
solver, study and report reads it as one.  The selected minimizer and the
first-order flow y' = -A*y + f(t) are the spectral solvers
(SelectedSpectralMinimizer, SemigroupSolution) run on it and mapped back
to the system's coordinates.  Both paths thus share one set of kernels,
one energy routine, one admissibility rule and one convergence sweep.
branch_divergence perturbs the selection and watches the energy explode.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .contract import DEFAULT_SPEC, ExponentOverflowError, QuadratureFailure, QuadratureSpec
from .forcing import ForcingTerm
from .spectral import FrequencyGrid, SelectedSpectralMinimizer, SemigroupSolution, SpectralProblem

__all__ = [
    "OdeProblem",
    "EigenData",
    "eigendecompose",
    "SelectedOdeMinimizer",
    "selected_minimizer",
    "ExactOdeSolution",
    "exact_solution",
    "BranchDivergenceResult",
    "branch_divergence",
]


class EigenData(NamedTuple):
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


class OdeProblem(SpectralProblem):
    """Symmetric system data: matrix, initial state, forcing term.

    Construction decomposes the matrix once (eigen, or ValueError when it
    is not symmetric) and poses the system in that basis as the spectral
    problem of its modes: the eigenvalues are the nodes of an explicit
    grid with unit weights and the symbol values, so a repeated eigenvalue
    is just a repeated node.  There is no multiplier symbol (symbol is
    None), and every array is real.
    """

    def __init__(self, matrix: np.ndarray, initial: np.ndarray, forcing: ForcingTerm):
        A = np.atleast_2d(np.asarray(matrix, dtype=float))
        y0 = np.atleast_1d(np.asarray(initial, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if y0.shape != (A.shape[0],):
            raise ValueError(f"initial state has shape {y0.shape}, matrix is {A.shape}")
        if forcing.mode == "spectral":
            raise ValueError("system forcing must use coordinate vectors")
        f = forcing
        if f.is_zero and f.dim is None:
            f = ForcingTerm.zero(dim=A.shape[0])
        elif f.dim != A.shape[0]:
            raise ValueError(f"forcing dimension {f.dim} does not match system size {A.shape[0]}")
        eigen = eigendecompose(A)
        columns = ()
        if f.parts:
            # one matrix product for all parts: the closed-form energies are pinned to its bits
            columns = eigen.project(np.stack([p.space_vec for p in f.parts], axis=1)).T
        vars(self).update(
            matrix=A,
            initial=y0,
            forcing=f,
            eigen=eigen,
            grid=FrequencyGrid.explicit(eigen.values, np.ones(A.shape[0])),
            symbol=None,
            symbol_values=eigen.values,
            initial_hat=eigen.project(y0),
            forcing_parts=tuple((p.profile, h) for p, h in zip(f.parts, columns)),
        )

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def forcing_gram(self) -> np.ndarray:
        """Euclidean Gram matrix of the coordinate vectors, which the orthonormal basis keeps."""
        return self.forcing.gram()


class _MappedBack:
    """A spectral solver's trajectory on the modes, in the system's coordinates.

    value(t) gives the state at any t >= 0, and state(t) the pair (value,
    derivative) from one evaluation.  Every call evaluates afresh.
    """

    def value(self, t: float) -> np.ndarray:
        return self.eigen.reconstruct(self._solver.value(t))

    def state(self, t: float):
        value, derivative = self._solver.state(t)
        return self.eigen.reconstruct(value), self.eigen.reconstruct(derivative)


class SelectedOdeMinimizer(_MappedBack):
    """The unique finite-energy trajectory of the second-order system.

    The spectral minimizer on the eigenbasis, with its roots (spectrum, one
    per distinct eigenvalue) checked against the whole estimate bundle as on
    the spectral path.
    derivative() is analytic, not a difference quotient.
    """

    def __init__(self, problem: OdeProblem, eps: float):
        self.problem = problem
        self.eps = float(eps)
        self.eigen = problem.eigen
        self._solver = SelectedSpectralMinimizer(problem, eps)
        self.spectrum = self._solver.roots

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]

    def energy(self, spec: QuadratureSpec = DEFAULT_SPEC):
        """(value, source) of the weighted energy, as SelectedSpectralMinimizer.energy.

        The basis is orthonormal, so the modal energy is the system's.
        """
        return self._solver.energy(spec)


def selected_minimizer(problem: OdeProblem, eps: float) -> SelectedOdeMinimizer:
    return SelectedOdeMinimizer(problem, eps)


class ExactOdeSolution(_MappedBack):
    """First-order flow y' = -A*y + f(t), y(0) given: the semigroup on the eigenbasis."""

    def __init__(self, problem: OdeProblem):
        self.problem = problem
        self.eigen = problem.eigen
        self._solver = SemigroupSolution(problem)

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]


def exact_solution(problem: OdeProblem) -> ExactOdeSolution:
    return ExactOdeSolution(problem)


class BranchDivergenceResult(NamedTuple):
    """Truncated weighted energies of a perturbed selection, per horizon.

    log_energies is always populated: the log of the numerical integral
    where it is representable, and of the closed-form leading term beyond
    the overflow horizon.  numeric_energies holds None past that point.
    """

    eps: float
    delta: float
    direction: int
    horizons: tuple
    numeric_energies: tuple
    log_energies: tuple
    closed_form_log: tuple
    slopes: tuple

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "delta": self.delta,
            "direction": self.direction,
            "horizons": list(self.horizons),
            "numeric_energies": list(self.numeric_energies),
            "log_energies": list(self.log_energies),
            "closed_form_log": list(self.closed_form_log),
            "slopes": list(self.slopes),
        }


def _log_leading_term(delta: float, eps: float, z: float, horizon: float) -> Optional[float]:
    """log of (delta^2 eps / Z) (exp(Z T / eps) - 1), computed stably."""
    if delta == 0.0:
        return None
    x = z * horizon / eps
    return 2.0 * math.log(abs(delta)) + math.log(eps / z) + x + math.log1p(-math.exp(-x))


def branch_divergence(
    problem: OdeProblem,
    eps: float,
    delta: float,
    horizons: Sequence[float],
    direction: int = 0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> BranchDivergenceResult:
    """Push the fast-branch initial coefficient off the selected value.

    The perturbed trajectory keeps the same initial state: the slow branch
    absorbs -delta while the fast branch takes +delta, in eigendirection
    `direction`.  Per horizon T the result records the truncated weighted
    energy int_0^T exp(-t/eps) |y(t)|^2 dt.  delta = 0 reproduces the
    selected trajectory, whose truncated energy saturates.  Each energy
    meets the QuadratureSpec contract abs_tol + rel_tol*|value| by its
    error estimate, or the call raises QuadratureFailure naming eps and T;
    a trajectory past the exponent cap raises ExponentOverflowError, named
    the same way.  Either error carries as `completed` the result of the
    horizons before T, the same as a call with those horizons alone gives
    (None when T is the first).
    """
    from .quadrature import finite_interval  # an ODE study never compiles the adaptive engine
    horizons = [float(T) for T in horizons]
    if any(T <= 0.0 for T in horizons) or any(
        b <= a for a, b in zip(horizons, horizons[1:])
    ):
        raise ValueError("horizons must be positive and strictly increasing")
    m = selected_minimizer(problem, eps)
    i = int(direction)
    if not 0 <= i < problem.size:
        raise ValueError(f"direction {i} out of range for a system of size {problem.size}")
    k = int(problem.distinct.inverse[i])  # the roots are per distinct eigenvalue
    lam = float(m.spectrum.slow[k])
    mu = float(m.spectrum.fast[k])
    z = float(m.spectrum.disc_sqrt[k])
    w = m.eigen.vectors[:, i]
    half_rate = 0.5 / eps

    def weighted_sq(t: float) -> float:
        # exp(-t/eps) |y(t)|^2, the weight split and folded in before squaring
        y = math.exp(-half_rate * t) * m.value(t)
        if delta != 0.0:
            bump = delta * (math.exp((mu - half_rate) * t) - math.exp((lam - half_rate) * t))
            y = y + bump * w
        return float(y @ y)

    def member(T: float):
        lead_log = _log_leading_term(delta, eps, z, T)
        # integrand peak ~ delta^2 exp(Z T / eps); stay inside double range
        if delta != 0.0 and (z * T / eps + 2.0 * math.log(abs(delta))) > 690.0:
            return None, lead_log, lead_log
        scale = math.exp(lead_log) if lead_log is not None else 1.0
        where = f"branch divergence at eps={eps:g}, T={T:g}"
        tol = spec.abs_tol + spec.rel_tol * scale
        try:
            for _attempt in range(2):
                val, err = finite_interval(weighted_sq, 0.0, T, tol, max_panels=spec.max_panels)
                bound = spec.abs_tol + spec.rel_tol * abs(val)
                if err <= bound:
                    break
                # the value came out below the scale asked for: ask at its own contract
                tol = 0.5 * bound
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"{where}: {exc}", partial=exc.partial, error_estimate=exc.error_estimate
            ) from exc
        except ExponentOverflowError as exc:
            raise ExponentOverflowError(f"{where}: {exc}") from exc
        if err > bound:
            raise QuadratureFailure(
                f"{where}: error estimate {err:.3e} misses the contract {bound:.3e}",
                partial=val,
                error_estimate=err,
            )
        return float(val), (math.log(val) if val > 0.0 else -math.inf), lead_log

    def result(rows) -> BranchDivergenceResult:
        numeric, logs, closed = (tuple(r[k] for r in rows) for k in range(3))
        slopes = tuple(
            (lb - la) / (Tb - Ta)
            for (la, lb, Ta, Tb) in zip(logs, logs[1:], horizons, horizons[1:])
        )
        return BranchDivergenceResult(
            eps=float(eps),
            delta=float(delta),
            direction=i,
            horizons=tuple(horizons[: len(rows)]),
            numeric_energies=numeric,
            log_energies=logs,
            closed_form_log=closed,
            slopes=slopes,
        )

    rows = []
    for T in horizons:
        try:
            rows.append(member(T))
        except (QuadratureFailure, ExponentOverflowError) as exc:
            exc.completed = result(rows) if rows else None
            raise
    return result(rows)
