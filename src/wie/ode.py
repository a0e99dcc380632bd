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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .forcing import ForcingTerm
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .spectral import FrequencyGrid, SelectedSpectralMinimizer, SemigroupSolution, SpectralProblem

__all__ = [
    "OdeProblem",
    "EigenData",
    "eigendecompose",
    "SelectedOdeMinimizer",
    "selected_minimizer",
    "ExactOdeSolution",
    "exact_solution",
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

    value(t) (also the call) gives the state at any t >= 0, and state(t)
    the pair (value, derivative) from one evaluation.  Every call evaluates
    afresh.
    """

    def value(self, t: float) -> np.ndarray:
        return self.eigen.reconstruct(self._solver.value(t))

    def state(self, t: float):
        value, derivative = self._solver.state(t)
        return self.eigen.reconstruct(value), self.eigen.reconstruct(derivative)

    __call__ = value


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
        """(value, crossed_at, source) of the weighted energy, as SelectedSpectralMinimizer.energy.

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
