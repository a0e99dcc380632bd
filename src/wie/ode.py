"""Finite-dimensional selection: symmetric systems solved by eigenbasis.

The second-order system eps*y'' = y' + A*y - f(t) with y(0) fixed has a
one-parameter family of solutions; exactly one of them keeps the weighted
energy finite.  In the orthonormal eigenbasis of A the system decouples
into one scalar problem per eigenvalue, which is the spectral path's
per-node problem with the eigenvalue as symbol value and unit weight.  So
an OdeProblem projects itself once onto that basis, and the selected
minimizer and the first-order flow y' = -A*y + f(t) are the spectral
solvers (SelectedSpectralMinimizer, SemigroupSolution) run on that modal
view and mapped back.  Both paths thus share one set of kernels, one
energy routine and one admissibility rule, and a convergence study of a
system (lab.convergence_study) is the spectral study of its modal view,
one sweep for both.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .forcing import ForcingTerm
from .quadrature import DEFAULT_SPEC, QuadratureSpec, _ReadOnly
from .spectral import SelectedSpectralMinimizer, SemigroupSolution, _Distinct, _distinct

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


class _ModalView(NamedTuple):
    """An OdeProblem in its eigenbasis, in the form the spectral solvers read.

    The eigenvalues stand where symbol values do, each with weight one, so a
    repeated eigenvalue is just a repeated node, and distinct maps the
    modes onto the distinct eigenvalues as on a spectral problem.  Every
    array is real.
    """

    symbol_values: np.ndarray
    distinct: _Distinct  # of symbol_values
    weights: np.ndarray
    initial_hat: np.ndarray
    forcing_parts: tuple  # (profile, eigenbasis coordinates of the part's vector)
    amplitude_growth_rate: float

    def forcing_values(self, t: float) -> np.ndarray:
        out = np.zeros(self.symbol_values.shape)
        for profile, H in self.forcing_parts:
            out += profile(float(t)) * H
        return out


class OdeProblem(_ReadOnly):
    """Symmetric system data: matrix, initial state, forcing term.

    Construction decomposes the matrix once (eigen, or ValueError when it
    is not symmetric) and projects the problem onto that basis for the
    solvers.
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
        modal = _ModalView(
            symbol_values=eigen.values,
            distinct=_distinct(eigen.values),
            weights=np.ones(A.shape[0]),
            initial_hat=eigen.project(y0),
            forcing_parts=tuple((p.profile, h) for p, h in zip(f.parts, columns)),
            # the declared envelope covers the squared norm; amplitudes grow half as fast
            amplitude_growth_rate=f.declared_growth().rate / 2.0,
        )
        vars(self).update(matrix=A, initial=y0, forcing=f, eigen=eigen, _modal=modal)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class _MappedBack:
    """A spectral solver's trajectory on the modal view, in the system's coordinates.

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

    def __init__(self, problem: OdeProblem, eps: float, spec: QuadratureSpec = DEFAULT_SPEC):
        self.problem = problem
        self.eps = float(eps)
        self.spec = spec
        self.eigen = problem.eigen
        self._solver = SelectedSpectralMinimizer(problem._modal, eps)
        self.spectrum = self._solver.roots

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]

    def energy(self):
        """(value, crossed_at, source) of the weighted energy, as SelectedSpectralMinimizer.energy.

        The basis is orthonormal, so the modal energy is the system's.
        """
        return self._solver.energy(self.spec)


def selected_minimizer(
    problem: OdeProblem, eps: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> SelectedOdeMinimizer:
    return SelectedOdeMinimizer(problem, eps, spec)


class ExactOdeSolution(_MappedBack):
    """First-order flow y' = -A*y + f(t), y(0) given: the semigroup on the eigenbasis."""

    def __init__(self, problem: OdeProblem):
        self.problem = problem
        self.eigen = problem.eigen
        self._solver = SemigroupSolution(problem._modal)

    def derivative(self, t: float) -> np.ndarray:
        return self.state(t)[1]


def exact_solution(problem: OdeProblem) -> ExactOdeSolution:
    return ExactOdeSolution(problem)
