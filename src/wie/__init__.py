"""Weighted inertia-energy selection for linear nonlocal diffusion.

The package picks, for each regularization strength, the single
finite-energy solution of the elliptic-in-time equation, compares it with
the exact evolution semigroup, and ships the measurement harness: root
estimate audits, convergence ladders, branch-divergence demos, and a CLI
that turns JSON configs into deterministic reports.
"""

# config is not exported, but the CLI needs it, and importing it first keeps
# the heap compact: a `wie run` of the spectral-wide benchmark config peaks
# lower in resident memory (VmHWM) this way than when the CLI imports config
# after the solver modules (measured figures are in the BENCH_*.json files)
from . import config, symbols
from .spectral import FrequencyGrid, SpectralProblem, minimizer_hat, semigroup_solution

__version__ = "0.1.0"


def __getattr__(name):
    # resolved on first use (PEP 562), so a spectral run never imports wie.ode
    if name == "OdeProblem":
        from .ode import OdeProblem

        return OdeProblem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "OdeProblem",
    "FrequencyGrid",
    "SpectralProblem",
    "minimizer_hat",
    "semigroup_solution",
    "symbols",
]
