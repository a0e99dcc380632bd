"""The benchmark's workloads: seeded `wie run` configs and why each exists.

Every config is plain JSON whose numbers are `repr` decimal strings, so the
program parses back exactly the floats generated here.  Only `ode-forced`
draws from the seed; the other three are fixed problems, so the same seed
trivially gives the same inputs.  Every forcing profile is exponential,
because the correctness oracle (oracle.py) has closed forms for that kind
only.
"""

from __future__ import annotations

import numpy as np

LADDER = ("1e-1", "1e-2", "1e-3", "1e-4")
HORIZON = "1.0"
TIME_POINTS = 201

# ode-forced: the recipe of scripts/run_ode_convergence.py at size 8
ODE_SIZE = 8
ODE_PARTS = ((1.0, -0.3), (0.7, -1.2))  # (amplitude, rate) of each exponential part

# spectral workloads: fractional s=0.5 on an FFT grid, unit Gaussian data
SPECTRAL_S = 0.5
SPECTRAL_DX = 0.125
SPECTRAL_FORCING = (0.5, -1.0)  # exponential(0.5, -1.0) x unit Gaussian multiplier

# lemma-tech: density t^-0.5
LEMMA_DEGREE = -0.5


def _num(x: float) -> str:
    return repr(float(x))


def _spectral(problem_id: str, n: int, forced: bool, write_field: bool) -> dict:
    cfg = {
        "schema_version": 1,
        "mode": "spectral",
        "problem_id": problem_id,
        "symbol": {"kind": "fractional", "s": _num(SPECTRAL_S)},
        "frequency_grid": {"kind": "uniform_fft", "n": n, "dx": _num(SPECTRAL_DX)},
        "initial": {"kind": "gaussian", "amplitude": "1.0", "variance": "1.0"},
        "epsilon_ladder": list(LADDER),
        "horizon": HORIZON,
        "time_points": TIME_POINTS,
    }
    if forced:
        amp, rate = SPECTRAL_FORCING
        cfg["forcing"] = {
            "parts": [
                {
                    "profile": {"kind": "exponential", "amplitude": _num(amp), "rate": _num(rate)},
                    "multiplier": {"kind": "gaussian", "amplitude": "1.0", "variance": "1.0"},
                }
            ]
        }
    if write_field:
        cfg["output"] = {"write_field": True}
    return cfg


def spectral_forced(seed: int) -> dict:
    return _spectral("spectral-forced", 4096, forced=True, write_field=False)


def spectral_wide(seed: int) -> dict:
    return _spectral("spectral-wide", 65536, forced=False, write_field=True)


def ode_forced(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((ODE_SIZE, ODE_SIZE)))
    matrix = q @ np.diag(rng.uniform(0.2, 2.5, ODE_SIZE)) @ q.T
    matrix = 0.5 * (matrix + matrix.T)
    y0 = rng.standard_normal(ODE_SIZE)
    parts = [
        {
            "profile": {"kind": "exponential", "amplitude": _num(amp), "rate": _num(rate)},
            "vector": [_num(x) for x in rng.standard_normal(ODE_SIZE)],
        }
        for amp, rate in ODE_PARTS
    ]
    return {
        "schema_version": 1,
        "mode": "ode",
        "problem_id": f"ode-forced-seed{seed}",
        "matrix": [[_num(x) for x in row] for row in matrix],
        "initial": [_num(x) for x in y0],
        "forcing": {"parts": parts},
        "epsilon_ladder": list(LADDER),
        "horizon": HORIZON,
        "time_points": TIME_POINTS,
    }


def lemma_sqrt(seed: int) -> dict:
    return {
        "schema_version": 1,
        "mode": "lemma-tech",
        "problem_id": "lemma-sqrt",
        "density": {"kind": "power", "amplitude": "1.0", "degree": _num(LEMMA_DEGREE)},
        "epsilon_ladder": list(LADDER),
        "horizon": HORIZON,
    }


# name -> (function making the config from a seed, why the workload exists)
WORKLOADS = {
    "spectral-forced": (
        spectral_forced,
        "forced spectral study, n=4096: batched convolution and Laplace tail dominate",
    ),
    "ode-forced": (
        ode_forced,
        "seeded forced 8x8 system: scalar adaptive quadrature and per-mode Python loops",
    ),
    "spectral-wide": (
        spectral_wide,
        "unforced n=65536 with a field dump: bypasses every forcing kernel; array work and memory",
    ),
    "lemma-sqrt": (
        lemma_sqrt,
        "lemma-tech sweep of t^-0.5: almost all finite_interval, the layer no other workload keeps",
    ),
}
