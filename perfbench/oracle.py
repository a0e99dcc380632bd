"""Correctness oracle: every rung of a report against an exact reference.

The reference never comes from the program.  Each workload is a set of
independent scalar modes -- eigencoordinates of the ODE matrix, or nodes
of the frequency grid -- with rate L >= 0, initial value c0 and forcing
sum_k b_k exp(r_k t).  For exponential profiles both trajectories are
closed forms:

    first-order flow   c(t) = c0 exp(-L t) + sum_k b_k D(r_k, -L, t)
    selected minimizer c(t) = c0 exp(s t)  + sum_k b_k / (eps (f - r_k)) D(r_k, s, t)

with s < 0 < f the roots of eps r^2 - r - L = 0 and
D(a, b, t) = (exp(a t) - exp(b t)) / (a - b), evaluated through expm1 so
nearly equal rates do not cancel.  The weighted energy is integrated from
the closed-form trajectory with composite Gauss-Legendre on [0, 80 eps]
(the weight exp(-t/eps) is below 2e-35 beyond).  Power and sampled
profiles have no closed form here, so the oracle does not cover them.

Tolerances follow the accuracy contract of QuadratureSpec,
|result - exact| <= abs_tol + rel_tol*|exact|, propagated to each checked
number (see `check_study`).  The lemma-tech sweep of t^-1/2 is checked
against sup = sqrt(pi*eps)*erf(sqrt(T/eps)) at argmax 0.
"""

from __future__ import annotations

import math

import numpy as np

# QuadratureSpec defaults; the benchmark configs do not override them
ABS_TOL = 1e-12
REL_TOL = 1e-10

_PANELS = 40  # composite rule on tau = t/eps in [0, 80]
_GL_NODES = 16
_TAU_MAX = 80.0
_CHUNK = 1 << 20  # modes x times per block


def _phi_divided(a, b, t):
    """D(a, b, t) = (exp(a t) - exp(b t)) / (a - b), stable as a -> b."""
    x = (a - b) * t
    small = np.abs(x) < 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (np.exp(a * t) - np.exp(b * t)) / (a - b)
        phi1 = np.where(x == 0.0, 1.0, np.expm1(x) / np.where(x == 0.0, 1.0, x))
    return np.where(small, np.exp(b * t) * t * phi1, direct)


class Modes:
    """Independent scalar modes: rates L, weights w, c0, forcing (b_k, r_k)."""

    def __init__(self, rates, weights, initial, amplitudes=(), forcing_rates=()):
        self.rates = np.asarray(rates, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.initial = np.asarray(initial, dtype=float)
        self.amplitudes = [np.asarray(b, dtype=float) for b in amplitudes]
        self.forcing_rates = [float(r) for r in forcing_rates]

    def forcing(self, t):
        out = np.zeros(np.broadcast_shapes(np.shape(t), self.rates.shape))
        for b, r in zip(self.amplitudes, self.forcing_rates):
            out = out + b * np.exp(r * t)
        return out

    def flow(self, t):
        lam = self.rates
        out = self.initial * np.exp(-lam * t)
        for b, r in zip(self.amplitudes, self.forcing_rates):
            out = out + b * _phi_divided(r, -lam, t)
        return out

    def roots(self, eps):
        z = np.sqrt(1.0 + 4.0 * eps * self.rates)
        return -2.0 * self.rates / (1.0 + z), (1.0 + z) / (2.0 * eps)

    def selected(self, eps, t):
        """(value, derivative) of the finite-energy minimizer at times t."""
        s, f = self.roots(eps)
        es = np.exp(s * t)
        val = self.initial * es
        der = s * val
        for b, r in zip(self.amplitudes, self.forcing_rates):
            beta = b / (eps * (f - r))
            d = _phi_divided(r, s, t)
            val = val + beta * d
            der = der + beta * (np.exp(r * t) + s * d)
        return val, der


def _block_size(n_modes: int) -> int:
    """Times per block, so one block holds about _CHUNK values."""
    return max(1, _CHUNK // max(n_modes, 1))


def sup_distance(modes: Modes, eps: float, times, graph_norm: bool):
    """(max_t ||selected - flow||, contract tolerance of that number)."""
    w = modes.weights * ((1.0 + np.abs(modes.rates)) if graph_norm else 1.0)
    sup = tol = 0.0
    times = np.asarray(times, dtype=float)
    step = _block_size(modes.rates.size)
    for lo in range(0, times.size, step):
        t = times[lo : lo + step, None]
        sel, _ = modes.selected(eps, t)
        ref = modes.flow(t)
        dist = np.sqrt(np.sum(w * (sel - ref) ** 2, axis=1))
        # each program value may be off by abs_tol + rel_tol*|value|
        slack = 2.0 * ABS_TOL + REL_TOL * (np.abs(sel) + np.abs(ref))
        sup = max(sup, float(dist.max()))
        tol = max(tol, float(np.sqrt(np.sum(w * slack**2, axis=1)).max()))
    return sup, tol


def _energy_rule():
    x, wx = np.polynomial.legendre.leggauss(_GL_NODES)
    width = _TAU_MAX / _PANELS
    left = np.arange(_PANELS) * width
    tau = (left[:, None] + 0.5 * width * (x + 1.0)).ravel()
    wts = np.tile(0.5 * width * wx, _PANELS)
    return tau, wts


def energy(modes: Modes, eps: float):
    """(weighted energy, contract tolerance) of the selected minimizer.

    integral exp(-t/eps) [ (eps/2)|u'|^2 + (1/2) L u^2 - f u ] dt, summed
    with the mode weights.  The tolerance is the rule's own contract plus
    the propagated per-value contract of the program's trajectory, both
    scaled by the same integral with every term taken in absolute value.
    """
    tau, wts = _energy_rule()
    value = magnitude = 0.0
    w, lam = modes.weights, modes.rates
    step = _block_size(lam.size)
    for lo in range(0, tau.size, step):
        tk = tau[lo : lo + step]
        wk = wts[lo : lo + step] * np.exp(-tk)
        t = eps * tk[:, None]
        u, du = modes.selected(eps, t)
        f = modes.forcing(t)
        kinetic = 0.5 * eps * du**2
        potential = 0.5 * lam * u**2
        work = f * u
        value += float(wk @ np.sum(w * (kinetic + potential - work), axis=1))
        magnitude += float(wk @ np.sum(w * (kinetic + np.abs(potential) + np.abs(work)), axis=1))
    value *= eps
    magnitude *= eps
    # relative slack: rule contract (1) plus first-order propagation (2)
    return value, ABS_TOL + 3.0 * REL_TOL * magnitude


def ode_modes(config: dict) -> Modes:
    matrix = np.array([[float(x) for x in row] for row in config["matrix"]])
    values, vectors = np.linalg.eigh(matrix)
    initial = vectors.T @ np.array([float(x) for x in config["initial"]])
    parts = config.get("forcing", {}).get("parts", [])
    amplitudes, rates = [], []
    for part in parts:
        profile = part["profile"]
        if profile["kind"] != "exponential":
            raise ValueError("the oracle covers exponential profiles only")
        vec = np.array([float(x) for x in part["vector"]])
        amplitudes.append(float(profile.get("amplitude", 1.0)) * (vectors.T @ vec))
        rates.append(float(profile.get("rate", 0.0)))
    return Modes(values, np.ones_like(values), initial, amplitudes, rates)


def _gaussian(spec: dict, xi):
    if spec["kind"] != "gaussian":
        raise ValueError("the oracle covers Gaussian data and multipliers only")
    a = float(spec.get("amplitude", 1.0))
    v = float(spec.get("variance", 1.0))
    return a * np.exp(-0.5 * v * xi**2)


def spectral_modes(config: dict) -> Modes:
    grid = config["frequency_grid"]
    symbol = config["symbol"]
    if grid["kind"] != "uniform_fft" or symbol["kind"] != "fractional":
        raise ValueError("the oracle covers fractional symbols on uniform FFT grids only")
    n, dx = int(grid["n"]), float(grid["dx"])
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    weights = np.full(n, 2.0 * np.pi / (n * dx))
    rates = np.abs(xi) ** (2.0 * float(symbol["s"]))
    amplitudes, frates = [], []
    for part in config.get("forcing", {}).get("parts", []):
        profile = part["profile"]
        if profile["kind"] != "exponential":
            raise ValueError("the oracle covers exponential profiles only")
        amplitudes.append(float(profile.get("amplitude", 1.0)) * _gaussian(part["multiplier"], xi))
        frates.append(float(profile.get("rate", 0.0)))
    return Modes(rates, weights, _gaussian(config["initial"], xi), amplitudes, frates)


def check_study(config: dict, report: dict) -> list:
    """One check dict per rung of an ode or spectral study report."""
    modes = ode_modes(config) if config["mode"] == "ode" else spectral_modes(config)
    norm = config.get("norm", "sup_uniform" if config["mode"] == "ode" else "sup_vl")
    times = np.linspace(0.0, float(config["horizon"]), int(config.get("time_points", 201)))
    entries = report["results"]["study"]["entries"]
    checks = []
    for rung, eps_raw in enumerate(config["epsilon_ladder"]):
        eps = float(eps_raw)
        entry = entries[rung] if rung < len(entries) else None
        sup, sup_tol = sup_distance(modes, eps, times, graph_norm=(norm == "sup_vl"))
        e_val, e_tol = energy(modes, eps)
        problems = []
        if entry is None or entry.get("failure") is not None:
            problems.append(f"rung failed: {entry and entry.get('failure')}")
        else:
            if not abs(entry["sup_error"] - sup) <= sup_tol:
                problems.append(f"sup_error {entry['sup_error']!r} vs exact {sup!r} (tol {sup_tol:.3g})")
            if not abs(entry["energy"] - e_val) <= e_tol:
                problems.append(f"energy {entry['energy']!r} vs exact {e_val!r} (tol {e_tol:.3g})")
            if entry["audit_violations"] != 0:
                problems.append(f"audit_violations {entry['audit_violations']} != 0")
        checks.append({"epsilon": eps, "ok": not problems, "problems": problems})
    return checks


def lemma_exact_sup(eps: float, horizon: float) -> float:
    """sup_t int_t^T exp(-(s-t)/eps) s^-1/2 ds, attained at t = 0."""
    return math.sqrt(math.pi * eps) * math.erf(math.sqrt(horizon / eps))


def check_lemma(config: dict, report: dict) -> list:
    density = config["density"]
    if density["kind"] != "power" or float(density["degree"]) != -0.5:
        raise ValueError("the lemma oracle covers the density t^-1/2 only")
    amp = float(density.get("amplitude", 1.0))
    horizon = float(config["horizon"])
    entries = report["results"]["entries"]
    checks = []
    for rung, eps_raw in enumerate(config["epsilon_ladder"]):
        eps = float(eps_raw)
        entry = entries[rung] if rung < len(entries) else None
        exact = abs(amp) * lemma_exact_sup(eps, horizon)
        tol = ABS_TOL + REL_TOL * exact
        problems = []
        if entry is None or entry.get("failure") is not None:
            problems.append(f"rung failed: {entry and entry.get('failure')}")
        else:
            if not abs(entry["sup"] - exact) <= tol:
                problems.append(
                    f"sup {entry['sup']!r} vs exact {exact!r} "
                    f"(error {entry['sup'] - exact:.3g}, tol {tol:.3g})"
                )
            if entry["argmax"] != 0.0:
                problems.append(f"argmax {entry['argmax']!r} != 0")
        checks.append({"epsilon": eps, "ok": not problems, "problems": problems})
    return checks


def check(config: dict, report: dict) -> list:
    """Per-rung checks of a report; a false verdict or an unreadable report
    fails every rung."""
    try:
        if config["mode"] == "lemma-tech":
            checks = check_lemma(config, report)
        else:
            checks = check_study(config, report)
    except (KeyError, IndexError, TypeError) as exc:
        return [
            {"epsilon": float(e), "ok": False, "problems": [f"report lacks {exc!r}"]}
            for e in config["epsilon_ladder"]
        ]
    bad = sorted(k for k, ok in report.get("verdicts", {}).items() if not ok)
    if bad:
        for c in checks:
            c["ok"] = False
            c["problems"].append(f"verdicts failed: {', '.join(bad)}")
    return checks
