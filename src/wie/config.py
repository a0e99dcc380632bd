"""Experiment configs: versioned JSON in, validated problem objects out.

The validator walks the whole document and reports every violation it can
find in one pass, so a config author fixes a file once instead of playing
whack-a-mole with first-error-only messages.  Numbers may be written as
decimal strings ("1e-4") to survive the round trip into reports verbatim.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, NamedTuple, Optional, Tuple

import numpy as np

from .forcing import (
    ForcingTerm,
    GrowthClass,
    TimeProfile,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .spectral import FrequencyGrid, SpectralProblem
from .symbols import EpsilonPolicy, MultiplierSymbol, build_symbol

SCHEMA_VERSION = 1

MODES = ("ode", "spectral", "lemma-tech", "branch-divergence", "bound-audit")


class ConfigError(ValueError):
    """Carries the full list of schema violations, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}" if path else msg)
        return None


# ---- Scalar coercion ----


def _number(c: _Collector, raw: Any, path: str) -> Optional[float]:
    """Accept JSON numbers and decimal strings; reject everything else."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        return c.fail(path, f"expected a number or decimal string, got {type(raw).__name__}")
    try:
        val = float(raw)
    except ValueError:
        return c.fail(path, f"cannot parse {raw!r} as a number")
    if not math.isfinite(val):
        return c.fail(path, "must be finite")
    return val


def _integer(c: _Collector, raw: Any, path: str) -> Optional[int]:
    if isinstance(raw, bool):
        return c.fail(path, "expected an integer, got a boolean")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            return c.fail(path, f"cannot parse {raw!r} as an integer")
    return c.fail(path, f"expected an integer, got {type(raw).__name__}")


def _vector(c: _Collector, raw: Any, path: str) -> Optional[Tuple[float, ...]]:
    if not isinstance(raw, list) or not raw:
        return c.fail(path, "expected a non-empty list of numbers")
    out = []
    ok = True
    for i, x in enumerate(raw):
        v = _number(c, x, f"{path}[{i}]")
        if v is None:
            ok = False
        else:
            out.append(v)
    return tuple(out) if ok else None


def _matrix(c: _Collector, raw: Any, path: str) -> Optional[np.ndarray]:
    if not isinstance(raw, list) or not raw:
        return c.fail(path, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(raw):
        r = _vector(c, row, f"{path}[{i}]")
        if r is None:
            return None
        rows.append(r)
    if len({len(r) for r in rows}) != 1:
        return c.fail(path, "rows have unequal lengths")
    return np.asarray(rows, dtype=float)


def _reject_unknown(c: _Collector, d: dict, path: str, allowed) -> None:
    for key in d:
        if key not in allowed:
            c.fail(f"{path}.{key}" if path else key, "unknown key")


def _dict(c: _Collector, raw: Any, path: str) -> Optional[dict]:
    if not isinstance(raw, dict):
        return c.fail(path, f"expected an object, got {type(raw).__name__}")
    return raw


# ---- Component builders ----


def _profile(c: _Collector, raw: Any, path: str):
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "constant":
        _reject_unknown(c, d, path, {"kind", "amplitude"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        return None if a is None else constant_profile(a)
    if kind == "exponential":
        _reject_unknown(c, d, path, {"kind", "amplitude", "rate"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        r = _number(c, d.get("rate", 0.0), f"{path}.rate")
        return None if a is None or r is None else exponential_profile(a, r)
    if kind == "power":
        _reject_unknown(c, d, path, {"kind", "amplitude", "degree"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        p = _number(c, d.get("degree", 1.0), f"{path}.degree")
        if a is None or p is None:
            return None
        if p < 0.0:
            return c.fail(f"{path}.degree", "forcing profiles need degree >= 0")
        return power_profile(a, p)
    if kind == "sampled":
        _reject_unknown(c, d, path, {"kind", "times", "values"})
        t = _vector(c, d.get("times"), f"{path}.times")
        v = _vector(c, d.get("values"), f"{path}.values")
        if t is None or v is None:
            return None
        if len(t) != len(v):
            return c.fail(path, "times and values have different lengths")
        return sampled_profile(t, v)
    return c.fail(f"{path}.kind", f"unknown profile kind {kind!r}")


def _growth(c: _Collector, raw: Any, path: str) -> Optional[GrowthClass]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    scale = _number(c, d.get("scale", 1.0), f"{path}.scale")
    if scale is None:
        return None
    if kind == "bounded":
        _reject_unknown(c, d, path, {"kind", "scale"})
        return GrowthClass.bounded(scale)
    if kind == "polynomial":
        _reject_unknown(c, d, path, {"kind", "scale", "degree"})
        deg = _number(c, d.get("degree", 1.0), f"{path}.degree")
        return None if deg is None else GrowthClass.polynomial(deg, scale)
    if kind == "subexponential":
        _reject_unknown(c, d, path, {"kind", "scale", "rate"})
        rate = _number(c, d.get("rate"), f"{path}.rate")
        return None if rate is None else GrowthClass.subexponential(rate, scale)
    return c.fail(f"{path}.kind", f"unknown growth kind {kind!r}")


def _multiplier_fn(c: _Collector, raw: Any, path: str) -> Optional[Callable]:
    """Spatial factor of a frequency-side forcing part, as a callable of xi."""
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "constant":
        _reject_unknown(c, d, path, {"kind", "amplitude"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        return None if a is None else (lambda xi, a=a: a * np.ones_like(np.asarray(xi, dtype=float)))
    if kind == "gaussian":
        _reject_unknown(c, d, path, {"kind", "amplitude", "variance"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        v = _number(c, d.get("variance", 1.0), f"{path}.variance")
        if a is None or v is None:
            return None
        if v <= 0.0:
            return c.fail(f"{path}.variance", "must be positive")
        return lambda xi, a=a, v=v: a * np.exp(-0.5 * v * np.asarray(xi, dtype=float) ** 2)
    if kind == "table":
        _reject_unknown(c, d, path, {"kind", "xi", "values"})
        x = _vector(c, d.get("xi"), f"{path}.xi")
        vals = _vector(c, d.get("values"), f"{path}.values")
        if x is None or vals is None:
            return None
        if len(x) != len(vals):
            return c.fail(path, "xi and values have different lengths")
        xs = np.asarray(x)
        vs = np.asarray(vals)
        order = np.argsort(xs)
        xs, vs = xs[order], vs[order]
        return lambda xi, xs=xs, vs=vs: np.interp(np.asarray(xi, dtype=float), xs, vs)
    return c.fail(f"{path}.kind", f"unknown multiplier kind {kind!r}")


def _forcing(c: _Collector, raw: Any, path: str, space: str) -> Optional[ForcingTerm]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    _reject_unknown(c, d, path, {"parts", "growth"})
    parts_raw = d.get("parts")
    if not isinstance(parts_raw, list):
        return c.fail(f"{path}.parts", "expected a list of parts")
    growth = None
    if "growth" in d:
        growth = _growth(c, d["growth"], f"{path}.growth")
        if growth is None:
            return None
    items = []
    ok = True
    for i, part_raw in enumerate(parts_raw):
        ppath = f"{path}.parts[{i}]"
        part = _dict(c, part_raw, ppath)
        if part is None:
            ok = False
            continue
        space_key = "vector" if space == "vector" else "multiplier"
        _reject_unknown(c, part, ppath, {"profile", space_key})
        prof = _profile(c, part.get("profile"), f"{ppath}.profile")
        if space == "vector":
            vec = _vector(c, part.get("vector"), f"{ppath}.vector")
            if prof is None or vec is None:
                ok = False
            else:
                items.append((prof, vec))
        else:
            mult = _multiplier_fn(c, part.get("multiplier"), f"{ppath}.multiplier")
            if prof is None or mult is None:
                ok = False
            else:
                items.append((prof, mult))
    if not ok:
        return None
    if not items:
        return ForcingTerm.zero()
    if space == "vector":
        return ForcingTerm.from_vectors(items, growth=growth)
    return ForcingTerm.from_multipliers(items, growth=growth)


def _symbol(c: _Collector, raw: Any, path: str) -> Optional[MultiplierSymbol]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "classical":
        _reject_unknown(c, d, path, {"kind"})
        return build_symbol("classical")
    if kind == "fractional":
        _reject_unknown(c, d, path, {"kind", "s"})
        s = _number(c, d.get("s"), f"{path}.s")
        if s is None:
            return None
        if not 0.0 < s < 1.0:
            return c.fail(path, f"s outside (0,1): got {s}")
        return build_symbol("fractional", order=s)
    if kind == "zeroth_order":
        _reject_unknown(c, d, path, {"kind", "mass", "kernel"})
        mass = _number(c, d.get("mass"), f"{path}.mass")
        kernel = _multiplier_fn(c, d.get("kernel"), f"{path}.kernel")
        if mass is None or kernel is None:
            return None
        return build_symbol("zeroth_order", mass=mass, kernel_hat=kernel)
    if kind == "table":
        _reject_unknown(c, d, path, {"kind", "xi", "values"})
        x = _vector(c, d.get("xi"), f"{path}.xi")
        vals = _vector(c, d.get("values"), f"{path}.values")
        if x is None or vals is None:
            return None
        try:
            return build_symbol("table", xi_points=x, values=vals)
        except ValueError as exc:
            return c.fail(path, str(exc))
    return c.fail(f"{path}.kind", f"unknown symbol kind {kind!r}")


def _frequency_grid(c: _Collector, raw: Any, path: str) -> Optional[FrequencyGrid]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "uniform_fft":
        _reject_unknown(c, d, path, {"kind", "n", "dx", "x0"})
        n = _integer(c, d.get("n"), f"{path}.n")
        dx = _number(c, d.get("dx"), f"{path}.dx")
        x0 = _number(c, d["x0"], f"{path}.x0") if "x0" in d else None
        if n is None or dx is None:
            return None
        if n < 2:
            return c.fail(f"{path}.n", "need at least two samples")
        if dx <= 0.0:
            return c.fail(f"{path}.dx", "must be positive")
        return FrequencyGrid.uniform_fft(n, dx, x0=x0)
    if kind == "explicit":
        _reject_unknown(c, d, path, {"kind", "nodes", "weights"})
        nodes = _vector(c, d.get("nodes"), f"{path}.nodes")
        weights = _vector(c, d.get("weights"), f"{path}.weights")
        if nodes is None or weights is None:
            return None
        if len(nodes) != len(weights):
            return c.fail(path, "nodes and weights have different lengths")
        return FrequencyGrid.explicit(nodes, weights)
    return c.fail(f"{path}.kind", f"unknown frequency grid kind {kind!r}")


def _initial_hat(c: _Collector, raw: Any, path: str, grid: FrequencyGrid):
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "gaussian":
        _reject_unknown(c, d, path, {"kind", "amplitude", "variance"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        v = _number(c, d.get("variance", 1.0), f"{path}.variance")
        if a is None or v is None:
            return None
        if v <= 0.0:
            return c.fail(f"{path}.variance", "must be positive")
        return (a * np.exp(-0.5 * v * grid.nodes**2)).astype(complex)
    if kind == "samples":
        _reject_unknown(c, d, path, {"kind", "real", "imag"})
        re = _vector(c, d.get("real"), f"{path}.real")
        if re is None:
            return None
        im = None
        if "imag" in d:
            im = _vector(c, d["imag"], f"{path}.imag")
            if im is None:
                return None
            if len(im) != len(re):
                return c.fail(path, "real and imag have different lengths")
        if len(re) != grid.n:
            return c.fail(path, f"expected {grid.n} samples to match the grid, got {len(re)}")
        arr = np.asarray(re, dtype=float).astype(complex)
        if im is not None:
            arr = arr + 1j * np.asarray(im, dtype=float)
        return arr
    return c.fail(f"{path}.kind", f"unknown initial data kind {kind!r}")


def _density(c: _Collector, raw: Any, path: str) -> Optional[TimeProfile]:
    """Scalar time density for the weighted tail-average sweep.

    A power density is built as a TimeProfile directly: power_profile
    refuses the negative degrees an integrable density may have.
    """
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "constant":
        _reject_unknown(c, d, path, {"kind", "amplitude"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        return None if a is None else constant_profile(a)
    if kind == "power":
        _reject_unknown(c, d, path, {"kind", "amplitude", "degree"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        p = _number(c, d.get("degree"), f"{path}.degree")
        if a is None or p is None:
            return None
        if p <= -1.0:
            return c.fail(f"{path}.degree", "must exceed -1 for an integrable density")
        return TimeProfile("power", amplitude=a, degree=p)
    if kind == "exponential":
        _reject_unknown(c, d, path, {"kind", "amplitude", "rate"})
        a = _number(c, d.get("amplitude", 1.0), f"{path}.amplitude")
        r = _number(c, d.get("rate"), f"{path}.rate")
        return None if a is None or r is None else exponential_profile(a, r)
    return c.fail(f"{path}.kind", f"unknown density kind {kind!r}")


def _audit_grid(c: _Collector, raw: Any, path: str) -> Optional[np.ndarray]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "linspace":
        _reject_unknown(c, d, path, {"kind", "lo", "hi", "points"})
        lo = _number(c, d.get("lo"), f"{path}.lo")
        hi = _number(c, d.get("hi"), f"{path}.hi")
        n = _integer(c, d.get("points"), f"{path}.points")
        if lo is None or hi is None or n is None:
            return None
        if hi <= lo:
            return c.fail(path, "hi must exceed lo")
        if n < 2:
            return c.fail(f"{path}.points", "need at least two points")
        return np.linspace(lo, hi, n)
    if kind == "nodes":
        _reject_unknown(c, d, path, {"kind", "values"})
        vals = _vector(c, d.get("values"), f"{path}.values")
        return None if vals is None else np.asarray(vals, dtype=float)
    return c.fail(f"{path}.kind", f"unknown grid kind {kind!r}")


def _quadrature(c: _Collector, raw: Any, path: str) -> Optional[QuadratureSpec]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    allowed = {"method", "nodes", "panel_tol", "max_panels", "abs_tol", "rel_tol", "variation_limit"}
    _reject_unknown(c, d, path, allowed)
    method = d.get("method", DEFAULT_SPEC.method)
    if method not in ("gauss_laguerre", "adaptive"):
        return c.fail(f"{path}.method", f"unknown method {method!r}")
    nodes = _integer(c, d.get("nodes", DEFAULT_SPEC.nodes), f"{path}.nodes")
    max_panels = _integer(c, d.get("max_panels", DEFAULT_SPEC.max_panels), f"{path}.max_panels")
    nums = {}
    ok = nodes is not None and max_panels is not None
    for key in ("panel_tol", "abs_tol", "rel_tol", "variation_limit"):
        val = _number(c, d.get(key, getattr(DEFAULT_SPEC, key)), f"{path}.{key}")
        if val is None:
            ok = False
        else:
            nums[key] = val
    if not ok:
        return None
    if nodes < 4:
        return c.fail(f"{path}.nodes", "need at least four nodes")
    if max_panels < 8:
        return c.fail(f"{path}.max_panels", "need at least eight panels")
    return QuadratureSpec(method=method, nodes=nodes, max_panels=max_panels, **nums)


def _policy(c: _Collector, raw: Any, path: str) -> Optional[EpsilonPolicy]:
    d = _dict(c, raw, path)
    if d is None:
        return None
    _reject_unknown(c, d, path, {"safety", "zero_bound_cap", "margin"})
    safety = _number(c, d.get("safety", 1.0), f"{path}.safety")
    cap = _number(c, d.get("zero_bound_cap", 0.5), f"{path}.zero_bound_cap")
    margin = _number(c, d.get("margin", 0.0), f"{path}.margin")
    if safety is None or cap is None or margin is None:
        return None
    try:
        return EpsilonPolicy(safety=safety, zero_bound_cap=cap, margin=margin)
    except ValueError as exc:
        return c.fail(path, str(exc))


def _ladder(c: _Collector, raw: Any, path: str) -> Optional[Tuple[float, ...]]:
    vals = _vector(c, raw, path)
    if vals is None:
        return None
    bad = False
    for i, e in enumerate(vals):
        if e <= 0.0:
            c.fail(f"{path}[{i}]", f"eps must be positive, got {e}")
            bad = True
    for i in range(1, len(vals)):
        if vals[i] >= vals[i - 1]:
            c.fail(path, "ladder must decrease strictly")
            bad = True
            break
    return None if bad else vals


def _check_policy(c, path, eps_values, raw_values, policy, bound):
    """Reject ladder rungs past the policy cap for the symbol's lower bound."""
    emax = policy.epsilon_threshold(bound)
    for i, eps in enumerate(eps_values):
        if eps > emax:
            raw = raw_values[i] if isinstance(raw_values, list) and i < len(raw_values) else eps
            c.fail(
                f"{path}[{i}]" if isinstance(raw_values, list) else path,
                f"eps {raw!r} exceeds the policy bound {emax!r} "
                f"for symbol lower bound {bound!r}",
            )
    return emax


# ---- Top-level config ----


class ExperimentConfig(NamedTuple):
    mode: str
    problem_id: str
    raw: dict
    quadrature: QuadratureSpec
    policy: EpsilonPolicy
    write_field: bool = False
    field_times: Tuple[float, ...] = ()
    epsilon_ladder: Tuple[float, ...] = ()
    horizon: Optional[float] = None
    time_points: int = 201
    norm: str = "sup_uniform"
    ode_problem: Optional[OdeProblem] = None
    spectral_problem: Optional[SpectralProblem] = None
    symbol: Optional[MultiplierSymbol] = None
    audit_grid: Optional[np.ndarray] = None
    audit_tol: float = 1e-9
    density: Optional[TimeProfile] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    direction: int = 0
    horizons: Tuple[float, ...] = ()


_COMMON_KEYS = {"schema_version", "mode", "problem_id", "quadrature", "epsilon_policy", "output"}

_MODE_KEYS = {
    "ode": {"matrix", "initial", "forcing", "epsilon_ladder", "horizon", "norm", "time_points"},
    "spectral": {
        "symbol",
        "frequency_grid",
        "initial",
        "forcing",
        "epsilon_ladder",
        "horizon",
        "norm",
        "time_points",
    },
    "lemma-tech": {"density", "epsilon_ladder", "horizon", "time_points"},
    "branch-divergence": {"matrix", "initial", "forcing", "epsilon", "delta", "direction", "horizons"},
    "bound-audit": {"symbol", "grid", "epsilon_ladder", "tol"},
}

_REQUIRED = {
    "ode": ("matrix", "initial", "epsilon_ladder", "horizon"),
    "spectral": ("symbol", "frequency_grid", "initial", "epsilon_ladder", "horizon"),
    "lemma-tech": ("density", "epsilon_ladder", "horizon"),
    "branch-divergence": ("matrix", "initial", "epsilon", "delta", "horizons"),
    "bound-audit": ("symbol", "grid", "epsilon_ladder"),
}


def validate_config(raw: Any) -> ExperimentConfig:
    """Check every field and either build the config or raise with all faults."""
    c = _Collector()
    root = _dict(c, raw, "")
    if root is None:
        raise ConfigError(c.errors)

    version = _integer(c, root.get("schema_version"), "schema_version")
    if version is not None and version != SCHEMA_VERSION:
        c.fail("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    if "schema_version" not in root:
        c.fail("schema_version", "missing required key")

    mode = root.get("mode")
    if mode not in MODES:
        c.fail("mode", f"expected one of {list(MODES)}, got {mode!r}")
        raise ConfigError(c.errors)

    _reject_unknown(c, root, "", _COMMON_KEYS | _MODE_KEYS[mode])
    for key in _REQUIRED[mode]:
        if key not in root:
            c.fail(key, "missing required key")

    problem_id = root.get("problem_id", mode)
    if not isinstance(problem_id, str) or not problem_id:
        c.fail("problem_id", "expected a non-empty string")
        problem_id = mode

    quad = DEFAULT_SPEC
    if "quadrature" in root:
        quad = _quadrature(c, root["quadrature"], "quadrature") or DEFAULT_SPEC
    policy = EpsilonPolicy()
    if "epsilon_policy" in root:
        policy = _policy(c, root["epsilon_policy"], "epsilon_policy") or EpsilonPolicy()

    write_field = False
    field_times: Tuple[float, ...] = ()
    if "output" in root:
        out = _dict(c, root["output"], "output")
        if out is not None:
            _reject_unknown(c, out, "output", {"write_field", "field_times"})
            wf = out.get("write_field", False)
            if not isinstance(wf, bool):
                c.fail("output.write_field", "expected a boolean")
            else:
                write_field = wf
            if "field_times" in out:
                ft = _vector(c, out["field_times"], "output.field_times")
                if ft is not None:
                    # the selection problem is posed on the half-line t >= 0
                    for i, t in enumerate(ft):
                        if t < 0.0:
                            c.fail(f"output.field_times[{i}]", "must be nonnegative")
                    field_times = ft

    fields: dict = {}

    if mode in ("ode", "branch-divergence"):
        from .ode import OdeProblem  # a spectral run never imports the ODE module

        matrix = _matrix(c, root.get("matrix"), "matrix") if "matrix" in root else None
        initial = _vector(c, root.get("initial"), "initial") if "initial" in root else None
        forcing = None
        if "forcing" in root:
            forcing = _forcing(c, root["forcing"], "forcing", space="vector")
        problem = None
        if matrix is not None and initial is not None:
            try:
                problem = OdeProblem(
                    matrix=matrix,
                    initial=np.asarray(initial, dtype=float),
                    forcing=forcing if forcing is not None else ForcingTerm.zero(),
                )
            except ValueError as exc:
                c.fail("matrix", str(exc))
        fields["ode_problem"] = problem

        if mode == "ode":
            ladder = _ladder(c, root.get("epsilon_ladder"), "epsilon_ladder") if "epsilon_ladder" in root else None
            if ladder is not None and problem is not None:
                bound = min(0.0, float(problem.eigen.values[0]) - policy.margin)
                _check_policy(c, "epsilon_ladder", ladder, root.get("epsilon_ladder"), policy, bound)
            fields["epsilon_ladder"] = ladder or ()
            _study_tail(c, root, fields, default_norm="sup_uniform")
        else:
            eps = _number(c, root.get("epsilon"), "epsilon") if "epsilon" in root else None
            if eps is not None:
                if eps <= 0.0:
                    c.fail("epsilon", f"eps must be positive, got {eps}")
                elif problem is not None:
                    bound = min(0.0, float(problem.eigen.values[0]) - policy.margin)
                    _check_policy(c, "epsilon", (eps,), root.get("epsilon"), policy, bound)
            delta = _number(c, root.get("delta"), "delta") if "delta" in root else None
            horizons = _vector(c, root.get("horizons"), "horizons") if "horizons" in root else None
            if horizons is not None:
                for i in range(1, len(horizons)):
                    if horizons[i] <= horizons[i - 1]:
                        c.fail("horizons", "must increase strictly")
                        break
                if any(T <= 0.0 for T in horizons):
                    c.fail("horizons", "all horizons must be positive")
            direction = 0
            if "direction" in root:
                direction = _integer(c, root["direction"], "direction")
                if direction is not None and matrix is not None and not 0 <= direction < len(matrix):
                    c.fail("direction", f"must lie in [0, {len(matrix)})")
            fields.update(
                epsilon=eps, delta=delta, horizons=horizons or (), direction=direction or 0
            )

    elif mode == "spectral":
        symbol = _symbol(c, root.get("symbol"), "symbol") if "symbol" in root else None
        grid = _frequency_grid(c, root.get("frequency_grid"), "frequency_grid") if "frequency_grid" in root else None
        init = None
        if grid is not None and "initial" in root:
            init = _initial_hat(c, root["initial"], "initial", grid)
        forcing = None
        if "forcing" in root:
            forcing = _forcing(c, root["forcing"], "forcing", space="multiplier")
        problem = None
        if symbol is not None and grid is not None and init is not None:
            try:
                problem = SpectralProblem(
                    grid=grid,
                    symbol=symbol,
                    initial_hat=init,
                    forcing=forcing if forcing is not None else ForcingTerm.zero(),
                )
            except ValueError as exc:
                c.fail("symbol", str(exc))
        fields["spectral_problem"] = problem
        fields["symbol"] = symbol
        ladder = _ladder(c, root.get("epsilon_ladder"), "epsilon_ladder") if "epsilon_ladder" in root else None
        if ladder is not None and problem is not None:
            bound = min(0.0, float(np.min(problem.symbol_values)) - policy.margin)
            _check_policy(c, "epsilon_ladder", ladder, root.get("epsilon_ladder"), policy, bound)
        fields["epsilon_ladder"] = ladder or ()
        _study_tail(c, root, fields, default_norm="sup_vl")

    elif mode == "lemma-tech":
        fields["density"] = _density(c, root["density"], "density") if "density" in root else None
        ladder = _ladder(c, root.get("epsilon_ladder"), "epsilon_ladder") if "epsilon_ladder" in root else None
        fields["epsilon_ladder"] = ladder or ()
        horizon = _number(c, root.get("horizon"), "horizon") if "horizon" in root else None
        if horizon is not None and horizon <= 0.0:
            c.fail("horizon", "must be positive")
        fields["horizon"] = horizon
        tp = _integer(c, root.get("time_points", 801), "time_points")
        if tp is not None and tp < 2:
            c.fail("time_points", "need at least two points")
        fields["time_points"] = tp or 801

    elif mode == "bound-audit":
        symbol = _symbol(c, root.get("symbol"), "symbol") if "symbol" in root else None
        grid = _audit_grid(c, root.get("grid"), "grid") if "grid" in root else None
        fields["symbol"] = symbol
        fields["audit_grid"] = grid
        ladder = _ladder(c, root.get("epsilon_ladder"), "epsilon_ladder") if "epsilon_ladder" in root else None
        if ladder is not None and symbol is not None and grid is not None:
            bound = policy.lower_bound(symbol, grid)
            _check_policy(c, "epsilon_ladder", ladder, root.get("epsilon_ladder"), policy, bound)
        fields["epsilon_ladder"] = ladder or ()
        tol = _number(c, root.get("tol", 1e-9), "tol")
        if tol is not None and tol <= 0.0:
            c.fail("tol", "must be positive")
        fields["audit_tol"] = tol or 1e-9

    if c.errors:
        raise ConfigError(c.errors)

    return ExperimentConfig(
        mode=mode,
        problem_id=problem_id,
        raw=root,
        quadrature=quad,
        policy=policy,
        write_field=write_field,
        field_times=field_times,
        **fields,
    )


def _study_tail(c: _Collector, root: dict, fields: dict, default_norm: str) -> None:
    horizon = _number(c, root.get("horizon"), "horizon") if "horizon" in root else None
    if horizon is not None and horizon <= 0.0:
        c.fail("horizon", "must be positive")
    fields["horizon"] = horizon
    norm = root.get("norm", default_norm)
    if norm not in ("sup_uniform", "sup_vl"):
        c.fail("norm", f"expected sup_uniform or sup_vl, got {norm!r}")
        norm = default_norm
    fields["norm"] = norm
    tp = _integer(c, root.get("time_points", 201), "time_points")
    if tp is not None and tp < 2:
        c.fail("time_points", "need at least two points")
    fields["time_points"] = tp or 201


def parse_config(path) -> ExperimentConfig:
    """Load a JSON config file and validate it completely."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: invalid JSON: {exc}"]) from exc
    return validate_config(raw)


# Printed by the schema subcommand; kept as data so it serializes stably.
SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "common": {
        "schema_version": "int, required, must equal 1",
        "mode": f"one of {list(MODES)}",
        "problem_id": "string label echoed into reports (default: the mode)",
        "quadrature": {
            "method": "gauss_laguerre | adaptive",
            "nodes": "int >= 4 (default 64)",
            "panel_tol": "number (default 1e-12)",
            "max_panels": "int >= 8 (default 4096)",
            "abs_tol": "number (default 1e-12)",
            "rel_tol": "number (default 1e-10)",
            "variation_limit": "number (default 1e6)",
        },
        "epsilon_policy": {
            "safety": "number in (0, 1] (default 1.0)",
            "zero_bound_cap": "cap for nonnegative symbols (default 0.5)",
            "margin": "number >= 0 subtracted from the grid lower bound (default 0.0)",
        },
        "output": {
            "write_field": "bool; spectral mode dumps field.bin + field_meta.json",
            "field_times": "list of nonnegative sample times (default: 9 evenly spaced)",
        },
        "numbers": "every numeric field also accepts a decimal string, e.g. \"1e-4\"",
    },
    "modes": {
        "ode": {
            "matrix": "symmetric matrix as list of rows (required)",
            "initial": "state vector (required)",
            "forcing": "optional {parts: [{profile, vector}], growth}",
            "epsilon_ladder": "strictly decreasing positive list (required)",
            "horizon": "positive number (required)",
            "norm": "sup_uniform | sup_vl (default sup_uniform)",
            "time_points": "int >= 2 (default 201)",
        },
        "spectral": {
            "symbol": "{kind: classical} | {kind: fractional, s} | {kind: zeroth_order, mass, kernel} | {kind: table, xi, values}",
            "frequency_grid": "{kind: uniform_fft, n, dx, x0?} | {kind: explicit, nodes, weights}",
            "initial": "{kind: gaussian, amplitude?, variance?} | {kind: samples, real, imag?}",
            "forcing": "optional {parts: [{profile, multiplier}], growth}",
            "epsilon_ladder": "strictly decreasing positive list (required)",
            "horizon": "positive number (required)",
            "norm": "sup_uniform | sup_vl (default sup_vl)",
            "time_points": "int >= 2 (default 201)",
        },
        "lemma-tech": {
            "density": "{kind: constant, amplitude?} | {kind: power, amplitude?, degree > -1} | {kind: exponential, amplitude?, rate}",
            "epsilon_ladder": "strictly decreasing positive list (required)",
            "horizon": "positive number (required)",
            "time_points": "int >= 2 (default 801)",
        },
        "branch-divergence": {
            "matrix": "symmetric matrix as list of rows (required)",
            "initial": "state vector (required)",
            "forcing": "optional, as in ode mode",
            "epsilon": "positive number within policy (required)",
            "delta": "perturbation of the rejected-branch coefficient (required)",
            "direction": "eigencoordinate index to perturb (default 0)",
            "horizons": "strictly increasing positive list (required)",
        },
        "bound-audit": {
            "symbol": "as in spectral mode",
            "grid": "{kind: linspace, lo, hi, points} | {kind: nodes, values}",
            "epsilon_ladder": "strictly decreasing positive list (required)",
            "tol": "margin tolerance for the estimate audit (default 1e-9)",
        },
    },
    "profiles": {
        "constant": {"amplitude": "default 1"},
        "exponential": {"amplitude": "default 1", "rate": "required"},
        "power": {"amplitude": "default 1", "degree": ">= 0"},
        "sampled": {"times": "list", "values": "list, same length"},
    },
    "multipliers": {
        "constant": {"amplitude": "default 1"},
        "gaussian": {"amplitude": "default 1", "variance": "> 0, default 1"},
        "table": {"xi": "list", "values": "list, same length"},
    },
    "growth": {
        "bounded": {"scale": "default 1"},
        "polynomial": {"degree": "default 1", "scale": "default 1"},
        "subexponential": {"rate": "required", "scale": "default 1"},
    },
}
