"""Experiment configs: versioned JSON in, validated problem objects out.

The validator walks the whole document and reports every violation it can
find in one pass, so a config author fixes a file once instead of playing
whack-a-mole with first-error-only messages.  Numbers may be written as
decimal strings ("1e-4") to survive the round trip into reports verbatim.

Each key is declared once: a mode is one table of rows (key, parser,
default, doc), and a kinded object one table kind -> (fields, build).
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple, Optional, Tuple

import numpy as np

from .contract import DEFAULT_SPEC, QuadratureSpec
from .forcing import (
    ForcingTerm,
    GrowthClass,
    TimeProfile,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from .spectral import FrequencyGrid, SpectralProblem
from .symbols import EpsilonPolicy, MultiplierSymbol, classical, fractional, from_table, zeroth_order

SCHEMA_VERSION = 1


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
    except OverflowError:  # an integer literal past the largest float
        val = math.inf
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
    out = [_number(c, x, f"{path}[{i}]") for i, x in enumerate(raw)]
    return None if None in out else tuple(out)


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


def _checked(parse, ok, message: str):
    """A parser: parse, then refuse a value v with not ok(v), saying message.format(v)."""

    def check(c: _Collector, raw: Any, path: str):
        val = parse(c, raw, path)
        if val is not None and not ok(val):
            return c.fail(path, message.format(val))
        return val

    return check


def _accepting(ok, message: str):
    """A parser that passes raw through when ok(raw), else says message.format(raw)."""
    return lambda c, raw, path: raw if ok(raw) else c.fail(path, message.format(raw))


_positive = _checked(_number, lambda x: x > 0.0, "must be positive")
_points = _checked(_integer, lambda n: n >= 2, "need at least two points")
_nodes = _checked(_integer, lambda n: n >= 4, "need at least four nodes")
_panels = _checked(_integer, lambda n: n >= 8, "need at least eight panels")
_epsilon = _checked(_number, lambda e: e > 0.0, "eps must be positive, got {}")
_label = _accepting(lambda s: isinstance(s, str) and s != "", "expected a non-empty string")
_flag = _accepting(lambda b: isinstance(b, bool), "expected a boolean")
_norm = _accepting(lambda s: s in ("sup_uniform", "sup_vl"), "expected sup_uniform or sup_vl, got {!r}")
_method = _accepting(lambda m: m in ("gauss_laguerre", "adaptive"), "unknown method {!r}")


def _ladder(c: _Collector, raw: Any, path: str) -> Optional[Tuple[float, ...]]:
    vals = _vector(c, raw, path)
    if vals is None:
        return None
    faults = len(c.errors)
    for i, e in enumerate(vals):
        if e <= 0.0:
            c.fail(f"{path}[{i}]", f"eps must be positive, got {e}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        c.fail(path, "ladder must decrease strictly")
    return None if len(c.errors) > faults else vals


def _horizons(c: _Collector, raw: Any, path: str) -> Optional[Tuple[float, ...]]:
    horizons = _vector(c, raw, path)
    if horizons and any(b <= a for a, b in zip(horizons, horizons[1:])):
        c.fail(path, "must increase strictly")
    if horizons and any(T <= 0.0 for T in horizons):
        c.fail(path, "all horizons must be positive")
    return horizons


def _field_times(c: _Collector, raw: Any, path: str) -> Optional[Tuple[float, ...]]:
    times = _vector(c, raw, path)
    # the selection problem is posed on the half-line t >= 0
    for i, t in enumerate(times or ()):
        if t < 0.0:
            c.fail(f"{path}[{i}]", "must be nonnegative")
    return times


# ---- Objects from field tables ----

# A field is (name, parser, default[, doc]); the parser reads
# d.get(name, default), so a field with default None must be given.  A field
# with default _OPTIONAL is None when left out, and its fault does not stop
# the build.  doc is what `wie schema` prints for the field.
_OPTIONAL = object()


def _fields(c: _Collector, raw: Any, path: str, fields, *also) -> Optional[list]:
    """The fields of an object in table order; None if a field it needs failed."""
    d = _dict(c, raw, path)
    if d is None:
        return None
    _reject_unknown(c, d, path, {*also, *(field[0] for field in fields)})
    values, ok = [], True
    for name, parse, default, *_ in fields:
        if default is _OPTIONAL and name not in d:
            values.append(None)
        else:
            values.append(parse(c, d.get(name, default), f"{path}.{name}"))
            ok = ok and (values[-1] is not None or default is _OPTIONAL)
    return values if ok else None


class _Refused(Exception):
    """A build's refusal of its fields: (field, message), field "" for the whole object."""


def _built(c: _Collector, path: str, values, build, *context):
    """build(*context, *values), or None where values is None or the build refuses."""
    try:
        return None if values is None else build(*context, *values)
    except _Refused as refused:
        field, message = refused.args
        return c.fail(f"{path}.{field}" if field else path, message)
    # a value type refuses the whole object, or numpy an array of it too large to allocate
    except (ValueError, OverflowError, MemoryError) as exc:
        return c.fail(path, str(exc))


def _object(fields, build):
    """The parser of an object with these fields, made by build."""
    return lambda c, raw, path: _built(c, path, _fields(c, raw, path, fields), build)


def _kinded(c: _Collector, raw: Any, path: str, what: str, kinds: dict, *context):
    """The object of raw's kind: build(*context, *its fields), from kinds[kind] = (fields, build)."""
    d = _dict(c, raw, path)
    if d is None:
        return None
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        return c.fail(f"{path}.kind", f"unknown {what} kind {kind!r}")
    fields, build = kinds[kind]
    return _built(c, path, _fields(c, d, path, fields, "kind"), build, *context)


def _parser(what: str, kinds: dict):
    return lambda c, raw, path: _kinded(c, raw, path, what, kinds)


def _paired(first: str, second: str, make):
    """A kind of two lists of numbers of one length, made into make(first, second)."""

    def build(x, y):
        if len(x) != len(y):
            raise _Refused("", f"{first} and {second} have different lengths")
        return make(x, y)

    return ((first, _vector, None, "list"), (second, _vector, None, "list, same length")), build


def _docs(fields) -> dict:
    return {name: doc for name, _, _, doc in fields}


_AMPLITUDE = ("amplitude", _number, 1.0, "default 1")
_VARIANCE = ("variance", _number, 1.0, "> 0, default 1")
_SCALE = ("scale", _number, 1.0, "default 1")


def _power(a, p):
    if p < 0.0:
        raise _Refused("degree", "forcing profiles need degree >= 0")
    return power_profile(a, p)


_PROFILES = {
    "constant": ((_AMPLITUDE,), constant_profile),
    "exponential": ((_AMPLITUDE, ("rate", _number, 0.0, "default 0")), exponential_profile),
    "power": ((_AMPLITUDE, ("degree", _number, 1.0, ">= 0, default 1")), _power),
    "sampled": _paired("times", "values", sampled_profile),
}
_profile = _parser("profile", _PROFILES)

# the scale is parsed (again) last, in the order of GrowthClass's arguments
_GROWTHS = {
    "bounded": ((_SCALE,), GrowthClass.bounded),
    "polynomial": ((("degree", _number, 1.0, "default 1"), _SCALE), GrowthClass.polynomial),
    "subexponential": ((("rate", _number, None, "required"), _SCALE), GrowthClass.subexponential),
}


def _growth(c: _Collector, raw: Any, path: str) -> Optional[GrowthClass]:
    # the scale is read before the kind, so a bad scale hides an unknown kind
    if isinstance(raw, dict) and _number(c, raw.get("scale", 1.0), f"{path}.scale") is None:
        return None
    return _kinded(c, raw, path, "growth", _GROWTHS)


def _bell(a, v):
    """a exp(-v xi^2 / 2) as a callable of xi."""
    if v <= 0.0:
        raise _Refused("variance", "must be positive")
    return lambda xi: a * np.exp(-0.5 * v * np.asarray(xi, dtype=float) ** 2)


def _interpolant(x, vals):
    order = np.argsort(x)
    xs, vs = np.asarray(x)[order], np.asarray(vals)[order]
    return lambda xi: np.interp(np.asarray(xi, dtype=float), xs, vs)


# the spatial factor of a frequency-side forcing part, as a callable of xi
_MULTIPLIERS = {
    "constant": ((_AMPLITUDE,), lambda a: lambda xi: a * np.ones_like(np.asarray(xi, dtype=float))),
    "gaussian": ((_AMPLITUDE, _VARIANCE), _bell),
    "table": _paired("xi", "values", _interpolant),
}
_multiplier = _parser("multiplier", _MULTIPLIERS)


def _fractional(s):
    if not 0.0 < s < 1.0:
        raise _Refused("", f"s outside (0,1): got {s}")
    return fractional(s)


_symbol = _parser(
    "symbol",
    {
        "classical": ((), classical),
        "fractional": ((("s", _number, None),), _fractional),
        "zeroth_order": (
            (("mass", _number, None), ("kernel", _multiplier, None)),
            zeroth_order,
        ),
        "table": (
            (("xi", _vector, None), ("values", _vector, None)),
            from_table,
        ),
    },
)


def _uniform_fft(n, dx, x0):
    if n < 2:
        raise _Refused("n", "need at least two samples")
    if dx <= 0.0:
        raise _Refused("dx", "must be positive")
    return FrequencyGrid.uniform_fft(n, dx, x0=x0)


_frequency_grid = _parser(
    "frequency grid",
    {
        "uniform_fft": ((("n", _integer, None), ("dx", _number, None), ("x0", _number, _OPTIONAL)), _uniform_fft),
        "explicit": _paired("nodes", "weights", FrequencyGrid.explicit),
    },
)


def _samples(grid, re, im):
    if im is not None and len(im) != len(re):
        raise _Refused("", "real and imag have different lengths")
    if len(re) != grid.n:
        raise _Refused("", f"expected {grid.n} samples to match the grid, got {len(re)}")
    arr = np.asarray(re, dtype=float).astype(complex)
    return arr if im is None else arr + 1j * np.asarray(im, dtype=float)


# initial frequency data (values on the grid's nodes, or a callable of xi);
# each build takes the grid first
_INITIALS = {
    "gaussian": ((_AMPLITUDE, _VARIANCE), lambda grid, a, v: _bell(a, v)),
    "samples": ((("real", _vector, None), ("imag", _vector, _OPTIONAL)), _samples),
}


def _power_density(a, p):
    # a TimeProfile built directly: power_profile refuses the negative
    # degrees an integrable density may have
    if p <= -1.0:
        raise _Refused("degree", "must exceed -1 for an integrable density")
    return TimeProfile("power", amplitude=a, degree=p)


# scalar time density for the weighted tail-average sweep
_density = _parser(
    "density",
    {
        "constant": ((_AMPLITUDE,), constant_profile),
        "power": ((_AMPLITUDE, ("degree", _number, None)), _power_density),
        "exponential": ((_AMPLITUDE, ("rate", _number, None)), exponential_profile),
    },
)


def _linspace(lo, hi, n):
    if hi <= lo:
        raise _Refused("", "hi must exceed lo")
    if n < 2:
        raise _Refused("points", "need at least two points")
    return np.linspace(lo, hi, n)


_audit_grid = _parser(
    "grid",
    {
        "linspace": ((("lo", _number, None), ("hi", _number, None), ("points", _integer, None)), _linspace),
        "nodes": ((("values", _vector, None),), lambda vals: np.asarray(vals, dtype=float)),
    },
)


def _forcing(space: str, parse_space, make):
    """A parser of separable parts {profile, <space>}, made into make(parts, growth)."""
    fields = (("profile", _profile, None), (space, parse_space, None))

    def parse(c: _Collector, raw: Any, path: str) -> Optional[ForcingTerm]:
        d = _dict(c, raw, path)
        if d is None:
            return None
        _reject_unknown(c, d, path, {"parts", "growth"})
        parts_raw = d.get("parts")
        if not isinstance(parts_raw, list):
            return c.fail(f"{path}.parts", "expected a list of parts")
        growth = _growth(c, d["growth"], f"{path}.growth") if "growth" in d else None
        if "growth" in d and growth is None:
            return None
        items = [_fields(c, part, f"{path}.parts[{i}]", fields) for i, part in enumerate(parts_raw)]
        if None in items:
            return None
        try:
            return make(items, growth=growth) if items else ForcingTerm.zero()
        except ValueError as exc:
            return c.fail(path, str(exc))

    return parse


_vector_forcing = _forcing("vector", _vector, ForcingTerm.from_vectors)
_multiplier_forcing = _forcing("multiplier", _multiplier, ForcingTerm.from_multipliers)


# in the order of QuadratureSpec's arguments
_QUADRATURE = (
    ("method", _method, DEFAULT_SPEC.method, "gauss_laguerre | adaptive"),
    ("nodes", _nodes, DEFAULT_SPEC.nodes, "int >= 4 (default 64)"),
    ("panel_tol", _number, DEFAULT_SPEC.panel_tol, "number (default 1e-12)"),
    ("max_panels", _panels, DEFAULT_SPEC.max_panels, "int >= 8 (default 4096)"),
    ("abs_tol", _number, DEFAULT_SPEC.abs_tol, "number (default 1e-12)"),
    ("rel_tol", _number, DEFAULT_SPEC.rel_tol, "number (default 1e-10)"),
    ("variation_limit", _number, DEFAULT_SPEC.variation_limit, "number (default 1e6)"),
)
# in the order of EpsilonPolicy's arguments
_POLICY = (
    ("safety", _number, 1.0, "number in (0, 1] (default 1.0)"),
    ("zero_bound_cap", _number, 0.5, "cap for nonnegative symbols (default 0.5)"),
    ("margin", _number, 0.0, "number >= 0 subtracted from the grid lower bound (default 0.0)"),
)
# (write_field, field_times)
_OUTPUT = (
    ("write_field", _flag, False, "bool; spectral mode dumps field.bin + field_meta.json"),
    ("field_times", _field_times, _OPTIONAL, "list of nonnegative sample times (default: 9 evenly spaced)"),
)


# ---- What spans keys: each mode's steps after the walk ----


def _check_policy(c: _Collector, root: dict, v: dict, key: str, values) -> None:
    """Reject the rungs of key past the policy cap for the lower bound of values."""
    if v[key] is None or values is None:
        return
    policy = v["epsilon_policy"]
    bound = policy.lower_bound(values)
    emax = policy.epsilon_threshold(bound)
    raw = root[key]
    for i, eps in enumerate(v[key] if isinstance(raw, list) else (v[key],)):
        if eps > emax:
            path, shown = (f"{key}[{i}]", raw[i]) if isinstance(raw, list) else (key, eps)
            c.fail(path, f"eps {shown!r} exceeds the policy bound {emax!r} for symbol lower bound {bound!r}")


def _system_steps(c, root, v):
    """The system, then the policy check of its ladder (or `epsilon`) and the range of `direction`."""
    from .ode import OdeProblem  # a spectral run never imports the ODE module

    problem, matrix = None, v["matrix"]
    if matrix is not None and v["initial"] is not None:
        initial = np.asarray(v["initial"], dtype=float)
        forcing = v["forcing"] or ForcingTerm.zero()
        # each length at its own key, checked against a square matrix; any other is the matrix's fault
        n, faults = len(matrix), len(c.errors)
        if matrix.shape == (n, n) and initial.shape != (n,):
            c.fail("initial", f"initial state has shape {initial.shape}, matrix is {matrix.shape}")
        for i, part in enumerate(forcing.parts):
            if matrix.shape == (n, n) and len(part.space_vec) != n:
                c.fail(f"forcing.parts[{i}].vector", f"forcing dimension {len(part.space_vec)} does not match system size {n}")
        try:
            if len(c.errors) == faults:
                problem = OdeProblem(matrix=matrix, initial=initial, forcing=forcing)
        except ValueError as exc:
            c.fail("matrix", str(exc))
    key = "epsilon_ladder" if "epsilon_ladder" in v else "epsilon"
    _check_policy(c, root, v, key, None if problem is None else problem.eigen.values)
    if "direction" in v and v["matrix"] is not None and not 0 <= v["direction"] < len(v["matrix"]):
        c.fail("direction", f"must lie in [0, {len(v['matrix'])})")
    return {"problem": problem}


def _spectral_steps(c, root, v):
    grid, problem = v["frequency_grid"], None
    # the initial data are parsed against the grid, once the grid parses
    init = None
    if grid is not None and "initial" in root:
        init = _kinded(c, root["initial"], "initial", "initial data", _INITIALS, grid)
    if v["symbol"] is not None and init is not None:
        forcing = v["forcing"] or ForcingTerm.zero()
        try:
            problem = SpectralProblem(grid=grid, symbol=v["symbol"], initial_hat=init, forcing=forcing)
        except ValueError as exc:
            c.fail("symbol", str(exc))
        except MemoryError as exc:  # the grid's nodes, past what numpy can allocate
            c.fail("frequency_grid", str(exc))
    _check_policy(c, root, v, "epsilon_ladder", None if problem is None else problem.symbol_values)
    return {"problem": problem}


def _audit_steps(c, root, v):
    symbol, grid = v["symbol"], v["grid"]
    if symbol is not None and grid is not None:
        _check_policy(c, root, v, "epsilon_ladder", symbol(grid))
    return {"audit_grid": grid, "audit_tol": v["tol"]}


# ---- Top-level config ----


class ExperimentConfig(NamedTuple):
    mode: str
    problem_id: str
    raw: dict
    quadrature: QuadratureSpec
    write_field: bool = False
    field_times: Tuple[float, ...] = ()
    epsilon_ladder: Tuple[float, ...] = ()
    horizon: Optional[float] = None
    time_points: Optional[int] = None
    norm: Optional[str] = None
    # an OdeProblem in the ode and branch-divergence modes
    problem: Optional[SpectralProblem] = None
    symbol: Optional[MultiplierSymbol] = None
    audit_grid: Optional[np.ndarray] = None
    audit_tol: Optional[float] = None
    density: Optional[TimeProfile] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    direction: Optional[int] = None
    horizons: Tuple[float, ...] = ()


# A row is (key, parser, default, doc).  The parser reads the key's value;
# the default stands in where the key is left out or its value fails, and a
# _REQUIRED key stands as None.  A row without a parser is read by its
# mode's steps.  doc is what `wie schema` prints for the key.
_REQUIRED = object()

_COMMON = (
    ("problem_id", _label, None, "string label echoed into reports (default: the mode)"),
    ("quadrature", _object(_QUADRATURE, QuadratureSpec), DEFAULT_SPEC, _docs(_QUADRATURE)),
    ("epsilon_policy", _object(_POLICY, EpsilonPolicy), EpsilonPolicy(), _docs(_POLICY)),
    ("output", _object(_OUTPUT, lambda *values: values), (False, None), _docs(_OUTPUT)),
)

_MATRIX = ("matrix", _matrix, _REQUIRED, "symmetric matrix as list of rows (required)")
_STATE = ("initial", _vector, _REQUIRED, "state vector (required)")
_LADDER = ("epsilon_ladder", _ladder, _REQUIRED, "strictly decreasing positive list (required)")
_HORIZON = ("horizon", _positive, _REQUIRED, "positive number (required)")


# mode -> (its rows in the order they are parsed, its steps after the walk)
_MODES = {
    "ode": ((
        _MATRIX,
        _STATE,
        ("forcing", _vector_forcing, None, "optional {parts: [{profile, vector}], growth}"),
        _LADDER,
        _HORIZON,
        ("norm", _norm, "sup_uniform", "sup_uniform | sup_vl (default sup_uniform)"),
        ("time_points", _points, 201, "int >= 2 (default 201)"),
    ), _system_steps),
    "spectral": ((
        ("symbol", _symbol, _REQUIRED, "{kind: classical} | {kind: fractional, s} | {kind: zeroth_order, mass, kernel} | {kind: table, xi, values}"),
        ("frequency_grid", _frequency_grid, _REQUIRED, "{kind: uniform_fft, n, dx, x0?} | {kind: explicit, nodes, weights}"),
        ("initial", None, _REQUIRED, "{kind: gaussian, amplitude?, variance?} | {kind: samples, real, imag?}"),
        ("forcing", _multiplier_forcing, None, "optional {parts: [{profile, multiplier}], growth}"),
        _LADDER,
        _HORIZON,
        ("norm", _norm, "sup_vl", "sup_uniform | sup_vl (default sup_vl)"),
        ("time_points", _points, 201, "int >= 2 (default 201)"),
    ), _spectral_steps),
    "lemma-tech": ((
        ("density", _density, _REQUIRED, "{kind: constant, amplitude?} | {kind: power, amplitude?, degree > -1} | {kind: exponential, amplitude?, rate}"),
        _LADDER,
        _HORIZON,
        ("time_points", _points, 801, "int >= 2 (default 801)"),
    ), lambda c, root, v: {}),
    "branch-divergence": ((
        _MATRIX,
        _STATE,
        ("forcing", _vector_forcing, None, "optional, as in ode mode"),
        ("epsilon", _epsilon, _REQUIRED, "positive number within policy (required)"),
        ("delta", _number, _REQUIRED, "perturbation of the rejected-branch coefficient (required)"),
        ("horizons", _horizons, _REQUIRED, "strictly increasing positive list (required)"),
        ("direction", _integer, 0, "eigencoordinate index to perturb (default 0)"),
    ), _system_steps),
    "bound-audit": ((
        ("symbol", _symbol, _REQUIRED, "as in spectral mode"),
        ("grid", _audit_grid, _REQUIRED, "{kind: linspace, lo, hi, points} | {kind: nodes, values}"),
        _LADDER,
        ("tol", _positive, 1e-9, "margin tolerance for the estimate audit (default 1e-9)"),
    ), _audit_steps),
}

MODES = tuple(_MODES)


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

    rows, steps = _MODES[mode]
    _reject_unknown(c, root, "", {"schema_version", "mode", *(row[0] for row in _COMMON + rows)})
    for key, _, default, _ in rows:
        if default is _REQUIRED and key not in root:
            c.fail(key, "missing required key")

    v = {}
    for key, parse, default, _ in _COMMON + rows:
        value = parse(c, root[key], key) if parse is not None and key in root else None
        v[key] = default if value is None and default is not _REQUIRED else value
    built = steps(c, root, v)

    if c.errors:
        raise ConfigError(c.errors)

    write_field, field_times = v["output"]
    return ExperimentConfig(
        mode=mode,
        problem_id=v["problem_id"] or mode,
        raw=root,
        quadrature=v["quadrature"],
        write_field=write_field,
        field_times=field_times or (),
        **{key: v[key] for key, *_ in rows if key in ExperimentConfig._fields},
        **built,
    )


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
        **_docs(_COMMON),
        "numbers": "every numeric field also accepts a decimal string, e.g. \"1e-4\"",
    },
    "modes": {mode: _docs(rows) for mode, (rows, _) in _MODES.items()},
    **{
        name: {kind: _docs(fields) for kind, (fields, _) in kinds.items()}
        for name, kinds in (("profiles", _PROFILES), ("multipliers", _MULTIPLIERS), ("growth", _GROWTHS))
    },
}
