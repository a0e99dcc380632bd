"""What a `wie run` imports: each mode loads only the modules its run uses.

A fresh interpreter runs wie.cli.main on a golden config and reports the
names in sys.modules.  Module names, and the tokens their files hold, not
timings, so the check is deterministic.  `python -X importtime -c "import
wie.cli"` shows what each import costs; with no bytecode cache, compiling
is most of it.

The value types are plain classes, not dataclasses, because defining a
frozen dataclass costs a run about 0.3 ms each and importing dataclasses
0.5 ms more; test_value_type_keeps_its_constructor_and_is_read_only pins
what they kept of the dataclass contract, and the numpy floor that
pyproject.toml declares is checked against what wie calls.  A reader guard
keeps what only the tests read out of src/wie, in tests/oracles.py.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import wie
from wie.forcing import ForcingPart, ForcingTerm, GrowthClass, constant_profile
from wie.ode import OdeProblem
from wie.quadrature import QuadratureSpec
from wie.spectral import FrequencyGrid, SpectralProblem
from wie.symbols import EpsilonPolicy, MultiplierSymbol, classical

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(wie.__file__).resolve().parent.parent

PROBE = """
import json, sys
import wie.cli
code = wie.cli.main(["run", sys.argv[1], "--out-dir", sys.argv[2], "--log-level", "error"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _modules_of_a_run(case: str, out_dir: Path) -> set:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(GOLDEN / case / "config.json"), str(out_dir)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["modules"])


def _loaded(modules: set, package: str) -> list:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize("case", ["spectral_forced_small", "ode_forced_small", "lemma_power_small"])
def test_no_run_imports_numpy_polynomial(tmp_path, case):
    # the certificate is closed form for exponential parts, and the lemma-tech sweep
    # for every density: no quadrature rule is built
    assert _loaded(_modules_of_a_run(case, tmp_path), "numpy.polynomial") == []


def test_a_spectral_run_imports_neither_numpy_fft_nor_the_ode_module(tmp_path):
    modules = _modules_of_a_run("spectral_forced_small", tmp_path)
    assert _loaded(modules, "numpy.fft") == []
    assert _loaded(modules, "wie.ode") == []
    assert "wie.spectral" in modules  # the probe did run the study


@pytest.mark.parametrize("case", ["spectral_forced_small", "ode_forced_small", "lemma_power_small"])
def test_no_run_imports_logging_dataclasses_copy_or_heapq(tmp_path, case):
    # the CLI writes its log line itself, the value types are plain classes, and
    # only the adaptive engine, which these runs never reach, imports heapq
    modules = _modules_of_a_run(case, tmp_path)
    assert sorted(modules & {"logging", "dataclasses", "copy", "heapq"}) == []


# the wie modules every run imports, and those each study or lemma-tech golden adds: an
# unforced spectral study no kernel module, a forced one the kernels of its exponential parts
# (wie.kernels), a power density its closed forms alone (wie.kummer), and none of them the
# adaptive fallbacks (wie.quadrature); with at most this many tokens compiled in all
EVERY_RUN = {"wie", "wie.cli", "wie.config", "wie.contract", "wie.forcing", "wie.lab", "wie.spectral", "wie.symbols"}
RUNS = {
    "spectral_unforced_field": (set(), 22_950),
    "spectral_forced_small": ({"wie.kernels"}, 25_850),
    "ode_forced_small": ({"wie.kernels", "wie.ode"}, 27_850),
    "lemma_power_small": ({"wie.kummer"}, 24_700),
}


def _tokens(module: str) -> int:
    """Tokens of a wie module's file, as the parser reads them: without comments and NL."""
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    with open(path, encoding="utf-8") as fh:
        skip = (tokenize.COMMENT, tokenize.NL)
        return sum(1 for tok in tokenize.generate_tokens(fh.readline) if tok.type not in skip)


@pytest.mark.parametrize("case", RUNS)
def test_a_run_compiles_only_the_kernels_its_mode_and_forcing_need(tmp_path, case):
    extra, budget = RUNS[case]
    loaded = set(_loaded(_modules_of_a_run(case, tmp_path), "wie"))
    assert loaded == EVERY_RUN | extra
    assert sum(_tokens(m) for m in loaded) <= budget


_G = constant_profile(2.0)
_HAT = lambda xi: np.ones_like(xi)
_VEC = ForcingPart(_G, (1.0, 0.0))
_GRID = FrequencyGrid.uniform_fft(8, 0.5)
_SPECTRAL = ForcingTerm.from_multipliers([(_G, _HAT)])
_NODES = np.arange(3.0)


class _Case(NamedTuple):
    params: tuple  # every constructor parameter, in positional order
    args: tuple  # a value for each
    defaults: dict  # parameter -> the value it takes when left out, or a check of it
    errors: list  # (call, start of its ValueError message)


VALUE_TYPES = {
    QuadratureSpec: _Case(
        ("method", "nodes", "panel_tol", "max_panels", "abs_tol", "rel_tol", "variation_limit"),
        ("adaptive", 8, 1e-9, 64, 1e-11, 1e-9, 1e5),
        {
            "method": "gauss_laguerre",
            "nodes": 64,
            "panel_tol": 1e-12,
            "max_panels": 4096,
            "abs_tol": 1e-12,
            "rel_tol": 1e-10,
            "variation_limit": 1e6,
        },
        [
            (lambda: QuadratureSpec(method="simpson"), "unknown quadrature method 'simpson'"),
            (lambda: QuadratureSpec(nodes=3), "need at least 4 Gauss-Laguerre nodes"),
            (lambda: QuadratureSpec(panel_tol=0.0), "tolerances must be positive"),
            (lambda: QuadratureSpec(abs_tol=-1.0), "tolerances must be positive"),
            (lambda: QuadratureSpec(rel_tol=0.0), "tolerances must be positive"),
            (lambda: QuadratureSpec(max_panels=7), "max_panels too small to be useful"),
        ],
    ),
    ForcingPart: _Case(
        ("profile", "space_vec", "space_hat"),
        (_G, None, _HAT),
        {"space_vec": None},
        [
            (lambda: ForcingPart(_G), "a part carries exactly one spatial representation"),
            (lambda: ForcingPart(_G, (1.0,), _HAT), "a part carries exactly one"),
        ],
    ),
    ForcingTerm: _Case(
        ("parts", "growth", "dim"),
        ((_VEC,), GrowthClass.bounded(2.0), 2),
        {"parts": (), "growth": None, "dim": None},
        [
            (
                lambda: ForcingTerm((_VEC, ForcingPart(_G, space_hat=_HAT))),
                "cannot mix vector and spectral parts in one forcing term",
            ),
            (lambda: ForcingTerm((_VEC, ForcingPart(_G, (1.0,)))), "vector parts disagree"),
            (lambda: ForcingTerm((_VEC,), dim=3), "declared dim 3 but parts have length 2"),
        ],
    ),
    MultiplierSymbol: _Case(("name", "func"), ("square", np.square), {}, []),
    EpsilonPolicy: _Case(
        ("safety", "zero_bound_cap", "margin"),
        (0.5, 0.25, 0.1),
        {"safety": 1.0, "zero_bound_cap": 0.5, "margin": 0.0},
        [
            (lambda: EpsilonPolicy(safety=0.0), "safety factor must lie in (0, 1]"),
            (lambda: EpsilonPolicy(safety=1.5), "safety factor must lie in (0, 1]"),
            (lambda: EpsilonPolicy(zero_bound_cap=0.0), "cap for nonnegative symbols must be"),
            (lambda: EpsilonPolicy(margin=-1.0), "margin must be nonnegative"),
        ],
    ),
    FrequencyGrid: _Case(
        ("kind", "nodes", "weights", "n", "dx", "x0"),
        ("uniform_fft", _NODES, np.ones(3), 3, 0.5, -0.75),
        {"n": None, "dx": None, "x0": None},
        [
            (lambda: FrequencyGrid.uniform_fft(1, 0.5), "need n >= 2 samples and a positive"),
            (lambda: FrequencyGrid.uniform_fft(8, 0.0), "need n >= 2 samples and a positive"),
            (lambda: FrequencyGrid.explicit(_NODES, np.ones(2)), "nodes and weights must be"),
            (lambda: FrequencyGrid.explicit(_NODES, -np.ones(3)), "weights must be positive"),
        ],
    ),
    SpectralProblem: _Case(
        ("grid", "symbol", "initial_hat", "forcing"),
        (_GRID, classical(), np.ones(8, dtype=complex), _SPECTRAL),
        {"forcing": lambda f: f.is_zero and f.dim is None},
        [
            (
                lambda: SpectralProblem(_GRID, classical(), np.ones(8), ForcingTerm((_VEC,))),
                "multiplier problems need frequency-side forcing",
            ),
            (
                lambda: SpectralProblem(_GRID, classical(), np.ones(7)),
                "initial data does not match the grid",
            ),
        ],
    ),
    OdeProblem: _Case(
        ("matrix", "initial", "forcing"),
        (np.eye(2), np.ones(2), ForcingTerm((_VEC,))),
        {},
        [
            (
                lambda: OdeProblem(np.ones((2, 3)), np.ones(2), ForcingTerm()),
                "matrix must be square, got (2, 3)",
            ),
            (
                lambda: OdeProblem(np.eye(2), np.ones(3), ForcingTerm()),
                "initial state has shape (3,), matrix is (2, 2)",
            ),
            (
                lambda: OdeProblem(np.eye(2), np.ones(2), _SPECTRAL),
                "system forcing must use coordinate vectors",
            ),
            (
                lambda: OdeProblem(np.eye(3), np.ones(3), ForcingTerm((_VEC,))),
                "forcing dimension 2 does not match system size 3",
            ),
            (
                lambda: OdeProblem([[1.0, 2.0], [0.0, 1.0]], np.ones(2), ForcingTerm()),
                "matrix is not symmetric",
            ),
        ],
    ),
}


def _holds(value, expected) -> bool:
    if value is expected:
        return True
    if isinstance(value, np.ndarray):
        return np.array_equal(value, expected)
    return expected(value) if callable(expected) else value == expected


def test_the_declared_numpy_floor_has_what_wie_calls():
    # wie.lab calls np.vecdot, which numpy added in 2.0
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', text)
    assert tuple(int(part) for part in floor.split(".")[:2]) >= (2, 0)
    assert hasattr(np, "vecdot")


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_keeps_its_constructor_and_is_read_only(cls):
    case = VALUE_TYPES[cls]
    assert tuple(inspect.signature(cls).parameters) == case.params
    by_position, by_keyword = cls(*case.args), cls(**dict(zip(case.params, case.args)))
    for obj in (by_position, by_keyword):
        for name, value in zip(case.params, case.args):
            assert _holds(getattr(obj, name), value), name
    given = {p: value for p, value in zip(case.params, case.args) if p not in case.defaults}
    for name, expected in case.defaults.items():
        assert _holds(getattr(cls(**given), name), expected), name
    for call, message in case.errors:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            call()
    for name in (case.params[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
    with pytest.raises(AttributeError):
        delattr(by_position, case.params[0])


# ---- Reader guard ----

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

PACKAGE = SRC / "wie"

# names src/wie keeps although nothing in it reads them: the public API, the lazy
# import hook of wie/__init__.py, every name perfbench/tracing.py folds into a metric
# (read as tests/test_tracer_contract.py reads its tables), and the two estimates
# that ROADMAP item 10 either gives a caller in src/ or retires
UNREAD_ALLOWED = (
    {f"wie.{name}" for name in wie.__all__}
    | {"wie.__getattr__"}
    | {name for names in tracing.SPAN_METRICS.values() for name in names}
    | set(tracing.ITEM_COUNTERS)
    | {"wie.spectral.apriori_bound", "wie.quadrature.poincare_sides"}
)


def _definitions_and_reads():
    """Every module-level function and class of src/wie, every method and property
    of those classes by qualified name, and what src/wie reads.

    A dunder method is read by the protocol that calls it, so it is left out.
    """
    defined, loaded, imported, attributes = {}, set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "wie" if path.stem == "__init__" else f"wie.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{module}.{node.name}"] = (module, node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        defined[f"{module}.{node.name}.{member.name}"] = (None, member.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((f"wie.{node.module}", alias.name) for alias in node.names)
    return defined, loaded | imported, attributes


def test_src_defines_nothing_that_src_does_not_read():
    defined, names, attributes = _definitions_and_reads()
    unread = sorted(
        qualified
        for qualified, (module, name) in defined.items()
        if qualified not in UNREAD_ALLOWED
        and name not in attributes
        and (module is None or (module, name) not in names)
    )
    assert not unread, f"src/wie defines what nothing in src/wie reads: {', '.join(unread)}"
