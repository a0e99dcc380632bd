"""The names perfbench's tracer times still exist in the program.

perfbench/tracing.py wraps every public function of the `wie` modules, and
every public, __init__ or __call__ method of a class they define, and folds
the spans into per-layer metrics by qualified name.  A metric whose every
source name is gone is reported absent, and the benchmark's traced result
then lacks it.  These tests read the tracer's tables and change nothing
under perfbench/.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


def _public(attr: str) -> bool:
    return not attr.startswith("_") or attr in ("__init__", "__call__")


def _traced(name: str) -> bool:
    """Whether tracing.Tracer.install() records spans under this name.

    The tracer wraps each function once and names the wrapper after the
    first attribute it finds it under, so an alias such as `__call__ = value`
    records its calls as `value`.
    """
    module = max((m for m in tracing.MODULES if name.startswith(m + ".")), key=len, default=None)
    if module is None:
        return False
    owner_name, _, attr = name[len(module) + 1 :].rpartition(".")
    owner = importlib.import_module(module)
    if not owner_name:
        fn = vars(owner).get(attr)
        return (
            _public(attr)
            and inspect.isfunction(fn)
            and f"{fn.__module__}.{fn.__qualname__}" == name
        )
    cls = vars(owner).get(owner_name)
    if not (inspect.isclass(cls) and cls.__module__ == module):
        return False
    members = {a: m for a, m in vars(cls).items() if _public(a)}
    member = members.get(attr)
    first = next((a for a, m in members.items() if m is member), None)
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    return inspect.isfunction(member) and first == attr


# metric -> the span names it is folded from
SOURCES = {metric: tuple(names) for metric, names in tracing.SPAN_METRICS.items()}
for _name, (_counter, _items) in tracing.ITEM_COUNTERS.items():
    SOURCES[_counter] = SOURCES.get(_counter, ()) + (_name,)


@pytest.mark.parametrize("metric", sorted(SOURCES))
def test_every_traced_metric_keeps_a_source(metric):
    names = SOURCES[metric]
    assert any(_traced(name) for name in names), f"{metric}: none of {names} is traced"


@pytest.mark.parametrize("module", ("wie",) + tracing.MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"
