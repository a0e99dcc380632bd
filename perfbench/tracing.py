"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function and method of the `wie`
modules at each place it is looked up: a function that `wie.spectral`
imports by name from `wie.quadrature` is patched in both namespaces, with
one shared wrapper.  Each call records a span (name, start, end, parent)
in flat in-memory arrays; `save()` writes them once, at exit.  Self time
is a span's duration minus the time its direct children cover, so the
self times of all spans under a root add up to the root's duration.

`layer_metrics()` folds self times and counts into the named per-layer
metrics of README.md.  A metric whose every source name no longer exists
in the program is reported absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = (
    "wie.config",
    "wie.symbols",
    "wie.forcing",
    "wie.quadrature",
    "wie.ode",
    "wie.spectral",
    "wie.lab",
    "wie.cli",
)


def _size_of_arg(args, kwargs):
    """Points evaluated by a vectorized call f(self, x)."""
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    return int(np.size(x))


def _ladder_rungs(args, kwargs):
    ladder = args[1] if len(args) > 1 else kwargs.get("ladder", ())
    return len(ladder)


# qualified name -> (counter, items per call)
ITEM_COUNTERS = {
    "wie.symbols.MultiplierSymbol.__call__": ("symbols.eval_points", _size_of_arg),
    "wie.forcing.TimeProfile.__call__": ("forcing.profile_points", _size_of_arg),
    "wie.lab.convergence_study": ("lab.rungs", _ladder_rungs),
    "wie.lab.lemma_tech_profile": ("lab.rungs", lambda args, kwargs: 1),
}

_SPECTRAL_MIN = "wie.spectral.SelectedSpectralMinimizer."
_SEMIGROUP = "wie.spectral.SemigroupSolution."
_ODE_MIN = "wie.ode.SelectedOdeMinimizer."
_ODE_EXACT = "wie.ode.ExactOdeSolution."

# metric -> source span names; "_s" metrics sum self time, "calls"/"evals"
# metrics count spans
SPAN_METRICS = {
    "config.parse_s": ("wie.config.parse_config", "wie.config.validate_config"),
    "symbols.eval_s": ("wie.symbols.MultiplierSymbol.__call__",),
    "forcing.profile_s": ("wie.forcing.TimeProfile.__call__",),
    "forcing.profile_calls": ("wie.forcing.TimeProfile.__call__",),
    "forcing.certify_s": ("wie.forcing.certify_transformable",),
    "forcing.certify_calls": ("wie.forcing.certify_transformable",),
    "quadrature.convolution_batch_s": ("wie.quadrature.convolution_integral_batch",),
    "quadrature.convolution_batch_calls": ("wie.quadrature.convolution_integral_batch",),
    "quadrature.tail_batch_s": ("wie.quadrature.laplace_tail_shifted_batch",),
    "quadrature.tail_batch_calls": ("wie.quadrature.laplace_tail_shifted_batch",),
    "quadrature.convolution_s": ("wie.quadrature.convolution_integral",),
    "quadrature.convolution_calls": ("wie.quadrature.convolution_integral",),
    "quadrature.tail_shifted_s": ("wie.quadrature.laplace_tail_shifted",),
    "quadrature.tail_shifted_calls": ("wie.quadrature.laplace_tail_shifted",),
    "quadrature.halfline_s": ("wie.quadrature.weighted_halfline",),
    "quadrature.halfline_calls": ("wie.quadrature.weighted_halfline",),
    "quadrature.finite_interval_s": ("wie.quadrature.finite_interval",),
    "quadrature.finite_interval_calls": ("wie.quadrature.finite_interval",),
    "ode.minimizer_init_s": ("wie.ode.selected_minimizer", _ODE_MIN + "__init__"),
    "ode.minimizer_eval_s": (_ODE_MIN + "__call__", _ODE_MIN + "derivative"),
    "ode.minimizer_evals": (_ODE_MIN + "__call__", _ODE_MIN + "derivative"),
    "ode.reference_s": (
        "wie.ode.exact_solution",
        _ODE_EXACT + "__init__",
        _ODE_EXACT + "__call__",
        _ODE_EXACT + "derivative",
    ),
    "ode.energy_s": ("wie.ode.energy_ode", _ODE_MIN + "energy"),
    "spectral.minimizer_init_s": ("wie.spectral.minimizer_hat", _SPECTRAL_MIN + "__init__"),
    "spectral.minimizer_eval_s": (
        _SPECTRAL_MIN + "value",
        _SPECTRAL_MIN + "__call__",
        _SPECTRAL_MIN + "derivative",
    ),
    "spectral.minimizer_evals": (
        _SPECTRAL_MIN + "value",
        _SPECTRAL_MIN + "__call__",
        _SPECTRAL_MIN + "derivative",
    ),
    "spectral.reference_s": (
        "wie.spectral.semigroup_solution",
        _SEMIGROUP + "__init__",
        _SEMIGROUP + "value",
        _SEMIGROUP + "__call__",
        _SEMIGROUP + "derivative",
    ),
    "spectral.energy_s": ("wie.spectral.energy_spectral",),
    "spectral.roots_s": (
        "wie.spectral.root_data",
        "wie.spectral.inequality_report",
        "wie.spectral.root_margins",
    ),
    "spectral.norms_s": ("wie.spectral.l2_norm", "wie.spectral.vl_norm"),
    "spectral.field_s": (
        "wie.spectral.SpectralField.sample",
        "wie.spectral.SpectralField.to_bytes",
        "wie.spectral.SpectralField.meta",
    ),
    "lab.study_s": ("wie.lab.convergence_study",),
    "lab.lemma_s": ("wie.lab.lemma_tech_profile",),
    "cli.report_write_s": ("wie.cli.run_experiment",),
}

ROOT = "wie.cli.main"
SPAN_CAPACITY = 1 << 22  # ode-forced records about 1.9M spans


class Tracer:
    """Wraps the program's public callables and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # fixed-size buffers: growing arrays would reallocate and free large
        # blocks while the program runs, which changes how its own numpy
        # temporaries are allocated (and how many page faults they take)
        self.name_id = np.empty(SPAN_CAPACITY, dtype=np.int32)
        self.parent = np.empty(SPAN_CAPACITY, dtype=np.int64)
        self.start = np.empty(SPAN_CAPACITY, dtype=np.float64)
        self.end = np.empty(SPAN_CAPACITY, dtype=np.float64)
        self.count = 0
        self.items: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    # ---- recording ----

    def span(self, fn, name: str):
        """fn wrapped so that each call records a span under `name`."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counter = ITEM_COUNTERS.get(name)
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                key, items = counter
                self.items[key] = self.items.get(key, 0) + items(args, kwargs)
            idx = self.count
            if idx == self.start.size:
                self._grow()
            self.count = idx + 1
            self.name_id[idx] = nid
            self.parent[idx] = stack[-1]
            stack.append(idx)
            self.start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return wrapper

    def _grow(self) -> None:
        for attr in ("name_id", "parent", "start", "end"):
            old = getattr(self, attr)
            setattr(self, attr, np.concatenate([old, np.empty_like(old)]))

    # ---- patching ----

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of MODULES where it is bound."""
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(name))
            except ModuleNotFoundError:
                continue  # a removed module leaves its metrics absent
        wrapped: dict[int, object] = {}

        def wrapper_for(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.span(fn, name)
            return wrapped[id(fn)]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in MODULES:
                    name = f"{obj.__module__}.{obj.__qualname__}"
                    self._patch(mod, attr, wrapper_for(obj, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, wrapper_for)

    def _wrap_class(self, cls, wrapper_for) -> None:
        prefix = f"{cls.__module__}.{cls.__qualname__}."
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                inner = member.__func__
                if inspect.isfunction(inner):
                    self._patch(cls, attr, type(member)(wrapper_for(inner, prefix + attr)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, wrapper_for(member, prefix + attr))

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- output ----

    def save(self, path) -> None:
        """Write the spans and counters: arrays in an .npz, names as JSON."""
        n = self.count
        np.savez(
            path,
            name_id=self.name_id[:n],
            parent=self.parent[:n],
            start=self.start[:n],
            end=self.end[:n],
            meta=np.frombuffer(
                json.dumps({"names": self.names, "items": self.items}).encode(), dtype=np.uint8
            ),
        )


def load(path) -> dict:
    with np.load(path) as data:
        meta = json.loads(data["meta"].tobytes().decode())
        return {
            "names": meta["names"],
            "items": meta["items"],
            "name_id": data["name_id"],
            "parent": data["parent"],
            "start": data["start"],
            "end": data["end"],
        }


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread's call stack, so children nest inside their
    parent without overlap and their durations are exactly the covered time.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def per_name(spans: dict) -> dict:
    """name -> (calls, summed self seconds)."""
    names = spans["names"]
    nid = np.asarray(spans["name_id"])
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=selfs, minlength=len(names))
    return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(names)}


def layer_metrics(spans: dict) -> tuple[dict, list]:
    """Named per-layer metrics, plus the names of metrics that are absent.

    Returns ({metric: value}, [absent metric names]).  Also reports
    trace.total_s, the root span, and trace.unattributed_s, the self time
    of every span no named metric claims, so the named self times plus the
    unattributed part add up to the traced total.
    """
    stats = per_name(spans)
    out: dict = {}
    absent: list = []
    claimed: set = set()
    for metric, sources in SPAN_METRICS.items():
        present = [s for s in sources if s in stats]
        if not present:
            absent.append(metric)
            continue
        if metric.endswith("_s"):
            out[metric] = sum(stats[s][1] for s in present)
            claimed.update(present)
        else:
            out[metric] = sum(stats[s][0] for s in present)
    for key, (counter, _fn) in ITEM_COUNTERS.items():
        if key in stats:
            out[counter] = spans["items"].get(counter, 0)
        elif counter not in out:
            absent.append(counter)
    root = [i for i, n in enumerate(spans["names"]) if n == ROOT]
    if root:
        nid = np.asarray(spans["name_id"])
        top = (nid == root[0]) & (np.asarray(spans["parent"]) < 0)
        out["trace.total_s"] = float(
            np.sum(np.asarray(spans["end"])[top] - np.asarray(spans["start"])[top])
        )
    out["trace.unattributed_s"] = sum(v[1] for n, v in stats.items() if n not in claimed)
    return out, sorted(set(absent) - set(out))
