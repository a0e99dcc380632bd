"""Self-time arithmetic, metric folding and patch hygiene of tracing.py."""

import importlib
import inspect
import json

import numpy as np
import pytest

import tracing


def _spans(rows):
    """rows: (name, parent index, start, end) in call order."""
    names = []
    ids = []
    for name, *_ in rows:
        if name not in names:
            names.append(name)
        ids.append(names.index(name))
    return {
        "names": names,
        "items": {},
        "name_id": np.array(ids),
        "parent": np.array([r[1] for r in rows]),
        "start": np.array([r[2] for r in rows], dtype=float),
        "end": np.array([r[3] for r in rows], dtype=float),
    }


NESTED = [
    (tracing.ROOT, -1, 0.0, 10.0),
    ("wie.cli.run_experiment", 0, 1.0, 9.0),
    ("wie.quadrature.convolution_integral_batch", 1, 2.0, 5.0),
    ("wie.forcing.TimeProfile.__call__", 2, 3.0, 4.5),
    ("wie.quadrature.convolution_integral_batch", 1, 6.0, 7.0),
    ("wie.lab.not_a_layer", 1, 7.5, 8.0),
]


def test_self_time_is_span_minus_direct_children():
    s = _spans(NESTED)
    got = tracing.self_times(s["parent"], s["start"], s["end"])
    np.testing.assert_allclose(got, [2.0, 3.5, 1.5, 1.5, 1.0, 0.5])
    assert got.sum() == pytest.approx(10.0)


def test_layer_metrics_account_for_the_traced_total():
    metrics, absent = tracing.layer_metrics(_spans(NESTED))
    assert metrics["trace.total_s"] == pytest.approx(10.0)
    assert metrics["quadrature.convolution_batch_s"] == pytest.approx(2.5)
    assert metrics["quadrature.convolution_batch_calls"] == 2
    assert metrics["forcing.profile_calls"] == 1
    assert metrics["cli.report_write_s"] == pytest.approx(3.5)
    claimed = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.total_s")
    assert claimed == pytest.approx(metrics["trace.total_s"])
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0 + 0.5)


def test_metrics_whose_sources_are_gone_are_absent_not_zero():
    metrics, absent = tracing.layer_metrics(_spans(NESTED))
    assert "quadrature.tail_shifted_s" in absent
    assert "quadrature.tail_shifted_s" not in metrics
    assert "lab.rungs" in absent


def _bindings():
    """Every attribute the tracer may patch, by identity."""
    seen = {}
    for name in tracing.MODULES:
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            seen[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for member, value in vars(obj).items():
                    seen[(name, attr, member)] = value
    return seen


SMALL_SPECTRAL = {
    "schema_version": 1,
    "mode": "spectral",
    "symbol": {"kind": "fractional", "s": "0.5"},
    "frequency_grid": {"kind": "uniform_fft", "n": 64, "dx": "0.25"},
    "initial": {"kind": "gaussian"},
    "forcing": {
        "parts": [
            {
                "profile": {"kind": "exponential", "amplitude": "0.5", "rate": "-1.0"},
                "multiplier": {"kind": "gaussian"},
            }
        ]
    },
    "epsilon_ladder": ["1e-1", "1e-2"],
    "horizon": "1.0",
    "time_points": 11,
}


def test_traced_run_records_spans_and_restores_every_binding(tmp_path):
    import wie.cli

    before = _bindings()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_SPECTRAL))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wie.cli.main is not before[("wie.cli", "main")]
        rc = wie.cli.main(["run", str(config), "--out-dir", str(tmp_path / "out"), "--log-level", "error"])
    finally:
        tracer.uninstall()
    assert rc == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []

    tracer.save(tmp_path / "spans.npz")
    spans = tracing.load(tmp_path / "spans.npz")
    metrics, absent = tracing.layer_metrics(spans)
    assert absent == []
    assert metrics["lab.rungs"] == 2
    assert metrics["symbols.eval_points"] == 64
    assert metrics["quadrature.convolution_batch_calls"] > 0
    named = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.total_s")
    assert named == pytest.approx(metrics["trace.total_s"], rel=1e-9)


def test_span_buffers_grow_past_their_capacity(monkeypatch, tmp_path):
    monkeypatch.setattr(tracing, "SPAN_CAPACITY", 2)
    tracer = tracing.Tracer()
    leaf = tracer.span(lambda x: x, "leaf")
    outer = tracer.span(lambda n: [leaf(i) for i in range(n)], "outer")
    assert outer(5) == [0, 1, 2, 3, 4]
    tracer.save(tmp_path / "spans.npz")
    spans = tracing.load(tmp_path / "spans.npz")
    assert list(spans["parent"]) == [-1, 0, 0, 0, 0, 0]
    assert tracing.per_name(spans)["leaf"][0] == 5
