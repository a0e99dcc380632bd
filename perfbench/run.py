#!/usr/bin/env python3
"""The wie benchmark: named `wie run` workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload spectral-forced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from ./src.  Each
sample is a fresh single-threaded process (child.py) doing what
`wie run <config> --threads 1` does.  Samples repeat until --seconds have
passed (at least MIN_SAMPLES of them), then every distinct report is
checked against the exact oracle (oracle.py) and the reports of one run
must be byte-identical.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": rungs, "failed": rungs, "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, run_s, peak_rss_mb as
medians over samples).  --trace 1 alternates untraced and traced samples
and reports the per-layer metrics of tracing.py, taken from the traced
samples only, plus trace_overhead_s.  README.md lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIE_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def run_sample(root: str, work: str, config_path: str, index: int, traced: bool) -> dict:
    """One fresh process running the config; its times, memory and outputs."""
    out_dir = os.path.join(work, f"sample-{index}")
    result_path = os.path.join(work, f"result-{index}.json")
    spans_path = os.path.join(work, f"spans-{index}.npz")
    argv = [sys.executable, os.path.join(HERE, "child.py"), config_path, out_dir, result_path]
    if traced:
        argv.append(spans_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        argv, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=SAMPLE_TIMEOUT_S,
    )
    sample = {"traced": traced, "exit_code": proc.returncode, "report": None}
    if proc.returncode != 0 or not os.path.exists(result_path):
        sample["error"] = " ".join(proc.stderr.decode(errors="replace").strip().splitlines()[-1:])
        return sample
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    sample["exit_code"] = result["exit_code"]
    stamps = result["stamps"]
    sample["run_s"] = stamps["written"] - t0
    if "validated" in stamps:
        sample["setup_s"] = stamps["validated"] - t0
    sample["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    report_path = os.path.join(out_dir, "report.json")
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            sample["report"] = fh.read()
    sample["field_bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in ("field.bin", "field_meta.json")
        if os.path.exists(os.path.join(out_dir, name))
    )
    if traced:
        spans = tracing.load(spans_path)
        sample["layers"], sample["absent"] = tracing.layer_metrics(spans)
        os.remove(spans_path)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.remove(result_path)
    return sample


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def check_samples(config: dict, samples: list) -> tuple[int, int, list]:
    """(attempted rungs, failed rungs, messages) over every sample of a run.

    A rung fails when its process exits non-zero, a verdict is false, the
    oracle disagrees, or its report differs from the run's first report.
    """
    rungs = len(config["epsilon_ladder"])
    first = checks = None  # digest and oracle checks of the first report
    failed = 0
    messages = []
    for i, sample in enumerate(samples):
        report = sample["report"]
        if sample["exit_code"] != 0 or report is None:
            failed += rungs
            messages.append(f"sample {i}: exit code {sample['exit_code']} {sample.get('error', '')}")
            continue
        digest = hashlib.sha256(report).hexdigest()
        if first is None:
            first = digest
            checks = oracle.check(config, json.loads(report))
            messages += [f"eps={c['epsilon']:g}: {p}" for c in checks for p in c["problems"]]
        elif digest != first:
            failed += rungs
            messages.append(f"sample {i}: report.json differs from the first report (not deterministic)")
            continue
        failed += sum(not c["ok"] for c in checks)
    return rungs * len(samples), failed, messages


def collect(root: str, work: str, config_path: str, seconds: float, trace: bool) -> list:
    """Rounds of one sample (an untraced and a traced one with trace) until
    the measuring time is used, stopping where it ends closest to `seconds`."""
    samples = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        samples.append(run_sample(root, work, config_path, len(samples), traced=False))
        if trace:
            samples.append(run_sample(root, work, config_path, len(samples), traced=True))
        now = time.monotonic()
        if len(samples) >= MIN_SAMPLES and (now - start) + 0.5 * (now - round_start) >= seconds:
            return samples


def end_to_end(timed: list) -> dict:
    """Median of each end-to-end metric over the untraced samples."""
    metrics = {}
    for metric, unit in END_TO_END_UNITS.items():
        values = [s[metric] for s in timed]
        median = statistics.median(values)
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "tail n/a (< 11 samples)"
        print(f"  {metric:<12} median {median:.6g} {unit}  {tail_text}  n={len(values)}")
        print(f"  {'':<12} samples " + " ".join(f"{v:.4g}" for v in values))
        metrics[metric] = {"value": median, "unit": unit}
    return metrics


def per_layer(traced: list, timed: list) -> dict:
    """Layer metrics of the traced samples: medians of times, counts as recorded."""
    layers = {}
    for metric in sorted(traced[0]["layers"]):
        values = [s["layers"][metric] for s in traced]
        if metric.endswith("_s"):
            layers[metric] = statistics.median(values)
        else:
            layers[metric] = values[0]
            if len(set(values)) != 1:
                print(f"  warning: count {metric} differs between traced samples: {values}")
    layers["cli.report_bytes"] = len(traced[0]["report"] or b"")
    layers["cli.field_bytes"] = traced[0]["field_bytes"]
    layers["trace_overhead_s"] = statistics.median(s["run_s"] for s in traced) - statistics.median(
        s["run_s"] for s in timed
    )
    total = layers.get("trace.total_s") or 1.0
    metrics = {}
    for metric, value in sorted(layers.items()):
        unit = "s" if metric.endswith("_s") else ("bytes" if metric.endswith("_bytes") else "count")
        share = f"  {100.0 * value / total:5.1f}% of traced total" if unit == "s" else ""
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {metric:<36} {text} {unit}{share}  n={len(traced)}")
        metrics[metric] = {"value": value, "unit": unit}
    for metric in traced[0]["absent"]:
        print(f"  {metric:<36} absent: the program no longer has its source names")
    return metrics


def summarize(name: str, config: dict, samples: list, trace: bool) -> dict:
    attempted, failed, messages = check_samples(config, samples)
    timed = [s for s in samples if not s["traced"] and "run_s" in s]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    print(f"workload {name}: {WORKLOADS[name][1]}")
    for msg in messages:
        print(f"  check: {msg}")
    print(f"  failed_frac  {failed}/{attempted} rungs = {failed / attempted:.4g}")
    if not timed or (trace and not traced):
        raise RuntimeError(f"no sample of {name} completed; nothing to report")
    metrics = per_layer(traced, timed) if trace else end_to_end(timed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    build, _why = WORKLOADS[name]
    config = build(seed)
    work = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
        samples = collect(root, work, config_path, seconds, trace)
        return summarize(name, config, samples, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wie", "__init__.py")):
        print("error: run from a checkout root; src/wie is missing here", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets subprocess.run reap the child

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # absent, or another run still uses it
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
