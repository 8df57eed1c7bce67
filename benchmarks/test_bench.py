"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from torusshadow import models, shadowing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, workdir):
    if name == "orbit-batch":
        return workloads.OrbitBatch(min_requests=3)
    if name == "semiconj-grid":
        return workloads.SemiconjGrid(grid=(2, 2, 2), sample=2)
    return workloads.CliLongLinear(window=(-60, 60), workdir=workdir, min_requests=1)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_emitted_with_unit(name, tmp_path):
    assert name in workloads.WORKLOADS
    record = bench.measure(lambda: tiny(name, tmp_path), seed=0, seconds=0, trace=False, probes=1)
    assert record["failed"] == 0 and record["attempted"] >= 1, record["reasons"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    for metric in record["metrics"].values():
        assert np.isfinite(metric["value"]) and metric["value"] > 0

    record = bench.measure(lambda: tiny(name, tmp_path), seed=0, seconds=0, trace=True,
                           spans_path=tmp_path / "spans.npz")
    assert record["failed"] == 0, record["reasons"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert record["unmeasured"] == []
    assert (tmp_path / "spans.npz").exists()


def test_traced_run_replays_a_fixed_list_whatever_the_seconds(tmp_path):
    # The untraced loop would run for the whole second; the traced run must
    # not, so its per-layer counts depend on the seed alone.
    runs = [bench.measure(lambda: tiny("orbit-batch", tmp_path), seed=5, seconds=s,
                          trace=True) for s in (0, 1.0)]
    for record in runs:
        assert record["requests"] == 3
        assert record["metrics"]["shadowing.quasi_shadow.calls"]["value"] == 3
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in runs]
    assert calls[0] == calls[1]


def test_traced_self_times_account_for_wall_time():
    wl = tiny("orbit-batch", None)
    wl.setup(0)
    items = [next(wl.inputs(1))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.root("bench.setup", -1):
            wl.setup(0)
        bench.run_requests(wl, items, time.perf_counter, tracer)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    self_times = {k: v for k, v in summary.items() if k.endswith(".self_s")}
    assert all(v >= 0.0 for v in self_times.values()), self_times
    assert sum(self_times.values()) <= wall
    assert summary["shadowing.quasi_shadow.calls"] == 1
    assert summary["models.phi.calls"] > 0
    assert summary["shadowing.forward_limit.depth_mean"] >= 1


def test_refclock_advances_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock(period=0.05) as clock:
        t0 = clock.now()
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            refclock.calibration_kernel()
        t1 = clock.now()
    assert t1 > t0
    assert len(clock.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_uninstall_restores_and_missing_names_are_unmeasured():
    original_apply = models.SkewModel.__dict__["apply"]
    original_verify = shadowing.verify
    extra = (tracing.Target("models.gone", "models:SkewModel.gone"),
             tracing.Target("nowhere.f", "nowhere:f"))
    tracer = tracing.Tracer(spans=tracing.SPANS + extra)
    tracer.install()
    try:
        assert models.SkewModel.__dict__["apply"] is not original_apply
        assert shadowing.verify is not original_verify
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == ["models.gone", "nowhere.f"]
    assert models.SkewModel.__dict__["apply"] is original_apply
    assert shadowing.verify is original_verify
    assert tracer.summary()["models.gone.calls"] == 0


def test_corrupted_trace_row_fed_to_verify_is_counted(monkeypatch):
    real = shadowing.quasi_shadow

    def corrupted(*args, **kwargs):
        trace = real(*args, **kwargs)
        trace.y_star[trace.index(0), 0] = (trace.y_star[trace.index(0), 0] + 1e-6) % 1.0
        return trace

    monkeypatch.setattr(shadowing, "quasi_shadow", corrupted)
    wl = tiny("orbit-batch", None)
    wl.setup(0)
    gen = wl.inputs(0)
    outcomes, _ = bench.run_requests(wl, [next(gen) for _ in range(3)], time.perf_counter)
    counts = bench.tally(outcomes)
    assert counts["failed"] == 3 and counts["failed_frac"] == 1.0


def test_corrupted_trace_row_fed_to_cli_verify_is_counted(monkeypatch, tmp_path):
    real = shadowing.write_trace

    def corrupted(trace, path, model_name=""):
        real(trace, path, model_name=model_name)
        lines = Path(path).read_text().splitlines()
        for i, line in enumerate(lines):
            tok = line.split()
            if tok and tok[0] == "0":
                tok[1] = repr((float(tok[1]) + 1e-6) % 1.0)
                lines[i] = " ".join(tok)
        Path(path).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(shadowing, "write_trace", corrupted)
    wl = tiny("cli-long-linear", tmp_path)
    wl.setup(0)
    gen = wl.inputs(0)
    outcomes, _ = bench.run_requests(wl, [next(gen), next(gen)], time.perf_counter)
    counts = bench.tally(outcomes)
    assert counts["failed"] == 2 and counts["failed_frac"] == 1.0
    assert any("exit codes" in r for r in counts["reasons"])


def test_independent_semiconjugacy_check_can_fail():
    wl = tiny("semiconj-grid", None)
    wl.setup(0)
    out = workloads.Outcome(units=wl.units)
    wl.request(None, out)
    assert not out.failed, out.reasons
    wl.post_check(out)
    assert not out.failed, out.reasons
    # Move every pi(x) along the base: the node's own trace no longer
    # matters, only the fresh trace of g(x) does.
    out.output.pi[:, 0] = (out.output.pi[:, 0] + 1e-6) % 1.0
    wl.post_check(out)
    assert len(out.failed) == wl.sample
    assert all("base mismatch" in r for r in out.reasons)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "orbit-batch",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
