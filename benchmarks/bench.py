"""torusshadow benchmark: end-to-end and per-layer timings of the two claims.

Run from the repository root:

    python3 benchmarks/bench.py --workload orbit-batch --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): orbit-batch,
semiconj-grid, cli-long-linear.  One process, one thread: the BLAS/OpenMP
pools of this process and its children are pinned to one thread.

Durations are read on a reference-speed clock (refclock.py): wall time
rescaled by a calibration kernel that runs ten times a second in the same
thread, because the raw speed of a small shared box drifts by up to 2x
between runs.  --seconds is wall time.

--trace 0 reports the end-to-end metrics:
  setup_s       median duration of 5 fresh processes that import the package
                and build the workload's model, parameters and perturbation
  peak_rss_mb   peak resident set of this process (MiB)
  orbits_per_s  pseudo-orbits shadowed and checked per second of the loop
                (orbit-batch: one per request; semiconj-grid: one per
                lattice node, so this is nodes_per_s; cli-long-linear: one
                per chain)
  trace_ms_p50  median per-orbit time of the shadow-and-check step, one
                sample per request (semiconj-grid: the grid call divided by
                its nodes)
  chain_s_p50   median duration of one whole request
It also prints, without a bound: trace_ms_p90 (per-request time on a shared VM
is dominated by sub-second speed bursts the clock cannot follow, so the p90
moves by ~20% between seeds), failed_frac, and on semiconj-grid nodes_per_s.
--trace 1 runs a fixed list of requests that depends only on the seed (the
workload's first `min_requests` inputs: 100 orbits, one grid, 3 chains), once
untraced and once under the tracer (tracing.py), so its figures compare
between commits whatever the speed; --seconds is not used.  It reports
per-layer calls, self and total times (wall clock), plus trace_overhead, the
traced over the untraced duration of that list.

Every output is checked; an operation that fails a check counts in
`failed`, and failed_frac = failed / attempted is printed.  The last stdout
line is the JSON result.  A result file with machine metadata goes to
benchmarks/results/, and the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Modules that import numpy (workloads, tracing, refclock) are imported only
# after main() has pinned the thread pools.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "orbits_per_s": "1/s",
    "trace_ms_p50": "ms",
    "chain_s_p50": "s",
}


class SourceMissing(RuntimeError):
    pass


def load_package():
    """Import torusshadow from this checkout's src/, never from elsewhere."""
    init = SRC / "torusshadow" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"package source not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import torusshadow
    if Path(torusshadow.__file__).resolve() != init.resolve():
        raise SourceMissing(f"torusshadow imported from {torusshadow.__file__}, not {init}")
    return torusshadow


def make_workload(name: str, workdir=None):
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    return cls(workdir=workdir) if name == "cli-long-linear" else cls()


# -- measurement --------------------------------------------------------------


def run_requests(wl, items, clock, tracer=None):
    """Run each request in `items` once; returns (outcomes, duration on `clock`)."""
    from workloads import Outcome
    outcomes = []
    start = clock()
    for op_id, item in enumerate(items):
        out = Outcome(units=wl.units, clock=clock)
        t0 = clock()
        try:
            if tracer is None:
                wl.request(item, out)
            else:
                with tracer.root("bench.request", op_id):
                    wl.request(item, out)
        except Exception as exc:  # a failed request is counted, never dropped
            out.failed.update(range(wl.units))
            out.reasons.append(f"{type(exc).__name__}: {exc}")
        out.op_s = clock() - t0
        if out.trace_s != out.trace_s:  # NaN: the request raised before timing
            out.trace_s = out.op_s
        outcomes.append(out)
    return outcomes, clock() - start


def timed_loop(wl, seed: int, seconds: float, clock):
    """Closed loop: send requests until `seconds` of wall time have passed and
    at least `wl.min_requests` have completed.  Returns (outcomes, duration
    on `clock`)."""
    inputs = wl.inputs(seed)
    outcomes = []
    deadline = time.perf_counter() + seconds
    start = clock()
    while len(outcomes) < wl.min_requests or time.perf_counter() < deadline:
        got, _ = run_requests(wl, [next(inputs)], clock)
        outcomes.extend(got)
    return outcomes, clock() - start


def setup_probe_seconds(workload: str, seed: int, probes: int, clock) -> list:
    """Durations of `probes` fresh processes that only do the workload's setup."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        t0 = clock()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(clock() - t0)
    return times


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(outcomes, elapsed: float, setup_times) -> dict:
    per_orbit_ms = [1e3 * o.trace_s / o.units for o in outcomes]
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "orbits_per_s": sum(o.units for o in outcomes) / elapsed,
        "trace_ms_p50": statistics.median(per_orbit_ms),
        "chain_s_p50": statistics.median(o.op_s for o in outcomes),
    }


def tally(outcomes) -> dict:
    """Operations attempted and failed; failed_frac = failed / attempted."""
    attempted = sum(o.units for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    return {"attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "reasons": [r for o in outcomes for r in o.reasons][:20]}


def measure(make, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES, spans_path=None) -> dict:
    """One benchmark run of the workload built by `make()`; returns the result
    record (metrics with units, operation counts, run details).  Durations
    are read on a RefClock (refclock.py)."""
    from refclock import CAL_REF_S, RefClock
    wl = make()
    with RefClock() as ref:
        wall0 = time.perf_counter()
        setup_times = [] if trace else setup_probe_seconds(wl.name, seed, probes, ref.now)
        wl.setup(seed)
        if trace:
            items = list(itertools.islice(wl.inputs(seed), wl.min_requests))
            outcomes, elapsed = run_requests(wl, items, ref.now)
        else:
            outcomes, elapsed = timed_loop(wl, seed, seconds, ref.now)
        for out in outcomes:
            wl.post_check(out)
        record = {"workload": wl.name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "requests": len(outcomes), "loop_ref_s": elapsed}
        if trace:
            from tracing import Tracer, metric_units
            tracer = Tracer()
            tracer.install()
            try:
                traced = make()
                t0 = time.perf_counter()
                with tracer.root("bench.setup", -1):
                    traced.setup(seed)
                traced_outcomes, traced_loop = run_requests(traced, items, ref.now, tracer)
                traced_wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            for out in traced_outcomes:
                traced.post_check(out)
            outcomes = outcomes + traced_outcomes
            metrics = tracer.summary()
            metrics["trace_overhead"] = traced_loop / elapsed
            units = metric_units()
            record.update(unmeasured=tracer.unmeasured, traced_wall_s=traced_wall,
                          traced_loop_ref_s=traced_loop, span_count=tracer.span_count)
            if spans_path is not None:
                tracer.save(spans_path)
        else:
            metrics = end_to_end(outcomes, elapsed, setup_times)
            units = E2E_UNITS
            record["setup_probe_ref_s"] = setup_times
            record["trace_ms_p90"] = percentile([1e3 * o.trace_s / o.units for o in outcomes], 90)
        record["wall_s"] = time.perf_counter() - wall0
    record["calibration_s"] = {"ref": CAL_REF_S, "median": statistics.median(ref.samples),
                               "min": min(ref.samples), "max": max(ref.samples),
                               "count": len(ref.samples)}
    record.update(tally(outcomes))
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return record


# -- metadata and output --------------------------------------------------------


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown'
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata() -> dict:
    import hashlib

    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusshadow").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("orbit-batch", "semiconj-grid", "cli-long-linear"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_package()
    except SourceMissing as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        make_workload(args.workload).setup(args.seed)
        return 0

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    tag = f"{args.workload}-trace{args.trace}"
    try:
        record = measure(lambda: make_workload(args.workload, workdir), args.seed,
                         args.seconds, bool(args.trace),
                         spans_path=RESULTS / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = metadata()
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']!r} ({record['failed']}/{record['attempted']})")
    if not args.trace:
        print(f"trace_ms_p90 = {record['trace_ms_p90']!r} ms (no bound)")
        if args.workload == "semiconj-grid":
            print(f"nodes_per_s = {record['metrics']['orbits_per_s']['value']!r} 1/s")
    if record.get("unmeasured"):
        print(f"unmeasured = {record['unmeasured']}")
    for reason in record["reasons"]:
        print(f"FAIL {reason}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
