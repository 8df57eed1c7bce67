"""The benchmark's workloads: generated inputs, one timed request each, and
the checks every output must pass.

Each workload is a closed loop with a single client: the next request is
sent only after the previous one has returned.  Inputs come from the
benchmark seed alone.  The timed requests drive the package only through
public names that are meant to outlive the planned kernel rewrites:
`builtin_model`, `cli.main`, `generate_noisy`, `delta_for_epsilon`,
`quasi_shadow`, `verify`, `PerturbedMap`, `semiconjugacy`, `check_identity`
and `surjectivity_density`; the untimed semiconjugacy check adds `from_map`,
the two maps' `apply` and the `geometry` distances.  Calls go through module
attributes so that the tracer's substitutions take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from torusshadow import cli, geometry, models, orbits, shadowing, stability

RESIDUAL_TOL = 1e-9     # verify's base-residual gate (acceptance criterion 2)
ORACLE_TOL = 1e-8       # linear oracle gap gate (acceptance criterion 4)
IDENTITY_TOL = 1e-8     # semiconjugacy base-mismatch gate (criterion 9)


@dataclass
class Outcome:
    """One request: how many orbits it shadowed, which of them failed a check,
    and its timings on `clock` (`op_s` for the whole request, `trace_s` for
    the shadow-and-check part)."""

    units: int
    clock: object = time.perf_counter
    failed: set = field(default_factory=set)
    reasons: list = field(default_factory=list)
    op_s: float = math.nan
    trace_s: float = math.nan
    output: object = None

    def fail(self, unit, reason: str) -> None:
        self.failed.add(unit)
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class OrbitBatch:
    """Criterion-2 shape: seeded noisy skew orbits on [-50, 50] at the
    admissible defect for epsilon = 1e-2, each generate -> shadow -> verify.

    Why: many short traces, so the fixed per-trace costs dominate (parameter
    checks, `validate`, the O(n^2) Cauchy limit search, the scalar phi and
    transfer series), and calling per orbit bypasses any batching across
    orbits.
    """

    name = "orbit-batch"
    units = 1
    epsilon = 1e-2
    window = (-50, 50)

    def __init__(self, min_requests=100):
        # p90 needs at least ten samples above it; also the traced list.
        self.min_requests = min_requests

    def setup(self, seed: int) -> None:
        self.sys = models.builtin_model("skew")
        self.params = shadowing.delta_for_epsilon(self.sys, self.epsilon)

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        while True:
            yield rng.random(3), int(rng.integers(2 ** 62))

    def request(self, item, out: Outcome) -> None:
        x0, noise_seed = item
        orbit = orbits.generate_noisy(self.sys, x0, self.window, self.params.delta, noise_seed)
        start = out.clock()
        trace = shadowing.quasi_shadow(self.sys, orbit, self.epsilon, params=self.params)
        report = shadowing.verify(self.sys, orbit, trace, self.epsilon)
        out.trace_s = out.clock() - start
        if not report.passed:
            out.fail(0, f"verify FAIL at {report.failing_indices[:5]}")
        if not report.max_distance < self.epsilon:
            out.fail(0, f"max_distance {report.max_distance:.3e} >= {self.epsilon}")
        if not report.max_base_residual < RESIDUAL_TOL:
            out.fail(0, f"max_base_residual {report.max_base_residual:.3e} >= {RESIDUAL_TOL}")

    def post_check(self, out: Outcome) -> None:
        pass


class SemiconjGrid:
    """Quasi-stability path: the 3-mode perturbation of amplitude 1e-3 of the
    skew model, semiconjugacy on an 8x8x4 lattice with N = 40 at
    epsilon = 0.216, then check_identity and surjectivity_density.

    Why: it adds `from_map` with the fixed-point `PerturbedMap.apply_inverse`
    and the certified C0 bound, and it is the one workload where batching
    across orbits can act.  The seed sets the sin/cos split of each mode at
    unchanged amplitude.
    """

    name = "semiconj-grid"
    epsilon = 0.216
    amplitude = 1e-3
    half_length = 40
    certification_grid = 128
    min_requests = 1

    def __init__(self, grid=(8, 8, 4), sample=8):
        self.grid = tuple(grid)
        self.sample = sample
        self.units = int(np.prod(self.grid))

    def setup(self, seed: int) -> None:
        self.sys = models.builtin_model("skew")
        self.params = shadowing.delta_for_epsilon(self.sys, self.epsilon)
        a = self.amplitude / math.sqrt(3.0)
        angle = np.random.default_rng([seed, 2]).uniform(0.0, 2.0 * math.pi, size=3)
        freqs = ((0, 0, 1, 0), (1, 0, 0, 1), (2, 1, 0, 0))
        modes = [(*f, a * math.cos(t), a * math.sin(t)) for f, t in zip(freqs, angle)]
        self.g = orbits.PerturbedMap(self.sys, modes, amplitude_bound=1.1 * self.amplitude,
                                     certification_grid=self.certification_grid)
        self.g.certified_bound()
        self._sample_seed = seed

    def inputs(self, seed: int):
        while True:
            yield None

    def request(self, item, out: Outcome) -> None:
        start = out.clock()
        sc = stability.semiconjugacy(self.sys, self.g, self.grid, self.half_length,
                                     self.epsilon, params=self.params)
        identity = stability.check_identity(self.sys, sc, self.g)
        surj = stability.surjectivity_density(sc, self.epsilon)
        out.trace_s = out.clock() - start
        for i, err in sc.failures:
            out.fail(i, f"node {i}: {err}")
        for i in identity.failing_nodes:
            out.fail(i, f"identity FAIL at node {i}")
        if not surj.passed:
            out.failed.update(range(self.units))
            out.reasons.append(surj.summary())
        out.output = sc

    def post_check(self, out: Outcome) -> None:
        """Independent intertwining check on a seeded sample of nodes.

        pi(g(x)) comes from a fresh trace of the g-orbit of g(x), not from
        the node's own trace, so the base mismatch with f(pi(x)) can fail.
        """
        sc = out.output
        if sc is None:
            return
        rng = np.random.default_rng([self._sample_seed, 3])
        for i in rng.choice(self.units, size=min(self.sample, self.units), replace=False):
            i = int(i)
            if i in out.failed:
                continue
            try:
                gx = self.g.apply(sc.nodes[i])
                orbit = orbits.from_map(self.sys, self.g, gx, (-self.half_length, self.half_length))
                trace = shadowing.quasi_shadow(self.sys, orbit, self.epsilon, params=self.params)
            except (shadowing.ConstructionError, shadowing.InsufficientWindowError,
                    shadowing.ParameterError) as exc:
                out.fail(i, f"independent trace of g(x) at node {i}: {exc}")
                continue
            pi_gx = trace.point(0)
            fp = self.sys.apply(sc.pi[i])
            base = geometry.torus_distance(fp[:2], pi_gx[:2])
            motion = geometry.fiber_displacement(fp[2], pi_gx[2])
            if not base < IDENTITY_TOL:
                out.fail(i, f"node {i}: base mismatch {base:.3e} >= {IDENTITY_TOL}")
            if not abs(motion) < self.epsilon:
                out.fail(i, f"node {i}: center motion {motion:.3e} >= {self.epsilon}")


class CliLongLinear:
    """One long linear trace per request: `orbit -> shadow -> verify` through
    `cli.main` in-process on [-1000, 1000] at epsilon = 5e-2 and the
    admissible defect.

    Why: there is nothing to batch, and phi == 0 makes the transfer series
    return at once, so the cost sits in the sweeps, the intersection solves,
    `minimal_displacement`, 17-digit file I/O and the banded linear oracle.
    It is the bypass workload for any series, phi or batching gain.
    """

    name = "cli-long-linear"
    units = 1
    epsilon = 5e-2

    def __init__(self, window=(-1000, 1000), workdir=None, min_requests=3):
        self.window = window
        self.workdir = workdir
        self.min_requests = min_requests

    def setup(self, seed: int) -> None:
        self.sys = models.builtin_model("linear")
        self.params = shadowing.delta_for_epsilon(self.sys, self.epsilon)

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        while True:
            yield int(rng.integers(2 ** 31))

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def request(self, item, out: Outcome) -> None:
        work = Path(self.workdir) / "chain"
        shutil.rmtree(work, ignore_errors=True)
        common = ["--model", "linear"]
        try:
            codes = [self._cli(["orbit", *common, "--delta", repr(self.params.delta),
                                "--window", *self.window, "--seed", item,
                                "--out", work / "o"])]
            start = out.clock()
            codes.append(self._cli(["shadow", *common, "--orbit", work / "o" / "orbit.txt",
                                    "--epsilon", self.epsilon, "--out", work / "s"]))
            codes.append(self._cli(["verify", *common, "--orbit", work / "o" / "orbit.txt",
                                    "--trace", work / "s" / "trace.txt",
                                    "--epsilon", self.epsilon, "--out", work / "v"]))
            out.trace_s = out.clock() - start
            if codes != [0, 0, 0]:
                out.fail(0, f"exit codes orbit/shadow/verify = {codes}")
            report_path = work / "v" / "verify.json"
            report = json.loads(report_path.read_text()) if report_path.exists() else {}
            if report.get("passed") is not True:
                out.fail(0, "verify.json missing or not passed")
            gap = report.get("oracle_gap")
            if gap is None or not gap < ORACLE_TOL:
                out.fail(0, f"oracle_gap {gap} not < {ORACLE_TOL}")
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def post_check(self, out: Outcome) -> None:
        pass


WORKLOADS = {w.name: w for w in (OrbitBatch, SemiconjGrid, CliLongLinear)}
