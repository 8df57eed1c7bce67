"""Acceptance suite: the eleven desk-scale contracts, one test each.

Every test prints a single PASS/FAIL line with the measured quantity and
its gate (run with `pytest tests/test_acceptance.py -s` to see them all);
tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from torusshadow.geometry import torus_distance, wrap
from torusshadow.models import builtin_model
from torusshadow.oracles import cat_map_shadow, linear_model_shadow
from torusshadow.orbits import PerturbedMap, generate_noisy
from torusshadow.shadowing import delta_for_epsilon, quasi_shadow, verify
from torusshadow.stability import check_identity, semiconjugacy, surjectivity_density

from tests_helpers import certify_rates, single_defect_orbit

LINEAR = builtin_model("linear")
SKEW = builtin_model("skew")
X0 = np.array([0.2, 0.35, 0.81])


def report(num, passed, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def batch_traces():
    """100 seeded skew pseudo-orbits at the admissible defect, with traces."""
    eps = 1e-2
    params = delta_for_epsilon(SKEW, eps)
    out = []
    start = time.perf_counter()
    for seed in range(100):
        x0 = np.random.default_rng(1000 + seed).random(3)
        orbit = generate_noisy(SKEW, x0, (-50, 50), params.delta, seed=seed)
        trace = quasi_shadow(SKEW, orbit, eps, params=params)
        rep = verify(SKEW, orbit, trace, eps)
        out.append((orbit, trace, rep))
    elapsed = time.perf_counter() - start
    return eps, params, out, elapsed


def test_criterion_1_true_orbit_idempotence():
    start = time.perf_counter()
    worst_d = 0.0
    worst_m = 0.0
    for sys in (LINEAR, SKEW):
        orbit = generate_noisy(sys, X0, (-100, 100), 0.0, seed=0)
        trace = quasi_shadow(sys, orbit, 1e-2)
        worst_d = max(worst_d, trace.max_distance)
        worst_m = max(worst_m, float(np.max(np.abs(trace.center_motions))))
    elapsed = time.perf_counter() - start
    ok = worst_d < 1e-9 and worst_m < 1e-9 and elapsed < 1.0
    report(1, ok, f"max_distance={worst_d:.3e} (<1e-9), max_motion={worst_m:.3e} "
                  f"(<1e-9), runtime={elapsed:.2f}s (<1s)")


def test_criterion_2_tracing_bound(batch_traces):
    eps, params, out, elapsed = batch_traces
    all_pass = all(rep.passed for (_, _, rep) in out)
    worst_d = max(rep.max_distance for (_, _, rep) in out)
    worst_res = max(rep.max_base_residual for (_, _, rep) in out)
    ok = all_pass and worst_d < eps and worst_res < 1e-9 and elapsed < 30.0
    report(2, ok, f"100 orbits: verify_pass={all_pass}, max_distance={worst_d:.3e} "
                  f"(<{eps}), max_residual={worst_res:.3e} (<1e-9), "
                  f"runtime={elapsed:.1f}s (<30s)")


def test_criterion_3_half_orbit_bounds(batch_traces):
    eps, params, out, _ = batch_traces
    bound = 2.0 * eps / 3.0
    worst = 0.0
    for (orbit, trace, _) in out:
        k = trace.k
        M_min, M_max = trace.sub_range
        for m in range(0, M_max):
            worst = max(worst, torus_distance(trace.y_u[m], orbit.point(m * k)))
        for m in range(M_min + 1, 1):
            worst = max(worst, torus_distance(trace.y_s[m], orbit.point(m * k)))
    ok = worst < bound
    report(3, ok, f"100 orbits: max half-orbit tracing={worst:.3e} (<2eps/3={bound:.3e})")


def test_criterion_4_linear_oracle_equivalence():
    eps = 5e-2
    params = delta_for_epsilon(LINEAR, eps)
    assert params.delta > 1e-4
    worst = 0.0
    for seed in range(50):
        x0 = np.random.default_rng(2000 + seed).random(3)
        orbit = generate_noisy(LINEAR, x0, (-50, 50), 1e-4, seed=seed)
        trace = quasi_shadow(LINEAR, orbit, eps, params=params)
        oracle = linear_model_shadow(LINEAR, orbit, trace.k)
        lo, hi = trace.interior
        for q in range(lo, hi + 1):
            worst = max(worst, torus_distance(trace.y_star[trace.index(q)],
                                              oracle[q - orbit.n_min]))
    ok = worst < 1e-8
    report(4, ok, f"50 linear orbits at delta=1e-4: sup oracle gap={worst:.3e} (<1e-8)")


def test_criterion_5_skew_base_oracle_equivalence():
    eps = 5e-2
    params = delta_for_epsilon(SKEW, eps)
    worst = 0.0
    for seed in range(50):
        x0 = np.random.default_rng(3000 + seed).random(3)
        orbit = generate_noisy(SKEW, x0, (-50, 50), 1e-4, seed=seed)
        trace = quasi_shadow(SKEW, orbit, eps, params=params)
        oracle = cat_map_shadow(SKEW.A, orbit.points[:, :2])
        lo, hi = trace.interior
        for q in range(lo, hi + 1):
            worst = max(worst, torus_distance(trace.y_star[trace.index(q)][:2],
                                              oracle[q - orbit.n_min]))
    ok = worst < 1e-8
    report(5, ok, f"50 skew orbits: sup base-factor oracle gap={worst:.3e} (<1e-8)")


def test_criterion_6_transfer_identities():
    rng = np.random.default_rng(7)
    tol = 2.0 * SKEW.series_tol
    worst_cocycle = 0.0
    worst_antisym = 0.0
    for _ in range(1000):
        p = rng.random(2)
        t = rng.uniform(-0.1, 0.1)
        q = wrap(p + t * SKEW.v_s)
        lhs = SKEW.transfer_stable(wrap(SKEW.A @ p), SKEW.eig_lam * t)
        rhs = SKEW.transfer_stable(p, t) + SKEW.phi(*q) - SKEW.phi(*p)
        worst_cocycle = max(worst_cocycle, abs(lhs - rhs))
    for _ in range(1000):
        p = rng.random(2)
        t = rng.uniform(-0.1, 0.1)
        q = wrap(p + t * SKEW.v_u)
        worst_antisym = max(worst_antisym,
                            abs(SKEW.transfer_unstable(p, t) + SKEW.transfer_unstable(q, -t)))
    ok = worst_cocycle < tol and worst_antisym < tol
    report(6, ok, f"cocycle residual={worst_cocycle:.3e}, antisymmetry="
                  f"{worst_antisym:.3e} (<2*series_tol={tol:.1e})")


def test_criterion_7_rate_certificates():
    worst = -np.inf
    for sys in (LINEAR, SKEW):
        s_excess, u_excess = certify_rates(sys, 10_000, seed=0)
        worst = max(worst, s_excess, u_excess)
    ok = worst < 1e-12
    report(7, ok, f"10^4 stable + unstable pairs within delta1, both models: "
                  f"max contraction excess={worst:.3e} (<1e-12)")


def test_criterion_8_parameter_margins():
    worst = np.inf
    for eps in (1e-1, 1e-2, 1e-3):
        p = delta_for_epsilon(SKEW, eps)
        assert 2.0 * p.lam_k * p.L0 < 1.0
        assert p.delta * (1.0 + 2.0 * p.L0 + 2.0 * p.lam_k * p.L0) < eps / 3.0
        assert p.lam_k * (2.0 * p.L0 * p.delta + p.alpha) < p.r2
        assert p.alpha < eps / 3.0
        worst = min(worst, min(p.margins().values()))
    ok = worst >= 2.0
    report(8, ok, f"eps in {{1e-1,1e-2,1e-3}}: all four invariants hold, "
                  f"min margin={worst:.3f} (>=2)")


def test_criterion_9_semiconjugacy_identity():
    # amplitude 1e-3 forces epsilon ~ 0.21 through the margin-2 parameter
    # chain; the residual gates below are epsilon-independent
    eps = 0.216
    amp = 1e-3
    a = amp / np.sqrt(3.0)
    g = PerturbedMap(SKEW, [(0, 0, 1, 0, a, 0.0), (1, 0, 0, 1, a, 0.0),
                            (2, 1, 0, 0, a, 0.0)],
                     amplitude_bound=1.1 * amp, certification_grid=128)
    start = time.perf_counter()
    sc = semiconjugacy(SKEW, g, (16, 16, 8), 40, eps)
    identity = check_identity(SKEW, sc, g)
    surj = surjectivity_density(sc, eps)
    elapsed = time.perf_counter() - start
    max_res = float(np.nanmax(sc.residual))
    ok = (not sc.failures and identity.passed and max_res < 1e-8
          and sc.sup_pi_id < eps and surj.density_gap < eps and elapsed < 120.0)
    report(9, ok, f"grid 16x16x8, N=40, amplitude 1e-3 (eps={eps}): node "
                  f"residuals<={max_res:.3e} (<1e-8), sup d(pi,id)={sc.sup_pi_id:.3e} "
                  f"(<eps), density gap={surj.density_gap:.3e} (<eps), "
                  f"failures={len(sc.failures)}, runtime={elapsed:.0f}s (<120s)")


def test_criterion_10_uniqueness_up_to_center_plaque():
    eps = 1e-2
    base_params = delta_for_epsilon(SKEW, eps)
    worst = 0.0
    for seed in range(20):
        x0 = np.random.default_rng(4000 + seed).random(3)
        orbit = generate_noisy(SKEW, x0, (-50, 50), base_params.delta, seed=seed)
        traces = []
        for tol in (1e-10, 1e-12):
            for step in (1, 5):
                params = delta_for_epsilon(SKEW, eps, limit_tol=tol)
                traces.append(quasi_shadow(SKEW, orbit, eps, params=params,
                                           growth_step=step))
        ref = traces[0]
        lo, hi = ref.interior
        for other in traces[1:]:
            for q in range(lo, hi + 1):
                worst = max(worst, torus_distance(ref.y_star[ref.index(q)][:2],
                                                  other.y_star[other.index(q)][:2]))
    ok = worst < 1e-8
    report(10, ok, f"20 orbits x (2 limit tolerances x 2 window schedules): "
                   f"max per-index base disagreement={worst:.3e} (<1e-8)")


def test_criterion_11_locality_of_corrections():
    eps = 5e-2
    params = delta_for_epsilon(LINEAR, eps)
    direction = np.array([0.53, -0.31, 0.62])
    jump = 2e-4 * direction / np.linalg.norm(direction)
    orbit = single_defect_orbit(LINEAR, X0, (-44, 44), jump)
    trace = quasi_shadow(LINEAR, orbit, eps, params=params)
    k = trace.k
    worst = 0.0
    for side in (1, -1):
        ds = np.array([trace.trace_dist[trace.index(side * m * k)]
                       for m in range(1, 30 // k + 1)])
        keep = ds > 1e-11
        logs = np.log(ds[keep])
        slope = np.polyfit(np.arange(len(logs)), logs, 1)[0]
        worst = max(worst, abs(np.exp(slope) - params.lam_k))
    ok = worst < 1e-3
    report(11, ok, f"single-defect decay over |k|<=30: fitted ratio within "
                   f"{worst:.2e} of lam^k={params.lam_k:.6f} (<1e-3)")
