"""The batched construction: one (B, N, 3) stack shadowed at once, row by row.

Everything here goes through `shadow_batch`, whose anchor stage
`semiconjugacy` runs, and checks that a row's result is its own: it matches
the row's solo run, follows a permutation of the rows, and survives a
neighbour failing.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from torusshadow import shadowing
from torusshadow.geometry import torus_distance, wrap
from torusshadow.models import IntersectionError, SkewModel
from torusshadow.orbits import PerturbedMap, PseudoOrbit, from_map, generate_noisy
from torusshadow.shadowing import (
    ConstructionError,
    ParameterError,
    _sweep,
    delta_for_epsilon,
    shadow_batch,
    verify,
)
from torusshadow.stability import _lattice, check_identity, semiconjugacy

from tests_helpers import center_motions

EPS = 0.216
TRACE_FIELDS = ("y_star",)


def default_field(sys, amp=1e-3):
    a = amp / np.sqrt(3.0)
    return PerturbedMap(sys, [(0, 0, 1, 0, a, 0.0), (1, 0, 0, 1, a, 0.0),
                              (2, 1, 0, 0, a, 0.0)],
                        amplitude_bound=1.1 * amp, certification_grid=128)


@pytest.fixture(scope="module")
def grid_batch(skew):
    """g-orbits of a (4, 4, 4) lattice on [-20, 20] and their batched trace
    (amplitude 3e-4 and limit_tol 1e-10, so the anchors certify within N = 20)."""
    g = default_field(skew, 3e-4)
    params = delta_for_epsilon(skew, EPS, limit_tol=1e-10)
    nodes = _lattice((4, 4, 4))
    orbit = from_map(skew, g, nodes, (-20, 20))
    trace, failures = shadow_batch(skew, orbit, EPS, params)
    return g, params, nodes, orbit, trace, failures


def test_batched_matches_per_node_runs(skew, grid_batch):
    # (a): every node shadowed alone (B = 1) agrees with its batched row
    g, params, nodes, orbit, trace, failures = grid_batch
    assert not failures
    worst = 0.0
    for i, x in enumerate(nodes):
        solo_orbit = from_map(skew, g, x, (-20, 20))
        assert np.array_equal(solo_orbit.points, orbit.points[i])
        solo, solo_failures = shadow_batch(skew, solo_orbit, EPS, params)
        assert not solo_failures
        worst = max(worst, float(np.max(torus_distance(solo.y_star, trace.y_star[i]))))
    assert worst <= 1e-12


def test_empty_stack(skew):
    # no rows: every stage, the series of no class among them, runs on empty
    # arrays and returns an empty trace with no failure
    params = delta_for_epsilon(skew, EPS)
    trace, failures = shadow_batch(skew, PseudoOrbit(-20, 20, np.zeros((0, 41, 3)),
                                                     params.delta), EPS, params)
    assert not failures
    assert trace.y_star.shape == (0, 41, 3) and trace.y_u[1].shape == (0, 3)
    assert skew.leaf_point(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=bool)).shape == (0, 3)


def test_semiconjugacy_reads_the_batched_rows(skew, grid_batch):
    g, params, nodes, _, trace, _ = grid_batch
    sc = semiconjugacy(skew, g, (4, 4, 4), 20, EPS, params=params)
    assert np.array_equal(sc.pi, trace.point(0))
    assert np.array_equal(sc.pi_g, trace.point(1))
    assert np.array_equal(sc.tau, center_motions(skew, trace.y_star)[:, trace.index(1)])
    assert check_identity(skew, sc, g).max_base_mismatch < 1e-8


def test_semiconjugacy_reads_the_batched_rows_at_k1(monkeypatch):
    # at k = 1 index 1 is a subsampled index: pi(g(x)) is the first upward
    # correction, off f(pi(x)) along the fiber, so tau is not zero; it is
    # read from the stacked halves' guides, one `_propagate` call
    sys = SkewModel([[5, 2], [2, 1]], omega=0.03, phi_modes=[(1, 0, 0.005, 0.0)])
    eps = 0.1
    params = delta_for_epsilon(sys, eps)
    assert params.k == 1
    g = PerturbedMap(sys, [(2, 1, 0, 0, 0.1 * params.delta, 0.0)],
                     amplitude_bound=0.2 * params.delta)
    sides, propagate = [], shadowing._propagate

    def recorded(sys, sweep, y0, k, stable):
        sides.append(np.asarray(stable).tolist())
        return propagate(sys, sweep, y0, k, stable)

    monkeypatch.setattr(shadowing, "_propagate", recorded)
    sc = semiconjugacy(sys, g, (4, 4, 4), 20, eps)
    assert [np.ravel(side).tolist() for side in sides] == [[False, True]]
    monkeypatch.undo()
    trace, failures = shadow_batch(sys, from_map(sys, g, _lattice((4, 4, 4)), (-20, 20)), eps)
    assert not failures and not sc.failures
    assert np.array_equal(sc.pi, trace.point(0))
    assert np.array_equal(sc.pi_g, trace.point(1))
    assert np.array_equal(sc.tau, center_motions(sys, trace.y_star)[:, trace.index(1)])
    assert np.max(np.abs(sc.tau)) > 0.0
    assert check_identity(sys, sc, g).max_base_mismatch < 1e-8


def test_semiconjugacy_builds_no_trace(skew, grid_batch, monkeypatch):
    # at k >= 2 pi, pi_g and tau come from the anchor stage alone: with the
    # guide recursion unavailable the grid still runs, to the same bits
    g, params, _, _, trace, _ = grid_batch
    assert params.k >= 2
    # at the default limit_tol most nodes fail to certify on N = 20: a grid
    # whose nodes partly fail, run through shadow_batch first
    mixed = shadow_batch(skew, from_map(skew, g, _lattice((4, 4, 4)), (-20, 20)), EPS)

    def no_propagate(*args, **kwargs):
        raise AssertionError("semiconjugacy ran the guide recursion")

    monkeypatch.setattr(shadowing, "_propagate", no_propagate)
    sc = semiconjugacy(skew, g, (4, 4, 4), 20, EPS, params=params)
    assert not sc.failures
    assert np.array_equal(sc.pi, trace.point(0))
    assert np.array_equal(sc.pi_g, trace.point(1))
    assert np.array_equal(sc.tau, center_motions(skew, trace.y_star)[:, trace.index(1)])

    mixed_trace, mixed_failures = mixed
    sc = semiconjugacy(skew, g, (4, 4, 4), 20, EPS)
    assert 0 < len(sc.failures) < 64
    assert sc.failures == [(r, str(exc)) for r, exc in mixed_failures]
    failed = [r for r, _ in sc.failures]
    assert np.array_equal(np.flatnonzero(np.isnan(sc.pi[:, 0])), failed)
    for name, expected in (("pi", mixed_trace.point(0)), ("pi_g", mixed_trace.point(1)),
                           ("tau", center_motions(skew, mixed_trace.y_star)[
                               :, mixed_trace.index(1)])):
        assert np.array_equal(getattr(sc, name), expected, equal_nan=True), name


def test_semiconjugacy_sums_the_series_only_where_a_point_is_read(skew, grid_batch,
                                                                   monkeypatch):
    # the sweeps run on bases and offsets, and the slope bound clears every
    # intersection of a clean grid: the series runs for the two limits, B
    # rows each, and for the two splice points, as one stack of 2B rows
    g, params, _, _, _, _ = grid_batch
    rows = []
    series = SkewModel._transfer_series

    def counted(self, p, t, stable, tol=None):
        rows.append((np.asarray(stable).tolist(), np.shape(t)))
        return series(self, p, t, stable, tol)

    monkeypatch.setattr(SkewModel, "_transfer_series", counted)
    sc = semiconjugacy(skew, g, (4, 4, 4), 20, EPS, params=params)
    assert not sc.failures
    # forward limit, backward limit, then y_0^* on W^s(y_0^u) stacked over
    # (y_0^*)' on W^u(y_0^s), one leaf class per half of the stack
    assert rows == [(False, (64,)), (True, (64,)), ([[True], [False]], (2, 64))]


def test_permuting_rows_permutes_outputs(skew, grid_batch):
    # (b)
    _, params, _, orbit, trace, _ = grid_batch
    perm = np.random.default_rng(3).permutation(orbit.points.shape[0])
    shuffled = PseudoOrbit(orbit.n_min, orbit.n_max, orbit.points[perm], orbit.delta)
    other, failures = shadow_batch(skew, shuffled, EPS, params)
    assert not failures
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(other, name), getattr(trace, name)[perm]), name
    for m in trace.y_u:
        assert np.array_equal(other.y_u[m], trace.y_u[m][perm])
    for m in trace.y_s:
        assert np.array_equal(other.y_s[m], trace.y_s[m][perm])


def test_corrupted_row_fails_alone(skew, grid_batch):
    # (c): a jump past delta0 at one index of one row, once along the first
    # axis and once past the lift-ambiguity radius, where the intersection
    # pair is too far apart for its leaf offset to stay on the leaf line
    _, params, _, orbit, _, _ = grid_batch
    rows = [0, 5, 17, 33, 42, 63]
    bad_row, q = 17, 7
    i = rows.index(bad_row)
    solos = [shadow_batch(skew, PseudoOrbit(orbit.n_min, orbit.n_max, orbit.points[r],
                                            orbit.delta), EPS, params) for r in rows]
    assert not any(solo_failures for _, solo_failures in solos)
    for jump in ([0.25, 0.0, 0.0], [0.45, 0.45, 0.0]):
        pts = orbit.points[rows].copy()
        pts[i, q - orbit.n_min] = wrap(pts[i, q - orbit.n_min] + jump)
        batch = PseudoOrbit(orbit.n_min, orbit.n_max, pts, orbit.delta)
        trace, failures = shadow_batch(skew, batch, EPS, params)
        assert [r for r, _ in failures] == [i], jump
        exc = failures[0][1]
        assert isinstance(exc, ParameterError)
        assert "forward defect" in str(exc)
        assert re.search(rf"step ({q - 1} -> {q}|{q} -> {q + 1})\b", str(exc)), str(exc)
        assert np.isnan(trace.y_star[i]).all()
        for j, (solo, _) in enumerate(solos):
            if j == i:
                continue
            for name in TRACE_FIELDS:
                assert np.array_equal(getattr(trace, name)[j], getattr(solo, name)), name


def test_sweep_failure_is_recorded_by_row(skew, grid_batch):
    # a failing intersection inside the sweep names the row, stage and index
    # and leaves the other rows of the sweep as they are alone
    _, params, _, orbit, _, _ = grid_batch
    X = orbit.points[:4, -orbit.n_min::params.k].copy()
    X[2, 3] = wrap(X[2, 3] + [0.3, 0.0, 0.0])
    errors = {}
    sweep = _sweep(skew, X, params, errors, stable=False)
    assert list(errors) == [2]
    assert isinstance(errors[2], ConstructionError)
    assert "forward sweep failed at index 3" in str(errors[2])
    alone_errors = {}
    _sweep(skew, X[2:3], params, alone_errors, stable=False)
    assert list(alone_errors) == [0]
    assert str(alone_errors[0]) == str(errors[2])
    for r in (0, 1, 3):
        alone_errors = {}
        alone = _sweep(skew, X[r:r + 1], params, alone_errors, stable=False)
        assert not alone_errors
        assert np.array_equal(alone.offset[0], sweep.offset[r])
        assert np.array_equal(alone.coef[0], sweep.coef[r])


def test_random_jumps_fail_only_their_row(skew, linear):
    # seeded stress run: one row of four jumped at 1-3 subsampled indices by
    # a base step of 0.05-0.5 (and any fiber step); the batch never raises,
    # only that row fails, the sweep of each jumped half fails first at its
    # first jumped index, and every other row is its solo run
    rng = np.random.default_rng(180)
    det_m1 = SkewModel([[-1, 1], [1, 0]], omega=0.03, phi_modes=[(1, 0, 0.02, 0.0)])
    for sys in (skew, linear, det_m1):
        params = delta_for_epsilon(sys, 1e-2)
        k = params.k
        clean = np.array([generate_noisy(sys, rng.random(3), (-60, 60), params.delta,
                                         seed=s).points for s in range(4)])
        solos = [shadow_batch(sys, PseudoOrbit(-60, 60, clean[r], params.delta), 1e-2,
                              params)[0] for r in range(4)]
        subsampled = np.r_[-(60 // k):0, 1:60 // k + 1]
        for _ in range(20):
            row = int(rng.integers(4))
            ms = rng.choice(subsampled, size=rng.integers(1, 4), replace=False)
            pts = clean.copy()
            for m in ms:
                base = rng.normal(size=2)
                base *= rng.uniform(0.05, 0.5) / np.linalg.norm(base)
                pts[row, 60 + m * k] = wrap(pts[row, 60 + m * k]
                                            + [*base, rng.uniform(-0.5, 0.5)])
            trace, failures = shadow_batch(sys, PseudoOrbit(-60, 60, pts, params.delta),
                                           1e-2, params)
            assert [r for r, _ in failures] == [row]
            for r in set(range(4)) - {row}:
                for name in TRACE_FIELDS:
                    assert np.array_equal(getattr(trace, name)[r], getattr(solos[r], name))
            for stable, jumped in ((False, ms[ms > 0]), (True, -ms[ms < 0])):
                if jumped.size:
                    errors = {}
                    _sweep(sys, pts[:, 60::-k if stable else k], params, errors, stable)
                    first = -jumped.min() if stable else jumped.min()
                    assert list(errors) == [row]
                    assert f"sweep failed at index {first}:" in str(errors[row])


def test_stacked_halves_keep_the_failure_order(skew):
    # the halves run as one sweep, but a row's failures still merge in the
    # order forward sweep, forward limit, backward sweep, backward limit.  A
    # defect bound of 1 lets jumps past delta0 reach the sweep; a half of 3
    # subsampled steps cannot certify its anchor, and its padding records
    # nothing of its own
    params = delta_for_epsilon(skew, 1e-2)
    k = params.k
    clean = np.array([generate_noisy(skew, np.random.default_rng(s).random(3), (-40, 40),
                                     params.delta, seed=s).points for s in range(3)])

    def failures(lo, hi, jumps):
        pts = clean[:, lo + 40:hi + 41].copy()
        for row, m in jumps:
            pts[row, m * k - lo] = wrap(pts[row, m * k - lo] + [0.3, 0.0, 0.0])
        orbit = PseudoOrbit(lo, hi, pts, 1.0)
        return {r: str(exc) for r, exc in
                shadow_batch(skew, orbit, 1e-2, replace(params, delta=1.0))[1]}

    got = failures(-40, 40, [(1, 5), (1, -3), (2, -3)])
    assert list(got) == [1, 2]
    assert got[1].startswith("forward sweep failed at index 5:")
    assert got[2].startswith("backward sweep failed at index -3:")
    got = failures(-40, 3 * k, [(1, 2), (1, -3), (2, -3)])
    assert got[1].startswith("forward sweep failed at index 2:")
    assert got[0].startswith("forward anchor tail bound")
    assert got[2].startswith("forward anchor tail bound")
    got = failures(-3 * k, 40, [(1, -2), (2, 5)])
    assert got[0].startswith("backward anchor tail bound")
    assert got[1].startswith("backward sweep failed at index -2:")
    assert got[2].startswith("forward sweep failed at index 5:")


def test_verify_takes_one_orbit(skew):
    # a stacked trace used to fail inside numpy's broadcasting
    params = delta_for_epsilon(skew, 1e-2)
    pts = np.array([generate_noisy(skew, np.random.default_rng(s).random(3), (-30, 30),
                                   params.delta, seed=s).points for s in range(3)])
    orbit = PseudoOrbit(-30, 30, pts, params.delta)
    trace, failures = shadow_batch(skew, orbit, 1e-2, params)
    assert not failures
    with pytest.raises(ValueError, match="verify takes one orbit"):
        verify(skew, orbit, trace, 1e-2)
    solo = shadow_batch(skew, PseudoOrbit(-30, 30, pts[1], params.delta), 1e-2, params)[0]
    with pytest.raises(ValueError, match="verify takes one orbit"):
        verify(skew, orbit, solo, 1e-2)
    assert verify(skew, PseudoOrbit(-30, 30, pts[1], params.delta), solo, 1e-2).passed


def test_intersect_reports_rows(skew, rng):
    x = rng.random((5, 3))
    y = wrap(x + 0.01 * rng.normal(size=(5, 3)))
    y[3] = wrap(x[3] + [0.21, 0.0, 0.0])          # base separation >= delta0
    errors = {}
    pts = skew.intersect(x, y, True, 0.05, errors=errors)
    assert list(errors) == [3]
    assert "delta0" in str(errors[3])
    for r in (0, 1, 2, 4):
        assert np.array_equal(pts[r], skew.intersect(x[r], y[r], True, 0.05))
    with pytest.raises(IntersectionError, match="delta0"):
        skew.intersect(x, y, True, 0.05)


def test_transfer_series_honours_tol_per_row(skew, rng):
    # (d): every row stops at its own tolerance and matches a 200-term
    # direct partial sum (anchors iterated step by step) within its tail bound
    n = 12
    P = rng.random((n, 2))
    t = rng.uniform(-0.1, 0.1, size=n)
    tols = np.where(np.arange(n) % 3 == 0, 1e-6, 1e-15)
    H = skew.transfer_stable(P, t, tol=tols)
    A = np.asarray(skew.A, dtype=float)
    for r in range(n):
        direct, a = 0.0, P[r].copy()
        for j in range(200):
            b = a + skew.eig_lam ** j * t[r] * skew.v_s
            direct += skew.phi(a[0], a[1]) - skew.phi(b[0], b[1])
            a = (A @ a) % 1.0
        # terms stop once Lip(phi) |t lam^n| / (1 - |lam|) < tol, which bounds
        # the rest of the series
        assert abs(H[r] - direct) <= tols[r]
        # a row's value is the one it gets alone at its tolerance
        assert H[r] == skew.transfer_stable(P[r], t[r], tol=tols[r])
    loose = tols == 1e-6
    tight = skew.transfer_stable(P[loose], t[loose], tol=1e-15)
    assert np.any(H[loose] != tight)
    assert np.all(np.abs(H[loose] - tight) <= 1e-6)


def test_perturbed_inverse_row_masks(skew, rng):
    g = default_field(skew)
    X = rng.random((20, 3))
    Y = g.apply_inverse(X)
    for r in range(20):
        assert np.array_equal(Y[r], g.apply_inverse(X[r]))
    assert np.max(torus_distance(g.apply(Y), X)) <= 1e-13
