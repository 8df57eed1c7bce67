"""The quasi-shadowing engine: parameters, sweeps, limits, splice, verify."""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from torusshadow.geometry import minimal_displacement, torus_distance, wrap
from torusshadow.models import SkewModel
from torusshadow.oracles import cat_map_shadow, linear_model_shadow
from torusshadow.orbits import PseudoOrbit, generate_noisy, write_table
from torusshadow.shadowing import (
    InsufficientWindowError,
    ParameterError,
    ShadowingParams,
    _Anchors,
    _anchor_stage,
    _half,
    _iterate,
    _Sweep,
    _sweep,
    backward_limit,
    delta_for_epsilon,
    forward_limit,
    quasi_shadow,
    read_trace,
    shadow_batch,
    splice,
    verify,
    write_trace,
)

from tests_helpers import (
    center_motions,
    inverse_system,
    reference_half,
    reference_propagate,
    single_defect_orbit,
)

X0 = np.array([0.2, 0.35, 0.81])


class TestDeltaForEpsilon:
    def test_power_selection(self, linear):
        # 2 lam L0 = 0.84 misses the 2x margin, so k = 2 is selected
        p = delta_for_epsilon(linear, 1e-2)
        assert p.k == 2
        assert 2.0 * p.lam_k * linear.L0 < 0.5

    def test_params_hold_only_the_choices_for_epsilon(self, skew, linear):
        # the model owns its constants: no field repeats a model attribute
        names = [f.name for f in fields(ShadowingParams)]
        assert names == ["epsilon", "delta", "alpha", "r1", "r2", "k", "limit_tol", "lam_k",
                         "delta_step"]
        for sys in (skew, linear):
            assert [name for name in names if hasattr(sys, name)] == []

    def test_invariants_machine_checked(self, skew):
        for eps in (1e-1, 1e-2, 1e-3):
            p = delta_for_epsilon(skew, eps)
            L0 = skew.L0
            assert 2.0 * p.lam_k * L0 < 1.0
            assert p.delta * (1.0 + 2.0 * L0 + 2.0 * p.lam_k * L0) < eps / 3.0
            assert p.lam_k * (2.0 * L0 * p.delta + p.alpha) < p.r2
            assert p.alpha < eps / 3.0
            assert all(m >= 2.0 for m in p.margins(skew).values())

    def test_monotone_in_epsilon(self, skew):
        deltas = [delta_for_epsilon(skew, eps).delta for eps in (1e-3, 3e-3, 1e-2, 1e-1)]
        assert deltas == sorted(deltas)

    def test_oversized_epsilon_names_bound(self, skew):
        with pytest.raises(ParameterError, match="validity radius"):
            delta_for_epsilon(skew, 0.5)

    def test_positive_epsilon_required(self, skew):
        for eps in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="positive and finite"):
                delta_for_epsilon(skew, eps)


def _subsampled(orbit, k, side):
    if side == "pos":
        return [orbit.point(m * k) for m in range(0, orbit.n_max // k + 1)]
    return [orbit.point(-m * k) for m in range(0, (-orbit.n_min) // k + 1)]


def _clean_sweep(sys, X, p, stable=False):
    """The sweep of one subsampled half, which must record no failure."""
    errors = {}
    sweep = _sweep(sys, np.asarray(X), p, errors, stable)
    assert not errors
    return sweep


def _half_limit(sys, X, p, stable=False):
    """Anchor, certified depth and recorded failures of one subsampled half."""
    errors = {}
    sweep = _sweep(sys, np.asarray(X), p, errors, stable)
    limit = backward_limit if stable else forward_limit
    anchor, depth = limit(sys, sweep, p, errors)
    return anchor, depth, errors


def _window_anchors(sys, sweep, k, stable=False):
    """Every window anchor y_{0,n}, n = 1..n_max, (..., n_max, 3): the strong
    leaf point of X_0 at offset sum_{i<=n} rate^i coef_i."""
    rate = sys.eig_lam ** k if stable else 1.0 / sys.eig_mu ** k
    n_max = sweep.coef.shape[-1] - 1
    offsets = np.cumsum(rate ** np.arange(1, n_max + 1) * sweep.coef[..., 1:], axis=-1)
    return sys.leaf_point(sweep.X[..., :1, :], offsets, stable)


def _sweep_points(sys, sweep, k, stable=False):
    """The sweep's z and z', (..., n+1, 3) with X_0 at index 0, rebuilt from
    its offsets: the recursive point (z forward, z' backward) is the strong
    leaf point of X_i at `sweep.offset`, the other one the leaf point of its
    anchor a_i = F^{+-1} of the previous recursive point at `sweep.coef`."""
    X = sweep.X
    rec, other = X.copy(), X.copy()
    rec[..., 1:, :] = sys.leaf_point(X[..., 1:, :], sweep.offset[..., 1:], not stable)
    a = _iterate(sys, rec[..., :-1, :], k, inverse=stable)
    other[..., 1:, :] = sys.leaf_point(a, sweep.coef[..., 1:], stable)
    return (other, rec) if stable else (rec, other)


def _forward_half(sys, X, p):
    """Forward sweep of one subsampled half, its anchor y_0^u and its guides,
    from `_half` on a stack whose backward half is a copy of the forward
    one: no row of a half reads the other, so the copy is never read."""
    errors = {}
    sweep = _clean_sweep(sys, np.asarray(X)[None], p)
    y0u, _ = forward_limit(sys, sweep, p, errors)
    assert not errors
    pair = _Sweep(*(np.stack([a, a]) for a in sweep))
    return sweep, _half(sys, _Anchors(p, pair, *[y0u] * 4, {}))[0][0, 0]


class TestForwardWindow:
    def test_true_orbit_collapses(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (0, 20), 0.0, seed=0)
        X = _subsampled(orbit, p.k, "pos")
        sweep, y_u = _forward_half(skew, X, p)
        z, zp = _sweep_points(skew, sweep, p.k)
        for i in range(1, len(X)):
            assert torus_distance(z[0, i], X[i]) < 1e-12
            assert torus_distance(zp[0, i], X[i]) < 1e-12
        # every window anchor y_{0,n} and every guide collapse onto the orbit
        anchors = _window_anchors(skew, sweep, p.k)[0]
        assert np.max(torus_distance(anchors, X[0])) < 1e-11
        for i, yi in enumerate(y_u):
            assert torus_distance(yi, X[i]) < 1e-11

    def test_single_defect_anchor_converges_to_oracle(self, linear):
        p = delta_for_epsilon(linear, 5e-2)
        jump = 1e-4 * np.array([0.6, -0.3, 0.74])
        orbit = single_defect_orbit(linear, X0, (-10, 40), jump)
        X = _subsampled(orbit, p.k, "pos")
        sweep = _clean_sweep(linear, np.array(X)[None], p)
        anchors = _window_anchors(linear, sweep, p.k)[0, :15]   # n = 1..15
        gaps = [torus_distance(anchors[i], anchors[i + 1]) for i in range(len(anchors) - 1)]
        # geometric convergence at the subsampled contraction rate
        for i in range(1, 6):
            if gaps[i] > 1e-14:
                assert gaps[i] / gaps[i - 1] < p.lam_k * 1.5
        # limit agrees with the banded-solve unstable correction at index 0
        Ak = np.linalg.matrix_power(np.asarray(linear.A), p.k)
        oracle = cat_map_shadow(Ak, np.array([q[:2] for q in X]))
        assert torus_distance(anchors[-1][:2], oracle[0]) < 1e-10

    def test_tracing_bound_two_thirds(self, skew):
        eps = 1e-2
        p = delta_for_epsilon(skew, eps)
        for seed in range(5):
            orbit = generate_noisy(skew, X0, (0, 40), p.delta, seed=seed)
            X = _subsampled(orbit, p.k, "pos")
            sweep, y_u = _forward_half(skew, X, p)
            assert max(torus_distance(y_u[i], X[i]) for i in range(len(y_u))) < 2 * eps / 3
            anchors = _window_anchors(skew, sweep, p.k)[0]
            assert np.max(torus_distance(anchors, X[0])) < 2 * eps / 3


class TestLimits:
    def test_true_orbit_immediate(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-20, 20), 0.0, seed=0)
        y0u, n_star, errors = _half_limit(skew, _subsampled(orbit, p.k, "pos"), p)
        assert n_star == 1 and not errors
        assert torus_distance(y0u, X0) < 1e-12
        y0s, n_star_b, errors = _half_limit(skew, _subsampled(orbit, p.k, "neg"), p,
                                            stable=True)
        assert n_star_b == 1 and not errors
        assert torus_distance(y0s, X0) < 1e-12

    def test_certified_depth_bound(self, linear):
        # the certified depth is the smallest n whose tail bound
        # |rate|^(n+1) max|c_i| / (1 - |rate|) is below limit_tol (leaf slope 0
        # here), and at defect delta it obeys
        # n* <= ceil(log(limit_tol / delta) / log lam^k) + 2
        p = delta_for_epsilon(linear, 5e-2)
        delta = 1e-4
        bound = int(np.ceil(np.log(p.limit_tol / delta) / np.log(p.lam_k))) + 2
        rate = abs(linear.eig_mu) ** -p.k
        for seed in range(5):
            orbit = generate_noisy(linear, X0, (0, 100), delta, seed=seed)
            sweep = _clean_sweep(linear, _subsampled(orbit, p.k, "pos"), p)
            errors = {}
            _, n_star = forward_limit(linear, sweep, p, errors)
            assert n_star <= bound and not errors
            tail = rate ** np.array([n_star, n_star + 1]) * np.max(np.abs(sweep.coef)) / (1.0 - rate)
            assert tail[1] < p.limit_tol <= tail[0]

    def test_window_exhaustion_reported(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (0, 6), p.delta, seed=4)
        _, depth, errors = _half_limit(skew, _subsampled(orbit, p.k, "pos"), p)
        assert depth == 4    # past n_max = 3: no window depth certifies
        assert list(errors) == [0]
        assert isinstance(errors[0], InsufficientWindowError)
        assert "forward anchor tail bound" in str(errors[0])

    def test_anchor_on_unstable_leaf(self, skew):
        # membership residual of y_0^u against W^u(X_0) stays below 1e-10
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (0, 50), p.delta, seed=6)
        y0u, _, errors = _half_limit(skew, _subsampled(orbit, p.k, "pos"), p)
        assert not errors
        d = minimal_displacement(X0[:2], y0u[:2])
        resid = np.linalg.norm(d - (d @ skew.v_u) * skew.v_u)
        assert resid < 1e-10
        leaf_fiber = (X0[2] + skew.transfer_unstable(X0[:2], d @ skew.v_u)) % 1.0
        assert abs(leaf_fiber - y0u[2]) < 1e-10


class TestPropagate:
    def test_forward_propagate_contract(self, skew):
        # (y_{i+1}^u)' = F(y_i^u) up to the anchor truncation, y_{i+1}^u on
        # the unstable plaque of z_{i+1}, and tracing below 2 eps / 3
        eps = 1e-2
        p = delta_for_epsilon(skew, eps)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=14)
        X = _subsampled(orbit, p.k, "pos")
        sweep, y_u = _forward_half(skew, X, p)
        z = _sweep_points(skew, sweep, p.k)[0]
        for i in range(1, len(X) - 1):
            # center-plaque relation: bases of the guide and its primed image
            y_u_prime = _iterate(skew, y_u[i - 1], p.k)
            assert torus_distance(y_u[i][:2], y_u_prime[:2]) < 1e-9
            # unstable-plaque membership relative to z_i
            d = minimal_displacement(z[0, i][:2], y_u[i][:2])
            resid = np.linalg.norm(d - (d @ skew.v_u) * skew.v_u)
            assert resid < 1e-10
            assert torus_distance(y_u[i], X[i]) < 2 * eps / 3
        # the pipeline's guides are the same objects
        trace = quasi_shadow(skew, orbit, eps, params=p)
        for i in range(1, len(X) - 1):
            assert torus_distance(trace.y_u[i], y_u[i]) < 1e-12

    def test_backward_propagate_contract(self, skew):
        eps = 1e-2
        p = delta_for_epsilon(skew, eps)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=14)
        X_neg = _subsampled(orbit, p.k, "neg")
        sweep = _clean_sweep(skew, np.array(X_neg)[None], p, stable=True)
        errors = {}
        y0s, _ = backward_limit(skew, sweep, p, errors)
        assert not errors
        # `_half` keeps the primed guides to itself; the per-move reference
        # builds them, and `test_trace_stage_has_the_bits_of_three_leaf_moves`
        # pins `_half` to it
        y_s_prime = reference_propagate(skew, sweep, y0s, p.k, stable=True)[0]
        assert torus_distance(y_s_prime[0], y0s) == 0.0
        # the pipeline's guides y_m^s sit over the bases of the primed ones
        trace = quasi_shadow(skew, orbit, eps, params=p)
        for m in range(-1, -(len(X_neg) - 2), -1):
            y_s = trace.y_s[m]
            assert torus_distance(y_s[:2], y_s_prime[-m, :2]) < 1e-12
            # y_m^s = F^-1((y_{m+1}^s)'), both indexed by -m
            step = _iterate(skew, y_s_prime[-m - 1], p.k, inverse=True)
            assert torus_distance(y_s, step) < 1e-9
            assert torus_distance(y_s, X_neg[-m]) < 2 * eps / 3

    def test_one_orbit_sums_four_transfer_series(self, skew, monkeypatch):
        # two limits, the splice, and one stacked pass for the trace stage's
        # three leaf moves (z, the guides, y*) of both halves
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=14)
        classes, series = [], SkewModel._transfer_series

        def counted(self, pts, t, stable, tol=None):
            classes.append(np.asarray(stable).tolist())
            return series(self, pts, t, stable, tol)

        monkeypatch.setattr(SkewModel, "_transfer_series", counted)
        quasi_shadow(skew, orbit, 1e-2, params=p)
        assert classes == [False, True, [True, False],
                           [[[True], [False]], [[False], [True]], [[True], [False]]]]

    def test_anchors_close_with_their_guides(self, skew):
        # each anchor is the limit on the window its guides are built on, so
        # F(y_0^u) lies over the base of y_1^u and F^-1(y_0^s) over that of
        # y_{-1}^s
        p = delta_for_epsilon(skew, 1e-2)
        worst = 0.0
        for seed in range(10):
            orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=seed)
            trace = quasi_shadow(skew, orbit, 1e-2, params=p)
            fwd = _iterate(skew, trace.y_u[0], p.k)
            bwd = _iterate(skew, trace.y_s[0], p.k, inverse=True)
            worst = max(worst, torus_distance(fwd[:2], trace.y_u[1][:2]),
                        torus_distance(bwd[:2], trace.y_s[-1][:2]))
        assert worst < 1e-12

    def test_sweep_matches_defining_step(self, skew):
        # every z_i / z'_i of the scanned sweep is the intersection built from
        # F^{+-1} of the previous point, as the one-step definition has it;
        # the sweep keeps offsets, so both sides are rebuilt as leaf points
        det_m1 = SkewModel([[-1, 1], [1, 0]], omega=0.03, phi_modes=[(1, 0, 0.02, 0.0)])
        for sys in (skew, det_m1):
            p = delta_for_epsilon(sys, 1e-2)
            assert p.k == (2 if sys is skew else 4)
            orbit = generate_noisy(sys, X0, (-60, 60), p.delta, seed=21)
            for side, stable in (("pos", False), ("neg", True)):
                X = np.array(_subsampled(orbit, p.k, side))
                sweep = _clean_sweep(sys, X[None], p, stable)
                sz, szp = _sweep_points(sys, sweep, p.k, stable)
                if stable:
                    a = _iterate(sys, szp[0, :-1], p.k, inverse=True)
                    pair = (X[1:], a)
                else:
                    a = _iterate(sys, sz[0, :-1], p.k)
                    pair = (a, X[1:])
                errors = {}
                z = sys.leaf_point(pair[1], sys.intersect(pair[0], pair[1], True,
                                                          2 * p.delta_step, errors=errors), True)
                zp = sys.leaf_point(pair[0], sys.intersect(pair[1], pair[0], False,
                                                           2 * p.delta_step, errors=errors), False)
                assert not errors
                assert np.max(torus_distance(z, sz[0, 1:])) <= 1e-12
                assert np.max(torus_distance(zp, szp[0, 1:])) <= 1e-12


TRACE_MODELS = {
    "skew": [(1, 0, 0.02, 0.0)],
    "axis-1": [(0, 1, 0.02, 0.0)],
    "two-axis-sin-cos": [(1, -1, 0.012, -0.008), (2, 1, 0.0, 0.003)],
    "linear": None,
}


class TestTraceStage:
    @pytest.mark.parametrize("shape", ["asymmetric", "stack", "seam"])
    @pytest.mark.parametrize("name", list(TRACE_MODELS))
    def test_trace_stage_has_the_bits_of_three_leaf_moves(self, name, shape, linear):
        # `_half`'s one stacked series pass gives the guides and y* of a
        # leaf_point call per move, bit for bit, padding of the shorter half
        # included; "seam" turns an orbit's fibers (f commutes with the
        # turn) so that X's fiber at a subsampled index sits just above 0 or
        # just below 1, where z's own wrap shows in the guide's bits
        modes = TRACE_MODELS[name]
        sys = linear if modes is None else SkewModel([[2, 1], [1, 1]], 0.05, modes)
        p = delta_for_epsilon(sys, 1e-2)
        if shape == "asymmetric":
            orbit = generate_noisy(sys, X0, (-30, 64), p.delta, seed=4)
        elif shape == "stack":
            rows = [generate_noisy(sys, wrap(X0 + 0.1 * i), (-50, 31), p.delta, seed=i).points
                    for i in range(3)]
            orbit = PseudoOrbit(-50, 31, np.array(rows), p.delta)
        else:
            pts = generate_noisy(sys, X0, (-40, 40), p.delta, seed=5).points
            rows = [wrap(pts + [0.0, 0.0, side - pts[40 + i * p.k, 2]])
                    for i in (1, 2, -1, -2) for side in (2.0 ** -40, 1.0 - 2.0 ** -40)]
            orbit = PseudoOrbit(-40, 40, np.array(rows), p.delta)
        st = _anchor_stage(sys, orbit, 1e-2, p)
        assert not st.errors
        guides, star = _half(sys, st)
        ref_guides, ref_star = reference_half(sys, st)
        assert guides.shape == st.sweep.X.shape and star.shape == ref_star.shape
        assert guides.tobytes() == ref_guides.tobytes()
        assert star.tobytes() == ref_star.tobytes()


class TestTimeReversal:
    def test_backward_mirrors_forward_of_inverse(self, linear):
        # on the rotation-free linear model, the backward machinery on an
        # orbit equals the forward machinery of the inverse system on the
        # reversed orbit, with stable/unstable roles exchanged
        p = delta_for_epsilon(linear, 1e-2)
        orbit = generate_noisy(linear, X0, (-40, 40), p.delta, seed=8)
        k = p.k
        inv = inverse_system(linear)
        p_inv = delta_for_epsilon(inv, 1e-2)

        X_pos = np.array(_subsampled(orbit, k, "pos"))[None]
        fwd = _clean_sweep(linear, X_pos, p)
        # the same list read as a backward orbit of f^-1
        bwd = _clean_sweep(inv, X_pos, p_inv, stable=True)
        (fz, fzp), (bz, bzp) = _sweep_points(linear, fwd, k), _sweep_points(inv, bwd, k, True)
        for j in range(1, X_pos.shape[1]):
            assert torus_distance(bz[0, j], fzp[0, j]) < 1e-10
            assert torus_distance(bzp[0, j], fz[0, j]) < 1e-10
        # the shared anchor at index 0, from the whole window
        y_f = _window_anchors(linear, fwd, k)[0, -1]
        y_b = _window_anchors(inv, bwd, k, stable=True)[0, -1]
        assert torus_distance(y_b, y_f) < 1e-10


class TestSplice:
    def test_equal_anchors_fixed(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        y = np.array([0.3, 0.6, 0.2])
        errors = {}
        a, b = splice(skew, y, y, p, errors)
        assert not errors
        assert torus_distance(a, y) < 1e-13
        assert torus_distance(b, y) < 1e-13

    def test_linear_closed_form(self, linear, rng):
        # frame-decomposition oracle: zero out the unstable component of the
        # base displacement, keep the fiber of the unstable-side anchor
        p = delta_for_epsilon(linear, 1e-2)
        for _ in range(50):
            y0u = rng.random(3)
            cap = 2.0 * p.lam_k * (linear.L0 * p.delta_step + p.alpha)
            du = rng.uniform(-cap / 4, cap / 4)
            ds = rng.uniform(-cap / 4, cap / 4)
            y0s = wrap(np.array([*(y0u[:2] + ds * linear.v_s + du * linear.v_u), y0u[2]]))
            errors = {}
            star, star_p = splice(linear, y0u, y0s, p, errors)
            assert not errors
            expect_star = wrap(np.array([*(y0u[:2] + ds * linear.v_s), y0u[2]]))
            expect_p = wrap(np.array([*(y0u[:2] + ds * linear.v_s), y0s[2]]))
            assert torus_distance(star, expect_star) < 1e-12
            assert torus_distance(star_p, expect_p) < 1e-12

    def test_margin_violation_rejected(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        y0u = np.array([0.3, 0.6, 0.2])
        y0s = wrap(y0u + 0.05)
        errors = {}
        splice(skew, y0u, y0s, p, errors)
        assert list(errors) == [0]
        assert isinstance(errors[0], ParameterError)
        assert "splice margin" in str(errors[0])


class TestQuasiShadow:
    def test_idempotence_on_true_orbit(self, skew):
        orbit = generate_noisy(skew, X0, (-60, 60), 0.0, seed=0)
        trace = quasi_shadow(skew, orbit, 1e-2)
        assert verify(skew, orbit, trace, 1e-2).max_distance < 1e-9
        assert np.max(np.abs(center_motions(skew, trace.y_star))) < 1e-9

    def test_center_plaque_structure(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=3)
        trace = quasi_shadow(skew, orbit, 1e-2)
        lo, hi = trace.interior
        motions = center_motions(skew, trace.y_star)
        for q in range(lo, hi + 1):
            i = trace.index(q)
            y_prime = skew.apply(trace.y_star[i - 1])
            assert torus_distance(y_prime[:2], trace.y_star[i, :2]) < 1e-10
            assert abs(motions[i]) < 1e-2
        # motions concentrate at multiples of k
        for q in range(lo, hi + 1):
            if q % trace.k != 0:
                assert abs(motions[trace.index(q)]) < 1e-12

    def test_half_orbit_guides_bounded(self, skew):
        eps = 1e-2
        p = delta_for_epsilon(skew, eps)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=5)
        trace = quasi_shadow(skew, orbit, eps)
        k = trace.k
        M_min, M_max = trace.sub_range
        for m in range(0, M_max):
            assert torus_distance(trace.y_u[m], orbit.point(m * k)) < 2 * eps / 3
        for m in range(M_min + 1, 1):
            assert torus_distance(trace.y_s[m], orbit.point(m * k)) < 2 * eps / 3

    def test_guide_center_motions_below_alpha(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=11)
        trace = quasi_shadow(skew, orbit, 1e-2)
        M_min, M_max = trace.sub_range
        for m in range(1, M_max):
            prime = _iterate(skew, trace.y_u[m - 1], p.k)
            gap = torus_distance(prime, trace.y_u[m])
            assert gap < p.alpha

    def test_window_not_divisible_by_k(self, skew):
        # partial edges are filled with exact map steps/preimages and the
        # whole original window is covered
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-51, 49), p.delta, seed=6)
        trace = quasi_shadow(skew, orbit, 1e-2)
        assert trace.y_star.shape[0] == 101
        rep = verify(skew, orbit, trace, 1e-2)
        assert rep.passed
        # edge fills are exact orbit steps
        assert torus_distance(skew.apply(trace.point(-51)), trace.point(-50)) < 1e-13
        assert torus_distance(skew.apply(trace.point(48)), trace.point(49)) < 1e-13

    @pytest.mark.parametrize("matrix, omega, mode", [
        ([[2, 1], [1, 1]], 0.05, (1, 0, 0.02, 0.0)),
        ([[-1, 1], [1, 0]], 0.03, (1, 0, 0.02, 0.0)),
    ], ids=["skew", "negative-eigenvalues"])
    def test_asymmetric_windows_pad_inertly(self, matrix, omega, mode):
        # the halves run as one stacked sweep, the shorter one padded past
        # its end: the padding records no failure, every trace verifies, and
        # the half two windows share keeps its sweep and anchor bit for bit
        sys = SkewModel(matrix, omega=omega, phi_modes=[mode])
        p = delta_for_epsilon(sys, 1e-2)
        assert p.k == {2: 2, -1: 4}[matrix[0][0]]
        full = generate_noisy(sys, X0, (-80, 80), p.delta, seed=7)
        halves = {}
        for lo, hi in ((-40, 80), (-80, 40), (-40, 40)):
            orbit = PseudoOrbit(lo, hi, full.points[lo + 80:hi + 81], p.delta)
            trace, failures = shadow_batch(sys, orbit, 1e-2, p)
            assert not failures
            assert verify(sys, orbit, trace, 1e-2).passed
            st = _anchor_stage(sys, orbit, 1e-2, p)
            M_min, M_max = trace.sub_range
            for h, n in enumerate((M_max, -M_min)):
                assert not st.sweep.coef[h, n + 1:].any() and not st.sweep.offset[h, n + 1:].any()
            halves[lo, hi] = ((st.sweep.half(0, M_max), st.y0_u),
                              (st.sweep.half(1, -M_min), st.y0_s))
        for longer, h in (((-40, 80), 1), ((-80, 40), 0)):
            (sweep, anchor), (ref, ref_anchor) = halves[longer][h], halves[-40, 40][h]
            assert np.array_equal(sweep.offset, ref.offset)
            assert np.array_equal(sweep.coef, ref.coef)
            assert np.array_equal(anchor, ref_anchor)

    def test_defect_too_large_rejected(self, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-30, 30), 50 * p.delta, seed=2)
        with pytest.raises(ParameterError, match="defect"):
            quasi_shadow(skew, orbit, 1e-2)

    def test_params_for_another_epsilon_rejected(self, skew):
        # one source for epsilon: params resolved at 1e-2 cannot run at 0.9
        orbit = generate_noisy(skew, X0, (-30, 30), 0.0, seed=2)
        with pytest.raises(ParameterError, match="epsilon = 0.01"):
            quasi_shadow(skew, orbit, 0.9, params=delta_for_epsilon(skew, 1e-2))

    def test_window_too_short_rejected(self, skew):
        orbit = generate_noisy(skew, X0, (-4, 4), 0.0, seed=2)
        with pytest.raises(ParameterError, match="window"):
            quasi_shadow(skew, orbit, 1e-2)

    def test_stack_rejected(self, skew):
        orbit = generate_noisy(skew, X0, (-30, 30), 0.0, seed=2)
        stack = PseudoOrbit(-30, 30, np.array([orbit.points] * 2), orbit.delta)
        with pytest.raises(ValueError, match="quasi_shadow takes one orbit; use shadow_batch"):
            quasi_shadow(skew, stack, 1e-2)

    def test_uniqueness_under_tolerances_and_schedules(self, skew):
        # two limit tolerances x two windows (+-50 and the same orbit cut to
        # +-40) agree over |q| <= 20, away from the window-end truncation
        eps = 1e-2
        base = delta_for_epsilon(skew, eps)
        orbit = generate_noisy(skew, X0, (-50, 50), base.delta, seed=13)
        cut = PseudoOrbit(-40, 40, orbit.points[10:91], orbit.delta)
        traces = [quasi_shadow(skew, o, eps, params=replace(base, limit_tol=tol))
                  for tol in (1e-10, 1e-12) for o in (orbit, cut)]
        ref = traces[0]
        for other in traces[1:]:
            for q in range(-20, 21):
                assert torus_distance(ref.point(q)[:2], other.point(q)[:2]) < 1e-8


class TestSignedEigenvalues:
    # base matrices with det = -1 or negative trace put signs on the
    # eigenvalues, which every coefficient recursion must carry through

    @pytest.mark.parametrize("matrix,omega,mode", [
        ([[1, 1], [1, 0]], 0.03, (1, 0, 0.02, 0.0)),     # det -1, golden mean
        ([[-2, -1], [-1, -1]], 0.0, (0, 1, 0.015, 0.0)),  # both eigenvalues < 0
    ])
    def test_full_pipeline_and_base_oracle(self, matrix, omega, mode):
        from torusshadow.models import SkewModel
        sys = SkewModel(matrix, omega=omega, phi_modes=[mode])
        assert sys.eig_lam < 0 or sys.eig_mu < 0
        p = delta_for_epsilon(sys, 1e-2)
        orbit = generate_noisy(sys, [0.2, 0.6, 0.4], (-60, 60), p.delta, seed=5)
        trace = quasi_shadow(sys, orbit, 1e-2)
        assert verify(sys, orbit, trace, 1e-2).passed
        oracle = cat_map_shadow(sys.A, orbit.points[:, :2])
        lo, hi = trace.interior
        gap = max(torus_distance(trace.y_star[trace.index(q)][:2],
                                 oracle[q - orbit.n_min])
                  for q in range(lo, hi + 1))
        assert gap < 1e-8


@pytest.mark.parametrize("matrix,omega,mode,k", [
    ([[2, 1], [1, 1]], 0.05, (1, 0, 0.02, 0.0), 2),      # the builtin skew model
    ([[1, 1], [1, 0]], 0.03, (1, 0, 0.02, 0.0), 4),      # det -1, golden mean
    ([[5, 2], [2, 1]], 0.03, (1, 0, 0.005, 0.0), 1),
], ids=["skew", "golden", "k1"])
def test_negative_corrections_ride_the_unstable_leaves(matrix, omega, mode, k):
    # F = f^k maps the unstable leaf of y_m^s onto that of F(y_m^s) =
    # (y_{m+1}^s)', so for every m < 0 F(y*_m) is the point over its own base
    # on the unstable leaf of F(y_m^s)
    sys = SkewModel(matrix, omega=omega, phi_modes=[mode])
    p = delta_for_epsilon(sys, 1e-2)
    assert p.k == k
    orbit = generate_noisy(sys, [0.2, 0.6, 0.4], (-60, 60), p.delta, seed=7)
    trace = quasi_shadow(sys, orbit, 1e-2, params=p)
    ms = range(trace.sub_range[0], 0)
    image = np.stack([trace.point(m * k) for m in ms])
    guide = np.stack([trace.y_s[m] for m in ms])
    for _ in range(k):
        image, guide = sys.apply(image), sys.apply(guide)
    offset = sys.coeffs(minimal_displacement(guide[:, :2], image[:, :2]))[0]
    on_leaf = sys.leaf_point(guide, offset, stable=False)
    assert np.max(torus_distance(image, on_leaf)) < 10.0 * sys.series_tol


class TestMultiModeCoupling:
    def test_full_pipeline_with_three_modes(self):
        from torusshadow.models import SkewModel
        sys = SkewModel([[2, 1], [1, 1]], omega=0.07,
                        phi_modes=[(1, 0, 0.01, 0.005), (1, 1, 0.0, 0.008),
                                   (0, 2, -0.006, 0.0)])
        # transfer cocycle still closes
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.random(2)
            t = rng.uniform(-0.05, 0.05)
            q = wrap(p + t * sys.v_s)
            lhs = sys.transfer_stable(wrap(sys.A @ p), sys.eig_lam * t)
            rhs = sys.transfer_stable(p, t) + sys.phi(*q) - sys.phi(*p)
            assert abs(lhs - rhs) < 2.0 * sys.series_tol
        inv = inverse_system(sys)
        x = rng.random(3)
        assert torus_distance(inv.apply(sys.apply(x)), x) < 1e-13
        p = delta_for_epsilon(sys, 1e-2)
        orbit = generate_noisy(sys, [0.4, 0.15, 0.6], (-50, 50), p.delta, seed=3)
        trace = quasi_shadow(sys, orbit, 1e-2)
        assert verify(sys, orbit, trace, 1e-2).passed
        oracle = cat_map_shadow(sys.A, orbit.points[:, :2])
        lo, hi = trace.interior
        gap = max(torus_distance(trace.y_star[trace.index(q)][:2],
                                 oracle[q - orbit.n_min])
                  for q in range(lo, hi + 1))
        assert gap < 1e-8


class TestVerify:
    def test_empty_interior_is_a_parameter_error(self, tmp_path, skew):
        # on [0, 2] with k = 2 the interior (2, 0) is empty: nothing may PASS,
        # however far the y* are from the orbit
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (0, 2), 0.0, seed=0)
        path = tmp_path / "trace.txt"
        write_table(path, {"model": "skew", **asdict(p), "window": "0 2"},
                    [[q, 0.5, 0.5, 0.5] for q in range(3)])
        trace = read_trace(path)
        assert trace.k == 2 and trace.interior == (2, 0)
        with pytest.raises(ParameterError, match=r"window \[0, 2\] has no interior index "
                                                 r"to verify for power k = 2"):
            verify(skew, orbit, trace, 1e-2)

    @pytest.mark.parametrize("window", [(-50, 70), (-40, 60)])
    def test_trace_of_another_window_is_an_input_error(self, skew, window):
        # both windows reach past the orbit's top, where y* would be read at
        # an index the orbit does not have; the windows are named instead
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-50, 50), p.delta, seed=3)
        trace = quasi_shadow(skew, generate_noisy(skew, X0, window, p.delta, seed=3), 1e-2)
        with pytest.raises(ValueError, match=rf"trace window \[{window[0]}, {window[1]}\] "
                                             rf"is not the orbit's \[-50, 50\]"):
            verify(skew, orbit, trace, 1e-2)

    def test_true_orbit_residuals(self, skew):
        orbit = generate_noisy(skew, X0, (-40, 40), 0.0, seed=0)
        trace = quasi_shadow(skew, orbit, 1e-2)
        report = verify(skew, orbit, trace, 1e-2)
        assert report.passed
        assert report.max_base_residual < 1e-12
        assert report.max_motion < 1e-12

    def test_fault_injection_flags_k_and_k_plus_1(self, skew):
        eps = 1e-2
        p = delta_for_epsilon(skew, eps)
        orbit = generate_noisy(skew, X0, (-40, 40), p.delta, seed=9)
        trace = quasi_shadow(skew, orbit, eps)
        q_bad = 7
        i = trace.index(q_bad)
        trace.y_star[i, 2] = (trace.y_star[i, 2] + 2 * eps) % 1.0
        report = verify(skew, orbit, trace, eps)
        assert not report.passed
        assert set(report.failing_indices) == {q_bad, q_bad + 1}

    def test_nan_motion_fails_its_index(self, skew):
        # the gates are "not (value < bound)", so NaN cannot pass them: a NaN
        # fiber at index 5 makes the motions into and out of it NaN
        eps = 1e-2
        orbit = generate_noisy(skew, X0, (-40, 40), 0.0, seed=9)
        trace = quasi_shadow(skew, orbit, eps)
        trace.y_star[trace.index(5), 2] = np.nan
        report = verify(skew, orbit, trace, eps)
        assert not report.passed
        assert report.failing_indices == [5, 6]

    def test_read_trace_rejects_non_finite_rows(self, tmp_path, skew):
        orbit = generate_noisy(skew, X0, (-30, 30), 0.0, seed=10)
        path = tmp_path / "trace.txt"
        write_trace(quasi_shadow(skew, orbit, 1e-2), path, model_name="skew")
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("4 "))
        for col, value in ((2, "nan"), (3, "1.5"), (1, "inf")):
            parts = lines[row].split()
            parts[col] = value
            path.write_text("\n".join(lines[:row] + [" ".join(parts)] + lines[row + 1:]) + "\n")
            with pytest.raises(ValueError, match="row 4"):
                read_trace(path)

    def test_roundtrip_through_files(self, tmp_path, skew):
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-30, 30), p.delta, seed=10)
        trace = quasi_shadow(skew, orbit, 1e-2)
        path = tmp_path / "trace.txt"
        write_trace(trace, path, model_name="skew")
        back = read_trace(path)
        assert np.array_equal(back.y_star, trace.y_star)
        report = verify(skew, orbit, back, 1e-2)
        assert report.passed


    def test_roundtrip_keeps_params_and_residuals(self, tmp_path, skew):
        # window (-51, 51) with k = 2: the sub-range is (ceil(-51/2), 51 // 2)
        p = delta_for_epsilon(skew, 1e-2)
        orbit = generate_noisy(skew, X0, (-51, 51), p.delta, seed=12)
        trace = quasi_shadow(skew, orbit, 1e-2, params=p)
        path = tmp_path / "trace.txt"
        write_trace(trace, path, model_name="skew")
        back = read_trace(path)
        assert back.params == trace.params
        assert back.k == trace.k == 2
        assert back.sub_range == trace.sub_range == (-25, 25)
        assert np.array_equal(back.y_star, trace.y_star)
        residual = verify(skew, orbit, trace, 1e-2).max_base_residual
        assert verify(skew, orbit, back, 1e-2).max_base_residual == residual > 0.0
        assert back.params.margins(skew) == trace.params.margins(skew)

    def test_read_trace_requires_every_parameter(self, tmp_path, skew):
        orbit = generate_noisy(skew, X0, (-30, 30), 0.0, seed=10)
        path = tmp_path / "trace.txt"
        write_trace(quasi_shadow(skew, orbit, 1e-2), path, model_name="skew")
        text = path.read_text()
        for name in ("alpha", "lam_k"):
            cut = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith(f"# {name}:"))
            path.write_text(cut)
            with pytest.raises(ValueError, match=name):
                read_trace(path)

    @pytest.mark.parametrize("k", [0, -3])
    def test_read_trace_rejects_a_power_below_one(self, tmp_path, skew, k):
        # verify divided by zero at k = 0 and indexed past the window at k = -3
        orbit = generate_noisy(skew, X0, (-30, 30), 0.0, seed=10)
        path = tmp_path / "trace.txt"
        write_trace(quasi_shadow(skew, orbit, 1e-2), path, model_name="skew")
        text = path.read_text()
        assert "# k: 2\n" in text
        path.write_text(text.replace("# k: 2\n", f"# k: {k}\n"))
        with pytest.raises(ValueError, match=f"trace file {path} has power k = {k};"):
            read_trace(path)


class TestOracleEquivalence:
    def test_linear_full_oracle(self, linear):
        p = delta_for_epsilon(linear, 5e-2)
        orbit = generate_noisy(linear, X0, (-50, 50), 1e-4, seed=21)
        trace = quasi_shadow(linear, orbit, 5e-2)
        oracle = linear_model_shadow(linear, orbit, trace.k)
        lo, hi = trace.interior
        gap = max(torus_distance(trace.y_star[trace.index(q)], oracle[q - orbit.n_min])
                  for q in range(lo, hi + 1))
        assert gap < 1e-8

    def test_skew_base_oracle(self, skew):
        p = delta_for_epsilon(skew, 5e-2)
        orbit = generate_noisy(skew, X0, (-50, 50), 1e-4, seed=22)
        trace = quasi_shadow(skew, orbit, 5e-2)
        oracle = cat_map_shadow(skew.A, orbit.points[:, :2])
        lo, hi = trace.interior
        gap = max(torus_distance(trace.y_star[trace.index(q)][:2], oracle[q - orbit.n_min])
                  for q in range(lo, hi + 1))
        assert gap < 1e-8

    def test_locality_of_single_defect_correction(self, linear):
        p = delta_for_epsilon(linear, 5e-2)
        jump = 2e-4 * np.array([0.53, -0.31, 0.62]) / np.linalg.norm([0.53, -0.31, 0.62])
        orbit = single_defect_orbit(linear, X0, (-44, 44), jump)
        trace = quasi_shadow(linear, orbit, 5e-2)
        dist = torus_distance(orbit.points, trace.y_star)
        k = trace.k
        ratios = []
        for side in (1, -1):
            ds = []
            for m in range(1, 30 // k + 1):
                ds.append(dist[trace.index(side * m * k)])
            ds = np.array(ds)
            keep = ds > 1e-11
            logs = np.log(ds[keep])
            slope = np.polyfit(np.arange(len(logs)), logs, 1)[0]
            ratios.append(np.exp(slope))
        for r in ratios:
            assert abs(r - p.lam_k) < 1e-3
