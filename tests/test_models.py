"""Model family: eigenframes, transfers, strong-leaf points (and center
holonomy through them), intersections, constants."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from torusshadow import models
from torusshadow.geometry import minimal_displacement, torus_distance, wrap
from torusshadow.models import (
    IntersectionError,
    ModelError,
    SkewModel,
    eigen_frame,
    inverse_system,
    load_model,
    model_from_dict,
    model_to_dict,
)
from torusshadow.shadowing import _iterate, delta_for_epsilon

from tests_helpers import certify_holonomy_modulus, certify_intersections, certify_rates

GOLDEN = math.sqrt(5.0)


class TestEigenFrame:
    def test_cat_map_eigenvalues(self):
        _, _, lam, mu = eigen_frame([[2, 1], [1, 1]])
        assert mu == pytest.approx((3 + GOLDEN) / 2, abs=1e-14)
        assert lam == pytest.approx((3 - GOLDEN) / 2, abs=1e-14)

    def test_cat_map_eigenvectors(self):
        v_s, v_u, lam, mu = eigen_frame([[2, 1], [1, 1]])
        # directions (1, 0.618...) and (1, -1.618...), unit norm, residual check
        assert v_u[1] / v_u[0] == pytest.approx((GOLDEN - 1) / 2, abs=1e-13)
        assert v_s[1] / v_s[0] == pytest.approx(-(GOLDEN + 1) / 2, abs=1e-13)
        A = np.array([[2, 1], [1, 1]], float)
        assert np.linalg.norm(A @ v_u - mu * v_u) < 1e-12
        assert np.linalg.norm(A @ v_s - lam * v_s) < 1e-12
        assert np.linalg.norm(v_u) == pytest.approx(1.0, abs=1e-14)
        assert v_u[0] > 0 and v_s[0] > 0

    def test_identity_matrix_rejected(self):
        with pytest.raises(ModelError):
            eigen_frame([[1, 0], [0, 1]])

    def test_determinant_checked(self):
        with pytest.raises(ModelError):
            eigen_frame([[2, 0], [0, 2]])

    def test_det_minus_one_supported(self):
        v_s, v_u, lam, mu = eigen_frame([[1, 1], [1, 0]])
        assert abs(lam) < 1.0 < abs(mu)
        assert lam * mu == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[-1, 1], [1, 0]], [[-3, 1], [-1, 0]]],
                             ids=["cat", "det-minus-one", "negative-trace"])
    @given(d=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    @settings(max_examples=200, deadline=None)
    @seed(9)
    def test_coeffs_reconstruct_displacement(self, matrix, d):
        # d = c_u v_u + c_s v_s; the last matrix has a non-orthogonal frame
        sys = SkewModel(matrix)
        d = np.array(d)
        c_u, c_s = sys.coeffs(d)
        assert np.linalg.norm(c_u * sys.v_u + c_s * sys.v_s - d) <= 1e-15


class TestApply:
    def test_linear_example(self, linear):
        assert np.allclose(linear.apply([0.1, 0.2, 0.3]), [0.4, 0.3, 0.3], atol=1e-15)

    def test_skew_at_origin(self, skew):
        # sin 0 = 0, so only the rotation moves the fiber
        assert np.allclose(skew.apply([0.0, 0.0, 0.0]), [0.0, 0.0, 0.05], atol=1e-15)

    def test_inverse_identity_bulk(self, skew, rng):
        X = rng.random((10_000, 3))
        back = skew.apply_inverse(skew.apply(X))
        assert np.max(torus_distance(back, X)) < 1e-13

    def test_linear_fixed_fiber_line(self, linear):
        for z in (0.0, 0.25, 0.9):
            assert np.allclose(linear.apply_inverse([0.0, 0.0, z]), [0.0, 0.0, z])

    def test_scalar_matches_vectorized(self, skew, rng):
        # one point at a time and the whole stack at once give the same rows
        X = rng.random((100, 3))
        F = skew.apply(X)
        B = skew.apply_inverse(X)
        for i in range(100):
            assert np.allclose(skew.apply(X[i]), F[i], atol=1e-15)
            assert np.allclose(skew.apply_inverse(X[i]), B[i], atol=1e-15)


class TestTransfers:
    def test_equal_points(self, skew):
        p = np.array([0.3, 0.7])
        assert skew.transfer_stable(p, 0.0) == 0.0
        assert skew.transfer_unstable(p, 0.0) == 0.0

    def test_linear_model_vanishes(self, linear, rng):
        for _ in range(50):
            p = rng.random(2)
            assert linear.transfer_stable(p, rng.uniform(-0.1, 0.1)) == 0.0

    def test_stable_cocycle_identity(self, skew, rng):
        # h_s(Ap, lam t) - h_s(p, t) - phi(p + t v_s) + phi(p) == 0, both
        # sides evaluated
        worst = 0.0
        for _ in range(1000):
            p = rng.random(2)
            t = rng.uniform(-0.1, 0.1)
            q = wrap(p + t * skew.v_s)
            lhs = skew.transfer_stable(wrap(skew.A @ p), skew.eig_lam * t)
            rhs = skew.transfer_stable(p, t) + skew.phi(*q) - skew.phi(*p)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 2.0 * skew.series_tol

    def test_unstable_antisymmetry(self, skew, rng):
        # h_u(p, t) + h_u(p + t v_u, -t) == 0
        worst = 0.0
        for _ in range(1000):
            p = rng.random(2)
            t = rng.uniform(-0.1, 0.1)
            q = wrap(p + t * skew.v_u)
            worst = max(worst, abs(skew.transfer_unstable(p, t) + skew.transfer_unstable(q, -t)))
        assert worst < 2.0 * skew.series_tol

    def test_unstable_invariance_identity(self, skew, rng):
        worst = 0.0
        Ainv = skew.A_inv
        for _ in range(1000):
            p = rng.random(2)
            t = rng.uniform(-0.1, 0.1)
            q = wrap(p + t * skew.v_u)
            lhs = skew.transfer_unstable(wrap(Ainv @ p), t / skew.eig_mu)
            rhs = (skew.transfer_unstable(p, t)
                   - skew.phi(*wrap(Ainv @ q)) + skew.phi(*wrap(Ainv @ p)))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 2.0 * skew.series_tol

    def test_vectorized_matches_scalar(self, skew, rng):
        P = rng.random((200, 2))
        t = rng.uniform(-0.1, 0.1, size=200)
        H = skew.transfer_stable(P, t)
        for i in range(0, 200, 17):
            assert H[i] == pytest.approx(skew.transfer_stable(P[i], t[i]), abs=1e-11)

    @pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
    def test_blocked_series_is_exact(self, skew, monkeypatch, stable):
        # one row per block and one block for everything give the default's bits
        rng = np.random.default_rng(11)
        B, n = 300, 20
        cases = [
            (rng.random((B, 1, 2)), rng.uniform(-0.05, 0.05, (B, n)), None),   # _anchors/_limit
            (rng.random((B, n, 2)), rng.uniform(-0.05, 0.05, (B, n)), 1e-15),
            (rng.random((B, 1, 2)), rng.uniform(-0.05, 0.05, (B, n)),
             10.0 ** rng.uniform(-15.0, -9.0, (B, n))),                        # per-row tol
            (rng.random((B, 2)), rng.uniform(-0.05, 0.05, B),
             10.0 ** rng.uniform(-15.0, -9.0, (B, 1))[:, 0]),
            (rng.random(2), rng.uniform(-0.05, 0.05, n), None),                # one anchor
            (rng.random(2), 0.04, None),                                       # one point
        ]
        for p, t, tol in cases:
            default = skew._transfer_series(p, t, stable, tol=tol)
            for block in (1, 2 ** 40):
                monkeypatch.setattr(models, "_BLOCK_ELEMENTS", block)
                assert np.array_equal(skew._transfer_series(p, t, stable, tol=tol), default)
            monkeypatch.undo()
            assert np.shape(default) == np.broadcast(np.asarray(p)[..., 0], t).shape

    def test_series_memory_is_set_by_the_block(self, skew):
        # 2048 x 20 offsets against (2048, 1) anchors: unblocked, each
        # (row, term) temporary alone is about 9 MiB
        rng = np.random.default_rng(12)
        p, t = rng.random((2048, 1, 2)), rng.uniform(-0.05, 0.05, (2048, 20))
        skew._transfer_series(p, t, stable=True, tol=1e-15)
        for stable in (True, False):
            tracemalloc.start()
            try:
                skew._transfer_series(p, t, stable, tol=1e-15)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < t.nbytes + 8 * 8 * models._BLOCK_ELEMENTS


class TestIntersect:
    def test_linear_cu_s_example(self, linear):
        x = np.array([0.0, 0.0, 0.2])
        yb = wrap(0.01 * linear.v_s)
        y = np.array([yb[0], yb[1], 0.7])
        pt = linear.intersect("cu", x, "s", y, 0.05)
        assert np.allclose(pt[:2], [0.0, 0.0], atol=1e-13)
        assert pt[2] == pytest.approx(0.7, abs=1e-13)

    def test_coincident_bases(self, linear):
        x = np.array([0.4, 0.6, 0.1])
        y = np.array([0.4, 0.6, 0.8])
        pt = linear.intersect("cu", x, "s", y, 0.05)
        assert np.allclose(pt, [0.4, 0.6, 0.8], atol=1e-14)

    def test_skew_against_grid_search_oracle(self, skew, rng):
        # brute-force oracle: scan the stable-leaf parameterization of y at
        # step 1e-5 and certify the returned point sits on both local leaves
        for _ in range(10):
            x = rng.random(3)
            v = rng.normal(size=3)
            v *= 0.01 / np.linalg.norm(v)
            y = wrap(x + v)
            pt = skew.intersect("cu", x, "s", y, 0.05)
            ts = np.arange(-0.05, 0.05, 1e-5)
            bases = (y[:2] + ts[:, None] * skew.v_s) % 1.0
            fibers = (y[2] + skew.transfer_stable(np.tile(y[:2], (ts.size, 1)), ts)) % 1.0
            d = (np.column_stack([bases, fibers]) - pt) % 1.0
            d[d >= 1.0] = 0.0
            d[d >= 0.5] -= 1.0
            nearest = np.min(np.linalg.norm(d, axis=1))
            assert nearest < 1.5e-5  # on the scanned leaf, up to grid resolution
            # and on the cu-leaf of x: base displacement parallel to v_u
            db = minimal_displacement(x[:2], pt[:2])
            resid = np.linalg.norm(db - (db @ skew.v_u) * skew.v_u)
            assert resid < 1e-12
            # fiber residual against the transfer series at the solved base
            t = minimal_displacement(y[:2], pt[:2]) @ skew.v_s
            leaf_fiber = (y[2] + skew.transfer_stable(y[:2], t)) % 1.0
            assert abs(leaf_fiber - pt[2]) < 10.0 * skew.series_tol

    def test_unsupported_pair(self, linear):
        x = np.array([0.1, 0.1, 0.1])
        for pair in (("s", "u"), ("c", "u"), ("c", "s")):
            with pytest.raises(IntersectionError, match="unsupported leaf pair"):
                linear.intersect(pair[0], x, pair[1], x, 0.05)

    def test_lift_ambiguity(self, linear):
        x = np.array([0.0, 0.0, 0.0])
        y = np.array([0.4, 0.4, 0.0])
        with pytest.raises(IntersectionError):
            linear.intersect("cu", x, "s", y, 0.5)

    def test_out_of_range(self, linear):
        x = np.array([0.0, 0.0, 0.0])
        y = wrap(x + 0.05 * np.array([*linear.v_s, 0.0]))
        with pytest.raises(IntersectionError):
            linear.intersect("cu", x, "s", y, 1e-4)

    def test_leaf_point_broadcast_and_intersect_fiber(self, skew, rng):
        # a (B, 1, 3) anchor against (B, n) offsets, as the window anchors
        # use it, equals one call per row bitwise
        anchor = rng.random((4, 1, 3))
        for stable in (True, False):
            offset = rng.uniform(-0.1, 0.1, (4, 5))
            out = skew.leaf_point(anchor, offset, stable)
            assert out.shape == (4, 5, 3)
            for b in range(4):
                assert np.array_equal(out[b], skew.leaf_point(anchor[b, 0], offset[b], stable))
        # an intersection is the leaf point of y at the offset solved from
        # the eigenframe coefficients of the minimal x -> y displacement
        x = rng.random((6, 3))
        y = wrap(x + rng.uniform(-0.01, 0.01, (6, 3)))
        for cx, cy in (("cu", "s"), ("cs", "u")):
            pt = skew.intersect(cx, x, cy, y, 0.05)
            t = -skew.coeffs(minimal_displacement(x[:, :2], y[:, :2]))[cy == "s"]
            assert np.array_equal(pt, skew.leaf_point(y, t, cy == "s"))

    def test_leaf_point_base_is_the_offset_point(self, skew, monkeypatch, rng):
        # the base is wrap(p + t v) itself: no displacement is measured and
        # projected back onto the leaf line
        calls = []

        def counted(p, q):
            calls.append(1)
            return minimal_displacement(p, q)

        monkeypatch.setattr(models, "minimal_displacement", counted)
        anchor, t = rng.random((50, 3)), rng.uniform(-0.1, 0.1, 50)
        for stable, v in ((True, skew.v_s), (False, skew.v_u)):
            out = skew.leaf_point(anchor, t, stable)
            assert np.array_equal(out[:, :2], wrap(anchor[:, :2] + t[:, None] * v))
        assert calls == []

    def test_sampled_blowup_certificate(self, skew):
        params = delta_for_epsilon(skew, 1e-2)
        worst = certify_intersections(skew, params, 2000, seed=5, delta=0.1)
        assert worst <= params.L0


class TestHolonomy:
    def test_identity_plaque(self, skew):
        params = delta_for_epsilon(skew, 1e-2)
        anchor = np.array([0.3, 0.4, 0.5])
        src = wrap(anchor + 0.01 * np.array([*skew.v_u, 0.0]))
        src[2] = (anchor[2] + skew.transfer_unstable(anchor[:2], 0.01)) % 1.0
        assert torus_distance(src, anchor) <= params.L0 * params.r1
        # center holonomy onto the unstable leaf of the anchor: the leaf point
        out = skew.leaf_point(anchor, 0.01, stable=False)
        assert torus_distance(out, src) < 1e-12

    def test_linear_vertical_translation(self, linear):
        # between unstable plaques at fiber heights z1 and z2 the holonomy
        # keeps the base and moves the fiber to the target height
        params = delta_for_epsilon(linear, 1e-2)
        anchor = np.array([0.3, 0.4, 0.2])
        d2 = np.array([0.3, 0.4, 0.27])
        src = wrap(anchor + 0.01 * np.array([*linear.v_u, 0.0]))
        src[2] = anchor[2]
        assert torus_distance(src, anchor) <= params.L0 * params.r1
        out = linear.leaf_point(d2, 0.01, stable=False)
        assert np.allclose(out[:2], src[:2], atol=1e-14)
        assert out[2] == pytest.approx(0.27, abs=1e-13)

    def test_modulus_certificate(self, skew):
        params = delta_for_epsilon(skew, 1e-2)
        worst = certify_holonomy_modulus(skew, params, 1000, seed=7)
        assert worst < params.alpha


class TestConstants:
    def test_orthogonal_frame_gives_base_L0(self, skew):
        # the cat-map eigenframe is orthogonal, so L0 is the safety factor alone
        assert skew.L0 == pytest.approx(1.1, abs=1e-12)

    def test_alpha_linear_in_epsilon(self, skew):
        c1 = delta_for_epsilon(skew, 1e-2)
        c2 = delta_for_epsilon(skew, 2e-2)
        assert c2.alpha == pytest.approx(2.0 * c1.alpha, rel=1e-12)

    def test_radii_structure(self, skew):
        c = delta_for_epsilon(skew, 1e-2)
        assert c.L0 > 1.0
        assert 0.0 < c.r1 < c.L0 * c.delta0 / 3.0
        assert 0.0 < c.r2 < c.L0 * c.delta0 / 3.0

    def test_rate_certificates(self, linear, skew):
        for sys in (linear, skew):
            s_excess, u_excess = certify_rates(sys, 10_000, seed=0)
            assert s_excess < 1e-12
            assert u_excess < 1e-12

    def test_rates_reciprocal(self, skew):
        assert skew.rates.lam * skew.rates.mu == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < skew.rates.lam < 1.0 < skew.rates.mu


class TestIterate:
    # the power F = f^k the construction runs on is k steps of the map

    def test_k1_identical(self, skew, rng):
        for _ in range(1000):
            x = rng.random(3)
            assert np.array_equal(_iterate(skew, x, 1), skew.apply(x))
            assert np.array_equal(_iterate(skew, x, 1, inverse=True), skew.apply_inverse(x))

    def test_k2_linear_matches_matrix_square(self, linear, rng):
        A2 = np.asarray(linear.A @ linear.A, dtype=float)
        for _ in range(200):
            x = rng.random(3)
            expect = wrap(np.array([*(A2 @ x[:2]), x[2]]))
            assert torus_distance(_iterate(linear, x, 2), expect) < 1e-13
            assert torus_distance(_iterate(linear, expect, 2, inverse=True), x) < 1e-13

    def test_k2_fiber_rotation_doubles(self):
        sys = SkewModel([[2, 1], [1, 1]], omega=0.05)
        x = np.array([0.3, 0.5, 0.9])
        out = _iterate(sys, x, 2)
        assert out[2] == pytest.approx((0.9 + 2 * 0.05) % 1.0, abs=1e-13)

    def test_rates_are_powers(self, skew):
        # the construction's rates lam^k and mu^-k are the eigenvalues of A^k
        _, _, lam3, mu3 = eigen_frame(np.linalg.matrix_power(skew.A, 3))
        assert lam3 == pytest.approx(skew.eig_lam ** 3, rel=1e-12)
        assert mu3 == pytest.approx(skew.eig_mu ** 3, rel=1e-12)
        # an unstable offset contracts under F^-1 by mu^-k
        p = np.array([0.3, 0.7])
        q = wrap(p + 1e-3 * skew.v_u)
        img = _iterate(skew, np.array([[*p, 0.0], [*q, 0.0]]), 3, inverse=True)[:, :2]
        du, ds = skew.coeffs(minimal_displacement(img[0], img[1]))
        assert du == pytest.approx(1e-3 / skew.eig_mu ** 3, rel=1e-8)
        assert abs(ds) < 1e-12
        # the certified leaf rate of the power the parameters select
        params = delta_for_epsilon(skew, 1e-2)
        assert params.lam_k == pytest.approx(skew.rates.lam ** params.k, rel=1e-12)

    def test_iterate_transfer_rederivation(self, skew, rng):
        # f^2 as an explicit skew model: matrix A^2, coupling phi + phi(A .)
        # has the same strong-stable transfer as f
        A2 = skew.A @ skew.A
        modes = [(m1, m2, s, c) for (m1, m2, s, c) in skew.modes]
        At = skew.A.T
        for (m1, m2, s, c) in skew.modes:
            mm = At @ np.array([m1, m2])
            modes.append((int(mm[0]), int(mm[1]), s, c))
        f2 = SkewModel(A2, omega=2 * skew.omega, phi_modes=modes,
                       series_tol=skew.series_tol)
        for _ in range(200):
            p = rng.random(2)
            t = rng.uniform(-0.05, 0.05)
            assert f2.transfer_stable(p, t) == pytest.approx(
                skew.transfer_stable(p, t), abs=1e-10)


class TestInverseSystem:
    def test_roundtrip(self, skew, rng):
        inv = inverse_system(skew)
        for _ in range(200):
            x = rng.random(3)
            assert torus_distance(inv.apply(skew.apply(x)), x) < 1e-13
            assert torus_distance(skew.apply(inv.apply(x)), x) < 1e-13

    def test_frame_swap(self, skew):
        inv = inverse_system(skew)
        assert abs(abs(inv.v_u @ skew.v_s) - 1.0) < 1e-12
        assert abs(abs(inv.v_s @ skew.v_u) - 1.0) < 1e-12


class TestModelIO:
    def test_roundtrip(self, tmp_path, skew):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(skew)))
        back = load_model(path)
        assert np.array_equal(back.A, skew.A)
        assert back.omega == skew.omega
        assert back.modes == skew.modes
        assert back.series_tol == skew.series_tol

    def test_dict_roundtrip(self, skew):
        again = model_from_dict(model_to_dict(skew))
        assert again.modes == skew.modes

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelError):
            load_model(path)
        path.write_text('{"matrix": [[1, 0], [0, 1]]}')
        with pytest.raises(ModelError):
            load_model(path)

    def test_center_bundle_is_fiber_direction(self, skew):
        # derivative maps (0,0,1) to (0,0,1): finite differences <= 1e-8
        x = np.array([0.37, 0.81, 0.44])
        h = 1e-7
        dx = (skew.apply(x + [0, 0, h]) - skew.apply(x)) / h
        assert np.allclose(dx, [0.0, 0.0, 1.0], atol=1e-8)

    def test_zero_coupling_recovers_linear(self, linear):
        sys = SkewModel([[2, 1], [1, 1]], omega=0.0, phi_modes=[(1, 0, 0.0, 0.0)])
        assert sys.is_linear
        x = np.array([0.3, 0.5, 0.9])
        assert np.allclose(sys.apply(x), linear.apply(x))
