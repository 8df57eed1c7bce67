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
from torusshadow.geometry import fiber_displacement, minimal_displacement, torus_distance, wrap
from torusshadow.models import (
    IntersectionError,
    ModelError,
    SkewModel,
    eigen_frame,
    load_model,
    builtin_model,
    model_from_dict,
    model_to_dict,
)
from torusshadow.shadowing import _iterate, delta_for_epsilon

from tests_helpers import (
    certify_holonomy_modulus,
    certify_intersections,
    certify_rates,
    inverse_system,
    reference_series,
)

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

    @pytest.mark.parametrize("matrix, omega, mode", [
        ([[2, 1], [1, 1]], 0.05, (1, 0, 0.02, 0.0)),
        ([[-1, 1], [1, 0]], 0.03, (1, 0, 0.02, 0.0)),
        ([[5, 2], [2, 1]], 0.03, (1, 0, 0.005, 0.0)),
    ], ids=["skew", "det-minus-one", "k1"])
    def test_base_only_step(self, matrix, omega, mode, monkeypatch, rng):
        # F = f^k of base points (..., 2), one direction for all rows or one
        # per row, gives the bits of the base columns of the 3-D step and
        # never evaluates phi
        sys = SkewModel(matrix, omega=omega, phi_modes=[mode])
        k = delta_for_epsilon(sys, 1e-2).k
        assert k == {2: 2, -1: 4, 5: 1}[matrix[0][0]]
        X = rng.random((4, 25, 3))
        fwd, bwd = _iterate(sys, X, k), _iterate(sys, X, k, True)
        per_row = np.array([True, False, False, True])[:, None]
        full = [fwd, bwd, fwd[0, 0], bwd[0, 0], np.where(per_row[..., None], bwd, fwd)]

        def no_phi(*args):
            raise AssertionError("a base-only step evaluated phi")

        monkeypatch.setattr(SkewModel, "phi", no_phi)
        base = [_iterate(sys, X[..., :2], k), _iterate(sys, X[..., :2], k, True),
                _iterate(sys, X[0, 0, :2], k), _iterate(sys, X[0, 0, :2], k, True),
                _iterate(sys, X[..., :2], k, per_row)]
        for b, f in zip(base, full):
            assert b.shape == f.shape[:-1] + (2,)
            assert np.array_equal(b, f[..., :2])

    @pytest.mark.parametrize("matrix, omega, mode", [
        ([[2, 1], [1, 1]], 0.05, (1, 0, 0.02, 0.0)),
        ([[-1, 1], [1, 0]], 0.03, (1, 1, 0.02, -0.01)),
        ([[2, 1], [1, 1]], 0.0, (0, 0, 0.0, 0.0)),
    ], ids=["skew", "det-minus-one", "linear"])
    def test_inverse_wraps_the_base_once(self, matrix, omega, mode, rng):
        # the base columns are wrapped once and the fiber alone at the end;
        # the whole-point wrap this replaces is the identity on the wrapped
        # base, so random and seam points keep their bits
        sys = SkewModel(matrix, omega=omega, phi_modes=[mode])
        # A^-1 is the exact integer inverse, so the base step below is exact
        assert sys.A_inv.dtype == np.int64
        assert np.array_equal(sys.A @ sys.A_inv, np.eye(2, dtype=np.int64))

        def whole_point_wrap(x):
            out = np.empty(x.shape)
            out[..., 0] = sys.A_inv[0, 0] * x[..., 0] + sys.A_inv[0, 1] * x[..., 1]
            out[..., 1] = sys.A_inv[1, 0] * x[..., 0] + sys.A_inv[1, 1] * x[..., 1]
            out[..., :2] = wrap(out[..., :2])
            out[..., 2] = x[..., 2] - sys.omega - sys.phi(out[..., 0], out[..., 1])
            return wrap(out)

        seam = 1.0 - 2.0 ** -53
        axis = np.concatenate([np.arange(8) / 8, [seam, 2.0 ** -60]])
        P = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        # fibers that land within an ulp of the seam once omega + phi is taken off
        z0 = (sys.omega + sys.phi(*wrap(P @ sys.A_inv.T).T) + np.zeros(P.shape[0])) % 1.0
        Z = np.concatenate([np.full(P.shape[0], z) for z in (0.0, seam, 1e-300, 1e-17)]
                           + [z0, (z0 + 1e-17) % 1.0, np.nextafter(z0, 0.0), np.nextafter(z0, 1.0)])
        seam_points = wrap(np.column_stack([np.tile(P, (8, 1)), Z]))
        for x in (rng.random((1000, 3)), seam_points, rng.random((7, 5, 3)), seam_points[5]):
            assert np.array_equal(sys.apply_inverse(x), whole_point_wrap(x))

    def test_scalar_matches_vectorized(self, skew, rng):
        # one point at a time and the whole stack at once give the same rows
        X = rng.random((100, 3))
        F = skew.apply(X)
        B = skew.apply_inverse(X)
        for i in range(100):
            assert np.allclose(skew.apply(X[i]), F[i], atol=1e-15)
            assert np.allclose(skew.apply_inverse(X[i]), B[i], atol=1e-15)


class TestCenterStep:
    """`center_step`: the base distance and fiber displacement from f(x)."""

    @staticmethod
    def expressions(sys, x, y):
        fx = sys.apply(x)
        return (torus_distance(fx[..., :2], y[..., :2]),
                fiber_displacement(fx[..., 2], y[..., 2]))

    def test_the_base_gap_and_fiber_motion_from_f_x(self, skew, rng):
        x, y = rng.random((1000, 3)), rng.random((1000, 3))
        for got, want in zip(skew.center_step(x, y), self.expressions(skew, x, y)):
            assert np.array_equal(got, want)
        # seams: f(x)'s fiber at 0.999 and y's at 0.001 is a motion of
        # +0.002, and a base that crosses 0/1 a gap of 2e-4, not ~1
        x = skew.apply_inverse(np.array([[0.3, 0.6, 0.999], [0.9999, 0.5, 0.25]]))
        fx = skew.apply(x)
        y = np.array([[*fx[0, :2], 0.001], [1e-4, 0.5, fx[1, 2]]])
        transverse, motion = skew.center_step(x, y)
        for got, want in zip((transverse, motion), self.expressions(skew, x, y)):
            assert np.array_equal(got, want)
        assert transverse[0] == 0.0 and motion[0] == pytest.approx(0.002, abs=1e-12)
        assert transverse[1] == pytest.approx(2e-4, abs=1e-12) and motion[1] == 0.0

    def test_a_nan_row_gives_nan_and_leaves_the_others(self, skew, rng):
        x, y = rng.random((2, 50, 3))
        x[17] = np.nan
        transverse, motion = skew.center_step(x, y)
        assert np.isnan(transverse[17]) and np.isnan(motion[17])
        rows = np.arange(50) != 17
        for got, want in zip((transverse, motion), skew.center_step(x[rows], y[rows])):
            assert np.array_equal(got[rows], want)


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
            (rng.random((B, 1, 2)), rng.uniform(-0.05, 0.05, (B, n)), None),   # row anchor broadcast
            (rng.random((B, n, 2)), rng.uniform(-0.05, 0.05, (B, n)), 1e-15),
            (rng.random((B, 1, 2)), rng.uniform(-0.05, 0.05, (B, n)), 1e-9),
            (rng.random((B, 2)), rng.uniform(-0.05, 0.05, B), 1e-12),
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

    def test_stacked_series_memory_is_set_by_the_block(self, skew):
        # both halves of 2048 x 20 offsets in one call, one class per half:
        # the blocks run over the flattened (half, row) rows, so the bound
        # is that of one half's call
        rng = np.random.default_rng(13)
        p, t = rng.random((2, 2048, 1, 2)), rng.uniform(-0.05, 0.05, (2, 2048, 20))
        stable = np.array([False, True])[:, None, None]
        skew._transfer_series(p, t, stable, tol=1e-15)
        tracemalloc.start()
        try:
            skew._transfer_series(p, t, stable, tol=1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes + 8 * 8 * models._BLOCK_ELEMENTS

    def test_series_tol_lower_bound(self, skew):
        # a series_tol at which an offset of the lift radius 0.25 needs more
        # terms than the hard stop allows is rejected, naming the least one
        # that does not
        with pytest.raises(ModelError, match="series_tol = 1e-300 needs more than 500") as exc:
            SkewModel(skew.A, skew.omega, skew.modes, series_tol=1e-300)
        least = float(str(exc.value).rsplit(" ", 1)[1])
        assert SkewModel(skew.A, skew.omega, skew.modes, series_tol=least).series_tol == least
        with pytest.raises(ModelError):
            SkewModel(skew.A, skew.omega, skew.modes, series_tol=least * (1.0 - 1e-9))

    def test_series_hard_stop(self, skew):
        # a caller's tolerance below the model's can still ask for too many terms
        with pytest.raises(ModelError, match="transfer series needs 715 terms, over the limit"):
            skew.transfer_stable(np.array([0.1, 0.2]), 0.1, tol=1e-300)


@pytest.mark.parametrize("modes", [
    [(1, 0, 0.02, 0.0)], [(0, 1, 0.02, 0.0)], [(1, -1, 0.012, -0.008), (2, 1, 0.0, 0.003)], [],
], ids=["skew", "axis-1", "two-axis-sin-cos", "linear"])
def test_series_forms_only_the_axes_phi_reads(modes):
    # a block forms an anchor coordinate only for an axis some phi mode
    # reads; a term-by-term sum that forms both has the same bytes
    sys = SkewModel([[2, 1], [1, 1]], omega=0.05 if modes else 0.0, phi_modes=modes)
    rng = np.random.default_rng(31)
    for p, t in ((rng.random((40, 7, 2)), rng.uniform(-0.05, 0.05, (40, 7))),
                 (rng.random((40, 1, 2)), rng.uniform(-0.2, 0.2, (40, 5))),
                 (rng.random(2), np.array(0.04))):
        for stable in (False, True):
            series = np.asarray(sys._transfer_series(p, t, stable))
            assert series.tobytes() == reference_series(sys, p, t, stable).tobytes()


class TestMixedClasses:
    # a leaf class (or leaf pair) per row gives every row the bits of its
    # own single-class call, whatever the blocking

    MODELS = {
        "skew": ([[2, 1], [1, 1]], 0.05, [(1, 0, 0.02, 0.0)]),
        "linear": ([[2, 1], [1, 1]], 0.0, []),
        "det-minus-one": ([[-1, 1], [1, 0]], 0.03, [(1, 1, 0.02, -0.01)]),
    }

    @staticmethod
    def _layouts(rng):
        """(stable, anchors, offsets, tol): a random class per row of a
        (B, n) stack, one class per half of a (2, B, n) stack, and one class
        for every row of a (B, n) stack."""
        B, n = 30, 7
        per_row = (rng.random((B, 1)) < 0.5, rng.random((B, n, 3)),
                   rng.uniform(-0.05, 0.05, (B, n)), 1e-15)
        halves = (np.array([False, True])[:, None, None], rng.random((2, B, 1, 3)),
                  rng.uniform(-0.05, 0.05, (2, B, n)), None)
        # one class as an array runs the term count of the bool's call
        one_class = (np.ones((B, 1), dtype=bool), rng.random((B, 1, 3)),
                     rng.uniform(-0.05, 0.05, (B, n)), 1e-9)
        return per_row, halves, one_class

    @pytest.mark.parametrize("block", [1, 2 ** 40], ids=["row-blocks", "one-block"])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_leaf_point_and_series_rows_are_their_own(self, name, block, monkeypatch):
        matrix, omega, modes = self.MODELS[name]
        sys = SkewModel(matrix, omega=omega, phi_modes=modes)
        monkeypatch.setattr(models, "_BLOCK_ELEMENTS", block)
        for stable, anchor, t, tol in self._layouts(np.random.default_rng(21)):
            series = sys._transfer_series(anchor[..., :2], t, stable, tol=tol)
            point = sys.leaf_point(anchor, t, stable, tol=tol)
            assert point.shape == t.shape + (3,)
            for cls in (False, True):
                rows = np.broadcast_to(stable == cls, t.shape)
                alone = sys._transfer_series(anchor[..., :2], t, cls, tol=tol)
                assert np.array_equal(np.broadcast_to(series, t.shape)[rows],
                                      np.broadcast_to(alone, t.shape)[rows])
                assert np.array_equal(point[rows], sys.leaf_point(anchor, t, cls, tol=tol)[rows])

    @pytest.mark.parametrize("block", [1, 2 ** 40], ids=["row-blocks", "one-block"])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_intersect_rows_are_their_own(self, name, block, monkeypatch):
        # radii down to 0.004 send some rows to the exact distance and fail
        # some; the offsets and the recorded failures are the single pair's
        matrix, omega, modes = self.MODELS[name]
        sys = SkewModel(matrix, omega=omega, phi_modes=modes)
        monkeypatch.setattr(models, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(22)
        for stable, _, t, _ in self._layouts(rng):
            x = rng.random(t.shape + (3,))
            y = wrap(x + rng.uniform(-0.01, 0.01, x.shape))
            radius = rng.uniform(0.004, 0.05, t.shape)
            found = {}
            offset = sys.intersect(x, y, stable, radius, errors=found)
            assert found
            for cls in (False, True):
                rows = np.broadcast_to(stable == cls, t.shape)
                alone_found = {}
                alone = sys.intersect(x, y, cls, radius, errors=alone_found)
                assert np.array_equal(offset[rows], alone[rows])
                flat = np.flatnonzero(rows)
                assert ({r: str(found[r]) for r in flat if r in found}
                        == {r: str(alone_found[r]) for r in flat if r in alone_found})


class TestIntersect:
    def test_linear_cu_s_example(self, linear):
        x = np.array([0.0, 0.0, 0.2])
        yb = wrap(0.01 * linear.v_s)
        y = np.array([yb[0], yb[1], 0.7])
        errors = {}
        pt = linear.leaf_point(y, linear.intersect(x, y, True, 0.05, errors=errors), True)
        assert not errors
        assert np.allclose(pt[:2], [0.0, 0.0], atol=1e-13)
        assert pt[2] == pytest.approx(0.7, abs=1e-13)

    def test_coincident_bases(self, linear):
        x = np.array([0.4, 0.6, 0.1])
        y = np.array([0.4, 0.6, 0.8])
        errors = {}
        pt = linear.leaf_point(y, linear.intersect(x, y, True, 0.05, errors=errors), True)
        assert not errors
        assert np.allclose(pt, [0.4, 0.6, 0.8], atol=1e-14)

    def test_skew_against_grid_search_oracle(self, skew, rng):
        # brute-force oracle: scan the stable-leaf parameterization of y at
        # step 1e-5 and certify the returned point sits on both local leaves
        for _ in range(10):
            x = rng.random(3)
            v = rng.normal(size=3)
            v *= 0.01 / np.linalg.norm(v)
            y = wrap(x + v)
            errors = {}
            pt = skew.leaf_point(y, skew.intersect(x, y, True, 0.05, errors=errors), True)
            assert not errors
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

    def test_lift_ambiguity(self, linear):
        x = np.array([0.0, 0.0, 0.0])
        y = np.array([0.4, 0.4, 0.0])
        errors = {}
        linear.intersect(x, y, True, 0.5, errors=errors)
        assert isinstance(errors[0], IntersectionError)
        assert "lift ambiguity" in str(errors[0])

    def test_out_of_range(self, linear):
        x = np.array([0.0, 0.0, 0.0])
        y = wrap(x + 0.05 * np.array([*linear.v_s, 0.0]))
        errors = {}
        linear.intersect(x, y, True, 1e-4, errors=errors)
        assert isinstance(errors[0], IntersectionError)
        assert "outside L0*radius" in str(errors[0])

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
        # an intersection is the leaf offset along y solved from the
        # eigenframe coefficients of the minimal x -> y displacement, from
        # the bases alone
        x = rng.random((6, 3))
        y = wrap(x + rng.uniform(-0.01, 0.01, (6, 3)))
        for stable in (True, False):
            t = -skew.coeffs(minimal_displacement(x[:, :2], y[:, :2]))[stable]
            errors = {}
            assert np.array_equal(skew.intersect(x, y, stable, 0.05, errors=errors), t)
            assert np.array_equal(skew.intersect(x[:, :2], y[:, :2], stable, 0.05,
                                                 errors=errors), t)
            assert not errors

    def test_distance_check_agrees_with_exact_distance(self, rng):
        # strongly coupled: sqrt(1 + leaf_slope_s^2) ~ 1.12 exceeds L0's 1.1
        # safety factor, so the slope bound alone would reject rows whose
        # exact d(point, y) passes; every row's outcome, and the d(y) a
        # failing row prints, must be the exact distance's
        sys = SkewModel([[2, 1], [1, 1]], omega=0.05, phi_modes=[(1, 0, 0.05, 0.0)])
        slope = math.sqrt(1.0 + sys.leaf_slope_s ** 2)
        assert slope > 1.1 and sys.rates.lam < 0.45
        radius, n = 0.05, 400
        cap = sys.L0 * radius
        for stable, (v_x, v_y) in ((True, (sys.v_u, sys.v_s)), (False, (sys.v_s, sys.v_u))):
            y = rng.random((n, 3))
            t = rng.choice([-1.0, 1.0], n) * rng.uniform(cap / 1.12, cap, n)
            c = rng.uniform(-1e-3, 1e-3, n) * cap     # x-side coefficient near 0
            x = wrap(np.column_stack([y[:, :2] + t[:, None] * v_y + c[:, None] * v_x,
                                      rng.random(n)]))
            errors = {}
            offset = sys.intersect(x, y, stable, radius, errors=errors)
            assert np.max(np.abs(offset - t)) < 1e-14
            dy = torus_distance(sys.leaf_point(y, offset, stable), y)
            passes = dy <= cap
            assert sorted(errors) == list(np.flatnonzero(~passes))
            for r in errors:
                assert f"d(y)={dy[r]:.3e}," in str(errors[r])
            # rows only the exact distance clears, and rows it rejects
            assert np.sum(passes & (slope * np.abs(offset) > cap)) >= 20
            assert np.sum(~passes) >= 5

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

    def test_unknown_builtin_and_mode_length_rejected(self):
        with pytest.raises(ModelError, match="unknown builtin model 'nope'"):
            builtin_model("nope")
        with pytest.raises(ModelError, match=r"phi mode \(1, 0, 0, 0.02, 0.0\) "
                                             r"needs 2 frequencies"):
            SkewModel([[2, 1], [1, 1]], phi_modes=[(1, 0, 0, 0.02, 0.0)])

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
