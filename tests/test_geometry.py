"""Flat-torus geometry: wrapping, minimal displacements, the quotient metric."""

import ast
import itertools
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import torusshadow
from torusshadow.geometry import (
    _frac,
    _norm,
    fiber_displacement,
    minimal_displacement,
    torus_distance,
    wrap,
)


def brute_minimal(p, q):
    """Independent oracle: minimize over all integer lifts in {-1, 0, 1}^3."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    best = None
    for shift in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        d = q + np.array(shift) - p
        if best is None or tuple(np.abs(d)) < tuple(np.abs(best)):
            best = d
    return best


def test_wrap_already_reduced():
    assert np.allclose(wrap([0.3, 0.4, 0.5]), [0.3, 0.4, 0.5])


def test_wrap_mod_one():
    assert np.allclose(wrap([1.25, -0.25, 2.0]), [0.25, 0.75, 0.0])


def test_wrap_tiny_negative_matches_exact_rationals():
    # exact-rational oracle for the same double input
    x = -1e-16
    expected = float(Fraction(x) % 1)
    out = wrap([x, 0.0, 0.0])
    assert out[0] == pytest.approx(expected, abs=0.0)
    assert 0.0 <= out[0] < 1.0


def test_wrap_rounding_to_one_is_folded():
    # (-1e-17) % 1.0 rounds to exactly 1.0 in doubles; wrap must stay in [0, 1)
    out = wrap([-1e-17, 0.0, 0.0])
    assert out[0] == 0.0


def test_wrap_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        wrap([np.inf, 0.0, 0.0])


def test_minimal_displacement_identity():
    assert np.all(minimal_displacement([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0)


def test_minimal_displacement_wraparound():
    assert np.allclose(minimal_displacement([0.9, 0, 0], [0.1, 0, 0]), [0.2, 0, 0])


def test_minimal_displacement_tie_convention():
    # ties at exactly 0.5 resolve to -0.5; cross-checked against the lift oracle
    p, q = [0.25, 0.5, 0.75], [0.75, 0.5, 0.25]
    d = minimal_displacement(p, q)
    assert np.allclose(d, [-0.5, 0.0, -0.5])
    assert np.allclose(np.abs(d), np.abs(brute_minimal(p, q)))


def test_distance_examples():
    assert torus_distance([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0
    assert torus_distance([0.9, 0, 0], [0.1, 0, 0]) == pytest.approx(0.2, abs=1e-15)
    assert torus_distance([0.25, 0.5, 0.75], [0.75, 0.5, 0.25]) == pytest.approx(
        np.sqrt(0.5), abs=1e-15)


def test_norms_have_the_bits_of_the_row_reduction():
    # torus_distance and _norm add whole squared columns in order: on 1 to 3
    # columns those are the bits of the reduction over each row, with ties
    # at +-0.5, zero rows and NaN rows, and _norm leaves its argument alone
    rng = np.random.default_rng(28)
    for k in (1, 2, 3):
        p, q = rng.random((2, 5, 40, k))
        p[0, 0], q[0, 0] = 0.25, 0.75
        p[0, 1], q[0, 1] = 0.75, 0.25
        q[0, 2] = p[0, 2]
        p[0, 3, -1] = np.nan
        d = minimal_displacement(p, q)
        assert torus_distance(p, q).tobytes() == np.sqrt((d * d).sum(axis=-1)).tobytes()
        assert torus_distance(p[1, 0], q[1, 0]) == np.sqrt((d[1, 0] * d[1, 0]).sum())
        d = (rng.random((5, 40, k)) - 0.5) * rng.choice([1e-9, 1.0, 1e9], size=(5, 40, k))
        d[0, 0], d[0, 1], d[0, 2], d[0, 3, -1] = 0.5, -0.5, 0.0, np.nan
        before = d.copy()
        assert _norm(d).tobytes() == np.sqrt((d * d).sum(axis=-1)).tobytes()
        assert d.tobytes() == before.tobytes()


def test_distance_matches_brute_force_oracle(rng):
    for _ in range(200):
        p, q = rng.random(3), rng.random(3)
        assert torus_distance(p, q) == pytest.approx(
            float(np.linalg.norm(brute_minimal(p, q))), abs=1e-14)


def test_metric_properties_bulk(rng):
    # symmetry exact, triangle inequality to 1e-12, diameter sqrt(3)/2
    n = 100_000
    P, Q, R = rng.random((3, n, 3))

    def dist(A, B):
        d = (B - A) % 1.0
        d[d >= 1.0] = 0.0
        d[d >= 0.5] -= 1.0
        return np.linalg.norm(d, axis=1)

    assert np.array_equal(dist(P, Q), dist(Q, P))
    assert np.all(dist(P, R) <= dist(P, Q) + dist(Q, R) + 1e-12)
    assert np.all(dist(P, Q) <= np.sqrt(3.0) / 2.0)


def test_lift_invariance(rng):
    for _ in range(200):
        p = rng.random(3)
        shift = rng.integers(-3, 4, size=3)
        assert np.max(np.abs(wrap(p + shift) - p)) <= 1e-15


@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_wrap_range_property(v):
    out = wrap(v)
    assert np.all(out >= 0.0) and np.all(out < 1.0)


@given(st.lists(st.floats(0, 1, exclude_max=True), min_size=3, max_size=3),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
@example([0.0, 0.3, 0.0], [0.0, 0.9999999999999999, 0.0])
def test_displacement_reconstructs_target(p, q):
    # measured on the circle: at the 0/1 seam wrap(p + d) may round to 0.0
    # for q just below 1, which is off by 1 in R but by one rounding on T^3
    p, q = np.array(p), np.array(q)
    d = minimal_displacement(p, q)
    assert np.all(d >= -0.5) and np.all(d < 0.5)
    assert torus_distance(wrap(p + d), q) <= 1e-15


def test_fiber_displacement():
    assert fiber_displacement(0.1, 0.3) == pytest.approx(0.2)
    assert fiber_displacement(0.9, 0.1) == pytest.approx(0.2)
    assert fiber_displacement(0.1, 0.9) == pytest.approx(-0.2)
    assert fiber_displacement(0.25, 0.75) == -0.5


# -- the mod-1 rule: x - floor(x) has the bits of x % 1.0 ---------------------


def reference_wrap(v):
    out = np.asarray(v, dtype=float) % 1.0
    return np.where(out >= 1.0, 0.0, out)


def reference_displacement(p, q):
    d = (np.asarray(q, dtype=float) - np.asarray(p, dtype=float)) % 1.0
    return d - (d >= 0.5)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# any finite double, plus mantissas in [-1, 1] scaled by 1e-20 ... 1e15
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-20, 15)),
)
EDGES = [-1e-17, 0.0, -0.0, -1.0, -3.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
         5e-324, -5e-324, 1e300, -1e300]


@given(st.lists(FINITE, min_size=1, max_size=8))
@settings(max_examples=500, deadline=None)
@seed(12)
@example(EDGES)
def test_wrap_bits_match_remainder(v):
    assert np.array_equal(bits(wrap(v)), bits(reference_wrap(v)))


def test_wrap_large_array_bits_and_errors():
    # 2**15 + 4 elements, far past the small arrays above; -1e-17, which
    # `% 1.0` rounds to 1.0, is planted alone at each end and in between,
    # then at all of these places at once
    v = np.random.default_rng(15).uniform(-4.0, 4.0, (2 ** 13 + 1, 4))
    planted = [0, 7, 2 ** 14, v.size - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(bits(wrap(v)), bits(reference_wrap(v)))
        for at in [[i] for i in planted] + [planted]:
            w = v.copy()
            w.flat[at] = -1e-17
            out = wrap(w)
            assert np.array_equal(bits(out), bits(reference_wrap(w)))
            assert (out.flat[at] == 0.0).all() and out.max() < 1.0
        for bad in (np.nan, np.inf, -np.inf):
            v.flat[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                wrap(v)


@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=8))
@settings(max_examples=500, deadline=None)
@seed(13)
@example([(0.0, x) for x in EDGES] + [(x, 0.0) for x in EDGES])
@example([(0.3, np.nextafter(1.0, 0.0)), (1e300, -1e300), (-1e-17, 1e-17)])
def test_minimal_displacement_bits_match_remainder(pairs):
    p, q = np.array(pairs).T
    with np.errstate(over="ignore", invalid="ignore"):
        # q - p may overflow to inf, which neither form reduces: NaN
        ok = np.isfinite(q - p)
        d, expected = minimal_displacement(p, q), reference_displacement(p, q)
    assert np.array_equal(bits(d[ok]), bits(expected[ok]))
    assert np.isnan(d[~ok]).all()


def test_frac_allocates_one_array():
    # the floor array is reused for the difference: no second array
    x = np.linspace(-3.0, 3.0, 2 ** 17)
    tracemalloc.start()
    try:
        out = _frac(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes
    assert np.array_equal(bits(out), bits(x - np.floor(x)))
    assert isinstance(_frac(-0.25), float) and _frac(-0.25) == 0.75
    assert _frac(np.array(-1.25)) == 0.75


def test_no_remainder_by_one_in_src():
    # every numpy reduction mod 1 goes through geometry._frac; `% 1.0` stays
    # only on Python floats (`_base_recursion`) and in `_integers`, where
    # floor(inf) == inf would let an infinite entry pass as an integer
    allowed = {"_base_recursion", "_integers"}
    offenders = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where | {node.name}
        op, right = None, None
        if isinstance(node, ast.BinOp):
            op, right = node.op, node.right
        elif isinstance(node, ast.AugAssign):
            op, right = node.op, node.value
        if (isinstance(op, ast.Mod) and isinstance(right, ast.Constant)
                and right.value == 1.0 and not where & allowed):
            offenders.append((path.name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(torusshadow.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    assert not offenders
