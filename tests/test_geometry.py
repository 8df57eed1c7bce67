"""Flat-torus geometry: wrapping, minimal displacements, the quotient metric."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusshadow.geometry import fiber_displacement, minimal_displacement, torus_distance, wrap


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
