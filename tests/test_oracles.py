"""The bidiagonal-solve oracles, checked against dense solves and closed forms."""

import numpy as np
import pytest

from torusshadow.geometry import torus_distance, wrap
from torusshadow.oracles import _banded_corrections, cat_map_shadow, linear_model_shadow
from torusshadow.orbits import generate_noisy


def test_banded_solves_match_recursions(rng):
    # the substitutions against a dense solve of the two bidiagonal systems,
    # boundary rows included; n = 1 is a one-point window with no defect
    lam, mu = 0.382, 2.618
    for n in (1, 2, 40):
        e_s = rng.normal(size=n - 1) * 1e-4
        e_u = rng.normal(size=n - 1) * 1e-4
        a, b = _banded_corrections(e_s, e_u, lam, mu)
        # stable: a_0 = 0, a_{k+1} - lam a_k = -e_s[k]
        lower = np.eye(n) - lam * np.eye(n, k=-1)
        a_ref = np.linalg.solve(lower, np.concatenate([[0.0], -e_s]))
        # unstable: -mu b_k + b_{k+1} = -e_u[k], and the boundary row b_N = 0
        upper = -mu * np.eye(n) + np.eye(n, k=1)
        upper[-1, -1] = 1.0
        b_ref = np.linalg.solve(upper, np.concatenate([-e_u, [0.0]]))
        assert a.shape == b.shape == (n,)
        assert np.max(np.abs(a - a_ref)) < 1e-15
        assert np.max(np.abs(b - b_ref)) < 1e-15


def test_exact_orbit_needs_no_correction(linear, rng):
    x = rng.random(2)
    pts = [x]
    A = np.asarray(linear.A, float)
    for _ in range(30):
        x = wrap(A @ x)
        pts.append(x)
    out = cat_map_shadow(linear.A, np.array(pts))
    for p, q in zip(pts, out):
        assert np.max(np.abs(p - q)) < 1e-12


def test_corrected_orbit_is_exact(linear, rng):
    # the oracle output must itself be an exact orbit away from the ends
    A = np.asarray(linear.A, float)
    x = rng.random(2)
    pts = [x]
    for _ in range(40):
        x = wrap(A @ x + rng.normal(size=2) * 1e-5)
        pts.append(x)
    out = cat_map_shadow(linear.A, np.array(pts))
    for k in range(3, len(pts) - 4):
        img = wrap(A @ out[k])
        assert torus_distance(img, out[k + 1]) < 1e-10


def test_single_defect_closed_form(linear):
    # one unstable-direction defect: the correction before the jump decays
    # geometrically at rate 1/mu, and vanishes after it
    A = np.asarray(linear.A, float)
    v_u = linear.v_u
    mu = linear.eig_mu
    x = np.array([0.31, 0.47])
    pts = [x]
    for k in range(40):
        x = wrap(A @ x)
        if k == 19:
            x = wrap(x + 1e-4 * v_u)
        pts.append(x)
    out = cat_map_shadow(linear.A, np.array(pts))
    corr = [torus_distance(p, q) for p, q in zip(pts, out)]
    for j in range(1, 10):
        expect = 1e-4 * mu ** (-j)
        assert corr[20 - j] == pytest.approx(expect, rel=1e-6)
    assert max(corr[21:]) < 1e-12


def test_linear_oracle_refuses_a_coupled_model(skew):
    orbit = generate_noisy(skew, np.array([0.2, 0.35, 0.81]), (-10, 10), 0.0, seed=0)
    with pytest.raises(ValueError, match="linear_model_shadow requires the linear model"):
        linear_model_shadow(skew, orbit, 2)
