"""Shared test utilities."""

import math

import numpy as np

from torusshadow.geometry import torus_distance, wrap
from torusshadow.models import IntersectionError
from torusshadow.orbits import PseudoOrbit


def single_defect_orbit(sys, x0, window, jump):
    """Exact orbit except for one defect at the step 0 -> 1."""
    n_min, n_max = window
    pts = np.empty((n_max - n_min + 1, 3))
    pts[-n_min] = wrap(np.asarray(x0, float))
    x = pts[-n_min]
    for k in range(-1, n_min - 1, -1):
        x = sys.apply_inverse(x)
        pts[k - n_min] = x
    x = wrap(sys.apply(pts[-n_min]) + jump)
    pts[1 - n_min] = x
    for k in range(2, n_max + 1):
        x = sys.apply(x)
        pts[k - n_min] = x
    return PseudoOrbit(n_min, n_max, pts, float(np.linalg.norm(jump)))


def certify_rates(sys, n: int = 10_000, seed: int = 0):
    """Worst sampled violation of the certified leaf rates.

    Returns (stable_excess, unstable_excess): max over samples of
    d(f(x), f(y)) - lam * d(x, y) on stable pairs within delta1, and the
    mirror under f^-1 on unstable pairs.  Both should be < 1e-12.
    """
    lam = sys.rates.lam
    d1 = sys.rates.delta1
    excess = []
    for stable, step in ((True, sys.apply), (False, sys.apply_inverse)):
        # y on the strong leaf of x at leaf offset |t| <= delta1
        rng = np.random.default_rng(seed if stable else seed + 1)
        X = rng.random((n, 3))
        t = rng.uniform(-d1, d1, size=n)
        Y = sys.leaf_point(X, t, stable)
        excess.append(float(np.max(torus_distance(step(X), step(Y))
                                   - lam * torus_distance(X, Y))))
    return tuple(excess)


def certify_intersections(sys, params, n: int, seed: int, delta: float):
    """Max ratio d(intersection, input) / d(x, y) over random pairs.

    Exercises both (cu, s) and (cs, u) at separations below params.delta0;
    the certificate passes when the returned max ratio is <= params.L0.
    """
    rng = np.random.default_rng(seed)
    delta = min(delta, 0.99 * params.delta0)
    X = rng.random((n, 3))
    V = rng.normal(size=(n, 3))
    V *= (delta * rng.random(n) ** (1.0 / 3.0) / np.linalg.norm(V, axis=1))[:, None]
    Y = wrap(X + V)
    d = torus_distance(X, Y)
    X, Y, d = X[d >= 1e-9], Y[d >= 1e-9], d[d >= 1e-9]
    pts = (sys.intersect("cu", X, "s", Y, delta), sys.intersect("cs", X, "u", Y, delta))
    return float(np.max([torus_distance(pt, Z) / d for pt in pts for Z in (X, Y)], initial=0.0))


def certify_holonomy_modulus(sys, params, n: int, seed: int):
    """Max image distance of the center holonomy over source pairs within
    params.r2.

    Sources sit on one unstable plaque, targets on another inside a common
    cu-plaque of radius params.r1; a source or image farther than L0 * r1
    from its plaque's anchor raises IntersectionError.  Passes when the
    result is < params.alpha.
    """
    rng = np.random.default_rng(seed)
    cap = params.L0 * params.r1
    anchor = rng.random((n, 3))
    shift = rng.uniform(-params.r1 / 2, params.r1 / 2, size=(n, 2))   # along v_u, fiber
    target = wrap(np.column_stack([anchor[:, :2] + shift[:, :1] * sys.v_u,
                                   anchor[:, 2] + shift[:, 1]]))
    t1 = rng.uniform(-params.r2 / 2, params.r2 / 2, size=n)
    t2 = t1 + rng.uniform(-params.r2, params.r2, size=n) / math.sqrt(2.0)
    offset = np.column_stack([t1, t2])
    source = sys.leaf_point(anchor[:, None], offset, stable=False)
    keep = torus_distance(source[:, 0], source[:, 1]) < params.r2
    anchor, target, source = anchor[keep, None], target[keep, None], source[keep]
    if np.any(~(torus_distance(source, anchor) <= cap)):
        raise IntersectionError("holonomy source outside the anchor plaque")
    # the target sits shift[:, 0] along v_u from the anchor
    image = sys.leaf_point(target, offset[keep] - shift[keep, :1], stable=False)
    if np.any(~(torus_distance(image, target) <= cap)):
        raise IntersectionError("holonomy image outside the target plaque")
    return float(np.max(torus_distance(image[:, 0], image[:, 1]), initial=0.0))
