"""Shared test utilities."""

import math
from fractions import Fraction

import numpy as np

from torusshadow.geometry import _frac, _norm, minimal_displacement, torus_distance, wrap
from torusshadow.models import TWO_PI, IntersectionError, SkewModel, _base_map
from torusshadow.orbits import INVERSE_MAX_ITER, INVERSE_RESIDUAL_TOL, PseudoOrbit
from torusshadow.shadowing import _iterate, _scan


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


def center_motions(sys, y_star):
    """The signed center motion (`SkewModel.center_step`) from f(y*_{k-1}) to
    y*_k at every index of a trace's y* (..., N, 3), 0 at the first; a
    failed row's NaN points make its motions NaN."""
    motions = np.zeros(y_star.shape[:-1])
    motions[..., 1:] = sys.center_step(y_star[..., :-1, :], y_star[..., 1:, :])[1]
    return motions


def rational_periodic_orbit(matrix, P: int, m):
    """The exact orbit q_0, ..., q_{P-1} of q_0 = (A^P - I)^-1 m mod 1, in
    Fractions, for an integer vector m.

    (A^P - I) q_0 = m is an integer vector, so A^P q_0 = q_0 mod 1: q_0 is
    a periodic point of A with period dividing P, with denominator
    |det(A^P - I)| (nonzero for a hyperbolic A).
    """
    (a, b), (c, d) = [[int(v) for v in row] for row in matrix]
    p, q, r, s = 1, 0, 0, 1
    for _ in range(P):
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    p, s = p - 1, s - 1
    det = p * s - q * r
    m1, m2 = (int(v) for v in m)
    orbit = [(Fraction(s * m1 - q * m2, det) % 1, Fraction(p * m2 - r * m1, det) % 1)]
    for _ in range(P - 1):
        x, y = orbit[-1]
        orbit.append(((a * x + b * y) % 1, (c * x + d * y) % 1))
    return orbit


def periodic_pseudo_orbit(sys, P: int, delta: float, seed: int, window=(-60, 60)):
    """A delta-pseudo-orbit whose base is P-periodic around an exact
    rational periodic point; returns (orbit, q_0).

    One period of float(q_i) plus base kicks of norm at most
    0.9 delta / (|A| + 1) is tiled over the window, so every base defect
    |A kick_i - kick_{i+1}| is at most 0.9 delta and the base stays exactly
    periodic (iterating a noisy point would lose the period to rounding).
    The fibers follow the recursion of f from a seeded start, with kicks of
    at most 0.3 delta.  The base shadow of the bi-infinite orbit is the
    periodic orbit of q_0 (Anosov closing, seen through the base factor).
    """
    rng = np.random.default_rng(seed)
    q = rational_periodic_orbit(sys.A, P, rng.integers(-20, 21, size=2))
    direction = rng.normal(size=(P, 2))
    radius = 0.9 * delta / (np.linalg.norm(sys.A.astype(float), ord=2) + 1.0)
    kick = direction * (radius * rng.random(P) / np.linalg.norm(direction, axis=1))[:, None]
    n_min, n_max = window
    base = wrap(np.array([[float(x), float(y)] for x, y in q]) + kick)[
        np.arange(n_min, n_max + 1) % P]
    # z_{i+1} = z_i + omega + phi(p_i) + kick_i, from z_0 both ways
    step = (sys.omega + sys.phi(base[:-1, 0], base[:-1, 1])
            + rng.uniform(-0.3 * delta, 0.3 * delta, n_max - n_min))
    fiber = np.concatenate([[0.0], np.cumsum(step)])
    fiber = wrap(fiber - fiber[-n_min] + rng.random())
    points = np.column_stack([base, fiber])
    return PseudoOrbit(n_min, n_max, points, delta), q[0]


def closing_gap(trace, q0) -> float:
    """d(base(y*_0), q_0) on the base torus."""
    return float(torus_distance(trace.point(0)[:2], np.array([float(v) for v in q0])))


def inverse_system(sys):
    """The inverse map as a skew model in the same family.

    f^-1(p, z) = (A^-1 p, z - omega - phi(A^-1 p)); the composed coupling
    -phi(A^-1 p) is again a trigonometric polynomial with frequencies
    (A^-1)^T m.
    """
    At = sys.A_inv.T
    modes = []
    for (m1, m2, s, c) in sys.modes:
        mm = At @ np.array([m1, m2])
        modes.append((int(mm[0]), int(mm[1]), -s, -c))
    return SkewModel(sys.A_inv, omega=-sys.omega, phi_modes=modes,
                     series_tol=sys.series_tol)


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
    errors = {}
    pts = tuple(sys.leaf_point(Y, sys.intersect(X, Y, stable, delta, errors=errors), stable)
                for stable in (True, False))
    if errors:    # a failed pair fails the certificate
        raise errors[min(errors)]
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


def reference_series(sys, p, t, stable):
    """The transfer series of one leaf class at base points p (..., 2) and
    offsets t (...), at the model's series_tol, summed term by term with
    both anchor coordinates formed whatever phi reads: term n is phi(a_n) -
    phi(a_n + t rate^(n + skip) v) at a_n = frac(M_n p), live while its tail
    bound reaches the tolerance, and the live terms add in order."""
    cls = int(stable)
    t = np.asarray(t, dtype=float)
    tail = sys.lip_phi / (1.0 - abs(sys.eig_lam))
    terms = sys._series_terms(float(np.max(tail * np.abs(t) / sys.series_tol)), (cls,))
    if not terms:
        return np.zeros(t.shape)
    decay, a, b, c, d = sys._series_table(terms)[:, cls]
    v = sys._leaf[cls]
    for n in range(terms):
        cur = t * decay[n]
        a1, a2 = _frac(a[n] * p[..., 0] + b[n] * p[..., 1]), _frac(c[n] * p[..., 0] + d[n] * p[..., 1])
        diff = sys.phi(a1, a2) - sys.phi(a1 + cur * v[0], a2 + cur * v[1])
        term = np.where(tail * np.abs(cur) >= sys.series_tol, diff, 0.0)
        total = term if n == 0 else total + term
    return total * sys._sign[cls]


def reference_propagate(sys, sweep, y0, k, stable):
    """The guides of the halves of `sweep` from their anchors y0, one
    `leaf_point` call per move: the recursive points z at the sweep's
    offsets on the strong leaf of X_i that F (F^-1 where `stable`)
    contracts, then the guides at offsets t_i - coef_i on z's other strong
    leaf, t the backward contracting scan of the coefficients.  Backward
    these are the primed guides (y_m^s)'."""
    c = sweep.coef[..., 1:]
    t = _scan(c[..., ::-1], np.where(stable, sys.eig_lam ** k, 1.0 / sys.eig_mu ** k))[..., ::-1]
    z = sys.leaf_point(sweep.X[..., 1:, :], sweep.offset[..., 1:], np.logical_not(stable))
    y = np.empty(sweep.X.shape)
    y[..., 0, :] = y0
    y[..., 1:, :] = sys.leaf_point(z, t - c, stable)
    return y


def reference_half(sys, st):
    """The guides and subsampled y* of both stacked halves of an anchor
    stage `st`, as `shadowing._half` returns them, by three `leaf_point`
    calls: `reference_propagate`, the backward guides' fibers replaced by
    F^-1 of the next primed guide, and y* off every guide."""
    k = st.params.k
    stable = np.array([False, True]).reshape((2,) + (1,) * (st.sweep.X.ndim - 2))
    anchor, star0 = np.array([st.y0_u, st.y0_s]), np.array([st.y0_star, st.y0_star_prime])
    guides = reference_propagate(sys, st.sweep, anchor, k, stable)
    guides[1, ..., 1:, 2] = _iterate(sys, guides[1, ..., :-1, :], k, inverse=True)[..., 2]
    cu, cs = sys.coeffs(minimal_displacement(anchor[..., :2], star0[..., :2]))
    rate = np.where(stable, 1.0 / sys.eig_mu ** k, sys.eig_lam ** k)
    star = sys.leaf_point(guides[..., 1:, :],
                          np.where(stable, cu[..., None], cs[..., None])
                          * rate ** np.arange(1, guides.shape[-2]),
                          np.logical_not(stable))
    return guides, star


def reference_trig_field(modes, coords, components: int):
    """A trigonometric field mode by mode, as one pass per mode computes it:
    the components (each summed in mode order from 0.0, zero amplitudes
    skipped) and every mode's (sin, cos), at coordinate arrays of the axes
    its frequency reads, the angle 2 pi times the sum of its nonzero terms."""
    v, trig = [0.0] * components, []
    for (j, *m, s, c) in modes:
        terms = [x if k == 1 else k * x for k, x in zip(m, coords) if k]
        th = TWO_PI * sum(terms[1:], terms[0]) if terms else 0.0
        sn, cs = np.sin(th), np.cos(th)
        if s:
            v[j] = v[j] + (s * sn + c * cs if c else s * sn)
        elif c:
            v[j] = v[j] + c * cs
        trig.append((sn, cs))
    return v, trig


def reference_inverse(g, x):
    """g^-1 at points x (B, 3) by `PerturbedMap.apply_inverse`'s Newton
    iteration from f^-1(x), with its field, g and step taken mode by mode,
    coordinate by coordinate and entry by entry: Dg = [[A, 0], [grad phi, 1]] + Dv built from each mode's
    derivative factor in mode order, and each (Dg^-1)[i, k] the cofactor
    times 1 / det, rounded before it meets the residual."""
    modes = g._newton.modes
    Y = np.ascontiguousarray(g.sys.apply_inverse(x).T)
    active, y, xa = np.arange(x.shape[0]), Y, np.ascontiguousarray(x.T)
    for step in range(INVERSE_MAX_ITER + 1):
        field, trig = reference_trig_field(modes, y, 4)
        if step == 0:
            r = [-v for v in field[:3]]
        else:
            out = wrap(_base_map(g.sys.A, y[0], y[1]) + [y[2] + g.sys.omega + field[3]])
            for j in range(3):
                out[j] += field[j]
            r = minimal_displacement(wrap(out), xa)
            keep = ~(_norm(r.T) <= INVERSE_RESIDUAL_TOL)
            if not keep.any():
                return Y.T
        slopes = [TWO_PI * s * cs - TWO_PI * c * sn if c else TWO_PI * s * cs
                  for (*_, s, c), (sn, cs) in zip(modes, trig)]
        if step and not keep.all():
            active, y, r, xa = active[keep], y[:, keep], r[:, keep], xa[:, keep]
            slopes = [d[keep] if np.ndim(d) else d for d in slopes]
        assert step < INVERSE_MAX_ITER
        J = [[float(a), float(b), 0.0] for a, b in g.sys.A.tolist()] + [[0.0, 0.0, 1.0]]
        for (j, *freq, _s, _c), d in zip(modes, slopes):
            row = J[min(j, 2)]
            for k, m in enumerate(freq):
                if m:
                    row[k] = row[k] + (d if m == 1 else m * d)
        cof = [[J[(k + 1) % 3][(i + 1) % 3] * J[(k + 2) % 3][(i + 2) % 3]
                - J[(k + 1) % 3][(i + 2) % 3] * J[(k + 2) % 3][(i + 1) % 3] for i in range(3)]
               for k in range(3)]
        inv = 1.0 / (J[0][0] * cof[0][0] + J[0][1] * cof[0][1] + J[0][2] * cof[0][2])
        dy = np.empty(y.shape)
        for i in range(3):
            dy[i] = cof[0][i] * inv * r[0] + cof[1][i] * inv * r[1] + cof[2][i] * inv * r[2]
        y = wrap(np.add(y, dy, out=dy))
        Y[:, active] = y
