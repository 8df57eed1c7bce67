"""Dynamically coherent skew products over hyperbolic toral automorphisms.

The model family is f(p, z) = (A p, z + omega + phi(p)) on T^3 = T^2 x S^1,
with A a hyperbolic integer matrix of determinant +-1 and phi a finite
trigonometric polynomial on the base.  The center bundle is exactly the
fiber direction, the base eigenframe gives the stable/unstable directions,
and the strong stable/unstable leaves are graphs over the base eigenlines
via convergent transfer series:

    h_s(p, t) = sum_{n>=0} phi(A^n p) - phi(A^n q)     (q = p + t v_s)
    h_u(p, t) = sum_{n>=1} phi(A^-n q) - phi(A^-n p)   (q = p + t v_u)

so (q, z + h_s(p, t)) lies on the strong stable leaf of (p, z), and
similarly for h_u: a strong-leaf point is named by its anchor and one
signed offset t.  `SkewModel.leaf_point` builds every such point; center
leaves are the vertical circles, so it is also the center holonomy onto a
strong leaf.  With phi == 0 and omega == 0 this degenerates to the
product of the toral automorphism with the identity circle fiber (the
"linear" model).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .geometry import _frac, _norm, minimal_displacement, torus_distance, wrap

TWO_PI = 2.0 * math.pi

# Row x term elements of one transfer-series block (128 KiB per temporary);
# `orbits.write_table` sizes its row blocks from it too.
_BLOCK_ELEMENTS = 2 ** 14

# Hard stop on a transfer series' terms, and the largest base displacement
# `intersect` lifts: each model sums an offset that long within the stop.
_SERIES_MAX_TERMS = 500
_LIFT_RADIUS = 0.25


class ModelError(ValueError):
    """Invalid model data (non-hyperbolic matrix, bad determinant, ...)."""


class IntersectionError(RuntimeError):
    """Leaf intersection failed: lift ambiguity, points too far apart, or out of range."""


def eigen_frame(matrix):
    """Stable/unstable eigendata of a hyperbolic 2x2 integer matrix.

    Returns (v_s, v_u, lam, mu) with A v_s = lam v_s, A v_u = mu v_u,
    |lam| < 1 < |mu|, and both eigenvectors unit norm with positive first
    component (second component decides if the first is zero).
    """
    a = np.asarray(matrix, dtype=float)
    if a.shape != (2, 2):
        raise ModelError(f"base matrix must be 2x2, got shape {a.shape}")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(abs(det) - 1.0) > 1e-12:
        raise ModelError(f"base matrix must have |det| = 1, got det = {det}")
    tr = a[0, 0] + a[1, 1]
    disc = tr * tr - 4.0 * det
    if disc <= 0.0:
        raise ModelError("base matrix is not hyperbolic (complex eigenvalues)")
    root = math.sqrt(disc)
    t1 = float(tr + root) / 2.0
    t2 = float(tr - root) / 2.0
    mu, lam = (t1, t2) if abs(t1) >= abs(t2) else (t2, t1)
    if not (abs(lam) < 1.0 < abs(mu)):
        raise ModelError(
            f"base matrix is not hyperbolic: eigenvalues {lam}, {mu} on/inside unit circle"
        )

    def _vec(t):
        # (b, t - a) and (t - d, c) both solve (A - tI)v = 0; pick the better
        # conditioned one.
        v1 = np.array([a[0, 1], t - a[0, 0]])
        v2 = np.array([t - a[1, 1], a[1, 0]])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        v = v / np.linalg.norm(v)
        if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
            v = -v
        return v

    return _vec(lam), _vec(mu), lam, mu


@dataclass(frozen=True)
class SystemRates:
    """Certified one-step contraction/expansion rates along the leaves.

    `lam` bounds d(f(x), f(y)) / d(x, y) from above for y on the local
    stable leaf of x (and the mirror statement for unstable leaves under
    f^-1), in the flat metric, for leaf displacements up to `delta1`.
    For phi != 0 the leaves are curved in the fiber, so `lam` carries the
    transfer-slope factor sqrt(1 + (Lip(phi)/(1-|lam_A|))^2) on top of the
    base eigenvalue; mu = 1/lam.  The center rates are exactly 1 (the
    fiber derivative is 1).
    """

    lam: float
    mu: float
    delta1: float = 0.3


def _flag_rows(errors, exc_type, checks):
    """Record the failing rows of a batched check in the dict `errors`.

    `checks` is a sequence of (bad, message) pairs: `bad` a boolean array
    over rows and `message(r)` the text for row r.  Each failing row is
    recorded as an `exc_type` instance unless `errors` already holds it, so
    a row's first failure names it and one bad row never stops the others.
    """
    for bad, message in checks:
        bad = np.atleast_1d(bad)
        if bad.any():
            for r in np.flatnonzero(bad):
                errors.setdefault(int(r), exc_type(message(int(r))))


def _is_positive_int(value) -> bool:
    """True for a positive Python or numpy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1


def _integers(values, what: str) -> np.ndarray:
    """`values` as int64; ModelError if one is not an integer in int64's
    range [-2**63, 2**63) (NaN and inf are not)."""
    a = np.asarray(values, dtype=float)
    if not ((a % 1.0 == 0.0) & (a >= -2.0 ** 63) & (a < 2.0 ** 63)).all():
        raise ModelError(f"{what} must be integers in [-2**63, 2**63), got {values!r}")
    return a.astype(np.int64)


class TrigField:
    """Checked modes (j, *m, s, c), each adding s sin(2 pi m.x) + c cos(2 pi
    m.x) to component j, with m over `axes` coordinates, and the field's
    Lipschitz bound `lip`: the rss over components of sum 2 pi |m| |(s, c)|
    (one component's sum itself).  ModelError, naming `what`, for a bad
    length, j, integer or amplitude; a one-component field's j is its
    caller's 0.  For `_trig_field`: the (axis, m) terms, m nonzero, of each
    distinct frequency in order of first appearance, and each mode's row
    among them and component."""

    def __init__(self, modes, what: str, axes: int, components: int = 1):
        checked, lip = [], [0.0] * components
        for mode in modes:
            j, *m, s, c = mode
            if len(m) != axes:    # shown as given: without the j of a one-component field
                raise ModelError(f"{what} mode {tuple(mode)[components == 1:]!r} "
                                 f"needs {axes} frequencies")
            if components == 1:
                m = _integers(tuple(m), f"{what} mode frequencies").tolist()
            else:
                j, *m = _integers((j, *m), f"{what} coordinates and frequencies").tolist()
                if not 0 <= j < components:
                    raise ModelError(f"{what} coordinate must be 0, 1, or 2, got {j}")
            s, c = float(s), float(c)
            if not (math.isfinite(s) and math.isfinite(c)):
                raise ModelError(f"{what} mode amplitudes must be finite, got {s}, {c}")
            checked.append((j, *m, s, c))
            lip[j] += TWO_PI * math.hypot(*m) * math.hypot(s, c)
        self.modes, self.components = checked, components
        self.comp = [mode[0] for mode in checked]
        self.lip = lip[0] if components == 1 else math.sqrt(sum(l * l for l in lip))
        freqs = {}
        self.row = np.array([freqs.setdefault(tuple(q[1:-2]), len(freqs)) for q in checked], int)
        self.terms = [[(k, m) for k, m in enumerate(f) if m] for f in freqs]
        self.sin, self.cos = (np.array([mode[i] for mode in checked]) for i in (-2, -1))
        self.reads = (bool(self.sin.any()), bool(self.cos.any()))


def _trig_field(field: TrigField, coords, trig: bool = False):
    """The (components, ...) values of `field` at coordinates, one (axes,
    ...) array or a sequence of arrays (None for an axis no mode reads);
    with `trig`, also the (u, ...) sin and cos stacks, mode q's at row
    `field.row[q]`.  Each distinct frequency's 2 pi m.x, its terms summed in
    axis order, is one row of a stack whose sin and cos take one call each,
    cos only if a mode or `trig` reads it.  A component sums its modes' s sin
    + c cos from 0.0 in mode order; a zero amplitude's signed zero leaves
    such a sum as it is, so the bits are those of a pass per mode."""
    rows = []
    for terms in field.terms:
        x = [coords[k] if m == 1 else m * coords[k] for k, m in terms]
        rows.append(sum(x[1:], x[0]) if x else 0.0)
    if len(rows) == 1 and not isinstance(coords, np.ndarray):    # a stack of one angle
        th = np.multiply(TWO_PI, rows[0])[None]
    else:
        th = np.empty((len(rows),) + (coords.shape[1:] if isinstance(coords, np.ndarray)
                                      else np.broadcast_shapes(*map(np.shape, rows))))
        for row, acc in enumerate(rows):
            np.multiply(TWO_PI, acc, out=th[row, ...])
    cos = field.reads[1] or trig
    sn = np.sin(th, out=None if cos else th) if field.reads[0] or trig else None
    cs = np.cos(th, out=th) if cos else None
    v = np.zeros((field.components,) + th.shape[1:])
    if any(field.reads):    # else every sum stays 0.0
        col = (-1,) + (1,) * (th.ndim - 1)
        if field.reads[0]:
            t = sn.take(field.row, axis=0)
            t *= field.sin.reshape(col)
        if field.reads[1]:
            u = cs.take(field.row, axis=0)
            u *= field.cos.reshape(col)
            t = t + u if field.reads[0] else u
        for q, j in enumerate(field.comp):
            v[j] += t[q]
    return (v, sn, cs) if trig else v


def _base_map(M, p1, p2) -> list:
    """The rows of M p at coordinate arrays p1, p2; a unit entry of M takes no product."""
    return [(p1 if a == 1 else a * p1) + (p2 if b == 1 else b * p2) for a, b in M.tolist()]


class SkewModel:
    """A skew product f(p, z) = (A p, z + omega + phi(p)) on T^3.

    Every kernel is array-first: points are arrays whose last axis holds
    the coordinates, and a single point is the one-row case.
    """

    def __init__(self, matrix, omega=0.0, phi_modes=(), series_tol=1e-12):
        self.A = _integers(matrix, "base matrix entries")
        self.v_s, self.v_u, self.eig_lam, self.eig_mu = eigen_frame(self.A)
        (a, b), (c, d) = self.A.tolist()
        det = a * d - b * c  # eigen_frame checked |det| = 1, so A^-1 = det adj(A)
        self.A_inv = np.array([[d, -b], [-c, a]], dtype=np.int64) * det
        self.omega = float(omega)
        if not math.isfinite(self.omega):
            raise ModelError(f"omega must be finite, got {self.omega!r}")
        # phi is a one-component field; `modes` are its (m1, m2, s, c)
        self._phi = TrigField([(0, *mode) for mode in phi_modes], "phi", axes=2)
        self.lip_phi = self._phi.lip
        self.modes = [mode[1:] for mode in self._phi.modes]
        # the base axes some mode reads: the series forms only their coordinates
        self._phi_axes = [any(mode[k] for mode in self.modes) for k in (0, 1)]
        self.series_tol = float(series_tol)
        if not 0.0 < self.series_tol < math.inf:
            raise ModelError(f"series_tol must be finite and positive, got {self.series_tol!r}")

        # Slope bound of the stable transfer graph over its base line (the
        # series includes the n = 0 term; the unstable one is flatter).
        abs_lam = abs(self.eig_lam)
        self.leaf_slope_s = self.lip_phi / (1.0 - abs_lam)

        # Certified flat-metric rates (exact eigenvalues for the linear model).
        lam_eff = abs_lam * math.sqrt(1.0 + self.leaf_slope_s ** 2)
        if lam_eff >= 1.0:
            raise ModelError("fiber coupling too strong: no certified leaf contraction")
        self.rates = SystemRates(lam=lam_eff, mu=1.0 / lam_eff)
        # Lipschitz bounds of f and f^-1: the norms of [[|A|, 0], [Lip(phi), 1]]
        # and [[|A^-1|, 0], [Lip(phi) |A^-1|, 1]].
        n, n_inv = (float(np.linalg.norm(np.asarray(M, dtype=float), ord=2))
                    for M in (self.A, self.A_inv))
        self.lip_f, self.lip_f_inv = (
            float(np.linalg.norm(np.array([[b, 0.0], [lip, 1.0]]), ord=2))
            for b, lip in ((n, self.lip_phi), (n_inv, self.lip_phi * n_inv)))

        # The inverse eigenframe, and the conditioning of the 2x2 intersection
        # solve through it, with safety factor.
        self._inv = np.linalg.inv(np.column_stack([self.v_u, self.v_s]))
        self.L0 = 1.1 * float(np.linalg.norm(self._inv, ord=2))
        self.delta0 = 0.2
        # Per-class tables of the strong leaves, indexed by `stable` (0 for
        # the unstable class, 1 for the stable one): the leaf vector and the
        # transfer series' rate, first term and sign, and the series tables
        # of each term count used (`_series_table`).
        self._leaf = np.array([self.v_u, self.v_s])
        self._rate = (1.0 / self.eig_mu, self.eig_lam)
        self._skip = (1, 0)
        self._sign = np.array([-1.0, 1.0])
        self._tables = {}
        reach = self.leaf_slope_s * _LIFT_RADIUS
        if self._series_terms(reach / self.series_tol, (0, 1)) > _SERIES_MAX_TERMS:
            # the count fits while reach / tol < |rate|^-(max - 1 + skip); the
            # factor clears the rounding of the count and of the printed value
            least = max(reach * abs(rate) ** (_SERIES_MAX_TERMS - 1 + skip)
                        for rate, skip in zip(self._rate, self._skip)) * (1.0 + 1e-10)
            raise ModelError(
                f"series_tol = {self.series_tol!r} needs more than {_SERIES_MAX_TERMS} "
                f"transfer-series terms at offset {_LIFT_RADIUS}; the smallest admissible "
                f"value is {least:.12g}")

    @property
    def is_linear(self) -> bool:
        return self.omega == 0.0 and not any(s != 0.0 or c != 0.0 for (_, _, s, c) in self.modes)

    # -- fiber coupling ----------------------------------------------------

    def phi(self, p1, p2):
        """phi at base points given by their coordinate arrays p1, p2."""
        return _trig_field(self._phi, (p1, p2))[0]

    # -- the map -----------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """f(x) for points (..., 3)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        p1, p2 = x[..., 0], x[..., 1]
        out[..., 0], out[..., 1] = _base_map(self.A, p1, p2)
        out[..., 2] = x[..., 2] + self.omega + self.phi(p1, p2)
        return wrap(out)

    def apply_inverse(self, x) -> np.ndarray:
        """f^-1(x) for points (..., 3); the base wraps as one contiguous array."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        p1, p2 = x[..., 0], x[..., 1]
        base = wrap(_base_map(self.A_inv, p1, p2))
        out[..., 0], out[..., 1] = base
        out[..., 2] = wrap(x[..., 2] - self.omega - self.phi(base[0], base[1]))
        return out

    def center_step(self, x, y):
        """(transverse, motion) of points y (..., 3) against the center leaf of
        f(x), the one center-leaf gate: the leaves are the fibers, so these are
        the base distance and the signed fiber displacement from f(x).  f
        refuses NaN: a row of x that is not finite gives NaN in both."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        ok = np.isfinite(x).all(axis=-1)
        fx = np.full(x.shape, np.nan)
        fx[ok] = self.apply(x[ok])
        return (torus_distance(fx[..., :2], y[..., :2]),
                minimal_displacement(fx[..., 2], y[..., 2]))

    def coeffs(self, d):
        """(along v_u, along v_s) coefficients of base displacements d (..., 2)."""
        inv = self._inv
        return (inv[0, 0] * d[..., 0] + inv[0, 1] * d[..., 1],
                inv[1, 0] * d[..., 0] + inv[1, 1] * d[..., 1])

    # -- transfer series ---------------------------------------------------

    def transfer_stable(self, p, t, tol=None):
        """Fiber offsets h_s(p, t) so that (p + t v_s, z + h_s) is on W^s((p, z)).

        The geometric tail bound Lip(phi) * |lam|^n * |t| / (1 - |lam|) sets
        each row's term count at series_tol, or at the caller's float `tol`.
        """
        return self._transfer_series(p, t, stable=True, tol=tol)

    def transfer_unstable(self, p, t, tol=None):
        """Fiber offsets h_u(p, t) for the point p + t v_u of the unstable line."""
        return self._transfer_series(p, t, stable=False, tol=tol)

    def _series_table(self, terms: int) -> np.ndarray:
        """(5, 2, terms), kept per term count: for each class, the decay
        rate^(n + skip) of its first `terms` terms and the entries a, b, c, d
        of their anchor matrices, A^-n for n = 1..terms (unstable) and A^n
        for n < terms (stable), floats rounded once from exact integer
        products."""
        table = self._tables.get(terms)
        if table is None:
            powers = []
            for ((a, b), (c, d)), skip in zip((self.A_inv.tolist(), self.A.tolist()), self._skip):
                mats = [(1, 0, 0, 1)]
                for _ in range(terms + skip - 1):
                    p, q, r, s = mats[-1]
                    mats.append((p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d))
                powers.append(mats[skip:])
            decay = np.array(self._rate)[:, None] ** (np.arange(terms) + np.array(self._skip)[:, None])
            table = self._tables[terms] = np.concatenate(
                [decay[None], np.array(powers, dtype=float).transpose(2, 0, 1)])
        return table

    def _series_terms(self, need: float, classes) -> int:
        """Terms of a series pass over the leaf `classes` (0 unstable, 1
        stable) whose neediest row has tail * |t| / tol = `need`: term n is
        live while need * |rate|^(n + skip) >= 1; 0 when none is."""
        need = min(need, np.finfo(float).max)    # a tol near 0 overflows to inf
        terms = 0
        for c in classes:
            rate, skip = abs(self._rate[c]), self._skip[c]
            if need * rate ** skip >= 1.0:
                terms = max(terms, int(math.log(need) / -math.log(rate)) + 2 - skip)
        return terms

    def _transfer_series(self, p, t, stable, tol=None):
        """Evaluate the transfer series of every row, in blocks of rows.

        `stable` names the leaf class: a bool, or a bool array broadcasting
        over the rows, one class per row; the pass runs the term count of the
        classes present, so a one-class array runs the bool's.  The pair
        (A^n p, A^n q) is never iterated as two points: floating-point noise
        in the expanding direction of the iteration would separate them
        exponentially and turn the late terms into garbage.  Instead the
        anchor A^n p comes from the exact integer power and the other point is
        reconstructed as anchor + lam^n t v, which decays exactly; drift
        common to both evaluation points cancels in the phi difference.  Row
        r sums the terms whose tail bound is still >= `tol` (series_tol by
        default), in order, so its value does not depend on the other rows or
        their classes.

        Blocks of rows, about _BLOCK_ELEMENTS row x term elements each, keep
        the temporaries in the cache at any batch size; the rows are the
        flattened axes before the last (the elements of a 1-D stack).
        Blocking is exact: each block runs the pass's term count, and the
        terms past a row's live ones add 0.0 to its sequential sum.
        """
        t = np.asarray(t, dtype=float)
        if self.lip_phi == 0.0:
            return np.zeros(t.shape)[()]
        tol = self.series_tol if tol is None else float(tol)
        cls = np.asarray(stable, dtype=np.intp)[()]    # one class indexes its tables as views
        tail = self.lip_phi / (1.0 - abs(self.eig_lam))
        # Term n is live while its tail bound tail * |t rate^(n + skip)| is
        # >= tol; size the pass for the row and the class present that need
        # most, plus one spare (no rows, no classes, no terms).
        need = float(np.max(tail * np.abs(t) / tol, initial=0.0))
        terms = self._series_terms(need, range(cls.min(initial=1), cls.max(initial=0) + 1))
        if not terms:
            return np.zeros(t.shape)[()]
        if terms > _SERIES_MAX_TERMS:  # a caller's tol below the model's; hard stop
            raise ModelError(f"transfer series needs {terms} terms, over the limit of "
                             f"{_SERIES_MAX_TERMS}, to reach tolerance {tol:.3g}")
        table = self._series_table(terms)
        p = np.asarray(p, dtype=float)

        def block(p, t, cls):
            # A^n q = A^n p + lam^n t v_s; A^-n q = A^-n p + mu^-n t v_u
            decay, a, b, c, d = table[:, cls]
            cur = t[..., None] * decay
            live = tail * np.abs(cur) >= tol
            p1, p2 = p[..., 0, None], p[..., 1, None]
            # bare _frac, not wrap: a fold of 1.0 to 0.0 would move phi's bits;
            # an axis no phi mode reads is not formed
            at = [_frac(e * p1 + f * p2) if read else None
                  for (e, f), read in zip(((a, b), (c, d)), self._phi_axes)]
            v = self._leaf[cls, ..., None]
            moved = [x if x is None else x + cur * v[..., k, :] for k, x in enumerate(at)]
            diff = self.phi(*at) - self.phi(*moved)
            return np.cumsum(np.where(live, diff, 0.0), axis=-1)[..., -1]

        shape = np.broadcast(p[..., 0], t, cls).shape
        lead = shape[:-1] if len(shape) > 1 else shape
        trail, n_rows = len(shape) - len(lead), math.prod(lead)
        rows = max(1, _BLOCK_ELEMENTS // max(1, terms * math.prod(shape[len(lead):])))
        if rows >= n_rows:
            total = block(p, t, cls)
        else:
            total = np.empty((n_rows,) + shape[len(lead):])
            # an operand without the leading axes goes whole into every block
            parts = []
            for a, keep in ((p, 1), (t, 0), (cls, 0)):
                own = np.shape(a)[np.ndim(a) - trail - keep:]
                parts.append((np.broadcast_to(a, lead + own).reshape((n_rows,) + own), True)
                             if np.ndim(a) > trail + keep else (a, False))
            for lo in range(0, n_rows, rows):
                total[lo:lo + rows] = block(*(a[lo:lo + rows] if cut else a for a, cut in parts))
            total = total.reshape(shape)
        # h_s sums phi(A^n p) - phi(A^n q); h_u sums phi(A^-n q) - phi(A^-n p).
        return (total * self._sign[cls])[()]

    # -- strong-leaf points and intersections ----------------------------------

    def leaf_point(self, anchor, offset, stable, tol=None) -> np.ndarray:
        """The point at signed base offset `offset` along v_s (or v_u) on the
        strong stable (or unstable) leaf of `anchor`: (q, z + h(p, offset))
        with q = p + offset v for anchor (p, z).

        anchor (..., 3) broadcasts against offset (...), and `stable` is a
        bool or a bool array broadcasting against offset, one leaf class per
        row (the flag `intersect` takes for y's leaf); a row gets the bits of
        its own single-class call.  Center leaves are the vertical circles, so
        this is also the center holonomy from the point over q onto the strong
        leaf of `anchor`.
        """
        anchor = np.asarray(anchor, dtype=float)
        offset = np.asarray(offset, dtype=float)
        p = anchor[..., :2]
        cls = np.asarray(stable, dtype=np.intp)
        if cls.ndim:
            h = self._transfer_series(p, offset, stable, tol=tol)
        else:
            h = (self.transfer_stable if cls else self.transfer_unstable)(p, offset, tol=tol)
        fiber = wrap(anchor[..., 2] + h)
        # column writes cost a fifth of broadcast_to + concatenate on one point
        point = np.empty(fiber.shape + (3,))
        point[..., :2] = wrap(p + offset[..., None] * self._leaf[cls])
        point[..., 2] = fiber
        return point

    def intersect(self, x, y, stable, radius, errors) -> np.ndarray:
        """The signed offset along y's strong leaf of the unique intersection
        of the local center-containing leaf of x with the local strong leaf of
        y, row by row, read from the bases of x and y (..., 2 or 3); the point
        is `leaf_point(y, offset, stable)`.

        `stable` names y's strong leaf as `leaf_point` does: a bool, or a bool
        array broadcasting over the rows, one leaf pair per row.  x's leaf is
        its partner: cu for a stable y (the pair (cu, s)), cs for an unstable
        one (the pair (cs, u)).  The offset comes from the 2x2 eigenframe
        solve in the minimal lift.  A row fails on lift ambiguity (base
        displacement > 0.25), a pair distance >= delta0, or a point farther
        than L0 * radius from either input.  For that last check, d(point, y)
        <= sqrt(1 + leaf_slope_s^2) |offset| clears most rows (1e-12 covers
        rounding); the rest, every failing row among them, get the exact
        distance, in which y's fiber cancels.  Failing rows are recorded in
        the dict `errors` (see `_flag_rows`).
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = x.shape[:-1]
        xb, yb = x[..., :2].reshape(-1, 2), y[..., :2].reshape(-1, 2)
        stable = np.broadcast_to(stable, shape).reshape(-1)
        d_xy = minimal_displacement(xb, yb)
        base_sep = _norm(d_xy)
        far = ~(base_sep < self.delta0)
        # Center leaves are full vertical circles here, so the class containing
        # the center direction places no constraint on the fiber gap; only the
        # base separation limits solvability.
        _flag_rows(errors, IntersectionError, (
            (~(base_sep <= _LIFT_RADIUS),
             lambda r: f"lift ambiguity: base displacement {base_sep[r]:.4f} > {_LIFT_RADIUS}"),
            (far,
             lambda r: (f"points too far apart for leaf intersection: base separation "
                        f"{base_sep[r]:.4f} >= delta0 = {self.delta0}")),
        ))
        # p_x + s dir_x = p_y + t dir_y, so t is minus the y-side coefficient
        # of d_xy.  Rejected rows get a zero offset so their series stays defined.
        cu, cs = self.coeffs(d_xy)
        t = np.where(far, 0.0, -np.where(stable, cs, cu))

        cap = np.broadcast_to(self.L0 * np.asarray(radius, dtype=float).reshape(-1), t.shape)
        # The x-side class always contains the center direction, so measure its
        # distance center-transversally (base only, the base `leaf_point`
        # builds); the y-side leaf is strong, so its full distance is pinned.
        dx = torus_distance(wrap(yb + t[:, None] * self._leaf[stable.astype(np.intp)]), xb)
        dy = math.sqrt(1.0 + self.leaf_slope_s ** 2) * np.abs(t)
        exact = ~(dy + 1e-12 < cap) | ~(dx <= cap)
        if exact.any():
            y0 = np.pad(yb[exact], ((0, 0), (0, 1)))    # fiber 0
            dy[exact] = torus_distance(self.leaf_point(y0, t[exact], stable[exact]), y0)
        _flag_rows(errors, IntersectionError, ((
            ~(dx <= cap) | ~(dy <= cap),
            lambda r: (f"intersection outside L0*radius: d(x)={dx[r]:.3e}, "
                       f"d(y)={dy[r]:.3e}, cap={cap[r]:.3e}")),))
        return t.reshape(shape)[()]


# -- model files -------------------------------------------------------------

def model_to_dict(sys: SkewModel) -> dict:
    return {
        "matrix": [[int(sys.A[0, 0]), int(sys.A[0, 1])],
                   [int(sys.A[1, 0]), int(sys.A[1, 1])]],
        "omega": sys.omega,
        "phi_modes": [{"freq": [m1, m2], "sin": s, "cos": c}
                      for (m1, m2, s, c) in sys.modes],
        "series_tol": sys.series_tol,
    }


def _json_numbers(value, what: str, depth: int = 0):
    """Decoded JSON `value` as a number (an int or a float, not a bool) at
    depth 0, else a list of depth - 1 such values; ModelError naming `what`
    for another type, so a string or a bool is never read as a number."""
    if depth and isinstance(value, list):
        return [_json_numbers(v, what, depth - 1) for v in value]
    if depth or isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{what}: expected {'a list' if depth else 'a number'}, got {value!r}")
    return value


def _json_keys(obj, keys, what: str) -> None:
    """ModelError, naming `what`, unless obj is a JSON object with no key outside `keys`."""
    if not isinstance(obj, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if not obj.keys() <= set(keys):
        raise ModelError(f"{what}: unknown key(s) {sorted(obj.keys() - set(keys))}")


def _json_mode(mode: dict, what: str, head=()) -> tuple:
    """(*head, *freq, sin, cos) of a JSON mode with no other key; sin, cos 0.0 if absent."""
    _json_keys(mode, (*head, "freq", "sin", "cos"), what)
    return (*(_json_numbers(mode[key], f"{what} {key}") for key in head),
            *_json_numbers(mode["freq"], f"{what} freq", 1),
            *(_json_numbers(mode.get(key, 0.0), f"{what} {key}") for key in ("sin", "cos")))


def model_from_dict(data: dict) -> SkewModel:
    _json_keys(data, ("matrix", "omega", "phi_modes", "series_tol"), "model description")
    try:
        modes = [_json_mode(m, "phi mode") for m in data.get("phi_modes", [])]
        return SkewModel(_json_numbers(data["matrix"], "matrix", 2),
                         omega=_json_numbers(data.get("omega", 0.0), "omega"), phi_modes=modes,
                         series_tol=_json_numbers(data.get("series_tol", 1e-12), "series_tol"))
    except (KeyError, TypeError, IndexError) as exc:
        raise ModelError(f"malformed model description: {exc}") from exc


def builtin_model(name: str) -> SkewModel:
    """The two reference systems: 'linear' and 'skew'."""
    if name == "linear":
        return SkewModel([[2, 1], [1, 1]])
    if name == "skew":
        return SkewModel([[2, 1], [1, 1]], omega=0.05,
                         phi_modes=[(1, 0, 0.02, 0.0)])
    raise ModelError(f"unknown builtin model {name!r}")


def load_model(path) -> SkewModel:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)
