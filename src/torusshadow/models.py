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

from .geometry import _frac, minimal_displacement, torus_distance, wrap

TWO_PI = 2.0 * math.pi

# Row x term elements of one transfer-series block (128 KiB per temporary);
# `orbits.write_table` sizes its row blocks from it too.
_BLOCK_ELEMENTS = 2 ** 14


class ModelError(ValueError):
    """Invalid model data (non-hyperbolic matrix, bad determinant, ...)."""


class IntersectionError(RuntimeError):
    """Leaf intersection failed: bad pair, lift ambiguity, or out of range."""


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
    """`values` as int64; ModelError if one is not an integer (NaN and inf are not)."""
    a = np.asarray(values, dtype=float)
    if not (a % 1.0 == 0.0).all():
        raise ModelError(f"{what} must be integers, got {values!r}")
    return a.astype(np.int64)


def _norm(d):
    return np.sqrt((d * d).sum(axis=-1))


class SkewModel:
    """A skew product f(p, z) = (A p, z + omega + phi(p)) on T^3.

    Every kernel is array-first: points are arrays whose last axis holds
    the coordinates, and a single point is the one-row case.
    """

    def __init__(self, matrix, omega=0.0, phi_modes=(), series_tol=1e-12):
        self.A = _integers(matrix, "base matrix entries")
        self.v_s, self.v_u, self.eig_lam, self.eig_mu = eigen_frame(self.A)
        det = int(round(float(np.linalg.det(self.A))))
        self.A_inv = (np.array([[self.A[1, 1], -self.A[0, 1]],
                                [-self.A[1, 0], self.A[0, 0]]], dtype=np.int64) * det)
        self.omega = float(omega)
        if not math.isfinite(self.omega):
            raise ModelError(f"omega must be finite, got {self.omega!r}")
        self.modes = [(*_integers((m1, m2), "phi mode frequencies").tolist(), float(s), float(c))
                      for (m1, m2, s, c) in phi_modes]
        for (_, _, s, c) in self.modes:
            if not (math.isfinite(s) and math.isfinite(c)):
                raise ModelError(f"phi mode amplitudes must be finite, got {s}, {c}")
        self.series_tol = float(series_tol)
        if not 0.0 < self.series_tol < math.inf:
            raise ModelError(f"series_tol must be finite and positive, got {self.series_tol!r}")

        self.lip_phi = sum(
            TWO_PI * math.hypot(m1, m2) * math.hypot(s, c) for (m1, m2, s, c) in self.modes
        )
        # Slope bound of the stable transfer graph over its base line (the
        # series includes the n = 0 term; the unstable one is flatter).
        abs_lam = abs(self.eig_lam)
        self.leaf_slope_s = self.lip_phi / (1.0 - abs_lam)

        # Certified flat-metric rates (exact eigenvalues for the linear model).
        lam_eff = abs_lam * math.sqrt(1.0 + self.leaf_slope_s ** 2)
        if lam_eff >= 1.0:
            raise ModelError("fiber coupling too strong: no certified leaf contraction")
        self.rates = SystemRates(lam=lam_eff, mu=1.0 / lam_eff)

        # The inverse eigenframe, and the conditioning of the 2x2 intersection
        # solve through it, with safety factor.
        self._inv = np.linalg.inv(np.column_stack([self.v_u, self.v_s]))
        self.L0 = 1.1 * float(np.linalg.norm(self._inv, ord=2))
        self.delta0 = 0.2
        # Exact integer powers A^n and A^-n as floats, grown on demand.
        self._powers = {True: np.eye(2)[None], False: np.eye(2)[None]}

    @property
    def is_linear(self) -> bool:
        return self.omega == 0.0 and not any(s != 0.0 or c != 0.0 for (_, _, s, c) in self.modes)

    # -- fiber coupling ----------------------------------------------------

    def phi(self, p1, p2):
        """phi at base points given by their coordinate arrays p1, p2."""
        total = 0.0
        for (m1, m2, s, c) in self.modes:
            # Zero and unit frequencies are skipped exactly (0 * p adds 0.0).
            arg = m1 * p1 if m1 != 1 else p1
            if m2:
                arg = arg + (m2 * p2 if m2 != 1 else p2) if m1 else m2 * p2
            th = TWO_PI * np.asarray(arg, dtype=float)
            if s:
                total = total + s * np.sin(th)
            if c:
                total = total + c * np.cos(th)
        return total

    # -- the map -----------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        A = self.A
        out = np.empty(x.shape)
        p1, p2 = x[..., 0], x[..., 1]
        out[..., 0] = A[0, 0] * p1 + A[0, 1] * p2
        out[..., 1] = A[1, 0] * p1 + A[1, 1] * p2
        out[..., 2] = x[..., 2] + self.omega + self.phi(p1, p2)
        return wrap(out)

    def apply_inverse(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        A = self.A_inv
        out = np.empty(x.shape)
        p1, p2 = x[..., 0], x[..., 1]
        out[..., 0] = A[0, 0] * p1 + A[0, 1] * p2
        out[..., 1] = A[1, 0] * p1 + A[1, 1] * p2
        out[..., :2] = wrap(out[..., :2])
        out[..., 2] = x[..., 2] - self.omega - self.phi(out[..., 0], out[..., 1])
        return wrap(out)

    def coeffs(self, d):
        """(along v_u, along v_s) coefficients of base displacements d (..., 2)."""
        inv = self._inv
        return (inv[0, 0] * d[..., 0] + inv[0, 1] * d[..., 1],
                inv[1, 0] * d[..., 0] + inv[1, 1] * d[..., 1])

    # -- transfer series ---------------------------------------------------

    def transfer_stable(self, p, t, tol=None):
        """Fiber offsets h_s(p, t) so that (p + t v_s, z + h_s) is on W^s((p, z)).

        The geometric tail bound Lip(phi) * |lam|^n * |t| / (1 - |lam|) sets
        each row's term count at series_tol, or at the caller's `tol` (a
        scalar or one value per row).
        """
        return self._transfer_series(p, t, stable=True, tol=tol)

    def transfer_unstable(self, p, t, tol=None):
        """Fiber offsets h_u(p, t) for the point p + t v_u of the unstable line."""
        return self._transfer_series(p, t, stable=False, tol=tol)

    def _anchor_powers(self, stable: bool, count: int) -> np.ndarray:
        """A^n (stable) or A^-n (unstable) for n < count, as (count, 2, 2)
        floats rounded once from exact integer products."""
        cached = self._powers[stable]
        if cached.shape[0] < count:
            (a, b), (c, d) = (self.A if stable else self.A_inv).tolist()
            mats = [((1, 0), (0, 1))]
            for _ in range(count - 1):
                (p, q), (r, s) = mats[-1]
                mats.append(((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d)))
            cached = self._powers[stable] = np.array(mats, dtype=float)
        return cached[:count]

    def _transfer_series(self, p, t, stable: bool, tol=None):
        """Evaluate the transfer series of every row, in blocks of rows.

        The pair (A^n p, A^n q) is never iterated as two points: floating-point
        noise in the expanding direction of the iteration would separate them
        exponentially and turn the late terms into garbage.  Instead the anchor
        A^n p comes from the exact integer power and the other point is
        reconstructed as anchor + lam^n t v, which decays exactly; drift common
        to both evaluation points cancels in the phi difference.  Row r sums
        the terms whose tail bound is still >= its tolerance, in order, so its
        value does not depend on the other rows.

        Blocks of leading rows, about _BLOCK_ELEMENTS row x term elements
        each, keep the temporaries in the cache at any batch size.  Blocking
        is exact: each block runs the pass's term count, and the terms past a
        row's live ones add 0.0 to its sequential sum.
        """
        t = np.asarray(t, dtype=float)
        if self.lip_phi == 0.0:
            return np.zeros(t.shape)[()]
        tol = np.asarray(self.series_tol if tol is None else tol, dtype=float)
        tail = self.lip_phi / (1.0 - abs(self.eig_lam))
        if stable:
            rate, v, skip = self.eig_lam, self.v_s, 0    # A^n q = A^n p + lam^n t v_s
        else:
            rate, v, skip = 1.0 / self.eig_mu, self.v_u, 1  # A^-n q = A^-n p + mu^-n t v_u
        # Term n is live while its tail bound tail * |t rate^(n + skip)| is
        # >= tol; size the pass for the row that needs most, plus one spare.
        need = float(np.max(tail * np.abs(t) / tol, initial=0.0))
        if not need * abs(rate) ** skip >= 1.0:
            return np.zeros(t.shape)[()]
        terms = int(math.log(need) / -math.log(abs(rate))) + 2 - skip
        if terms > 500:  # unreachable for valid tolerances; hard stop
            raise RuntimeError("transfer series failed to converge")
        decay = rate ** np.arange(skip, terms + skip)
        powers = self._anchor_powers(stable, terms + skip)[skip:]
        p = np.asarray(p, dtype=float)

        def block(p, t, tol):
            cur = t[..., None] * decay
            live = tail * np.abs(cur) >= (tol[..., None] if tol.ndim else tol)
            p1, p2 = p[..., 0, None], p[..., 1, None]
            # bare _frac, not wrap: a fold of 1.0 to 0.0 would move phi's bits
            a1 = _frac(powers[:, 0, 0] * p1 + powers[:, 0, 1] * p2)
            a2 = _frac(powers[:, 1, 0] * p1 + powers[:, 1, 1] * p2)
            diff = self.phi(a1, a2) - self.phi(a1 + cur * v[0], a2 + cur * v[1])
            return np.cumsum(np.where(live, diff, 0.0), axis=-1)[..., -1]

        shape = np.broadcast(p[..., 0], t, tol).shape
        rows = max(1, _BLOCK_ELEMENTS // max(1, terms * math.prod(shape[1:])))
        if rows >= math.prod(shape[:1]):
            total = block(p, t, tol)
        else:
            total = np.empty(shape)
            # an operand without the leading axis goes whole into every block
            lead = [a.ndim == len(shape) and a.shape[0] > 1 for a in (p[..., 0], t, tol)]
            for lo in range(0, shape[0], rows):
                total[lo:lo + rows] = block(*(a[lo:lo + rows] if cut else a
                                              for a, cut in zip((p, t, tol), lead)))
        # h_s sums phi(A^n p) - phi(A^n q); h_u sums phi(A^-n q) - phi(A^-n p).
        return (total if stable else -total)[()]

    # -- strong-leaf points and intersections ----------------------------------

    def leaf_point(self, anchor, offset, stable: bool, tol=None) -> np.ndarray:
        """The point at signed base offset `offset` along v_s (or v_u) on the
        strong stable (or unstable) leaf of `anchor`: (q, z + h(p, offset))
        with q = p + offset v for anchor (p, z).

        anchor (..., 3) broadcasts against offset (...).  Center leaves are
        the vertical circles, so this is also the center holonomy from the
        point over q onto the strong leaf of `anchor`.
        """
        anchor = np.asarray(anchor, dtype=float)
        offset = np.asarray(offset, dtype=float)
        p = anchor[..., :2]
        transfer = self.transfer_stable if stable else self.transfer_unstable
        fiber = wrap(anchor[..., 2] + transfer(p, offset, tol=tol))
        # column writes cost a fifth of broadcast_to + concatenate on one point
        point = np.empty(fiber.shape + (3,))
        point[..., :2] = wrap(p + offset[..., None] * (self.v_s if stable else self.v_u))
        point[..., 2] = fiber
        return point

    def intersect(self, class_x: str, x, class_y: str, y, radius, errors=None) -> np.ndarray:
        """Unique intersection of the local `class_x` leaf of x with the
        local `class_y` leaf of y, row by row.

        Supported pairs: (cu, s) and (cs, u).  The offset along y's strong
        leaf comes from the 2x2 eigenframe solve in the minimal lift; the
        point is the `leaf_point` of y at that offset.  A row fails on lift
        ambiguity (base displacement > 0.25), a pair distance >= delta0, or
        a solution farther than L0 * radius from either input.  Failing rows
        are recorded in the dict `errors` (see `_flag_rows`); with
        `errors=None` the lowest failing row raises IntersectionError after
        all rows ran.
        """
        if (class_x, class_y) not in (("cu", "s"), ("cs", "u")):
            raise IntersectionError(f"unsupported leaf pair ({class_x}, {class_y})")
        found = {} if errors is None else errors
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = x.shape
        x, y = x.reshape(-1, 3), y.reshape(-1, 3)
        xb, yb = x[:, :2], y[:, :2]
        d_xy = minimal_displacement(xb, yb)
        base_sep = _norm(d_xy)
        far = ~(base_sep < self.delta0)
        # Center leaves are full vertical circles here, so the class containing
        # the center direction places no constraint on the fiber gap; only the
        # base separation limits solvability.
        _flag_rows(found, IntersectionError, (
            (~(base_sep <= 0.25),
             lambda r: f"lift ambiguity: base displacement {base_sep[r]:.4f} > 0.25"),
            (far,
             lambda r: (f"points too far apart for leaf intersection: base separation "
                        f"{base_sep[r]:.4f} >= delta0 = {self.delta0}")),
        ))
        stable_y = class_y == "s"
        # p_x + s dir_x = p_y + t dir_y, so t is minus the y-side coefficient
        # of d_xy.  Rejected rows get a zero offset so their series stays defined.
        t = np.where(far, 0.0, -self.coeffs(d_xy)[stable_y])
        point = self.leaf_point(y, t, stable_y)

        cap = np.broadcast_to(self.L0 * np.asarray(radius, dtype=float).reshape(-1), t.shape)
        # The x-side class always contains the center direction, so measure its
        # distance center-transversally (base only); the y-side leaf is strong,
        # so its full distance is pinned.
        dx = torus_distance(point[:, :2], xb)
        dy = torus_distance(point, y)
        _flag_rows(found, IntersectionError, ((
            ~(dx <= cap) | ~(dy <= cap),
            lambda r: (f"intersection outside L0*radius: d(x)={dx[r]:.3e}, "
                       f"d(y)={dy[r]:.3e}, cap={cap[r]:.3e}")),))
        if errors is None and found:
            raise found[min(found)]
        return point.reshape(shape)


def inverse_system(sys: SkewModel) -> SkewModel:
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


def model_from_dict(data: dict) -> SkewModel:
    if not isinstance(data, dict):
        raise ModelError(f"model description must be a JSON object, got {type(data).__name__}")
    try:
        modes = [(m["freq"][0], m["freq"][1], m.get("sin", 0.0), m.get("cos", 0.0))
                 for m in data.get("phi_modes", [])]
        return SkewModel(data["matrix"], omega=data.get("omega", 0.0),
                         phi_modes=modes, series_tol=data.get("series_tol", 1e-12))
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
