"""Generation, validation, and serialization of delta-pseudo-orbits.

A pseudo-orbit is a finite indexed window of points whose every forward
step lands within a certified defect delta of the true image.  Orbits come
from seeded uniform noise injection or from iterating a nearby map g, whose
C0 distance to f is certified by a grid supremum plus a Lipschitz slack;
the field is evaluated on the grid's axis vectors, so a mode's sin and cos
run on the axes it reads, not on every grid point.

Noise is drawn from numpy's default PCG64 generator, every kick of an orbit
in one call (the forward kicks, then the backward ones), so an orbit for a
given seed differs from the one earlier versions drew stepwise;
reproducibility across implementations is by the recorded orbit files, not
by PRNG identity.  Noisy orbits never step the map: the base of each half
is a scalar integer-matrix recursion on Python floats and the fiber follows
from one phi call and a wrapped scan.  Orbits of a nearby map g are stepped
by `from_map`, all rows at once; g^-1 is Newton's method from f^-1(x),
one f and one field pass (v and phi's modes in one call of the kernel that
evaluates phi) a step, and `PerturbedMap` rejects a field with lip_v
Lip(f^-1) >= 1, whose preimages need not be unique.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _frac, minimal_displacement, torus_distance, wrap
from .models import (_BLOCK_ELEMENTS, ModelError, SkewModel, _is_positive_int, _norm,
                     _trig_field, _trig_modes)

__all__ = [
    "PseudoOrbit",
    "PerturbedMap",
    "generate_noisy",
    "from_map",
    "validate",
    "defects",
    "write_orbit",
    "read_orbit",
]

# Newton inversion of a PerturbedMap: the residual d(g(y), x) each row
# must reach, and the budget of Newton steps for it.
INVERSE_RESIDUAL_TOL = 1e-13
INVERSE_MAX_ITER = 200


@dataclass
class PseudoOrbit:
    """Indexed window of points with a certified forward defect.

    `points` is (N, 3) for one orbit or (B, N, 3) for a stack of B orbits
    over the same window; every coordinate must be finite and in [0, 1).
    """

    n_min: int
    n_max: int
    points: np.ndarray  # shape (n_max - n_min + 1, 3)
    delta: float
    model_name: str = "unknown"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = self.n_max - self.n_min + 1
        if self.points.shape[-2:] != (expected, 3) or self.points.ndim not in (2, 3):
            raise ValueError(
                f"orbit window [{self.n_min}, {self.n_max}] needs {expected} points, "
                f"got shape {self.points.shape}"
            )
        bad = ~((self.points >= 0.0) & (self.points < 1.0))
        if bad.any():
            idx = np.argwhere(bad)[0]
            raise ValueError(
                f"orbit point at index {self.n_min + int(idx[-2])} has coordinate "
                f"{self.points[tuple(idx)]!r}, not a finite value in [0, 1)"
            )
        self.points.setflags(write=False)

    def point(self, k: int) -> np.ndarray:
        if not self.n_min <= k <= self.n_max:
            raise IndexError(f"index {k} outside window [{self.n_min}, {self.n_max}]")
        return self.points[..., k - self.n_min, :]

    def indices(self):
        return range(self.n_min, self.n_max + 1)


def _split_window(window):
    n_min, n_max = int(window[0]), int(window[1])
    if not n_min <= 0 <= n_max:
        raise ValueError(f"window [{n_min}, {n_max}] must contain index 0")
    return n_min, n_max


def _wrapped_cumsum(x):
    """Cumulative sums mod 1 along the last axis, in log2(n) array passes,
    each reduced mod 1 so the rounding stays that of numbers below 2."""
    x = np.array(x, dtype=float)
    s = 1
    while s < x.shape[-1]:
        x[..., s:] = _frac(x[..., s:] + x[..., :-s])
        s *= 2
    return x


def _kicked_window(sys: SkewModel, x0, window, kicks) -> np.ndarray:
    """The (N, 3) points x_{k+1} = f(x_k) + e_k going up and
    x_{k-1} = f^-1(x_k + e'_k) going down from x0 at index 0, all mod 1.

    `kicks` is (N - 1, 3): the n_max forward kicks e_0, e_1, ..., then the
    -n_min backward kicks e'_0, e'_-1, and so on.  The map is never stepped:
    the base of each half is a scalar recursion on Python floats,
    p <- A p + e forward and p <- A^-1 (p + e') backward, each step reduced
    mod 1 with `wrap`'s fold of 1.0 to 0.0; then one phi call over the whole
    window gives every fiber increment and a wrapped scan sums them.
    """
    n_min, n_max = _split_window(window)
    x0 = wrap(np.asarray(x0, dtype=float))
    L = max(n_max, -n_min) + 1
    # Position i of half 0 (forward) and half 1 (backward) holds the point
    # i steps from index 0 and the kick that leaves it.
    e = np.zeros((L, 2, 3))
    e[:n_max, 0] = kicks[:n_max]
    e[:-n_min, 1] = kicks[n_max:]
    p0 = x0[:2].tolist()
    P = np.zeros((L, 2, 2))
    P[:n_max + 1, 0] = _base_recursion(sys.A, p0, kicks[:n_max, :2], after=True)
    P[:1 - n_min, 1] = _base_recursion(sys.A_inv, p0, kicks[n_max:, :2], after=False)
    phi = np.broadcast_to(sys.phi(P[..., 0], P[..., 1]), (L, 2))
    # Forward, z_{i+1} - z_i = omega + phi(p_i) + e_i; backward,
    # z_{-i-1} - z_{-i} = e'_{-i} - omega - phi(p_{-i-1}).
    dz = np.empty((2, L))
    dz[:, 0] = x0[2]
    dz[0, 1:] = sys.omega + phi[:-1, 0] + e[:-1, 0, 2]
    dz[1, 1:] = e[:-1, 1, 2] - sys.omega - phi[1:, 1]
    z = _wrapped_cumsum(dz)
    pts = np.empty((n_max - n_min + 1, 3))
    pts[-n_min:, :2] = P[:n_max + 1, 0]
    pts[-n_min:, 2] = z[0, :n_max + 1]
    pts[:-n_min, :2] = P[-n_min:0:-1, 1]
    pts[:-n_min, 2] = z[1, -n_min:0:-1]
    return wrap(pts)


def _base_recursion(M, p, kicks, after: bool) -> list:
    """[p, M p + e_0, ...] mod 1 for (n, 2) kicks e_i added after the
    integer matrix M (`after`), or [p, M (p + e_0), ...] mod 1 for kicks
    added before it.  The steps run on Python floats: per step, a numpy
    product and `wrap` on two coordinates cost more than the arithmetic,
    and these give the same bits."""
    (a, b), (c, d) = M.tolist()
    p0, p1 = p
    out = [p]
    for k0, k1 in kicks.tolist():
        if after:
            q0, q1 = (a * p0 + b * p1 + k0) % 1.0, (c * p0 + d * p1 + k1) % 1.0
        else:
            p0, p1 = p0 + k0, p1 + k1
            q0, q1 = (a * p0 + b * p1) % 1.0, (c * p0 + d * p1) % 1.0
        # x % 1.0 rounds up to 1.0 for tiny negative x; fold it as `wrap` does
        p0, p1 = (0.0 if q0 >= 1.0 else q0), (0.0 if q1 >= 1.0 else q1)
        out.append((p0, p1))
    return out


def generate_noisy(sys: SkewModel, x0, window, delta: float, seed: int) -> PseudoOrbit:
    """Seeded pseudo-orbit: every step is the true image plus uniform noise
    of norm <= delta.

    Backward indices are filled as x_{k-1} = f^-1(x_k + e_k) so the forward
    defect at every step is exactly |e_k| <= delta, both directions.  All
    N - 1 kicks come from one draw, the forward ones first, so the orbit of
    a seed differs from the stepwise draws of earlier versions; the points
    come from `_kicked_window`, which never steps the map.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    n_min, n_max = _split_window(window)
    kicks = np.zeros((n_max - n_min, 3))
    if delta > 0.0:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=kicks.shape)
        radius = delta * rng.random(kicks.shape[0]) ** (1.0 / 3.0)
        norm = np.sqrt((v * v).sum(axis=-1))
        kicks = v * np.divide(radius, norm, out=np.zeros_like(norm), where=norm > 0.0)[:, None]
    pts = _kicked_window(sys, x0, (n_min, n_max), kicks)
    return PseudoOrbit(n_min, n_max, pts, delta,
                       meta={"kind": "noisy", "seed": seed, "rng": "numpy-pcg64"})


def defects(sys: SkewModel, orbit: PseudoOrbit):
    """Per-step defects along the window, shape (..., N - 1).

    Forward: d(f(x_k), x_{k+1});  backward: d(f^-1(x_{k+1}), x_k), both at
    position k - n_min.
    """
    pts = orbit.points
    fwd = torus_distance(sys.apply(pts[..., :-1, :]), pts[..., 1:, :])
    bwd = torus_distance(sys.apply_inverse(pts[..., 1:, :]), pts[..., :-1, :])
    return fwd, bwd


def validate(sys: SkewModel, orbit: PseudoOrbit):
    """Exact maxima of the forward and backward defects over the window, one
    pair per orbit of a stack.  A NaN defect propagates into the maximum."""
    fwd, bwd = defects(sys, orbit)
    return np.max(fwd, axis=-1, initial=0.0)[()], np.max(bwd, axis=-1, initial=0.0)[()]


class PerturbedMap:
    """g(x) = f(x) + v(x) for a finite trigonometric displacement field v.

    Each mode perturbs one coordinate: v_j(x) += s*sin(2 pi m.x) +
    c*cos(2 pi m.x) with m an integer frequency triple, checked and summed
    by phi's kernel (`models._trig_modes`, `_trig_field`).  The C0 distance
    d(f, g) = sup |v| is certified on a sampling grid plus a Lipschitz
    slack term and must stay below the declared amplitude bound; a mode
    costs sin and cos only on the grid axes its frequency reads.
    """

    def __init__(self, sys: SkewModel, modes, amplitude_bound: float,
                 certification_grid: int = 64):
        self.sys = sys
        self.modes, self.lip_v = _trig_modes(modes, "perturbation", axes=3, components=3)
        # Newton's field pass takes phi's modes too, as a fourth component
        # whose derivative factors go to Dg's fiber row
        self._newton_modes = self.modes + [(3, m1, m2, 0, s, c) for (m1, m2, s, c) in sys.modes]
        self.amplitude_bound = float(amplitude_bound)
        grid = certification_grid
        if not _is_positive_int(grid):
            raise ModelError(f"certification_grid must be a positive integer, got {grid!r}")
        self.certification_grid = int(grid)
        if not self.lip_v * sys.lip_f_inv < 1.0:
            raise ModelError(
                f"perturbation too steep for a unique inverse: lip_v = {self.lip_v:.6e} "
                f"times Lip(f^-1) = {sys.lip_f_inv:.6e} is {self.lip_v * sys.lip_f_inv:.4g} >= 1"
            )
        self._certified = None

    def displacement(self, x) -> np.ndarray:
        """The field v at points x, shape (..., 3)."""
        x = np.asarray(x, dtype=float)
        v = np.empty(x.shape)
        v[..., 0], v[..., 1], v[..., 2] = _trig_field(self.modes, [x[..., i] for i in range(3)], 3)
        return v

    def apply(self, x) -> np.ndarray:
        return wrap(self.sys.apply(x) + self.displacement(x))

    def _inverse_jacobian(self, y, slopes):
        """K = Dg(y)^-1 as (3, 3, B) for points y (B, 3), given the factors
        `slopes` there of `_newton_modes`.  Dg = [[A, 0], [grad phi, 1]] + Dv
        takes each mode's factor times its frequency, phi's (component 3)
        in the fiber row; K is the adjugate over the determinant."""
        J = [[float(a), float(b), 0.0] for a, b in self.sys.A.tolist()] + [[0.0, 0.0, 1.0]]
        for (j, *freq, _s, _c), d in zip(self._newton_modes, slopes):
            row = J[min(j, 2)]
            for k, m in enumerate(freq):
                if m:
                    row[k] = row[k] + (d if m == 1 else m * d)
        # cof[k][i] is the (k, i) cofactor, and K[i, k] = cof[k][i] / det
        cof = [[J[(k + 1) % 3][(i + 1) % 3] * J[(k + 2) % 3][(i + 2) % 3]
                - J[(k + 1) % 3][(i + 2) % 3] * J[(k + 2) % 3][(i + 1) % 3] for i in range(3)]
               for k in range(3)]
        K = np.empty((3, 3, y.shape[0]))
        for i in range(3):
            for k in range(3):
                K[i, k] = cof[k][i]
        K *= 1.0 / (J[0][0] * cof[0][0] + J[0][1] * cof[0][1] + J[0][2] * cof[0][2])
        return K

    def apply_inverse(self, x) -> np.ndarray:
        """Invert g by Newton's method, row by row, from y = f^-1(x), where
        x - g(y) is -v(y) up to rounding.  A step is y <- y + K (x - g(y))
        with K = Dg(y)^-1; then f(y) from `SkewModel.apply` and v(y) from one
        field pass over v's and phi's modes give the residual with the bits
        of `apply`, and the same sin and cos give the next K, taken for the
        rows still active only.  A row is left alone once its residual is <=
        INVERSE_RESIDUAL_TOL; criterion 9's field retires every row after 2
        steps.  All arithmetic is elementwise, so no row depends on another.
        __init__ rejects lip_v Lip(f^-1) >= 1: below it y -> f^-1(x - v(y))
        contracts, so the preimage is unique and Dg = Df (I + Df^-1 Dv) is
        invertible."""
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, 3)
        Y = self.sys.apply_inverse(X)
        active, y, xa = np.arange(X.shape[0]), Y, X
        for step in range(INVERSE_MAX_ITER + 1):
            slopes, v = [], np.empty(y.shape)
            v[:, 0], v[:, 1], v[:, 2], _ = _trig_field(self._newton_modes, tuple(y.T), 4, slopes)
            if step == 0:    # x - g(y) is -v(y) up to rounding at y = f^-1(x)
                r = -v
            else:
                r = minimal_displacement(wrap(self.sys.apply(y) + v), xa)
                keep = ~(_norm(r) <= INVERSE_RESIDUAL_TOL)
                if not keep.all():
                    active, y, r, xa = active[keep], y[keep], r[keep], xa[keep]
                    slopes = [d[keep] if np.ndim(d) else d for d in slopes]
                if active.size == 0:
                    return Y.reshape(x.shape)
                if step == INVERSE_MAX_ITER:
                    break
            K = self._inverse_jacobian(y, slopes)
            y = wrap(y + (K[:, 0] * r[:, 0] + K[:, 1] * r[:, 1] + K[:, 2] * r[:, 2]).T)
            Y[active] = y
        raise ModelError(f"perturbed-map inversion did not reach residual "
                         f"{INVERSE_RESIDUAL_TOL:g} in {INVERSE_MAX_ITER} steps at "
                         f"{active.size} point(s)")

    def certified_bound(self) -> float:
        """Certified sup d(f, g): grid supremum of |v| plus Lipschitz slack.

        The field runs on the grid's axis vectors, so a mode takes sin and
        cos only on the axes it reads and only the sum of squares spans a
        slab: a 128^3 certificate of one-axis modes takes a few ms and MiB.
        """
        if self._certified is None:
            n = self.certification_grid
            axis = (np.arange(n) + 0.5) / n
            sup = 0.0
            # slabs of whole planes x = const, about 262144 points each, to bound memory
            for x in np.array_split(axis, min(n, max(1, n ** 3 // 262144))):
                v0, v1, v2 = _trig_field(self.modes, (x[:, None, None], axis[:, None], axis), 3)
                sup = max(sup, float(np.max(v0 * v0 + v1 * v1 + v2 * v2)))
            # sqrt is monotone: the root of the largest square is the largest norm
            bound = math.sqrt(sup) + self.lip_v * (math.sqrt(3.0) / (2.0 * n))
            # a NaN bound fails this test and is never cached
            if not bound <= self.amplitude_bound:
                raise ModelError(
                    f"certified d(f, g) = {bound:.6e} exceeds declared "
                    f"amplitude bound {self.amplitude_bound:.6e}"
                )
            self._certified = bound
        return self._certified


def from_map(sys: SkewModel, g: PerturbedMap, x0, window) -> PseudoOrbit:
    """The g-orbit of x0 as a pseudo-orbit of f, with delta = certified d(f, g).

    x0 is one point (3,) or a stack (B, 3); a stack gives the (B, N, 3)
    orbits of all its points, every step taken for all rows at once.  The
    window must contain index 0; every forward step of g is taken before
    the first backward one.
    """
    x = x0 = wrap(np.asarray(x0, dtype=float))
    n_min, n_max = _split_window(window)
    pts = np.empty(x0.shape[:-1] + (n_max - n_min + 1, 3))
    pts[..., -n_min, :] = x0
    for i in range(1 - n_min, n_max - n_min + 1):
        x = g.apply(x)
        pts[..., i, :] = x
    x = x0
    for i in range(-n_min - 1, -1, -1):
        x = g.apply_inverse(x)
        pts[..., i, :] = x
    return PseudoOrbit(n_min, n_max, pts, g.certified_bound(), meta={"kind": "perturbed"})


# -- orbit files --------------------------------------------------------------


def write_table(path, header: dict, rows) -> None:
    """Line-oriented file that `read_table` reads back: one `# key: value`
    line per header entry, then one line per row of `rows`; every float,
    in the header and in the rows, at 17 significant digits, which
    round-trips doubles and prints integral values without a decimal point.
    Rows go out in blocks of _BLOCK_ELEMENTS / 8 values: a value's float
    object and text take about 8 doubles, so a block's memory is bounded.
    """
    rows = np.asarray(rows, dtype=float)
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    step = max(1, _BLOCK_ELEMENTS // (8 * rows.shape[1]))
    with open(path, "w") as fh:
        fh.writelines(f"# {key}: {value:.17g}\n" if isinstance(value, float)
                      else f"# {key}: {value}\n" for key, value in header.items())
        for lo in range(0, rows.shape[0], step):
            block = rows[lo:lo + step]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_orbit(orbit: PseudoOrbit, path, model_name: str = "") -> None:
    header = {"model": model_name or orbit.model_name, "delta": float(orbit.delta),
              "window": f"{orbit.n_min} {orbit.n_max}"}
    header.update((key, orbit.meta[key]) for key in ("seed", "rng", "kind") if key in orbit.meta)
    write_table(path, header, np.column_stack([orbit.indices(), orbit.points]))


def read_table(path, columns: int, required=()):
    """Header and numeric rows of a line-oriented file.

    `# key: value` lines before the first row make the header; from the
    first other non-blank line on, every non-blank line is a row of
    `columns` numbers, index first, and one `np.loadtxt` call reads them.
    Returns (header, (n_min, n_max), rows), the (N, columns) rows sorted by
    index.  Raises ValueError when a header key repeats (naming the
    line), the `window` header or one in `required` is missing, a line
    from the first row on is not a row (`_bad_line` names the first), or
    the indices do not cover the window once each.
    """
    header, rows = {}, np.empty((0, columns))
    with open(path) as fh:
        for number in itertools.count(1):
            start, line = fh.tell(), fh.readline()
            text = line.strip()
            if text.startswith("#"):
                key, _, value = (part.strip() for part in text[1:].partition(":"))
                if key in header:
                    raise ValueError(f"{path} line {number} repeats the header {key!r}")
                header[key] = value
            elif text or not line:
                break
        if text:
            fh.seek(start)
            try:
                rows = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
            except ValueError:
                rows = None
            if rows is None or rows.shape[1] != columns:
                fh.seek(start)
                raise _bad_line(fh, number, columns, path)
    missing = [key for key in ("window", *required) if key not in header]
    if missing:
        raise ValueError(f"{path} is missing header(s): {', '.join(missing)}")
    try:
        n_min, n_max = (int(tok) for tok in header["window"].split())
    except ValueError:
        raise ValueError(f"{path} has a malformed window header {header['window']!r}, "
                         f"expected two integers") from None
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if not np.array_equal(rows[:, 0], np.arange(n_min, n_max + 1)):
        raise ValueError(f"{path} indices do not cover the declared window "
                         f"[{n_min}, {n_max}]")
    return header, (n_min, n_max), rows


def _bad_line(lines, number: int, columns: int, path) -> ValueError:
    """The error naming the first of `lines`, numbered from `number`, that is
    not a row: a `#` line, another column count (named before its fields), or
    a field np.loadtxt refuses: one float() refuses, or one with `_` or non-ASCII."""
    for number, line in enumerate(lines, number):
        row = line.split()
        if row and row[0].startswith("#"):
            return ValueError(f"{path} line {number} is a '#' line after the first row")
        if row and len(row) != columns:
            return ValueError(f"{path} line {number} has {len(row)} columns, expected {columns}")
        for tok in row:
            try:
                float(tok if tok.isascii() and "_" not in tok else "not a float")
            except ValueError:
                return ValueError(f"{path} line {number} has a non-numeric field {tok!r}")
    return ValueError(f"{path} has a row that np.loadtxt cannot read")


def read_orbit(path) -> PseudoOrbit:
    header, window, rows = read_table(path, 4, required=("delta",))
    n_min, n_max = _split_window(window)
    return PseudoOrbit(n_min, n_max, rows[:, 1:].copy(), float(header["delta"]),
                       model_name=header.get("model", "unknown"),
                       meta={k: v for k, v in header.items()
                             if k not in ("window", "delta", "model")})
