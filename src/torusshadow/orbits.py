"""Generation, validation, and serialization of delta-pseudo-orbits.

A pseudo-orbit is a finite indexed window of points whose every forward
step lands within a certified defect delta of the true image.  Orbits come
from seeded uniform noise injection or from iterating a nearby map g, whose
C0 distance to f is certified by a grid supremum plus a Lipschitz slack;
the field is evaluated on the grid's axis vectors, so a mode's sin and cos
run on the axes it reads, not on every grid point.

Noise is drawn from numpy's default PCG64 generator, every kick of an orbit
in one call (the forward kicks, then the backward ones); reproducibility
across implementations is by the recorded orbit files, not by PRNG
identity.  Noisy orbits never step the map: each half's base is a scalar
integer-matrix recursion on Python floats and its fiber one phi call and a
wrapped scan.  g, g^-1 and `from_map` share one schedule of row blocks on
coordinate rows (N, 3, b): a g step is one field pass (v and phi's modes
in one call of phi's kernel, a sin and a cos per distinct frequency) and f
built from that phi; g^-1 is Newton's method from f^-1(x), a step one such
pass and a (3, 3, b) solve with Dg, stopped after two steps whose
preimages one stacked residual pass then checks, and `PerturbedMap`
rejects a field with lip_v Lip(f^-1) >= 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _frac, _norm, minimal_displacement, torus_distance, wrap
from .models import (_BLOCK_ELEMENTS, TWO_PI, ModelError, SkewModel, TrigField, _base_map,
                     _is_positive_int, _trig_field)

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
_CYCLIC = 3 * (np.arange(1, 5)[:, None] % 3) + np.arange(1, 5) % 3


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
    -n_min backward kicks e'_0, e'_-1, and so on.  The map is never stepped,
    and each half is built on its own: a scalar recursion on Python floats
    for its base (p <- A p + e up, p <- A^-1 (p + e') down, each step mod 1
    with `wrap`'s fold of 1.0 to 0.0), one phi call and a wrapped scan for
    its fiber; the scan's sum at index i does not depend on the length.
    """
    n_min, n_max = _split_window(window)
    x0, pts = wrap(x0), np.empty((n_max - n_min + 1, 3))
    # pts[-n_min:] runs up from index 0 and pts[-n_min::-1] down from it
    for M, e, up, half in ((sys.A, kicks[:n_max], True, pts[-n_min:]),
                           (sys.A_inv, kicks[n_max:], False, pts[-n_min::-1])):
        half[:, :2] = _base_recursion(M, x0[:2].tolist(), e[:, :2], after=up)
        phi = np.broadcast_to(sys.phi(half[:, 0], half[:, 1]), half.shape[:1])
        # Forward, z_{i+1} - z_i = omega + phi(p_i) + e_i; backward,
        # z_{-i-1} - z_{-i} = e'_{-i} - omega - phi(p_{-i-1}).
        dz = np.full(half.shape[0], x0[2])
        dz[1:] = sys.omega + phi[:-1] + e[:, 2] if up else e[:, 2] - sys.omega - phi[1:]
        half[:, 2] = _wrapped_cumsum(dz)
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
    N - 1 kicks come from one draw, the forward ones first; the points come
    from `_kicked_window`, which never steps the map.  x0 must be three
    finite coordinates, which are wrapped onto the torus.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,) or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be three finite coordinates, got {x0.tolist()!r}")
    n_min, n_max = _split_window(window)
    kicks = np.zeros((n_max - n_min, 3))
    if delta > 0.0:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=kicks.shape)
        radius = delta * rng.random(kicks.shape[0]) ** (1.0 / 3.0)
        norm = _norm(v)
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
    by phi's kernel (`models.TrigField`, `_trig_field`).  The C0 distance
    d(f, g) = sup |v| is certified on a sampling grid plus a Lipschitz
    slack term and must stay below the declared amplitude bound; a mode
    costs sin and cos only on the grid axes its frequency reads.
    """

    def __init__(self, sys: SkewModel, modes, amplitude_bound: float,
                 certification_grid: int = 64):
        self.sys = sys
        field = TrigField(modes, "perturbation", axes=3, components=3)
        self.modes, self.lip_v = field.modes, field.lip
        # g's field pass takes phi's modes too, as a fourth component whose
        # value builds f's fiber and whose derivative factors go to Dg's fiber row
        phi = [(3, m1, m2, 0, s, c) for (m1, m2, s, c) in sys.modes]
        self._newton = TrigField(self.modes + phi, "perturbation", axes=3, components=4)
        # mode q's derivative factor 2 pi (s cos - c sin) adds m_k times itself
        # to Dg's entry 3 min(j, 2) + k for each nonzero m_k of its frequency
        amp = np.array([(TWO_PI * s, TWO_PI * c) for (*_, s, c) in self._newton.modes])
        self._slope_s, self._slope_c = amp.reshape(-1, 2).T[:, :, None]
        self._dv = [(3 * min(j, 2) + k, q, m) for q, (j, *freq, _s, _c)
                    in enumerate(self._newton.modes) for k, m in enumerate(freq) if m]
        (a11, a12), (a21, a22) = sys.A.tolist()
        self._dg0 = np.array([a11, a12, 0, a21, a22, 0, 0, 0, 1], float)[:, None]
        # the certificate's one-mode fields, each run on the axis vectors it reads
        self._alone = [(j, TrigField([(0, *m, s, c)], "", axes=3)) for (j, *m, s, c) in self.modes]
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

    def apply(self, x) -> np.ndarray:
        """g(x) for points (..., 3): the window (0, 1) of `_orbits`."""
        return self._orbits(x, 0, 1)[..., 1, :]

    def _step(self, y, field) -> np.ndarray:
        """g at coordinate rows y (3, B) from `field`, v0, v1, v2 and phi of
        `_newton` there: the bits of wrap(sys.apply(x) + v(x))."""
        out = wrap(_base_map(self.sys.A, y[0], y[1]) + [y[2] + self.sys.omega + field[3]])
        out += field[:3]
        return wrap(out)

    def apply_inverse(self, x) -> np.ndarray:
        """g^-1(x) for points (..., 3): the window (-1, 0) of `_orbits`.
        __init__ rejects lip_v Lip(f^-1) >= 1: below it y -> f^-1(x - v(y))
        contracts, so the preimage is unique and Dg = Df (I + Df^-1 Dv) is
        invertible."""
        return self._orbits(x, -1, 0)[..., 0, :]

    def _orbits(self, x, n_min: int, n_max: int) -> np.ndarray:
        """The (..., N, 3) g-orbits of points x (..., 3) on a window [n_min,
        n_max] that contains 0.  Each block of _BLOCK_ELEMENTS / 8 rows, which
        keeps a Newton step's (4, 4, b) gather near the cache's size, runs its
        window as coordinate rows (N, 3, b), every forward step first.  A
        preimage is `_newton_inverse` stopped right after step 2; one residual
        pass per block's worth of rows then makes step 2's check on every
        preimage, with its bits.  A row that fails is inverted again, checked
        at every step, from its first failing preimage on, so its points and
        its ModelError are those of the checked kernel."""
        x = np.asarray(x, dtype=float)
        X, rows = x.reshape(-1, 3), _BLOCK_ELEMENTS // 8
        pts = np.empty((X.shape[0], n_max - n_min + 1, 3))
        for lo in range(0, X.shape[0], rows):
            block = X[lo:lo + rows].T
            y = np.empty((n_max - n_min + 1,) + block.shape)
            y[-n_min] = block
            for i in range(1 - n_min, n_max - n_min + 1):
                y[i] = self._step(y[i - 1], _trig_field(self._newton, y[i - 1]))
            for i in range(-n_min - 1, -1, -1):
                y[i] = self._newton_inverse(y[i + 1], steps=2)
            # y[i] is the preimage of y[i + 1], so a failure at i spoils y[:i + 1]
            bad, chunk = np.empty((-n_min, y.shape[2]), bool), max(1, rows // y.shape[2])
            for i in range(0, -n_min, chunk):
                p, q = (y[i + k:min(i + chunk, -n_min) + k].transpose(1, 0, 2) for k in (0, 1))
                r = minimal_displacement(self._step(p, _trig_field(self._newton, p)), q)
                bad[i:i + chunk] = ~(_norm(r.T).T <= INVERSE_RESIDUAL_TOL)
            redo = np.logical_or.accumulate(bad[::-1])[::-1]
            for i in np.flatnonzero(redo.any(axis=1))[::-1]:
                y[i][:, redo[i]] = self._newton_inverse(y[i + 1][:, redo[i]])
            pts[lo:lo + rows] = y.transpose(2, 0, 1)
        return pts.reshape(x.shape[:-1] + pts.shape[1:])

    def _newton_inverse(self, xa, steps=None) -> np.ndarray:
        """g^-1 at coordinate rows xa (3, b), Newton's method from y = f^-1(xa).
        A step is y <- y + Dg(y)^-1 (x - g(y)): one field pass gives the
        residual through `_step`, with the bits of `apply`, and from the same
        sin and cos stacks Dg, one (3, 3, b) array; Dg^-1 is the adjugate
        times 1 / det, each entry rounded before it meets the residual: the
        bits of a loop over modes and entries.  A row whose residual is <=
        INVERSE_RESIDUAL_TOL keeps its point while the others step.  With
        `steps`, the rows right after step `steps`' update, left unchecked."""
        y = np.ascontiguousarray(self.sys.apply_inverse(xa.T).T)
        done = np.zeros(xa.shape[1], bool)
        for step in range(INVERSE_MAX_ITER + 1):
            field, sn, cs = _trig_field(self._newton, y, trig=True)
            if step == 0:    # x - g(y) is -v(y) up to rounding at y = f^-1(x)
                r = -field[:3]
            else:
                r = minimal_displacement(self._step(y, field), xa)
                done |= _norm(r.T) <= INVERSE_RESIDUAL_TOL
                if done.all():
                    return y
            if step == INVERSE_MAX_ITER:
                break
            slopes = self._slope_s * cs.take(self._newton.row, axis=0)
            if self._newton.reads[1]:    # else the bits of 2 pi s cos alone
                slopes -= self._slope_c * sn.take(self._newton.row, axis=0)
            dg = np.empty((9,) + y.shape[1:])
            dg[...] = self._dg0
            for e, q, m in self._dv:    # Dg = [[A, 0], [0, 0, 1]] + the factors in mode order
                dg[e] += slopes[q] if m == 1 else m * slopes[q]
            # J[a, b] = Dg[a % 3, b % 3] for a, b = 1..4, so that cof[k, i], the (k,
            # i) cofactor, is J[k, i] J[k+1, i+1] - J[k, i+1] J[k+1, i]
            J = dg.take(_CYCLIC, axis=0)
            cof = J[:3, :3] * J[1:, 1:]
            cof -= J[:3, 1:] * J[1:, :3]
            # det along Dg's row 0, then (Dg^-1)[i, k] = cof[k, i] (1 / det)
            det = J[2, 2] * cof[0, 0] + J[2, 0] * cof[0, 1]
            cof *= 1.0 / (det + J[2, 1] * cof[0, 2])
            cof *= r[:, None]
            dy = cof[0] + cof[1]
            dy += cof[2]
            y = np.where(done, y, wrap(np.add(y, dy, out=dy)))    # a done row keeps its point
            if step + 1 == steps:
                return y
        raise ModelError(f"perturbed-map inversion did not reach residual "
                         f"{INVERSE_RESIDUAL_TOL:g} in {INVERSE_MAX_ITER} steps at "
                         f"{np.count_nonzero(~done)} point(s)")

    @np.errstate(over="ignore")    # an overflow makes the bound inf, which fails it
    def certified_bound(self) -> float:
        """Certified sup d(f, g): grid supremum of |v| plus Lipschitz slack.

        The field runs mode by mode on the grid's axis vectors, so a mode
        takes sin and cos only on the axes it reads and only the sum of squares
        spans a slab: a 128^3 certificate of one-axis modes takes a few ms and MiB.
        """
        if self._certified is None:
            n = self.certification_grid
            axis = (np.arange(n) + 0.5) / n
            sup = 0.0
            # slabs of whole planes x = const, about 262144 points each, to bound memory
            for x in np.array_split(axis, min(n, max(1, n ** 3 // 262144))):
                v = [0.0] * 3
                for j, field in self._alone:
                    v[j] = v[j] + _trig_field(field, (x[:, None, None], axis[:, None], axis))[0]
                sup = max(sup, float(np.max(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])))
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

    x0 is one point (3,) or a stack (B, 3), wrapped onto the torus; a stack
    gives the (B, N, 3) orbits of all its points, with the bits of stepping
    `g.apply` and `g.apply_inverse`, whose schedule (`_orbits`) they share.
    The window must contain index 0.
    """
    n_min, n_max = _split_window(window)
    pts = g._orbits(wrap(np.asarray(x0, dtype=float)), n_min, n_max)
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
