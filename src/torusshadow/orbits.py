"""Generation, validation, and serialization of delta-pseudo-orbits.

A pseudo-orbit is a finite indexed window of points whose every forward
step lands within a certified defect delta of the true image.  Orbits come
from seeded uniform noise injection or from iterating a nearby map g, whose
C0 distance to f is certified by a grid supremum plus a Lipschitz slack.

Noise is drawn from numpy's default PCG64 generator; reproducibility across
implementations is by the recorded orbit files, not by PRNG identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .geometry import torus_distance, wrap
from .models import TWO_PI, ModelError, SkewModel, _integers

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

# Fixed-point inversion of a PerturbedMap: the residual d(g(y), x) each row
# must reach, and the iteration budget for it.
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


def _ball_noise(rng, radius: float) -> np.ndarray:
    """Uniform draw from the closed radius-ball in R^3."""
    v = rng.normal(size=3)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros(3)
    return v * (radius * rng.random() ** (1.0 / 3.0) / norm)


def fill_window(x0, window, step, back_step) -> np.ndarray:
    """Points of a window around index 0: x0 at 0, then x_{i+1} = step(x_i)
    going up and x_{i-1} = back_step(x_i) going down, every forward step
    taken before the first backward one.

    x0 is one point (3,) or a stack (..., 3); the result is (..., N, 3).
    """
    n_min, n_max = int(window[0]), int(window[1])
    if not n_min <= 0 <= n_max:
        raise ValueError(f"window [{n_min}, {n_max}] must contain index 0")
    pts = np.empty(x0.shape[:-1] + (n_max - n_min + 1, 3))
    pts[..., -n_min, :] = x0
    x = x0
    for i in range(1 - n_min, n_max - n_min + 1):
        x = step(x)
        pts[..., i, :] = x
    x = x0
    for i in range(-n_min - 1, -1, -1):
        x = back_step(x)
        pts[..., i, :] = x
    return pts


def generate_noisy(sys: SkewModel, x0, window, delta: float, seed: int) -> PseudoOrbit:
    """Seeded pseudo-orbit: every step is the true image plus uniform noise
    of norm <= delta.

    Backward indices are filled as x_{k-1} = f^-1(x_k + e_k) so the forward
    defect at every step is exactly |e_k| <= delta, both directions.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    rng = np.random.default_rng(seed)

    def noise():
        return _ball_noise(rng, delta) if delta > 0.0 else 0.0

    pts = fill_window(wrap(np.asarray(x0, dtype=float)), window,
                      lambda x: wrap(sys.apply(x) + noise()),
                      lambda x: sys.apply_inverse(wrap(x + noise())))
    return PseudoOrbit(int(window[0]), int(window[1]), pts, delta,
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
    c*cos(2 pi m.x) with m an integer frequency triple.  The C0 distance
    d(f, g) = sup |v| is certified on a sampling grid plus a Lipschitz
    slack term and must stay below the declared amplitude bound.
    """

    def __init__(self, sys: SkewModel, modes, amplitude_bound: float,
                 certification_grid: int = 64):
        self.sys = sys
        self.modes = [(*_integers((j, m1, m2, m3), "perturbation coordinates and frequencies")
                       .tolist(), float(s), float(c)) for (j, m1, m2, m3, s, c) in modes]
        for (j, *_freq, s, c) in self.modes:
            if j not in (0, 1, 2):
                raise ModelError(f"perturbation coordinate must be 0, 1, or 2, got {j}")
            if not (math.isfinite(s) and math.isfinite(c)):
                raise ModelError(f"perturbation mode amplitudes must be finite, got {s}, {c}")
        self.amplitude_bound = float(amplitude_bound)
        grid = certification_grid
        if isinstance(grid, bool) or not isinstance(grid, Integral) or grid < 1:
            raise ModelError(f"certification_grid must be a positive integer, got {grid!r}")
        self.certification_grid = int(grid)
        # Lipschitz bound of the vector field: rss over coordinates of the
        # per-coordinate trig Lipschitz bounds.
        per_coord = [0.0, 0.0, 0.0]
        for (j, m1, m2, m3, s, c) in self.modes:
            per_coord[j] += TWO_PI * math.sqrt(m1 * m1 + m2 * m2 + m3 * m3) * math.hypot(s, c)
        self.lip_v = math.sqrt(sum(l * l for l in per_coord))
        self._certified = None

    def displacement(self, x) -> np.ndarray:
        """The field v at points x, shape (..., 3)."""
        x = np.asarray(x, dtype=float)
        v = np.zeros(x.shape)
        for (j, m1, m2, m3, s, c) in self.modes:
            th = TWO_PI * (m1 * x[..., 0] + m2 * x[..., 1] + m3 * x[..., 2])
            v[..., j] += s * np.sin(th) + c * np.cos(th)
        return v

    def apply(self, x) -> np.ndarray:
        return wrap(self.sys.apply(x) + self.displacement(x))

    def apply_inverse(self, x) -> np.ndarray:
        """Invert g by fixed-point iteration y -> f^-1(x - v(y)), row by row.

        Converges at rate Lip(f^-1) * Lip(v) << 1 for the small fields in
        scope; each row is iterated until d(g(y), x) <= INVERSE_RESIDUAL_TOL
        and then left alone, so a row's result does not depend on the others.
        """
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, 3)
        Y = self.sys.apply_inverse(X)
        active = np.arange(X.shape[0])
        for _ in range(INVERSE_MAX_ITER):
            xa = X[active]
            ya = self.sys.apply_inverse(wrap(xa - self.displacement(Y[active])))
            Y[active] = ya
            active = active[~(torus_distance(self.apply(ya), xa) <= INVERSE_RESIDUAL_TOL)]
            if active.size == 0:
                return Y.reshape(x.shape)
        raise RuntimeError(
            f"perturbed-map inversion did not reach residual {INVERSE_RESIDUAL_TOL:g} "
            f"at {active.size} point(s)"
        )

    def certified_bound(self) -> float:
        """Certified sup d(f, g): grid supremum of |v| plus Lipschitz slack."""
        if self._certified is None:
            n = self.certification_grid
            axis = (np.arange(n) + 0.5) / n
            plane = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            sup = 0.0
            # slabs of whole planes x = const, about 262144 points each, to bound memory
            for x in np.array_split(axis, min(n, max(1, n ** 3 // 262144))):
                G = np.column_stack([np.repeat(x, plane.shape[0]), np.tile(plane, (x.size, 1))])
                sup = max(sup, float(np.max(np.linalg.norm(self.displacement(G), axis=1))))
            slack = self.lip_v * (math.sqrt(3.0) / (2.0 * n))
            bound = sup + slack
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
    orbits of all its points, every step taken for all rows at once.
    """
    pts = fill_window(wrap(np.asarray(x0, dtype=float)), window, g.apply, g.apply_inverse)
    return PseudoOrbit(int(window[0]), int(window[1]), pts, g.certified_bound(),
                       meta={"kind": "perturbed"})


# -- orbit files --------------------------------------------------------------


def write_table(path, header: dict, rows) -> None:
    """Line-oriented file that `read_table` reads back: one `# key: value`
    line per header entry, then one line per row of `rows`; every float,
    in the header and in the rows, at 17 significant digits, which
    round-trips doubles and prints integral values without a decimal point.
    """
    rows = np.asarray(rows, dtype=float)
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {key}: {value:.17g}\n" if isinstance(value, float)
                      else f"# {key}: {value}\n" for key, value in header.items())
        fh.writelines(line % tuple(row) for row in rows.tolist())


def write_orbit(orbit: PseudoOrbit, path, model_name: str = "") -> None:
    header = {"model": model_name or orbit.model_name, "delta": float(orbit.delta),
              "window": f"{orbit.n_min} {orbit.n_max}"}
    header.update((key, orbit.meta[key]) for key in ("seed", "rng", "kind") if key in orbit.meta)
    write_table(path, header, np.column_stack([orbit.indices(), orbit.points]))


def read_table(path, columns: int, required=()):
    """Header and numeric rows of a line-oriented file.

    `# key: value` lines make the header; every other non-blank line is a
    row of `columns` numbers whose first column is the index.  Returns
    (header, (n_min, n_max), rows) with the (N, columns) rows sorted by
    index.  Raises ValueError when the `window` header or one in `required`
    is missing, a row has another column count or a non-numeric field, or
    the indices do not cover the declared window once each.
    """
    header, rows = {}, []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
                continue
            tokens = line.split()
            if len(tokens) != columns:
                raise ValueError(f"{path} line {number} has {len(tokens)} columns, "
                                 f"expected {columns}")
            rows.append([float(tok) for tok in tokens])
    missing = [key for key in ("window", *required) if key not in header]
    if missing:
        raise ValueError(f"{path} is missing header(s): {', '.join(missing)}")
    n_min, n_max = (int(tok) for tok in header["window"].split())
    rows = np.array(rows).reshape(-1, columns)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if not np.array_equal(rows[:, 0], np.arange(n_min, n_max + 1)):
        raise ValueError(f"{path} indices do not cover the declared window "
                         f"[{n_min}, {n_max}]")
    return header, (n_min, n_max), rows


def read_orbit(path) -> PseudoOrbit:
    header, (n_min, n_max), rows = read_table(path, 4, required=("delta",))
    return PseudoOrbit(n_min, n_max, rows[:, 1:].copy(), float(header["delta"]),
                       model_name=header.get("model", "unknown"),
                       meta={k: v for k, v in header.items()
                             if k not in ("window", "delta", "model")})
