"""Flat geometry of the torus T^n = R^n / Z^n.

Points are numpy arrays with every coordinate in [0, 1); displacements are
minimal-lift vectors with every component in [-0.5, 0.5).  All distances are
Euclidean norms of minimal displacements, i.e. the flat quotient metric.
Everything here works for any dimension and on stacks of points (the last
axis holds the coordinates); the rest of the package uses n = 3 (two base
coordinates, one fiber coordinate), n = 2 (the base torus) and n = 1 (the
fiber circle).

Every reduction mod 1 goes through `_frac(x) = x - floor(x)`.  For finite
x it gives the bits of numpy's `x % 1.0`, without the cost of numpy's
float remainder: fmod(x, 1) is exact, and numpy adds 1.0 to a negative
remainder, which is one rounding of the exact x - floor(x); the
subtraction here rounds that same exact value once.  Both give +0.0 for a negative integer.  Like
`x % 1.0`, it can round up to exactly 1.0 for a tiny negative x.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "wrap",
    "minimal_displacement",
    "torus_distance",
    "fiber_displacement",
]


def _frac(x) -> np.ndarray:
    """x mod 1 with the bits of numpy's `x % 1.0` for finite x (see above).

    An array result reuses the floor array, so one array is allocated."""
    f = np.floor(x)
    if isinstance(f, np.ndarray):
        return np.subtract(x, f, out=f)
    return x - f


def wrap(v) -> np.ndarray:
    """Reduce a real vector mod 1 so every coordinate lies in [0, 1).

    The reduction is `_frac`, bit-identical to `v % 1.0`; both can round
    up to exactly 1.0 for tiny negative inputs (e.g. -1e-17), and those are
    folded back to 0.0 so the [0, 1) contract holds unconditionally, but only
    when a max reduction finds one: a whole-array bool-to-float cast costs more.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"wrap: non-finite input {v!r}")
    out = _frac(v)
    return out - (out >= 1.0) if out.max(initial=0.0) >= 1.0 else out


def minimal_displacement(p, q) -> np.ndarray:
    """Componentwise minimal representative of q - p, in [-0.5, 0.5).

    Ties at exactly 0.5 resolve to -0.5, so the result is deterministic.
    wrap(p + d) equals q on the circle up to one rounding: at the 0/1 seam
    it can land on the other side, e.g. p = 0.3, q = 1 - 2**-53 gives 0.0.
    Scalars are treated as points of the circle.
    """
    d = _frac(np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
    # d is in [0, 1], and d - 1 is exact there, so 1.0 lands on 0.0
    return d - (d >= 0.5)


def torus_distance(p, q):
    """Flat metric: Euclidean norm of the minimal displacement (last axis)."""
    return _norm(minimal_displacement(p, q))


def _norm(d):
    """Euclidean norm over the last axis; `d` is left as it is.  Squared
    columns add in order: up to 3 give the bits of numpy's row reduction."""
    sq = d * d
    return np.sqrt(sum((sq[..., k] for k in range(1, sq.shape[-1])), sq[..., 0]))


def fiber_displacement(z_from, z_to):
    """Signed minimal displacement between circle coordinates."""
    return minimal_displacement(z_from, z_to)[()]
