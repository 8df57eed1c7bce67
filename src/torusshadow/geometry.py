"""Flat geometry of the torus T^n = R^n / Z^n.

Points are numpy arrays with every coordinate in [0, 1); displacements are
minimal-lift vectors with every component in [-0.5, 0.5).  All distances are
Euclidean norms of minimal displacements, i.e. the flat quotient metric.
Everything here works for any dimension and on stacks of points (the last
axis holds the coordinates); the rest of the package uses n = 3 (two base
coordinates, one fiber coordinate), n = 2 (the base torus) and n = 1 (the
fiber circle).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "wrap",
    "minimal_displacement",
    "torus_distance",
    "fiber_displacement",
]


def wrap(v) -> np.ndarray:
    """Reduce a real vector mod 1 so every coordinate lies in [0, 1).

    `v % 1.0` can round up to exactly 1.0 for tiny negative inputs
    (e.g. -1e-17); those are folded back to 0.0 so the [0, 1) contract
    holds unconditionally.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"wrap: non-finite input {v!r}")
    out = v % 1.0
    return np.where(out >= 1.0, 0.0, out)


def minimal_displacement(p, q) -> np.ndarray:
    """Componentwise minimal representative of q - p, in [-0.5, 0.5).

    Ties at exactly 0.5 resolve to -0.5, so wrap(p + d) == q always holds
    and the result is deterministic.  Scalars are treated as points of the
    circle.
    """
    d = (np.asarray(q, dtype=float) - np.asarray(p, dtype=float)) % 1.0
    # d is in [0, 1], and d - 1 is exact there, so 1.0 lands on 0.0
    return d - (d >= 0.5)


def torus_distance(p, q):
    """Flat metric: Euclidean norm of the minimal displacement (last axis)."""
    d = minimal_displacement(p, q)
    return np.sqrt((d * d).sum(axis=-1))


def fiber_displacement(z_from, z_to):
    """Signed minimal displacement between circle coordinates."""
    return minimal_displacement(z_from, z_to)[()]
