"""Independent shadowing oracles based on bidiagonal linear solves.

These solve the orbit-correction equations of hyperbolic shadowing
directly: writing y_k = x_k + w_k in the minimal lift, an exact orbit
satisfies w_{k+1} = A w_k - e_k with e_k the pseudo-orbit defect, and the
stable/unstable eigencomponents of w are the unique solution of two
bidiagonal systems with a zero stable correction at the window start and
a zero unstable correction at the window end, solved by forward and back
substitution.  Nothing here shares code with the geometric construction;
agreement between the two routes is what the equivalence criteria check.
"""

from __future__ import annotations

import numpy as np

from .geometry import minimal_displacement, wrap

__all__ = ["cat_map_shadow", "linear_model_shadow"]


def _eigen2(A):
    A = np.asarray(A, dtype=float)
    evals, evecs = np.linalg.eig(A)
    order = np.argsort(np.abs(evals))
    lam, mu = float(evals[order[0]]), float(evals[order[1]])
    v_s = np.real(evecs[:, order[0]])
    v_u = np.real(evecs[:, order[1]])
    v_s /= np.linalg.norm(v_s)
    v_u /= np.linalg.norm(v_u)
    return v_s, v_u, lam, mu


def _banded_corrections(defect_s, defect_u, lam, mu):
    """Solve the two bidiagonal correction systems by substitution.

    Stable:   a_{k+1} - lam * a_k = -e_s[k],  a_0 = 0  (forward)
    Unstable: -mu * b_k + b_{k+1} = -e_u[k],  b_N = 0  (backward)

    The diagonals are constant and nonzero, so the substitutions are the
    whole solve; they run on Python floats, as `orbits._base_recursion`
    does, because a numpy step per index costs more than its arithmetic.
    """
    a, x = [0.0], 0.0
    for e in defect_s.tolist():
        x = lam * x - e
        a.append(x)
    b, x = [0.0], 0.0
    for e in reversed(defect_u.tolist()):
        x = (x + e) / mu
        b.append(x)
    return np.array(a), np.array(b[::-1])


def cat_map_shadow(A, base_points: np.ndarray) -> np.ndarray:
    """Standalone 2D shadowing solve for a pseudo-orbit of a toral automorphism.

    Takes the (N, 2) base points of a pseudo-orbit of p -> A p on T^2 and
    returns the (N, 2) base points of the correcting orbit, with zero
    stable correction at the first index and zero unstable correction at
    the last.
    """
    base_points = np.asarray(base_points, dtype=float)
    v_s, v_u, lam, mu = _eigen2(A)
    defects = minimal_displacement(wrap(base_points[:-1] @ np.asarray(A, dtype=float).T),
                                   base_points[1:])
    frame_inv = np.linalg.inv(np.column_stack([v_u, v_s]))
    comps = defects @ frame_inv.T  # rows: (e_u, e_s)
    a, b = _banded_corrections(comps[:, 1], comps[:, 0], lam, mu)
    corrections = np.outer(a, v_s) + np.outer(b, v_u)
    return wrap(base_points + corrections)


def linear_model_shadow(sys, orbit, k: int) -> np.ndarray:
    """Full 3D oracle for the linear model (phi == 0, omega == 0).

    The base follows the banded 2D solve; the fiber replicates the
    quasi-shadowing center-motion placement: corrections happen only at
    multiples of the power k, and indices in between are exact map steps,
    so the oracle fiber at index q copies the orbit fiber at the block
    anchor (floor(q / k) * k going forward, the block's upper anchor on
    the negative side).
    """
    if not sys.is_linear:
        raise ValueError("linear_model_shadow requires the linear model")
    pts = orbit.points
    base = cat_map_shadow(sys.A, pts[:, :2])
    m = np.arange(orbit.n_min, orbit.n_max + 1) // k
    anchor = np.clip(np.where(m >= 0, m, m + 1) * k, orbit.n_min, orbit.n_max)
    return np.column_stack([base, pts[anchor - orbit.n_min, 2]])
