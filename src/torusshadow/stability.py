"""Topological quasi-stability: sampled semiconjugacy for a perturbed map.

For g C0-close to f, every g-orbit is a pseudo-orbit of f, so the
quasi-shadowing engine assigns to each point x the anchor pi(x) = y*_0 of
the sequence tracing the g-orbit of x.  Along the center fibration this
yields the intertwining pi(g(x)) = tau_x(f(pi(x))) with tau_x the signed
fiber motion at the next step.  pi is sampled on a regular lattice, which
stores pi, pi(g(x)) and tau alone; the reports below recompute the
intertwining identity's residuals from them and check that pi has degree
1, hence is onto, from its distance to the identity and its modulus over
lattice edges.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import fiber_displacement, minimal_displacement, torus_distance
from .models import SkewModel, _is_positive_int
from .orbits import PerturbedMap, from_map, write_table
from .shadowing import (
    ParameterError,
    ShadowingParams,
    _anchor_stage,
    _half,
    delta_for_epsilon,
)

__all__ = [
    "SemiConjugacy",
    "semiconjugacy",
    "check_identity",
    "surjectivity_density",
    "write_semiconjugacy",
]

# Gate of `check_identity` on both sides of the intertwining identity.
IDENTITY_TOL = 1e-8


@dataclass
class SemiConjugacy:
    """pi, pi(g(x)) and tau sampled on a regular lattice; `check_identity`
    computes the identity's residuals from them."""

    grid_res: tuple
    nodes: np.ndarray        # (N, 3) lattice points
    pi: np.ndarray           # (N, 3) pi(x) = y*_0 of the g-orbit's construction
    pi_g: np.ndarray         # (N, 3) pi(g(x)) = y*_1 of the same construction
    tau: np.ndarray          # (N,) signed center motion from f(pi(x)) to pi(g(x))
    window: int
    params: ShadowingParams
    failures: list = field(default_factory=list)   # (node, message) per failed node
    model_name: str = "unknown"

    @property
    def sup_pi_id(self) -> float:
        ok = ~np.isnan(self.pi[:, 0])
        if not np.any(ok):
            return math.inf
        return float(np.max(torus_distance(self.pi[ok], self.nodes[ok])))


def _lattice(grid_res) -> np.ndarray:
    return np.indices(grid_res).reshape(3, -1).T / np.asarray(grid_res)


def semiconjugacy(sys: SkewModel, g: PerturbedMap, grid_res, N: int, epsilon: float,
                  params: ShadowingParams = None) -> SemiConjugacy:
    """Sample pi on a grid by quasi-shadowing each node's g-orbit.

    `grid_res` is three positive integers and `N` a positive integer; other
    values raise ValueError.  Every node uses identical parameters and the
    window [-N, N]; all g-orbits come from one `from_map` call and run as
    one batch through the anchor stage of `shadow_batch` only, since pi(x)
    = y*_0 is its spliced anchor and no full-resolution trace is needed.
    pi(g(x)) = y*_1 is f(y*_0) when k >= 2 (index 1 is filled by an exact
    map step), so there pi_g = f(pi) and tau = 0 by construction; when
    k = 1 it is the first upward subsampled correction, and tau is its
    fiber gap from f(pi).  The certified d(f, g) must be below the
    admissible defect; per-node shadowing failures are recorded in the
    report as (node, message) rather than raised, and leave the node's pi,
    pi_g and tau NaN.  The report's arrays own their data.
    """
    grid = tuple(grid_res) if np.iterable(grid_res) else ()
    if len(grid) != 3 or not all(_is_positive_int(n) for n in grid):
        raise ValueError(f"grid_res must be three positive integers, got {grid_res!r}")
    if not _is_positive_int(N):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if params is None:
        params = delta_for_epsilon(sys, epsilon)
    bound = g.certified_bound()
    if not bound < params.delta:
        raise ParameterError(
            f"certified d(f, g) = {bound:.4e} is not below the admissible "
            f"defect {params.delta:.4e} for epsilon = {epsilon:g}"
        )
    nodes = _lattice(grid)
    orbit = from_map(sys, g, nodes, (-N, N))
    st = _anchor_stage(sys, orbit, epsilon, params)
    fp = sys.apply(st.y0_star)
    pi_g = fp if params.k > 1 else _half(sys, st)[1][0, :, 0, :].copy()
    tau = fiber_displacement(fp[:, 2], pi_g[:, 2]).copy()   # a view of its result otherwise
    pi = st.y0_star.copy()
    failed = sorted(st.errors)
    for arr in (pi, pi_g, tau):
        arr[failed] = np.nan
    return SemiConjugacy(grid_res=tuple(int(n) for n in grid), nodes=nodes, pi=pi,
                         pi_g=pi_g, tau=tau, window=int(N), params=params,
                         failures=[(r, str(st.errors[r])) for r in failed])


@dataclass
class IdentityReport:
    passed: bool
    max_base_mismatch: float
    max_fiber_residual: float
    failing_nodes: list

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} identity: max_base_mismatch={self.max_base_mismatch:.6e} "
                f"max_fiber_residual={self.max_fiber_residual:.6e} "
                f"failing_nodes={len(self.failing_nodes)}")


def check_identity(sys: SkewModel, sc: SemiConjugacy, g: PerturbedMap) -> IdentityReport:
    """Check the intertwining identity pi(g(x)) = tau_x(f(pi(x))) at every node.

    pi(g(x)) is read from the node's own construction (its y*_1), and
    f(pi(x)) is applied fresh: the base coordinates must agree within
    IDENTITY_TOL and the fiber gap must equal the stored tau within
    IDENTITY_TOL.  Since y*_1 and tau come from the same construction that
    put y*_1 on the center plaque of f(y*_0), the identity holds by
    construction; this computes its residuals, the one place they are
    computed, but does not test it independently.  For k >= 2 both are
    exactly 0, since pi_g = f(pi) and tau = 0.  `g` is accepted but not read:
    it stays in the signature for an independent check that traces the
    g-orbit of g(x) on its own, and callers (the CLI, the benchmark
    workloads) already pass it.
    """
    ok = ~np.isnan(sc.pi).any(axis=1)
    fp = sys.apply(sc.pi[ok])
    base_mismatch = torus_distance(fp[:, :2], sc.pi_g[ok, :2])
    fib_res = np.abs(fiber_displacement(fp[:, 2], sc.pi_g[ok, 2]) - sc.tau[ok])
    bad = np.ones(ok.shape, dtype=bool)
    bad[ok] = ~(base_mismatch < IDENTITY_TOL) | ~(fib_res < IDENTITY_TOL)
    failing = [int(i) for i in np.flatnonzero(bad)]
    return IdentityReport(passed=not failing,
                          max_base_mismatch=float(np.max(base_mismatch, initial=0.0)),
                          max_fiber_residual=float(np.max(fib_res, initial=0.0)),
                          failing_nodes=failing)


@dataclass
class SurjectivityReport:
    sup_pi_id: float
    modulus: float
    epsilon: float
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} surjectivity: sup_d(pi,id)={self.sup_pi_id:.6e} "
                f"modulus={self.modulus:.6e} epsilon={self.epsilon:g}")


def surjectivity_density(sc: SemiConjugacy, epsilon: float) -> SurjectivityReport:
    """Degree check for pi on the lattice, the surjectivity half of quasi-stability.

    D = minimal_displacement(x, pi(x)) lifts pi to x + D(x).  The modulus
    is the largest |D(x) - D(x')| over lattice neighbours x, x' (edges
    with a failed end are dropped; with no edge it is 0).  PASS needs no
    failed node, sup |D| < epsilon and sup |D| + modulus < 1/2: then no
    lattice edge hides a wrap of the lift, x + t D(x) is a homotopy from
    id to pi, so pi has degree 1 and is onto (Walters, Topology 9, 1970).
    Continuity of pi between the nodes is assumed, not tested.  With every
    node failed, sup |D| is inf.
    """
    disp = minimal_displacement(sc.nodes, sc.pi).reshape(*sc.grid_res, 3)
    jumps = np.concatenate([np.linalg.norm(disp - np.roll(disp, -1, axis), axis=-1).ravel()
                            for axis in range(3)])
    modulus = float(np.max(jumps[~np.isnan(jumps)], initial=0.0))
    sup = sc.sup_pi_id
    passed = not np.isnan(sc.pi).any() and sup < epsilon and sup + modulus < 0.5
    return SurjectivityReport(sup_pi_id=sup, modulus=modulus, epsilon=epsilon, passed=passed)


# -- semiconjugacy files ----------------------------------------------------------


def write_semiconjugacy(sc: SemiConjugacy, path, model_name: str = "",
                        perturbation: str = "") -> None:
    """One row per lattice node: i1 i2 i3, pi, tau."""
    header = {"model": model_name or sc.model_name, "perturbation": perturbation,
              "grid": " ".join(str(n) for n in sc.grid_res), "half_length": sc.window,
              **asdict(sc.params)}
    index = np.indices(sc.grid_res).reshape(3, -1).T
    write_table(path, header, np.column_stack([index, sc.pi, sc.tau]))
