"""Quasi-shadowing of pseudo-orbits along center leaves.

Given a delta-pseudo-orbit of a coherent skew product, this module builds a
sequence {y*_k} with y*_k on the center plaque of f(y*_{k-1}) and
d(x_k, y*_k) < epsilon, in three stages: a forward sweep producing guide
points on center-unstable/strong-stable leaf intersections, the same sweep
run backward with the leaf pairs swapped, and a splice of the two
half-orbit anchors.  Parameters (k, alpha, r1, r2, delta) are chosen so that

    2 lam^k L0 < 1
    delta (1 + 2 L0 + 2 lam^k L0) < epsilon / 3
    lam^k (2 L0 delta + alpha) < r2
    alpha < epsilon / 3

all hold with at least a 2x margin, after which the construction runs on
the k-subsampled orbit and intermediate indices are filled with exact map
steps.

The construction runs on a stack of B orbits over one window at once
(`shadow_batch`; `quasi_shadow` is the one-orbit case).  Only the two sweeps
are sequential in time, one (B,)-wide step per subsampled index; the limit
search, the propagation of the anchors, the splice, the full-resolution fill
and `verify` are array operations along time.  A row that fails a check is
recorded in the batch's `errors` dict with the stage and index and the
other rows carry on; only `quasi_shadow` raises a row's failure.

Numerics: the defining recursions move offsets along the expanding
direction of the relevant map power, which amplifies floating-point noise
by mu^k per step.  All offset sequences here are therefore evaluated
through their equivalent contracting forms (scalar coefficient recursions
in the eigenframe, anchored to the sweep data); the defining one-step
relations then hold to well below the 1e-9 verification gate at every
index, which `verify` checks from scratch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .geometry import fiber_displacement, minimal_displacement, torus_distance, wrap
from .models import SkewModel, _flag_rows
from .orbits import PseudoOrbit, defects, read_table, write_table

__all__ = [
    "ShadowingParams",
    "ShadowingTrace",
    "VerifyReport",
    "ParameterError",
    "InsufficientWindowError",
    "ConstructionError",
    "delta_for_epsilon",
    "shadow_batch",
    "quasi_shadow",
    "verify",
    "write_trace",
    "read_trace",
]


# Gate of `verify` on the recomputed base residuals and recorded columns.
RESIDUAL_TOL = 1e-9


class ParameterError(ValueError):
    """Shadowing parameters infeasible (epsilon too large, defect too big, ...)."""


class InsufficientWindowError(RuntimeError):
    """The orbit window ended before the half-orbit anchors converged."""


class ConstructionError(RuntimeError):
    """A leaf intersection failed inside the construction."""


@dataclass(frozen=True)
class ShadowingParams:
    """Resolved parameters of one shadowing run.

    `delta` is the admissible defect of the input orbit (forward defect;
    backward defects up to lip_f_inv * delta are provisioned for).
    `delta_step` is the defect bound the subsampled construction works
    with; delta = delta_step / max(sum lip_f^j, sum lip_f_inv^j), which
    realizes the smaller-delta remark needed for the backward half.

    The transversality and holonomy data come with it.  L0 bounds the
    blowup of the two-leaf intersection solve (conditioning of
    [v_u | -v_s] times a 1.1 safety factor) and delta0 = 0.2 is its
    validity radius, far from the 0.25 lift-ambiguity radius.  (r1, r2,
    alpha) are the holonomy modulus data: points within r2 on a transversal
    map within alpha under center holonomy inside plaques of radius r1.
    alpha = 0.45 epsilon / 3 is linear in epsilon, with a 2x margin against
    the epsilon / 3 cap the construction needs, and r2 carries the
    transfer-slope factor so that the sampled modulus certificate
    d(h(z), h(z')) < alpha for d(z, z') < r2 passes.
    """

    epsilon: float
    delta: float
    alpha: float
    r1: float
    r2: float
    k: int
    limit_tol: float
    L0: float
    delta0: float
    delta1: float
    lam_k: float
    delta_step: float
    lip_f: float
    lip_f_inv: float

    def margins(self) -> dict:
        """Safety margins (ratio RHS/LHS) of the four parameter inequalities."""
        eps = self.epsilon
        return {
            "contraction": 1.0 / (2.0 * self.lam_k * self.L0),
            "defect": (eps / 3.0) / (self.delta * (1.0 + 2.0 * self.L0 + 2.0 * self.lam_k * self.L0)),
            "holonomy_radius": self.r2 / (self.lam_k * (2.0 * self.L0 * self.delta + self.alpha)),
            "alpha": (eps / 3.0) / self.alpha,
        }


def _lip_bound(base_norm: float, lip_fiber: float) -> float:
    """Operator-norm bound of [[base_norm, 0], [lip_fiber, 1]]."""
    m = np.array([[base_norm, 0.0], [lip_fiber, 1.0]])
    return float(np.linalg.norm(m, ord=2))


def delta_for_epsilon(sys: SkewModel, epsilon: float, limit_tol: float = 1e-12) -> ShadowingParams:
    """Admissible defect and construction parameters for a tracing accuracy.

    Selects the smallest power k with 2 lam^k L0 < 1/2, sizes the holonomy
    data (see ShadowingParams), and returns delta as half the largest
    value compatible with the defect and holonomy-radius inequalities,
    divided by the worst subsampling/backward accumulation factor.
    Raises ParameterError naming the violated bound when epsilon exceeds
    the validity radii.
    """
    if not 0.0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon!r}")
    lam = sys.rates.lam
    L0 = sys.L0
    alpha = 0.45 * epsilon / 3.0
    r1 = 0.99 * L0 * sys.delta0 / 3.0
    r2 = min(alpha / (1.5 * math.sqrt(1.0 + sys.leaf_slope_s * sys.leaf_slope_s)), r1)

    k = 1
    while 2.0 * lam ** k * L0 >= 0.5:
        k += 1
        if k > 60:
            raise ParameterError("no admissible power k: contraction rate too weak")
    lam_k = lam ** k

    bound_defect = (epsilon / 3.0) / (1.0 + 2.0 * L0 + 2.0 * lam_k * L0)
    bound_radius = (r2 / lam_k - alpha) / (2.0 * L0)
    if bound_radius <= 0.0:
        raise ParameterError("holonomy radius r2 too small for this epsilon")
    # Half the feasible maximum, shaded so the reported margin stays >= 2
    # under floating-point evaluation.
    delta_step = 0.5 * (1.0 - 2.0 ** -20) * min(bound_defect, bound_radius)

    # Validity: every plaque the construction touches must fit inside the
    # lift-unambiguous workspace.
    extent = L0 * (2.0 * epsilon / 3.0 + alpha + 2.0 * L0 * delta_step)
    workspace = min(L0 * sys.delta0, sys.rates.delta1)
    if extent >= workspace:
        raise ParameterError(
            f"epsilon too large: plaque extent {extent:.4f} exceeds the validity "
            f"radius min(L0*delta0, delta1) = {workspace:.4f}"
        )

    base_norm = float(np.linalg.norm(np.asarray(sys.A, dtype=float), ord=2))
    base_inv_norm = float(np.linalg.norm(np.asarray(sys.A_inv, dtype=float), ord=2))
    lip_f = _lip_bound(base_norm, sys.lip_phi)
    lip_f_inv = _lip_bound(base_inv_norm, sys.lip_phi * base_inv_norm)
    acc_fwd = sum(lip_f ** j for j in range(k))
    acc_bwd = sum(lip_f_inv ** j for j in range(1, k + 1))
    delta = delta_step / max(acc_fwd, acc_bwd)

    return ShadowingParams(
        epsilon=epsilon, delta=delta, alpha=alpha, r1=r1, r2=r2,
        k=k, limit_tol=limit_tol, L0=L0, delta0=sys.delta0,
        delta1=sys.rates.delta1, lam_k=lam_k, delta_step=delta_step,
        lip_f=lip_f, lip_f_inv=lip_f_inv,
    )


# -- eigenframe bookkeeping ---------------------------------------------------


class _Frame:
    """The power F = f^k the construction runs on, for k = params.k.

    Holds F and F^-1 as k steps of the map, and the decomposition of base
    displacements into (unstable, stable) coefficients.  The invariant
    leaves of F are those of f, so every leaf operation stays on `sys`.
    """

    def __init__(self, sys: SkewModel, k: int):
        self.sys = sys
        self.k = k
        self.v_u = sys.v_u
        self.v_s = sys.v_s
        self._inv = np.linalg.inv(np.column_stack([sys.v_u, sys.v_s]))
        # Signed eigenvalues of the k-th matrix power drive the scalar
        # offset recursions.
        self.contract_s = sys.eig_lam ** k        # A^k v_s = contract_s * v_s
        self.contract_u = 1.0 / sys.eig_mu ** k   # A^-k v_u = contract_u * v_u

    def apply_k(self, x):
        """F(x): k steps of f."""
        for _ in range(self.k):
            x = self.sys.apply(x)
        return x

    def apply_inverse_k(self, x):
        """F^-1(x): k steps of f^-1."""
        for _ in range(self.k):
            x = self.sys.apply_inverse(x)
        return x

    def coeffs(self, p_from, p_to):
        """(along v_u, along v_s) coefficients of the minimal displacements."""
        d = minimal_displacement(p_from, p_to)
        inv = self._inv
        return (inv[0, 0] * d[..., 0] + inv[0, 1] * d[..., 1],
                inv[1, 0] * d[..., 0] + inv[1, 1] * d[..., 1])


def _point(base, fiber):
    return np.concatenate([base, wrap(fiber)[..., None]], axis=-1)


def _on_leaf(sys, anchor, offset, stable: bool, tol=None):
    """Points of the strong stable (or unstable) leaves of `anchor` at base
    offsets `offset` along v_s (or v_u); anchor (..., 3) broadcasts
    against offset (...)."""
    base = wrap(anchor[..., :2] + offset[..., None] * (sys.v_s if stable else sys.v_u))
    transfer = sys.transfer_stable if stable else sys.transfer_unstable
    return _point(base, anchor[..., 2] + transfer(anchor[..., :2], base, tol=tol))


def _leaf_pair(sys, p, q, radius, errors, stage: str, fallback):
    """z = W^cu(p) cap W^s(q) and z' = W^cs(q) cap W^u(p), which share a base
    point.  A row where either fails is recorded in `errors` as a
    ConstructionError naming `stage`, and both its points are set to
    `fallback` (p or q), so the stages after it stay defined on that row."""
    step = {}
    z = sys.intersect("cu", p, "s", q, radius, errors=step)
    zp = sys.intersect("cs", q, "u", p, radius, errors=step)
    if step:
        rows = list(step)
        for out in (z, zp):
            out.reshape(-1, 3)[rows] = np.reshape(fallback, (-1, 3))[rows]
        for r, exc in step.items():
            errors.setdefault(r, ConstructionError(f"{stage}: {exc}"))
    return z, zp


# -- the sweep ------------------------------------------------------------------


class _Sweep(NamedTuple):
    """One half's sweep over a stack of subsampled orbits.

    X, z, zp are (B, n+1, 3) with index 0 holding X_0; `coef` is (B, n+1):
    forward, c_i is the unstable offset of z_i from F(z_{i-1}); backward,
    d_j is the stable offset of z_{-j} from its anchor F^-1(z'_{-j+1}).
    """

    X: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    coef: np.ndarray


def _sweep(sys, X, params, frame, errors, stable: bool) -> _Sweep:
    """z/z' sweep over one subsampled half, one step for all rows.

    Forward (stable=False), X[..., i, :] = X_i and the anchor is
    a = F(z_{i-1}): z_i is the cu-leaf-of-a / stable-leaf-of-X_i
    intersection, z'_i the cs-leaf-of-X_i / unstable-leaf-of-a one.
    Backward (stable=True), X[..., j, :] = X_{-j}, the anchor is
    a = F^-1(z'_{-j+1}) and X and a swap places in both pairs.  The
    coefficient is the offset of z from a along the leaf the half moves
    along (unstable forward, stable backward).
    """
    z, zp, coef = X.copy(), X.copy(), np.zeros(X.shape[:-1])
    radius = params.delta_step
    for i in range(1, X.shape[-2]):
        if stable:
            a = frame.apply_inverse_k(zp[..., i - 1, :])
            pair, stage = (X[..., i, :], a), f"backward sweep failed at index {-i}"
        else:
            a = frame.apply_k(z[..., i - 1, :])
            pair, stage = (a, X[..., i, :]), f"forward sweep failed at index {i}"
        # A failed row continues from the anchor, with a zero coefficient.
        z[..., i, :], zp[..., i, :] = _leaf_pair(sys, *pair, radius, errors, stage, a)
        coef[..., i] = frame.coeffs(a[..., :2], z[..., i, :2])[stable]
        radius = 2.0 * params.delta_step
    return _Sweep(X, z, zp, coef)


# -- half-orbit anchors -------------------------------------------------------


def _anchors(sys, sweep: _Sweep, frame: _Frame, stable: bool, tol=None):
    """The window anchors y_{0,n} for every n = 1..n_max, shape (..., n_max, 3).

    y_{0,n} lies on the strong unstable leaf of X_0 (stable for the backward
    half) at offset sum_{i=1..n} contract^i coef_i, so one prefix sum gives
    every candidate and one series call gives their fibers.
    """
    rate = frame.contract_s if stable else frame.contract_u
    n_max = sweep.coef.shape[-1] - 1
    offsets = np.cumsum(rate ** np.arange(1, n_max + 1) * sweep.coef[..., 1:], axis=-1)
    return _on_leaf(sys, sweep.X[..., :1, :], offsets, stable, tol=tol)


def _limit(sys, sweep, params, frame, errors, growth_step, stable: bool):
    """First Cauchy-stable window anchor of each row (see forward_limit)."""
    tol = params.limit_tol
    # The transfer runs at a tolerance well below the Cauchy gap resolved
    # here, so truncation jitter cannot mask convergence.
    anchors = _anchors(sys, sweep, frame, stable, tol=min(sys.series_tol, 1e-3 * tol))
    n_max = anchors.shape[-2]
    ns = np.arange(1, n_max - 1, growth_step)   # candidates with n + 2 <= n_max
    if ns.size:
        g1 = torus_distance(anchors[..., ns - 1, :], anchors[..., ns, :])
        g2 = torus_distance(anchors[..., ns - 1, :], anchors[..., ns + 1, :])
        cauchy = (g1 < tol) & (g2 < tol)
        first = np.argmax(cauchy, axis=-1)
        converged = np.take_along_axis(cauchy, first[..., None], axis=-1)[..., 0]
        last_gap = np.maximum(g1[..., -1], g2[..., -1])
        depth = ns[first]
        anchor = np.take_along_axis(anchors, (depth - 1)[..., None, None], axis=-2)[..., 0, :]
    else:
        converged = np.zeros(anchors.shape[:-2], dtype=bool)
        last_gap = np.full(anchors.shape[:-2], np.inf)
        depth = np.zeros(anchors.shape[:-2], dtype=int)
        anchor = sweep.X[..., 0, :]
    side = "backward" if stable else "forward"
    last_gap = np.atleast_1d(last_gap)
    _flag_rows(errors, InsufficientWindowError, ((
        ~converged,
        lambda r: (f"{side} anchor not Cauchy-stable within the window "
                   f"(n <= {n_max}); last gap {last_gap[r]:.3e}")),))
    return anchor, depth[()]


def forward_limit(sys, sweep: _Sweep, params, frame: _Frame, errors, growth_step: int = 1):
    """First Cauchy-stable element of {y_{0,n}}: the anchor y_0^u on W^u(X_0).

    `sweep` is the forward sweep of one subsampled half X_0..X_n, (n+1, 3)
    or a stack (B, n+1, 3).  Tries n along the growth schedule and accepts
    the first n with d(y_{0,n}, y_{0,n+1}) and d(y_{0,n}, y_{0,n+2}) both
    below limit_tol; all candidates come from one prefix sum and one
    transfer series call.  Returns (anchor, n), with one n per row.  A row
    whose anchor never settles is recorded in `errors` as an
    InsufficientWindowError.
    """
    return _limit(sys, sweep, params, frame, errors, growth_step, stable=False)


def backward_limit(sys, sweep: _Sweep, params, frame: _Frame, errors, growth_step: int = 1):
    """First Cauchy-stable element of {y_{0,-n}}: the anchor y_0^s on W^s(X_0).

    `sweep` is the backward sweep, X[..., j, :] = X_{-j}; otherwise as
    forward_limit.
    """
    return _limit(sys, sweep, params, frame, errors, growth_step, stable=True)


# -- propagation along the halves ------------------------------------------------


def _forward_propagate(sys, sweep: _Sweep, frame: _Frame, y0_u):
    """Guides y_i^u = W^u(z_i) cap W^c(F(y_{i-1}^u)) for the whole half,
    (..., n+1, 3) with y_0^u at index 0.

    The unstable offsets u_i of y_i^u from z_i solve u_i = mu^k u_{i-1} - c_i;
    the bounded solution u_i = sum_m mu^{-km} c_{i+m} is evaluated by the
    contracting backward accumulation (zero at the window end), after which
    all guides come from one series call.
    """
    c = sweep.coef
    u = np.zeros(c.shape)
    for i in range(c.shape[-1] - 2, 0, -1):
        u[..., i] = frame.contract_u * (c[..., i + 1] + u[..., i + 1])
    y_u = np.empty(sweep.z.shape)
    y_u[..., 0, :] = y0_u
    y_u[..., 1:, :] = _on_leaf(sys, sweep.z[..., 1:, :], u[..., 1:], stable=False)
    return y_u


def _backward_propagate(sys, sweep: _Sweep, frame: _Frame, y0_s):
    """Guides y_m^s and their corrected images (y_m^s)' for m = -1..-n, as
    (..., n+1, 3) arrays indexed by j = -m with y_0^s at index 0.

    y_{-1}^s = F^-1(y_0^s); (y_m^s)' sits on the stable plaque of z'_m over
    the center plaque of y_m^s, and y_{m-1}^s = F^-1((y_m^s)').  Stable
    offsets from z_m are evaluated by the contracting forward accumulation
    (zero at the window start).  The primed guides need only the sweep, so
    they come from one series call and the unprimed ones from one F^-1.
    """
    d = sweep.coef
    s = np.zeros(d.shape)
    for j in range(d.shape[-1] - 2, 0, -1):
        s[..., j] = frame.contract_s * (s[..., j + 1] + d[..., j + 1])
    base = wrap(sweep.z[..., 1:, :2] + s[..., 1:, None] * frame.v_s)
    zp = sweep.zp[..., 1:, :]
    y_s_prime = np.empty(sweep.z.shape)
    y_s_prime[..., 0, :] = y0_s
    y_s_prime[..., 1:, :] = _point(base, zp[..., 2] + sys.transfer_stable(zp[..., :2], base))
    y_s = np.empty(sweep.z.shape)
    y_s[..., 0, :] = y0_s
    y_s[..., 1:, :] = _point(base, frame.apply_inverse_k(y_s_prime[..., :-1, :])[..., 2])
    return y_s, y_s_prime


# -- splice and full pipeline --------------------------------------------------


def splice(sys, y0_u, y0_s, params, errors):
    """Close the two half-orbit anchors into y_0^* and (y_0^*)', row by row.

    y_0^* is the stable-leaf-of-y_0^u / cu-leaf-of-y_0^s intersection, its
    primed partner the cs/unstable one; both share a base point, so the
    step from (y_0^*)' to y_0^* is purely along the center fiber.  Failing
    rows are recorded in `errors`.
    """
    gap = np.atleast_1d(torus_distance(y0_u, y0_s))
    cap = 2.0 * params.lam_k * (params.L0 * params.delta_step + params.alpha)
    _flag_rows(errors, ParameterError, ((
        ~(gap < cap),
        lambda r: (f"splice margin violated at index 0: d(y0_s, y0_u) = {gap[r]:.3e} >= "
                   f"2 lam^k (L0 delta + alpha) = {cap:.3e}")),))
    return _leaf_pair(sys, y0_s, y0_u, cap, errors, "splice intersection failed at index 0",
                      y0_u)


def _sub_range(n_min: int, n_max: int, k: int) -> tuple:
    """(M_min, M_max): the subsampled indices m with m k inside the window."""
    return -((-n_min) // k), n_max // k


def _base_residual(y_star, y_prime):
    """Base distance between y*_q and y'_q = f(y*_{q-1}); 0 at the first index."""
    res = np.zeros(y_star.shape[:-1])
    res[..., 1:] = torus_distance(y_prime[..., 1:, :2], y_star[..., 1:, :2])
    return res


@dataclass
class ShadowingTrace:
    """Full output of a quasi-shadowing run, at original resolution.

    The shapes below are for one orbit; a trace of a stack of orbits has a
    leading batch axis on every array.
    """

    n_min: int
    n_max: int
    y_star: np.ndarray          # (N, 3)
    y_prime: np.ndarray         # (N, 3): f(y*_{k-1}); row 0 repeats y*_{n_min}
    center_motions: np.ndarray  # (N,): signed fiber step from y_prime to y_star
    trace_dist: np.ndarray      # (N,): d(x_k, y*_k)
    base_residual: np.ndarray   # (N,): base distance between y*_k and f(y*_{k-1})
    params: ShadowingParams
    y_u: dict = field(default_factory=dict, repr=False)    # guides at subsampled m >= 0
    y_s: dict = field(default_factory=dict, repr=False)    # guides at subsampled m <= 0
    model_name: str = "unknown"

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def sub_range(self) -> tuple:
        """(M_min, M_max) subsampled index range."""
        return _sub_range(self.n_min, self.n_max, self.k)

    @property
    def interior(self) -> tuple:
        """(lo, hi): the window indices one subsampled step inside the
        outermost subsampled ones, where `verify` checks the contract."""
        M_min, M_max = self.sub_range
        return (M_min + 1) * self.k, (M_max - 1) * self.k

    def index(self, k: int) -> int:
        return k - self.n_min

    def point(self, k: int) -> np.ndarray:
        return self.y_star[..., self.index(k), :]

    @property
    def max_distance(self) -> float:
        lo, hi = self.interior
        return float(np.max(self.trace_dist[..., self.index(lo): self.index(hi) + 1]))

    @property
    def max_residual(self) -> float:
        lo, hi = self.interior
        return float(np.max(self.base_residual[..., self.index(lo): self.index(hi) + 1]))


def _check_defects(sys, orbit: PseudoOrbit, params: ShadowingParams, errors) -> None:
    """Flag rows whose forward defect exceeds params.delta or whose backward
    defect exceeds lip_f_inv * params.delta (the accounting delta_for_epsilon
    provisions for); a NaN defect fails too."""
    slack = 1.0 + 1e-9
    fwd, bwd = (d.reshape(-1, d.shape[-1]) for d in defects(sys, orbit))
    rows = np.arange(fwd.shape[0])
    at_f, at_b = np.argmax(fwd, axis=1), np.argmax(bwd, axis=1)
    worst_f, worst_b = fwd[rows, at_f], bwd[rows, at_b]
    bound_b = params.delta * params.lip_f_inv
    _flag_rows(errors, ParameterError, (
        (~(worst_f <= params.delta * slack),
         lambda r: (f"orbit forward defect {worst_f[r]:.3e} at step "
                    f"{orbit.n_min + at_f[r]} -> {orbit.n_min + at_f[r] + 1} exceeds "
                    f"admissible delta {params.delta:.3e}")),
        (~(worst_b <= bound_b * slack),
         lambda r: (f"orbit backward defect {worst_b[r]:.3e} at step "
                    f"{orbit.n_min + at_b[r] + 1} -> {orbit.n_min + at_b[r]} exceeds "
                    f"lip(f^-1) * delta = {bound_b:.3e}")),
    ))


def shadow_batch(sys: SkewModel, orbit: PseudoOrbit, epsilon: float,
                 params: ShadowingParams = None, growth_step: int = 1):
    """Quasi-shadow a stack of pseudo-orbits over one window in one pass.

    `orbit.points` is a stack (B, N, 3) or one orbit (N, 3).  Subsample by
    k, run the three-stage construction on all rows at once, fill the
    intermediate indices with exact map steps, so center motions
    concentrate at multiples of k.  Every row's forward defect must be
    within params.delta and its backward defect within lip_f_inv *
    params.delta.

    Returns (trace, failures): the trace arrays carry the batch axis of
    the input, if any, and `failures` lists (row, exception) pairs, by row,
    for the rows that failed a check (ParameterError, ConstructionError or
    InsufficientWindowError, with the stage and index in the message);
    those rows are NaN in the trace and never stop the others.
    """
    if params is None:
        params = delta_for_epsilon(sys, epsilon)
    elif params.epsilon != epsilon:
        raise ParameterError(f"params were resolved for epsilon = {params.epsilon!r}, "
                             f"not {epsilon!r}")
    k = params.k
    M_min, M_max = _sub_range(orbit.n_min, orbit.n_max, k)
    if M_max < 3 or M_min > -3:
        raise ParameterError(
            f"window [{orbit.n_min}, {orbit.n_max}] too short for power k = {k}"
        )
    pts = orbit.points
    errors = {}
    _check_defects(sys, orbit, params, errors)

    frame = _Frame(sys, k)
    X_pos = pts[..., np.arange(M_max + 1) * k - orbit.n_min, :]
    X_neg = pts[..., -np.arange(-M_min + 1) * k - orbit.n_min, :]
    fsweep = _sweep(sys, X_pos, params, frame, errors, stable=False)
    y0_u, _ = forward_limit(sys, fsweep, params, frame, errors, growth_step)
    bsweep = _sweep(sys, X_neg, params, frame, errors, stable=True)
    y0_s, _ = backward_limit(sys, bsweep, params, frame, errors, growth_step)
    y_u = _forward_propagate(sys, fsweep, frame, y0_u)
    y_s, y_s_prime = _backward_propagate(sys, bsweep, frame, y0_s)
    y0_star, y0_star_prime = splice(sys, y0_u, y0_s, params, errors)

    # Subsampled y*: stable offsets from the forward guides (contracting
    # forward), unstable offsets from the backward guides (contracting
    # backward); the center component rides the strong leaves.  Going down,
    # the fiber of y*_m is that of F^-1 of the point over it on the unstable
    # plaque of (y_{m+1}^s)', and those points need no y*, so each side is
    # one series call.
    sigma0 = frame.coeffs(y0_u[..., :2], y0_star[..., :2])[1]
    eta0 = frame.coeffs(y0_s[..., :2], y0_star_prime[..., :2])[0]
    star_pos = _on_leaf(sys, y_u[..., 1:, :],
                        sigma0[..., None] * frame.contract_s ** np.arange(1, M_max + 1),
                        stable=True)
    eta = eta0[..., None] * frame.contract_u ** np.arange(1, -M_min + 1)
    base = wrap(y_s[..., 1:, :2] + eta[..., None] * frame.v_u)
    upper = np.empty(pts.shape[:-2] + (-M_min, 3))
    upper[..., 0, :] = y0_star_prime
    primed = y_s_prime[..., 1:-1, :]
    upper[..., 1:, :] = _point(base[..., :-1, :], primed[..., 2] + sys.transfer_unstable(
        primed[..., :2], base[..., :-1, :]))
    star_neg = _point(base, frame.apply_inverse_k(upper)[..., 2])
    star = np.concatenate([star_neg[..., ::-1, :], y0_star[..., None, :], star_pos], axis=-2)

    # Full resolution: exact map steps between the subsampled corrections,
    # exact preimages below the window of m = M_min.
    n_pts = orbit.n_max - orbit.n_min + 1
    y_star = np.empty(pts.shape)
    at = np.arange(M_min, M_max + 1) * k - orbit.n_min
    y_star[..., at, :] = star
    cur = star
    for j in range(1, k):
        cur = sys.apply(cur)
        inside = at + j < n_pts
        y_star[..., at[inside] + j, :] = cur[..., inside, :]
    cur = star[..., 0, :]
    for q in range(at[0] - 1, -1, -1):
        cur = sys.apply_inverse(cur)
        y_star[..., q, :] = cur

    y_prime = y_star.copy()
    y_prime[..., 1:, :] = sys.apply(y_star[..., :-1, :])
    motions = np.zeros(y_star.shape[:-1])
    motions[..., 1:] = fiber_displacement(y_prime[..., 1:, 2], y_star[..., 1:, 2])
    base_res = _base_residual(y_star, y_prime)
    dist = torus_distance(pts, y_star)

    failed = sorted(errors)
    if failed:
        for arr in (y_star, y_prime, motions, base_res, dist, y_u, y_s):
            arr.reshape((-1,) + arr.shape[pts.ndim - 2:])[failed] = np.nan
    trace = ShadowingTrace(
        n_min=orbit.n_min, n_max=orbit.n_max, y_star=y_star, y_prime=y_prime,
        center_motions=motions, trace_dist=dist, base_residual=base_res,
        params=params,
        y_u={m: y_u[..., m, :] for m in range(M_max + 1)},
        y_s={-j: y_s[..., j, :] for j in range(-M_min + 1)},
        model_name=orbit.model_name,
    )
    return trace, [(r, errors[r]) for r in failed]


def quasi_shadow(sys: SkewModel, orbit: PseudoOrbit, epsilon: float,
                 params: ShadowingParams = None, growth_step: int = 1) -> ShadowingTrace:
    """Full pipeline for one orbit: `shadow_batch` on an (N, 3) orbit.

    Raises the orbit's failure: ParameterError (defect or window), or
    ConstructionError / InsufficientWindowError from the construction.
    """
    if orbit.points.ndim != 2:
        raise ValueError("quasi_shadow takes one orbit; use shadow_batch for a stack")
    trace, failures = shadow_batch(sys, orbit, epsilon, params, growth_step)
    if failures:
        raise failures[0][1]
    return trace


# -- verification ---------------------------------------------------------------


@dataclass
class VerifyReport:
    passed: bool
    max_distance: float
    max_base_residual: float
    max_motion: float
    failing_indices: list
    interior: tuple
    epsilon: float
    oracle_gap: float = None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"{status} max_distance={self.max_distance:.6e} "
                f"max_residual={self.max_base_residual:.6e} "
                f"max_motion={self.max_motion:.6e} epsilon={self.epsilon:.6e}")
        if self.oracle_gap is not None:
            line += f" oracle_gap={self.oracle_gap:.6e}"
        if not self.passed:
            line += f" failing={self.failing_indices[:20]}"
        return line


def verify(sys: SkewModel, orbit: PseudoOrbit, trace: ShadowingTrace,
           epsilon: float) -> VerifyReport:
    """Recompute the quasi-shadowing contract from serialized data only.

    Per interior index: tracing distance < epsilon, base coordinates of
    y*_k and the freshly recomputed f(y*_{k-1}) agree within RESIDUAL_TOL,
    the center motion magnitude stays below epsilon, and the recorded
    y_prime/motion columns match the recomputation.  Every gate is written
    as `not (value < bound)`, so a NaN fails it.  Shares no state with the
    constructor.
    """
    lo, hi = trace.interior
    lo = max(lo, orbit.n_min + 1)
    q = np.arange(lo, hi + 1)
    i = q - trace.n_min
    y = trace.y_star[i]
    fp = sys.apply(trace.y_star[i - 1])
    d = torus_distance(orbit.points[q - orbit.n_min], y)
    res = torus_distance(fp[:, :2], y[:, :2])
    mot = fiber_displacement(fp[:, 2], y[:, 2])
    rec_gap = torus_distance(fp, trace.y_prime[i])
    mot_gap = np.abs(mot - trace.center_motions[i])
    mot = np.abs(mot)
    failing = (~(d < epsilon) | ~(res < RESIDUAL_TOL) | ~(mot < epsilon)
               | ~(rec_gap < RESIDUAL_TOL) | ~(mot_gap < RESIDUAL_TOL))
    return VerifyReport(
        passed=not failing.any(), max_distance=float(np.max(d, initial=0.0)),
        max_base_residual=float(np.max(res, initial=0.0)),
        max_motion=float(np.max(mot, initial=0.0)),
        failing_indices=[int(v) for v in q[failing]], interior=(lo, hi),
        epsilon=epsilon,
    )


# -- trace files -----------------------------------------------------------------


def _params_from_header(header: dict, source) -> ShadowingParams:
    """The ShadowingParams whose fields `write_trace` wrote as header lines,
    exactly."""
    missing = [f.name for f in fields(ShadowingParams) if f.name not in header]
    if missing:
        raise ValueError(f"{source} is missing parameter header(s): {', '.join(missing)}")
    return ShadowingParams(**{f.name: (int if f.type == "int" else float)(header[f.name])
                              for f in fields(ShadowingParams)})


def write_trace(trace: ShadowingTrace, path, model_name: str = "") -> None:
    """One row per index: q, y*_q, y'_q, center motion, trace distance."""
    header = {"model": model_name or trace.model_name, **asdict(trace.params),
              "window": f"{trace.n_min} {trace.n_max}"}
    q = np.arange(trace.n_min, trace.n_max + 1)
    write_table(path, header, np.column_stack([q, trace.y_star, trace.y_prime,
                                               trace.center_motions, trace.trace_dist]))


def read_trace(path) -> ShadowingTrace:
    """A trace written by `write_trace`: the y*/y' columns, motions and
    distances as written, the parameters from the header, and the base
    residuals recomputed from the y*/y' columns.  The interior follows
    from the window and k; an `interior` header is ignored."""
    header, (n_min, n_max), arr = read_table(path, 9)
    # points in [0, 1), motion and distance finite; NaN fails both tests
    bad = ~(arr[:, 1:7] >= 0.0) | ~(arr[:, 1:7] < 1.0)
    bad = bad.any(axis=1) | ~np.isfinite(arr[:, 7:]).all(axis=1)
    if bad.any():
        raise ValueError(f"trace file {path} row {int(arr[bad][0, 0])} has a non-finite "
                         f"or out-of-[0, 1) value")
    y_star, y_prime = arr[:, 1:4].copy(), arr[:, 4:7].copy()
    return ShadowingTrace(
        n_min=n_min, n_max=n_max, y_star=y_star, y_prime=y_prime,
        center_motions=arr[:, 7].copy(), trace_dist=arr[:, 8].copy(),
        base_residual=_base_residual(y_star, y_prime),
        params=_params_from_header(header, f"trace file {path}"),
        model_name=header.get("model", "unknown"),
    )
