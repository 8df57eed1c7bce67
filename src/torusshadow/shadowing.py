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
(`shadow_batch`; `quasi_shadow` is the one-orbit case), and every stage, the
sweeps included, is an array operation along time.  `shadow_batch` is an
anchor stage (checks, sweeps, limits and splice: y*_0 and every row
failure) followed by a trace stage (`_half` per side for the guides and
the subsampled y*, then the fill); the semiconjugacy runs the anchor
stage alone.  A row that fails a
check is recorded in the batch's `errors` dict with the stage and index and
the other rows carry on; only `quasi_shadow` raises a row's failure.  The
two halves mirror each other in time and share one code path: one sweep
(`_sweep`), one limit search, one guide recursion (`_propagate`) and one
correction kernel (`_half`), the backward half with the leaf pair and the
rate swapped.

Numerics: the defining recursions move offsets along the expanding
direction of the relevant map power, which amplifies floating-point noise
by mu^k per step.  All offset sequences here are therefore evaluated
through their equivalent contracting forms (first-order linear recurrences
in the model's one eigenframe, `SkewModel.coeffs`, summed by the log-depth
`_scan`); the defining one-step
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


# -- the power F = f^k and its leaves ------------------------------------------
#
# The construction runs on F = f^k, k = params.k.  Its invariant leaves are
# those of f, so every leaf operation stays on `sys`, and base offsets along
# v_s (v_u) contract under F (F^-1) by lam^k (mu^-k), the signed eigenvalues
# of the k-th matrix power.


def _iterate(sys, x, k: int, inverse: bool = False):
    """F(x), or F^-1(x) when `inverse`: k steps of f (or f^-1)."""
    step = sys.apply_inverse if inverse else sys.apply
    for _ in range(k):
        x = step(x)
    return x


def _scan(x, rate):
    """x_i + rate x_{i-1} + rate^2 x_{i-2} + ... along the last axis: the
    solution of t_i = x_i + rate t_{i-1}, t_{-1} = 0, in log2(n) array passes."""
    x = np.array(x, dtype=float)
    s = 1
    while s < x.shape[-1]:
        x[..., s:] += rate ** s * x[..., :-s]
        s *= 2
    return x


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


def _sweep(sys, X, params, errors, stable: bool) -> _Sweep:
    """z/z' sweep over one subsampled half, all rows and indices at once.

    Forward (stable=False), X[..., i, :] = X_i and the anchor is
    a = F(z_{i-1}): z_i is the cu-leaf-of-a / stable-leaf-of-X_i
    intersection, z'_i the cs-leaf-of-X_i / unstable-leaf-of-a one.
    Backward (stable=True), X[..., j, :] = X_{-j}, the anchor is
    a = F^-1(z'_{-j+1}) and X and a swap places in both pairs.  The
    coefficient is the offset of z from a along the leaf the half moves
    along (unstable forward, stable backward).

    The recursive point (z forward, z' backward) lies on the strong leaf of
    X_i that F contracts (F^-1 backward) at offset t_i = e_i + rate t_{i-1},
    e_i the leaf coefficient of the defect F(X_{i-1}) -> X_i: one `_scan`
    gives every anchor base, and both intersections are rebuilt from their
    anchors and checked.  A row's first failure is recorded in `errors` as a
    ConstructionError naming the index.  Up to it, scanned and rebuilt
    anchors agree: a defect under delta0 is far inside the lift-unambiguous
    range, and a zeroed one leaves its pair beyond the L0 * radius caps.
    """
    k = params.k
    image, X1 = _iterate(sys, X[..., :-1, :], k, inverse=stable)[..., :2], X[..., 1:, :]
    # A pair at least delta0 apart gets offset 0, as in `intersect`.
    e = np.where(torus_distance(image, X1[..., :2]) < params.delta0,
                 -sys.coeffs(minimal_displacement(image, X1[..., :2]))[not stable], 0.0)
    t = _scan(e, 1.0 / sys.eig_mu ** k if stable else sys.eig_lam ** k)
    # The recursive intersection reads only its anchor's base, and F maps the
    # base without reading the fiber, so X's fibers stand in for now.
    src = X[..., :-1, :].copy()
    src[..., 1:, :2] += t[..., :-1, None] * (sys.v_u if stable else sys.v_s)
    radius = np.full(e.shape, 2.0 * params.delta_step)
    radius[..., 0] = params.delta_step
    pairs, found = (("cu", "s"), ("cs", "u")), ({}, {})    # z's pair, z''s pair
    (cx, cy), (ox, oy) = pairs[stable], pairs[not stable]
    rec = sys.intersect(cx, _iterate(sys, wrap(src), k, inverse=stable), cy, X1, radius,
                        errors=found[stable])
    a = _iterate(sys, np.concatenate([X[..., :1, :], rec[..., :-1, :]], axis=-2), k,
                 inverse=stable)
    other = sys.intersect(ox, X1, oy, a, radius, errors=found[not stable])
    z, zp = X.copy(), X.copy()
    z[..., 1:, :], zp[..., 1:, :] = (other, rec) if stable else (rec, other)
    found = {**found[1], **found[0]}    # where both fail, z's failure names the pair
    for r in sorted(found):
        i = r % e.shape[-1] + 1
        errors.setdefault(r // e.shape[-1], ConstructionError(
            f"{'backward' if stable else 'forward'} sweep failed at index "
            f"{-i if stable else i}: {found[r]}"))
    coef = np.zeros(X.shape[:-1])
    coef[..., 1:] = sys.coeffs(minimal_displacement(a[..., :2], z[..., 1:, :2]))[stable]
    return _Sweep(X, z, zp, coef)


# -- half-orbit anchors -------------------------------------------------------


def _anchors(sys, sweep: _Sweep, k: int, stable: bool, tol=None):
    """The window anchors y_{0,n} for every n = 1..n_max, shape (..., n_max, 3).

    y_{0,n} lies on the strong unstable leaf of X_0 (stable for the backward
    half) at offset sum_{i=1..n} contract^i coef_i, so one prefix sum gives
    every candidate and one series call gives their fibers.
    """
    rate = sys.eig_lam ** k if stable else 1.0 / sys.eig_mu ** k
    n_max = sweep.coef.shape[-1] - 1
    offsets = np.cumsum(rate ** np.arange(1, n_max + 1) * sweep.coef[..., 1:], axis=-1)
    return sys.leaf_point(sweep.X[..., :1, :], offsets, stable, tol=tol)


def _limit(sys, sweep, params, errors, growth_step, stable: bool):
    """First Cauchy-stable window anchor of each row (see forward_limit)."""
    tol = params.limit_tol
    # The transfer runs at a tolerance well below the Cauchy gap resolved
    # here, so truncation jitter cannot mask convergence.
    anchors = _anchors(sys, sweep, params.k, stable, tol=min(sys.series_tol, 1e-3 * tol))
    n_max = anchors.shape[-2]
    ns = np.arange(1, n_max - 1, growth_step)   # candidates with n + 2 <= n_max
    g1 = torus_distance(anchors[..., ns - 1, :], anchors[..., ns, :])
    g2 = torus_distance(anchors[..., ns - 1, :], anchors[..., ns + 1, :])
    cauchy = (g1 < tol) & (g2 < tol)
    first = np.argmax(cauchy, axis=-1)
    converged = np.take_along_axis(cauchy, first[..., None], axis=-1)[..., 0]
    last_gap = np.maximum(g1[..., -1], g2[..., -1])
    depth = ns[first]
    anchor = np.take_along_axis(anchors, (depth - 1)[..., None, None], axis=-2)[..., 0, :]
    side = "backward" if stable else "forward"
    last_gap = np.atleast_1d(last_gap)
    _flag_rows(errors, InsufficientWindowError, ((
        ~converged,
        lambda r: (f"{side} anchor not Cauchy-stable within the window "
                   f"(n <= {n_max}); last gap {last_gap[r]:.3e}")),))
    return anchor, depth[()]


def forward_limit(sys, sweep: _Sweep, params, errors, growth_step: int = 1):
    """First Cauchy-stable element of {y_{0,n}}: the anchor y_0^u on W^u(X_0).

    `sweep` is the forward sweep of one subsampled half X_0..X_n, (n+1, 3)
    or a stack (B, n+1, 3).  Tries n along the growth schedule and accepts
    the first n with d(y_{0,n}, y_{0,n+1}) and d(y_{0,n}, y_{0,n+2}) both
    below limit_tol; all candidates come from one prefix sum and one
    transfer series call.  Returns (anchor, n), with one n per row.  A row
    whose anchor never settles is recorded in `errors` as an
    InsufficientWindowError.
    """
    return _limit(sys, sweep, params, errors, growth_step, stable=False)


def backward_limit(sys, sweep: _Sweep, params, errors, growth_step: int = 1):
    """First Cauchy-stable element of {y_{0,-n}}: the anchor y_0^s on W^s(X_0).

    `sweep` is the backward sweep, X[..., j, :] = X_{-j}; otherwise as
    forward_limit.
    """
    return _limit(sys, sweep, params, errors, growth_step, stable=True)


# -- propagation along the halves ------------------------------------------------


def _propagate(sys, sweep: _Sweep, y0, k: int, stable: bool):
    """The guides of one half, (..., n+1, 3) with the anchor y0 at index 0.

    Forward, y_i^u = W^u(z_i) cap W^c(F(y_{i-1}^u)).  Backward, the same scan
    with the leaf and the rate swapped gives the primed guides (y_m^s)',
    indexed by j = -m: on the stable plaque of z'_m and the center plaque of
    y_m^s = F^-1((y_{m+1}^s)').  The guides' leaf offsets from z_i (z'_m)
    solve t_i = t_{i-1} / rate - coef_i with rate = mu^-k (lam^k), and the
    bounded solution t_i = sum_{m>=1} rate^m coef_{i+m} (zero at the window
    end) is w_i - coef_i for w the contracting `_scan` of coef run backward,
    after which all guides come from one series call.
    """
    c = sweep.coef[..., 1:]
    t = _scan(c[..., ::-1], sys.eig_lam ** k if stable else 1.0 / sys.eig_mu ** k)[..., ::-1]
    y = np.empty(sweep.z.shape)
    y[..., 0, :] = y0
    y[..., 1:, :] = sys.leaf_point((sweep.zp if stable else sweep.z)[..., 1:, :], t - c, stable)
    return y


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
    found = {}
    y0_star = sys.intersect("cu", y0_s, "s", y0_u, cap, errors=found)
    y0_star_prime = sys.intersect("cs", y0_u, "u", y0_s, cap, errors=found)
    for r, exc in found.items():
        errors.setdefault(r, ConstructionError(f"splice intersection failed at index 0: {exc}"))
    return y0_star, y0_star_prime


def _sub_range(n_min: int, n_max: int, k: int) -> tuple:
    """(M_min, M_max): the subsampled indices m with m k inside the window."""
    return -((-n_min) // k), n_max // k


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


class _Anchors(NamedTuple):
    """The anchor stage of a batch: the resolved parameters, both sweeps,
    the half-orbit anchors y_0^u and y_0^s, the spliced y_0^* and
    (y_0^*)', and the first failure of every failed row."""

    params: ShadowingParams
    fsweep: _Sweep
    bsweep: _Sweep
    y0_u: np.ndarray
    y0_s: np.ndarray
    y0_star: np.ndarray
    y0_star_prime: np.ndarray
    errors: dict


def _anchor_stage(sys, orbit: PseudoOrbit, epsilon: float, params,
                  growth_step: int = 1) -> _Anchors:
    """Everything up to and including `splice`: check the parameters, the
    window and the defects, run both sweeps and both limit searches, and
    splice the anchors.  Every row failure of the construction is recorded
    here."""
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

    X_pos = pts[..., np.arange(M_max + 1) * k - orbit.n_min, :]
    X_neg = pts[..., -np.arange(-M_min + 1) * k - orbit.n_min, :]
    fsweep = _sweep(sys, X_pos, params, errors, stable=False)
    y0_u, _ = forward_limit(sys, fsweep, params, errors, growth_step)
    bsweep = _sweep(sys, X_neg, params, errors, stable=True)
    y0_s, _ = backward_limit(sys, bsweep, params, errors, growth_step)
    y0_star, y0_star_prime = splice(sys, y0_u, y0_s, params, errors)
    return _Anchors(params, fsweep, bsweep, y0_u, y0_s, y0_star, y0_star_prime, errors)


def _half(sys, st: _Anchors, stable: bool):
    """One half's guides, (..., n + 1, 3) with its anchor at index 0, and
    its subsampled y*_m, (..., n, 3), both indexed by |m|.

    Forward the guides are y_m^u; backward, y_m^s = F^-1((y_{m+1}^s)'),
    which lies over the base of (y_m^s)', so only its fiber is computed.
    y*_m is the point on the leaf of y_m that F (F^-1) contracts, at the
    offset of y_0^* ((y_0^*)') from y_0^u (y_0^s) times lam^(k m) (mu^(k m)).
    """
    k = st.params.k
    if stable:
        primed = _propagate(sys, st.bsweep, st.y0_s, k, stable=True)
        guides = primed.copy()
        guides[..., 1:, 2] = _iterate(sys, primed[..., :-1, :], k, inverse=True)[..., 2]
        anchor, star0, rate = st.y0_s, st.y0_star_prime, 1.0 / sys.eig_mu ** k
    else:
        guides = _propagate(sys, st.fsweep, st.y0_u, k, stable=False)
        anchor, star0, rate = st.y0_u, st.y0_star, sys.eig_lam ** k
    offset0 = sys.coeffs(minimal_displacement(anchor[..., :2], star0[..., :2]))[not stable]
    star = sys.leaf_point(guides[..., 1:, :],
                          offset0[..., None] * rate ** np.arange(1, guides.shape[-2]),
                          stable=not stable)
    return guides, star


def _trace_stage(sys, orbit: PseudoOrbit, st: _Anchors) -> ShadowingTrace:
    """The full-resolution trace from the anchor stage: both halves' guides
    and subsampled y*, the exact-step fill, y', motions and distances; the
    rows failed in `st.errors` are NaN."""
    k = st.params.k
    M_min, M_max = _sub_range(orbit.n_min, orbit.n_max, k)
    pts = orbit.points
    # Strong leaves are F-invariant: F^-1 maps the unstable leaf of
    # (y_{m+1}^s)' onto that of y_m^s, so each y*_m, m < 0 as m > 0, is one
    # leaf point off its own guide and the two halves mirror each other.
    y_u, star_pos = _half(sys, st, stable=False)
    y_s, star_neg = _half(sys, st, stable=True)
    star = np.concatenate([star_neg[..., ::-1, :], st.y0_star[..., None, :], star_pos], axis=-2)

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
    dist = torus_distance(pts, y_star)

    failed = sorted(st.errors)
    if failed:
        for arr in (y_star, y_prime, motions, dist, y_u, y_s):
            arr.reshape((-1,) + arr.shape[pts.ndim - 2:])[failed] = np.nan
    return ShadowingTrace(
        n_min=orbit.n_min, n_max=orbit.n_max, y_star=y_star, y_prime=y_prime,
        center_motions=motions, trace_dist=dist, params=st.params,
        y_u={m: y_u[..., m, :] for m in range(M_max + 1)},
        y_s={-j: y_s[..., j, :] for j in range(-M_min + 1)},
        model_name=orbit.model_name,
    )


def shadow_batch(sys: SkewModel, orbit: PseudoOrbit, epsilon: float,
                 params: ShadowingParams = None, growth_step: int = 1):
    """Quasi-shadow a stack of pseudo-orbits over one window in one pass.

    `orbit.points` is a stack (B, N, 3) or one orbit (N, 3).  Subsample by
    k, run the three-stage construction on all rows at once, fill the
    intermediate indices with exact map steps, so center motions
    concentrate at multiples of k.  Every row's forward defect must be
    within params.delta and its backward defect within lip_f_inv *
    params.delta.  This is the anchor stage (`_anchor_stage`, which ends
    at `splice`) followed by the trace stage (`_trace_stage`).

    Returns (trace, failures): the trace arrays carry the batch axis of
    the input, if any, and `failures` lists (row, exception) pairs, by row,
    for the rows that failed a check (ParameterError, ConstructionError or
    InsufficientWindowError, with the stage and index in the message);
    those rows are NaN in the trace and never stop the others.
    """
    st = _anchor_stage(sys, orbit, epsilon, params, growth_step)
    trace = _trace_stage(sys, orbit, st)
    return trace, [(r, st.errors[r]) for r in sorted(st.errors)]


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
    constructor.  A window with no interior index raises ParameterError.
    """
    lo, hi = trace.interior
    lo = max(lo, orbit.n_min + 1)
    if hi < lo:
        raise ParameterError(f"window [{trace.n_min}, {trace.n_max}] has no interior index "
                             f"to verify for power k = {trace.k}")
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
    distances as written and the parameters from the header.  The interior
    follows from the window and k; an `interior` header is ignored."""
    header, (n_min, n_max), arr = read_table(path, 9)
    # points in [0, 1), motion and distance finite; NaN fails both tests
    bad = ~(arr[:, 1:7] >= 0.0) | ~(arr[:, 1:7] < 1.0)
    bad = bad.any(axis=1) | ~np.isfinite(arr[:, 7:]).all(axis=1)
    if bad.any():
        raise ValueError(f"trace file {path} row {int(arr[bad][0, 0])} has a non-finite "
                         f"or out-of-[0, 1) value")
    return ShadowingTrace(
        n_min=n_min, n_max=n_max, y_star=arr[:, 1:4].copy(), y_prime=arr[:, 4:7].copy(),
        center_motions=arr[:, 7].copy(), trace_dist=arr[:, 8].copy(),
        params=_params_from_header(header, f"trace file {path}"),
        model_name=header.get("model", "unknown"),
    )
