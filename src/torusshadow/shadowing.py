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
sweep included, is an array operation along time.  `shadow_batch` is an
anchor stage (checks, sweep, limits and splice: y*_0 and every row
failure) followed by a trace stage (`_half` for the guides and the
subsampled y*, then the fill); the semiconjugacy runs the anchor stage
alone.  A row that fails a check is recorded in the batch's `errors` dict
with the stage and index and the other rows carry on; only `quasi_shadow`
raises a row's failure.  The two halves mirror each other in time and are
independent until the splice, so they run as one array pass: stacked on a
leading axis of length 2, forward first, they go through one sweep
(`_sweep`) and one guide recursion and correction step (`_half`), with the
leaf class as a per-row bool `stable`, the backward half's swapped against
the forward one's: the one bit names the rate, A or A^-1, the leaf
`leaf_point` builds and the pair `intersect` solves.
The shorter half of an asymmetric window is padded at its far end, inertly.
Only the certified limits (`forward_limit`, `backward_limit`) run per half,
on views cut to each half's length.  Strong leaves are graphs over the base
and F moves a base by A^k alone, so the sweep runs on bases and leaf
offsets; the transfer series runs for the limits, the splice, the checks a
slope bound cannot clear, and once for all three leaf moves of `_half`.

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

from .geometry import minimal_displacement, torus_distance, wrap
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


# Gate of `verify` on the recomputed base residuals.
RESIDUAL_TOL = 1e-9

# The certified distance below which a half-orbit anchor's window limit
# must settle (`forward_limit`); `ShadowingParams.limit_tol` records it.
LIMIT_TOL = 1e-12


class ParameterError(ValueError):
    """Shadowing parameters infeasible (epsilon too large, defect too big, ...)."""


class InsufficientWindowError(RuntimeError):
    """The window is too short to certify a half-orbit anchor: the tail
    bound at the window end is not below limit_tol."""


class ConstructionError(RuntimeError):
    """A leaf intersection failed inside the construction."""


@dataclass(frozen=True)
class ShadowingParams:
    """Resolved parameters of one shadowing run: the choices
    `delta_for_epsilon` makes from epsilon and the model's constants
    (`SkewModel.L0`, `delta0`, `delta1`, `lam_eff`, `lip_f`, `lip_f_inv`),
    which stay on the model.

    `delta` is the admissible defect of the input orbit (forward defect;
    backward defects up to lip_f_inv * delta are provisioned for).
    `delta_step` is the defect bound the subsampled construction works
    with; delta = delta_step / max(sum lip_f^j, sum lip_f_inv^j), which
    realizes the smaller-delta remark needed for the backward half.
    lam_k = lam_eff^k is F = f^k's leaf rate, in which the four
    inequalities are stated.  (r1, r2, alpha) are the holonomy modulus
    data: points within r2 on a transversal map within alpha under center
    holonomy inside plaques of radius r1.  alpha = 0.45 epsilon / 3 is
    linear in epsilon, with a 2x margin against the epsilon / 3 cap the
    construction needs, and r2 carries the transfer-slope factor so that
    the sampled modulus certificate d(h(z), h(z')) < alpha for d(z, z') < r2
    passes.
    """

    epsilon: float
    delta: float
    alpha: float
    r1: float
    r2: float
    k: int
    limit_tol: float
    lam_k: float
    delta_step: float

    def margins(self, sys: SkewModel) -> dict:
        """Safety margins (ratio RHS/LHS) of the four inequalities, at sys.L0."""
        eps, L0 = self.epsilon, sys.L0
        return {
            "contraction": 1.0 / (2.0 * self.lam_k * L0),
            "defect": (eps / 3.0) / (self.delta * (1.0 + 2.0 * L0 + 2.0 * self.lam_k * L0)),
            "holonomy_radius": self.r2 / (self.lam_k * (2.0 * L0 * self.delta + self.alpha)),
            "alpha": (eps / 3.0) / self.alpha,
        }


def delta_for_epsilon(sys: SkewModel, epsilon: float) -> ShadowingParams:
    """Admissible defect and construction parameters for a tracing accuracy.

    Selects the smallest power k with 2 lam^k L0 < 1/2, sizes the holonomy
    data (see ShadowingParams), and returns delta as half the largest
    value compatible with the defect and holonomy-radius inequalities,
    divided by the worst subsampling/backward accumulation factor.
    Raises ParameterError naming the violated bound when epsilon exceeds
    the validity radii, and naming epsilon when it is not positive and
    finite.
    """
    if not 0.0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon!r}")
    lam = sys.lam_eff
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
    workspace = min(L0 * sys.delta0, sys.delta1)
    if extent >= workspace:
        raise ParameterError(
            f"epsilon too large: plaque extent {extent:.4f} exceeds the validity "
            f"radius min(L0*delta0, delta1) = {workspace:.4f}"
        )

    acc_fwd = sum(sys.lip_f ** j for j in range(k))
    acc_bwd = sum(sys.lip_f_inv ** j for j in range(1, k + 1))
    delta = delta_step / max(acc_fwd, acc_bwd)

    return ShadowingParams(
        epsilon=epsilon, delta=delta, alpha=alpha, r1=r1, r2=r2, k=k,
        limit_tol=LIMIT_TOL, lam_k=lam_k, delta_step=delta_step,
    )


# -- the power F = f^k and its leaves ------------------------------------------
#
# The construction runs on F = f^k, k = params.k.  Its invariant leaves are
# those of f, so every leaf operation stays on `sys`, and base offsets along
# v_s (v_u) contract under F (F^-1) by lam^k (mu^-k), the signed eigenvalues
# of the k-th matrix power.


def _iterate(sys, x, k: int, inverse=False):
    """F(x), or F^-1(x) when `inverse`: k steps of f (or f^-1).

    Base points (..., 2) take k wrapped steps of A or A^-1 alone, the bits of
    the full step's base columns, and there `inverse` may also be a bool
    array broadcasting over the rows, one direction per row."""
    if x.shape[-1] == 2:
        M = np.where(np.asarray(inverse)[..., None, None], sys.A_inv, sys.A).astype(float)
        a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
        for _ in range(k):
            out = np.empty(x.shape)
            out[..., 0] = a * x[..., 0] + b * x[..., 1]
            out[..., 1] = c * x[..., 0] + d * x[..., 1]
            x = wrap(out)
        return x
    step = sys.apply_inverse if inverse else sys.apply
    for _ in range(k):
        x = step(x)
    return x


def _scan(x, rate):
    """x_i + rate x_{i-1} + rate^2 x_{i-2} + ... along the last axis: the
    solution of t_i = x_i + rate t_{i-1}, t_{-1} = 0, in log2(n) array passes.
    `rate` is a float or an array of them broadcasting over the rows; its
    powers are taken in Python floats, which numpy's array power can round
    differently."""
    x = np.array(x, dtype=float)
    shifts = [2 ** j for j in range((x.shape[-1] - 1).bit_length())]
    rates = np.ravel(rate).tolist()
    powers = np.array([[r ** s for r in rates] for s in shifts])
    for s, power in zip(shifts, powers.reshape((len(shifts),) + np.shape(rate))):
        x[..., s:] += power * x[..., :-s]
    return x


# -- the sweep ------------------------------------------------------------------


class _Sweep(NamedTuple):
    """The sweep over a stack of subsampled halves.

    X is (..., n+1, 3) with index 0 holding X_0; `offset` and `coef` are
    (..., n+1), 0 at index 0.  `offset` places the recursive point (z_i
    forward, z'_{-j} backward) on the strong leaf of X_i that F (F^-1)
    contracts; forward, c_i is the unstable offset of z_i from F(z_{i-1});
    backward, d_j is the stable offset of z_{-j} from its anchor
    F^-1(z'_{-j+1}).  `_half` builds the one fibered point read.
    """

    X: np.ndarray
    offset: np.ndarray
    coef: np.ndarray

    def half(self, h: int, n: int) -> "_Sweep":
        """Half h of a sweep stacked on a leading axis, cut to its n + 1
        indices."""
        return _Sweep(self.X[h, ..., :n + 1, :], self.offset[h, ..., :n + 1],
                      self.coef[h, ..., :n + 1])


def _sweep(sys, X, params, errors, stable, n=None) -> _Sweep:
    """z/z' sweep over subsampled halves, all rows and indices at once.

    `stable` is False for a forward half, True for a backward one, or a
    bool array broadcasting over the rows of X (..., n+1, 3), one side per
    row: the stacked forward and backward halves run as one pass.  Forward,
    X[..., i, :] = X_i and the anchor is a = F(z_{i-1}); backward,
    X[..., j, :] = X_{-j} and a = F^-1(z'_{-j+1}).  Each index meets both
    leaf pairs (see `intersect`): the recursive point, on X_i's strong leaf
    that F (F^-1) contracts, is `intersect(a, X_i, ~stable)`, and the
    other, on a's other strong leaf, `intersect(X_i, a, stable)`; forward
    they are z_i and z'_i, backward z'_{-j} and z_{-j}.  The coefficient is
    the offset of z from a along the leaf the half moves along (unstable
    forward, stable backward).  A row whose half is shorter than X is
    padded past its length `n` (an array broadcasting like `stable`): its
    padded indices get defect coefficient, offset and coef 0 and record no
    failure.

    Every strong leaf is a graph over the base and F moves a base point by
    A^k alone, so the sweep runs on base points and leaf offsets: no phi,
    and a series only for the checks `intersect`'s slope bound leaves open.
    The recursive point lies on the strong leaf of X_i that F contracts
    (F^-1 backward) at offset t_i = e_i + rate t_{i-1}, e_i the leaf
    coefficient of the defect F(X_{i-1}) -> X_i: one `_scan` gives every
    anchor base, and both intersections are rebuilt from their anchors and
    checked.  A row's first failure is recorded in `errors`, keyed by the
    row's index among the flattened leading axes of X, as a
    ConstructionError naming the index.  Up to it, scanned and rebuilt
    anchors agree: a defect under delta0 is far inside the lift-unambiguous
    range, and a zeroed one leaves its pair beyond the L0 * radius caps.
    """
    k = params.k
    stable = np.asarray(stable)
    base = X[..., :2]
    image, X1 = _iterate(sys, base[..., :-1, :], k, inverse=stable), base[..., 1:, :]
    live = True if n is None else np.arange(1, X.shape[-2]) <= np.asarray(n)
    cu, cs = sys.coeffs(minimal_displacement(image, X1))
    # A pair at least delta0 apart gets offset 0, as in `intersect`.
    e = np.where(live & (torus_distance(image, X1) < sys.delta0),
                 -np.where(stable, cu, cs), 0.0)
    t = _scan(e, np.where(stable, 1.0 / sys.eig_mu ** k, sys.eig_lam ** k))
    v = np.where(stable[..., None], sys.v_u, sys.v_s)
    src = base[..., :-1, :].copy()
    src[..., 1:, :] += t[..., :-1, None] * v
    radius = np.full(e.shape, 2.0 * params.delta_step)
    radius[..., 0] = params.delta_step
    found = ({}, {})    # the first and the second intersection's failures
    offset = np.zeros(X.shape[:-1])
    offset[..., 1:] = np.where(live, sys.intersect(
        _iterate(sys, wrap(src), k, inverse=stable), X1, ~stable, radius, errors=found[0]), 0.0)
    rec = wrap(base + offset[..., None] * v)    # the recursive points' bases, as leaf_point's
    a = _iterate(sys, rec[..., :-1, :], k, inverse=stable)
    t_other = sys.intersect(X1, a, stable, radius, errors=found[1])
    for r in sorted(found[0].keys() | found[1].keys()):
        at = np.unravel_index(r, e.shape)
        if not np.broadcast_to(live, e.shape)[at]:
            continue
        side = int(np.broadcast_to(stable, e.shape)[at])
        # where both fail, z's failure names the pair: the first forward, the second backward
        exc = found[side].get(r) or found[1 - side][r]
        i = at[-1] + 1
        errors.setdefault(r // e.shape[-1], ConstructionError(
            f"{'backward' if side else 'forward'} sweep failed at index "
            f"{-i if side else i}: {exc}"))
    # z's base as its leaf_point builds it: on X_i's stable leaf forward, a's backward
    z = np.where(stable[..., None], wrap(a + t_other[..., None] * sys.v_s), rec[..., 1:, :])
    cu, cs = sys.coeffs(minimal_displacement(a, z))
    coef = np.zeros(X.shape[:-1])
    coef[..., 1:] = np.where(live, np.where(stable, cs, cu), 0.0)
    return _Sweep(X, offset, coef)


# -- half-orbit anchors -------------------------------------------------------


def _limit(sys, sweep, params, errors, stable: bool):
    """The full-window anchor of each row and its certified depth (see
    forward_limit)."""
    tol = params.limit_tol
    rate = sys.eig_lam ** params.k if stable else 1.0 / sys.eig_mu ** params.k
    n_max = sweep.coef.shape[-1] - 1
    # The transfer runs well below limit_tol, so its truncation stays far
    # inside the certified distance.
    offset = np.sum(rate ** np.arange(n_max + 1) * sweep.coef, axis=-1)
    anchor = sys.leaf_point(sweep.X[..., 0, :], offset, stable,
                            tol=min(sys.series_tol, 1e-3 * tol))
    # Bound on d(y_{0,n}, limit) for n = 1..n_max: the offset tail past n
    # times the leaf's slope factor.
    scale = (np.max(np.abs(sweep.coef), axis=-1, keepdims=True)
             * math.sqrt(1.0 + sys.leaf_slope_s ** 2) / (1.0 - abs(rate)))
    bound = abs(rate) ** np.arange(2, n_max + 2) * scale
    certified = bound < tol
    tail = np.atleast_1d(bound[..., -1])
    side = "backward" if stable else "forward"
    _flag_rows(errors, InsufficientWindowError, ((
        ~certified[..., -1],
        lambda r: (f"{side} anchor tail bound {tail[r]:.3e} not below limit_tol "
                   f"{tol:.3e} within the window (n <= {n_max})")),))
    # The bound falls with n, so the uncertified n come first.
    return anchor, (np.sum(~certified, axis=-1) + 1)[()]


def forward_limit(sys, sweep: _Sweep, params, errors):
    """The anchor y_0^u on W^u(X_0): the limit of the window anchors y_{0,n},
    taken at the full window and certified by its tail bound.

    `sweep` is the forward sweep of one subsampled half X_0..X_n, (n+1, 3)
    or a stack (B, n+1, 3).  The anchor is the unstable-leaf point of X_0 at
    offset sum_{i<=n} mu^(-k i) c_i, one series call for all rows.  Past
    window length m that offset changes by at most |mu|^(-k (m+1)) max|c_i|
    / (1 - |mu|^-k), and the point by sqrt(1 + leaf_slope_s^2) times that
    (an a-posteriori bound in the sense of Coomes, Kocak and Palmer).
    Returns (anchor, depth): depth, one per row, is the smallest m >= 1
    whose bound is below limit_tol.  A row whose bound at m = n is not,
    depth n + 1, is recorded in `errors` as an InsufficientWindowError.
    """
    return _limit(sys, sweep, params, errors, stable=False)


def backward_limit(sys, sweep: _Sweep, params, errors):
    """The anchor y_0^s on W^s(X_0), from the backward sweep
    (X[..., j, :] = X_{-j}) with the stable leaf and rate lam^k; otherwise
    as forward_limit.
    """
    return _limit(sys, sweep, params, errors, stable=True)


# -- splice and full pipeline --------------------------------------------------


def splice(sys, y0_u, y0_s, params, errors):
    """Close the two half-orbit anchors into y_0^* and (y_0^*)', row by row.

    y_0^* is `intersect(y_0^s, y_0^u, True)`, on the stable leaf of y_0^u
    and the cu leaf of y_0^s, and (y_0^*)' is `intersect(y_0^u, y_0^s,
    False)`, the cs/unstable point; both share a base point, so the step
    from (y_0^*)' to y_0^* is purely along the center fiber.  Both run as
    one stacked pass; a failing row is recorded in `errors`, by y_0^*'s
    failure where both fail.
    """
    gap = np.atleast_1d(torus_distance(y0_u, y0_s))
    cap = 2.0 * params.lam_k * (sys.L0 * params.delta_step + params.alpha)
    _flag_rows(errors, ParameterError, ((
        ~(gap < cap),
        lambda r: (f"splice margin violated at index 0: d(y0_s, y0_u) = {gap[r]:.3e} >= "
                   f"2 lam^k (L0 delta + alpha) = {cap:.3e}")),))
    x, y, stable = np.array([y0_s, y0_u]), np.array([y0_u, y0_s]), ~_sides(np.ndim(y0_u))
    found = {}
    t = sys.intersect(x, y, stable, cap, errors=found)
    for r in sorted(found):
        errors.setdefault(r % gap.size, ConstructionError(
            f"splice intersection failed at index 0: {found[r]}"))
    return tuple(sys.leaf_point(y, t, stable))


def _sub_range(n_min: int, n_max: int, k: int) -> tuple:
    """(M_min, M_max): the subsampled indices m with m k inside the window."""
    return -((-n_min) // k), n_max // k


@dataclass
class ShadowingTrace:
    """Full output of a quasi-shadowing run, at original resolution.

    y* is the one array stored: f(y*_{k-1}), the center motions and the
    tracing distances are functions of it and the orbit, which `verify`
    recomputes.  The shapes below are for one orbit; a trace of a stack of
    orbits has a leading batch axis on every array.
    """

    n_min: int
    n_max: int
    y_star: np.ndarray          # (N, 3)
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


def _check_defects(sys, orbit: PseudoOrbit, params: ShadowingParams, errors) -> None:
    """Flag rows whose forward defect exceeds params.delta or whose backward
    defect exceeds lip_f_inv * params.delta (the accounting delta_for_epsilon
    provisions for); a NaN defect fails too."""
    slack = 1.0 + 1e-9
    fwd, bwd = (d.reshape(-1, d.shape[-1]) for d in defects(sys, orbit))
    rows = np.arange(fwd.shape[0])
    at_f, at_b = np.argmax(fwd, axis=1), np.argmax(bwd, axis=1)
    worst_f, worst_b = fwd[rows, at_f], bwd[rows, at_b]
    bound_b = params.delta * sys.lip_f_inv
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
    """The anchor stage of a batch: the resolved parameters, the sweep of
    both halves stacked on a leading axis (forward first, the shorter half
    padded), the half-orbit anchors y_0^u and y_0^s, the spliced y_0^* and
    (y_0^*)', and the first failure of every failed row."""

    params: ShadowingParams
    sweep: _Sweep
    y0_u: np.ndarray
    y0_s: np.ndarray
    y0_star: np.ndarray
    y0_star_prime: np.ndarray
    errors: dict


def _sides(ndim: int) -> np.ndarray:
    """`stable` of the two stacked halves, forward then backward, shaped to
    broadcast over the other ndim - 1 axes of their rows and indices."""
    return np.array([False, True]).reshape((2,) + (1,) * (ndim - 1))


def _anchor_stage(sys, orbit: PseudoOrbit, epsilon: float, params) -> _Anchors:
    """Everything up to and including `splice`: check the parameters, the
    window and the defects, run the sweep of both halves and both limits,
    and splice the anchors.  Every row failure of the construction is
    recorded here, in the order forward sweep, forward limit, backward
    sweep, backward limit, splice."""
    if params is None:
        params = delta_for_epsilon(sys, epsilon)
    elif params.epsilon != epsilon:
        raise ParameterError(f"params were resolved for epsilon = {params.epsilon!r}, "
                             f"not {epsilon!r}")
    k = params.k
    M_min, M_max = _sub_range(orbit.n_min, orbit.n_max, k)
    if M_max < 3 or M_min > -3:
        raise ParameterError(
            f"window [{orbit.n_min}, {orbit.n_max}] must contain index 0 and at least 3 "
            f"subsampled steps on each side, [{-3 * k}, {3 * k}] for power k = {k}")
    pts = orbit.points
    errors = {}
    _check_defects(sys, orbit, params, errors)

    # X_m and X_{-m} for m = 0..n, a shorter half repeating its far end
    m = np.array([[1], [-1]]) * np.arange(max(M_max, -M_min) + 1)
    at = np.minimum(np.maximum(m, M_min), M_max) * k - orbit.n_min
    X = np.array([pts[..., i, :] for i in at])
    stable, lengths = _sides(X.ndim - 1), (M_max, -M_min)
    swept = {}
    sweep = _sweep(sys, X, params, swept, stable, n=np.reshape(lengths, stable.shape))
    rows = math.prod(pts.shape[:-2])
    y0 = []
    for h, limit in enumerate((forward_limit, backward_limit)):
        for r in sorted(swept):
            if r // rows == h:
                errors.setdefault(r % rows, swept[r])
        y0.append(limit(sys, sweep.half(h, lengths[h]), params, errors)[0])
    y0_star, y0_star_prime = splice(sys, *y0, params, errors)
    return _Anchors(params, sweep, *y0, y0_star, y0_star_prime, errors)


def _half(sys, st: _Anchors):
    """Both halves' guides, (2, ..., n + 1, 3) with the anchors at index 0,
    and their subsampled y*_m, (2, ..., n, 3), forward then backward, each
    indexed by |m| (past its own length, the padding of `st.sweep`).

    Forward the guides are y_i^u = W^u(z_i) cap W^c(F(y_{i-1}^u)); backward,
    the same scan with the leaf and the rate swapped gives the primed guides
    (y_m^s)' on the stable plaque of z'_m, and y_m^s = F^-1((y_{m+1}^s)')
    lies over the base of (y_m^s)', so only its fiber is computed.  The
    guides' offsets from z_i (z'_m) solve t_i = t_{i-1} / rate - coef_i,
    rate = mu^-k (lam^k); the bounded solution, sum_{m>=1} rate^m coef_{i+m},
    is w_i - coef_i for w the `_scan` of coef run backward.  y*_m is the
    point on the leaf of y_m that F (F^-1) contracts, at the offset of y_0^*
    ((y_0^*)') from y_0^u (y_0^s) times lam^(k m) (mu^(k m)).

    The three moves, z off X, the guide off z and y* off the guide, are
    `leaf_point` moves, and a series reads bases and offsets alone: all bases
    come first, by `leaf_point`'s arithmetic, then one series call over the
    moves stacked on a leading axis (each row has its own call's bits), then
    the fibers.
    """
    k, sweep, stable = st.params.k, st.sweep, _sides(st.sweep.X.ndim - 1)
    anchor, star0 = np.array([st.y0_u, st.y0_s]), np.array([st.y0_star, st.y0_star_prime])
    c = sweep.coef[..., 1:]
    t = _scan(c[..., ::-1], np.where(stable, sys.eig_lam ** k, 1.0 / sys.eig_mu ** k))[..., ::-1]
    cu, cs = sys.coeffs(minimal_displacement(anchor[..., :2], star0[..., :2]))
    rate = np.where(stable, 1.0 / sys.eig_mu ** k, sys.eig_lam ** k)
    offsets = np.array([sweep.offset[..., 1:], t - c, np.where(stable, cu[..., None], cs[..., None])
                        * rate ** np.arange(1, sweep.X.shape[-2])])
    cls = np.array([~stable, stable, ~stable])    # z, the guide, y*
    leaf = sys._leaf[cls.astype(np.intp)]
    bases = [sweep.X[..., 1:, :2]]
    for i in range(3):
        bases.append(wrap(bases[-1] + offsets[i][..., None] * leaf[i]))
    h = sys._transfer_series(np.array(bases[:3]), offsets, cls)
    guides = np.empty(sweep.X.shape)
    guides[..., 0, :] = anchor
    guides[..., 1:, :2] = bases[2]
    guides[..., 1:, 2] = wrap(wrap(sweep.X[..., 1:, 2] + h[0]) + h[1])
    guides[1, ..., 1:, 2] = _iterate(sys, guides[1, ..., :-1, :], k, inverse=True)[..., 2]
    star = np.empty(guides[..., 1:, :].shape)
    star[..., :2] = bases[3]
    star[..., 2] = wrap(guides[..., 1:, 2] + h[2])
    return guides, star


def _trace_stage(sys, orbit: PseudoOrbit, st: _Anchors) -> ShadowingTrace:
    """The full-resolution trace from the anchor stage: both halves' guides
    and subsampled y*, then the exact-step fill; the rows failed in
    `st.errors` are NaN."""
    k = st.params.k
    M_min, M_max = _sub_range(orbit.n_min, orbit.n_max, k)
    pts = orbit.points
    # Strong leaves are F-invariant: F^-1 maps the unstable leaf of
    # (y_{m+1}^s)' onto that of y_m^s, so each y*_m, m < 0 as m > 0, is one
    # leaf point off its own guide and the two halves mirror each other.
    guides, star = _half(sys, st)
    y_u, y_s = guides[0, ..., :M_max + 1, :], guides[1, ..., :1 - M_min, :]
    star = np.concatenate([star[1, ..., -M_min - 1::-1, :], st.y0_star[..., None, :],
                           star[0, ..., :M_max, :]], axis=-2)

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

    failed = sorted(st.errors)
    if failed:
        for arr in (y_star, y_u, y_s):
            arr.reshape((-1,) + arr.shape[pts.ndim - 2:])[failed] = np.nan
    return ShadowingTrace(
        n_min=orbit.n_min, n_max=orbit.n_max, y_star=y_star, params=st.params,
        y_u={m: y_u[..., m, :] for m in range(M_max + 1)},
        y_s={-j: y_s[..., j, :] for j in range(-M_min + 1)},
        model_name=orbit.model_name,
    )


def shadow_batch(sys: SkewModel, orbit: PseudoOrbit, epsilon: float,
                 params: ShadowingParams = None):
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
    st = _anchor_stage(sys, orbit, epsilon, params)
    trace = _trace_stage(sys, orbit, st)
    return trace, [(r, st.errors[r]) for r in sorted(st.errors)]


def quasi_shadow(sys: SkewModel, orbit: PseudoOrbit, epsilon: float,
                 params: ShadowingParams = None) -> ShadowingTrace:
    """Full pipeline for one orbit: `shadow_batch` on an (N, 3) orbit.

    Raises the orbit's failure: ParameterError (defect or window), or
    ConstructionError / InsufficientWindowError from the construction.
    """
    if orbit.points.ndim != 2:
        raise ValueError("quasi_shadow takes one orbit; use shadow_batch for a stack")
    trace, failures = shadow_batch(sys, orbit, epsilon, params)
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
    """Recompute the quasi-shadowing contract from the orbit and y* alone.

    Per interior index, with `SkewModel.center_step` of y*_k against a fresh
    f(y*_{k-1}): tracing distance < epsilon, base gap < RESIDUAL_TOL, and
    center motion magnitude < epsilon.  Every gate is
    written as `not (value < bound)`, so a NaN fails it.  Shares no state
    with the constructor, and a trace stores nothing derived from y* for it
    to compare: an edit of y* fails exactly when the edited sequence breaks
    the contract, so a fiber edit below epsilon, which leaves another valid
    quasi-shadowing sequence, passes.  A window with no interior index
    raises ParameterError; a stack of orbits or traces, or a trace whose
    window is not the orbit's, a ValueError.
    """
    if orbit.points.ndim != 2 or trace.y_star.ndim != 2:
        raise ValueError("verify takes one orbit and its trace; verify a stack row by row")
    if (trace.n_min, trace.n_max) != (orbit.n_min, orbit.n_max):
        raise ValueError(f"trace window [{trace.n_min}, {trace.n_max}] is not the orbit's "
                         f"[{orbit.n_min}, {orbit.n_max}]")
    lo, hi = trace.interior
    if hi < lo:
        raise ParameterError(f"window [{trace.n_min}, {trace.n_max}] has no interior index "
                             f"to verify for power k = {trace.k}")
    q = np.arange(lo, hi + 1)
    i = q - trace.n_min
    y = trace.y_star[i]
    d = torus_distance(orbit.points[q - orbit.n_min], y)
    res, motion = sys.center_step(trace.y_star[i - 1], y)   # a NaN fails each gate it meets
    mot = np.abs(motion)
    failing = ~(d < epsilon) | ~(res < RESIDUAL_TOL) | ~(mot < epsilon)
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
    exactly; a power k below 1 is rejected."""
    missing = [f.name for f in fields(ShadowingParams) if f.name not in header]
    if missing:
        raise ValueError(f"{source} is missing parameter header(s): {', '.join(missing)}")
    params = ShadowingParams(**{f.name: (int if f.type == "int" else float)(header[f.name])
                                for f in fields(ShadowingParams)})
    if params.k < 1:
        raise ValueError(f"{source} has power k = {params.k}; k must be at least 1")
    return params


def write_trace(trace: ShadowingTrace, path, model_name: str = "") -> None:
    """One row per index: q and y*_q."""
    header = {"model": model_name or trace.model_name, **asdict(trace.params),
              "window": f"{trace.n_min} {trace.n_max}"}
    q = np.arange(trace.n_min, trace.n_max + 1)
    write_table(path, header, np.column_stack([q, trace.y_star]))


def read_trace(path) -> ShadowingTrace:
    """A trace written by `write_trace`: `q y1 y2 y3` rows, every coordinate
    finite and in [0, 1), and the parameters from the header.  The interior
    follows from the window and k; an `interior` header and an older file's
    model constants (L0, delta0, delta1, lip_f, lip_f_inv) are ignored."""
    header, (n_min, n_max), arr = read_table(path, 4)
    # NaN fails both tests
    bad = (~(arr[:, 1:] >= 0.0) | ~(arr[:, 1:] < 1.0)).any(axis=1)
    if bad.any():
        raise ValueError(f"trace file {path} row {int(arr[bad][0, 0])} has a non-finite "
                         f"or out-of-[0, 1) value")
    return ShadowingTrace(
        n_min=n_min, n_max=n_max, y_star=arr[:, 1:].copy(),
        params=_params_from_header(header, f"trace file {path}"),
        model_name=header.get("model", "unknown"),
    )
