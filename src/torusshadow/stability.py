"""Topological quasi-stability: sampled semiconjugacy for a perturbed map.

For g C0-close to f, every g-orbit is a pseudo-orbit of f, so the
quasi-shadowing engine assigns to each point x the anchor pi(x) = y*_0 of
the sequence tracing the g-orbit of x.  Along the center fibration this
yields the intertwining pi(g(x)) = tau_x(f(pi(x))) with tau_x the signed
fiber motion at the next step.  pi is sampled on a regular lattice; the
reports below check the intertwining identity by recomputation, estimate a
continuity modulus, test epsilon-density of the image as the surjectivity
proxy, and probe plaque expansiveness on pairs of center-pseudo-orbits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import fiber_displacement, torus_distance, wrap
from .models import SkewModel, _is_positive_int
from .orbits import PerturbedMap, _kicked_window, from_map, write_table
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
    "continuity_report",
    "surjectivity_density",
    "plaque_expansiveness_probe",
    "write_semiconjugacy",
]

# Gate of `check_identity` on both sides of the intertwining identity.
IDENTITY_TOL = 1e-8


@dataclass
class SemiConjugacy:
    """pi and tau sampled on a regular lattice, with per-node residuals."""

    grid_res: tuple
    nodes: np.ndarray        # (N, 3) lattice points
    pi: np.ndarray           # (N, 3) pi(x) = y*_0 of the g-orbit's construction
    pi_g: np.ndarray         # (N, 3) pi(g(x)) = y*_1 of the same construction
    tau: np.ndarray          # (N,) signed center motion from f(pi(x)) to pi(g(x))
    residual: np.ndarray     # (N,) recomputed identity residual
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
    pi_g, tau and residual NaN.  The report's arrays own their data.
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
    pi_g = fp if params.k > 1 else _half(sys, st, stable=False)[1][:, 0, :].copy()
    tau = fiber_displacement(fp[:, 2], pi_g[:, 2]).copy()   # a view of its result otherwise
    # the identity residual's fiber term, |gap - tau|, is 0 by this tau
    residual = torus_distance(fp[:, :2], pi_g[:, :2])
    pi = st.y0_star.copy()
    failed = sorted(st.errors)
    for arr in (pi, pi_g, tau, residual):
        arr[failed] = np.nan
    return SemiConjugacy(grid_res=tuple(int(n) for n in grid), nodes=nodes, pi=pi,
                         pi_g=pi_g, tau=tau, residual=residual, window=int(N), params=params,
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
    construction; this recomputes it but does not test it independently.
    For k >= 2 it is exact: pi_g = f(pi) and tau = 0, so both residuals
    are 0, which is why the criterion-9 acceptance test prints a zero
    residual.  `g` is accepted but not read:
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
class ContinuityReport:
    max_ratio_per_axis: tuple
    median_ratio: float
    histogram: list            # (edge_lo, edge_hi, count) triples
    anomalies: list            # flat node indices with an incident ratio > 10x median

    def summary(self) -> str:
        axes = " ".join(f"{r:.4g}" for r in self.max_ratio_per_axis)
        return (f"continuity: max_ratio_per_axis=[{axes}] median={self.median_ratio:.4g} "
                f"anomalies={len(self.anomalies)}")


def continuity_report(sc: SemiConjugacy) -> ContinuityReport:
    """Difference-quotient table d(pi(x), pi(x')) / d(x, x') over grid edges.

    Qualitative by design: no PASS/FAIL, but any ratio above 10x the median
    flags its incident nodes as anomalies.
    """
    grid = tuple(sc.grid_res)
    if min(grid) < 8:
        raise ValueError("continuity_report needs grid resolution >= 8 per axis")
    nodes, pi = sc.nodes.reshape(grid + (3,)), sc.pi.reshape(grid + (3,))
    flat = np.arange(sc.nodes.shape[0]).reshape(grid)
    edges = []   # (ratio, node, neighbour) per axis; a NaN pi drops its edges
    for axis in range(3):
        ratio = (torus_distance(pi, np.roll(pi, -1, axis))
                 / torus_distance(nodes, np.roll(nodes, -1, axis))).ravel()
        keep = ~np.isnan(ratio)
        edges.append((ratio[keep], flat.ravel()[keep], np.roll(flat, -1, axis).ravel()[keep]))
    all_ratios = np.concatenate([r for r, _, _ in edges])
    med = float(np.median(all_ratios)) if all_ratios.size else 0.0
    hot = np.zeros(flat.size, dtype=bool)
    if med > 0.0:
        for r, a, b in edges:
            over = r > 10.0 * med
            hot[a[over]] = True
            hot[b[over]] = True
    hist, bin_edges = np.histogram(all_ratios, bins=10)
    histogram = [(float(bin_edges[i]), float(bin_edges[i + 1]), int(hist[i]))
                 for i in range(len(hist))]
    return ContinuityReport(
        max_ratio_per_axis=tuple(float(np.max(r, initial=0.0)) for r, _, _ in edges),
        median_ratio=med, histogram=histogram,
        anomalies=np.flatnonzero(hot).tolist())


@dataclass
class SurjectivityReport:
    density_gap: float
    sup_pi_id: float
    epsilon: float
    grid_spacing: float
    resolution_sufficient: bool
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = "" if self.resolution_sufficient else " (grid spacing exceeds epsilon)"
        return (f"{status} surjectivity: density_gap={self.density_gap:.6e} "
                f"sup_d(pi,id)={self.sup_pi_id:.6e} epsilon={self.epsilon:g}{note}")


def surjectivity_density(sc: SemiConjugacy, epsilon: float) -> SurjectivityReport:
    """Empirical surjectivity proxy: the pi-image is epsilon-dense and pi
    stays within epsilon of the identity.  With every node failed the image
    is empty and the gap is inf."""
    ok = ~np.isnan(sc.pi[:, 0])
    image = sc.pi[ok]
    gap = 0.0
    # nearest pi-image for every grid node, chunked pairwise distances
    for start in range(0, sc.nodes.shape[0], 256):
        block = sc.nodes[start:start + 256]
        dist = torus_distance(block[:, None, :], image[None, :, :])
        gap = max(gap, float(np.max(np.min(dist, axis=1, initial=math.inf))))
    spacing = max(1.0 / r for r in sc.grid_res)
    sufficient = spacing <= epsilon
    sup = sc.sup_pi_id
    return SurjectivityReport(density_gap=gap, sup_pi_id=sup, epsilon=epsilon,
                              grid_spacing=spacing, resolution_sufficient=sufficient,
                              passed=(gap < epsilon and sup < epsilon))


# -- plaque expansiveness probe -------------------------------------------------


@dataclass
class ProbeTrial:
    kind: str
    max_pair_distance: float
    base_mismatch: float
    separation_steps: int = -1
    predicted_steps: int = -1
    conforms: bool = True


@dataclass
class ProbeReport:
    eta: float
    trials: list
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        n_adv = sum(1 for t in self.trials if t.kind == "adversarial")
        return (f"{status} plaque-expansiveness probe: eta={self.eta:g} "
                f"trials={len(self.trials)} adversarial={n_adv}")


def _center_pseudo_orbit(sys: SkewModel, p0, z0: float, half: int, jitter, rng):
    """Orbit with exact base dynamics and fiber jitter <= eta per step."""
    kicks = np.zeros((2 * half, 3))
    kicks[:, 2] = jitter * (2.0 * rng.random(2 * half) - 1.0)
    return _kicked_window(sys, (p0[0], p0[1], z0), (-half, half), kicks)


def plaque_expansiveness_probe(sys: SkewModel, eta: float, trials: int, seed: int,
                               half_window: int = 30) -> ProbeReport:
    """Probe the two sides of plaque expansiveness on the model family.

    Conforming trials: two center-pseudo-orbits over the same exact base
    orbit with independent fiber jitter; their base coordinates must agree
    within 1e-8 at every index (the concrete form of lying in common
    center plaques).  Adversarial trials: base points offset by 2*eta are
    never an eta-close pair and must separate past a fixed macroscopic
    threshold within ceil(log(threshold / 2 eta) / log(mu)) + 3 steps.
    An eta at or above threshold / 2 (a pair already apart at step 0) or a
    half window shorter than the prediction cannot show the separation and
    raises ParameterError before any trial.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    rng = np.random.default_rng(seed)
    threshold = 0.05
    if not eta < threshold / 2.0:
        raise ParameterError(
            f"eta = {eta:g} must be below threshold / 2 = {threshold / 2.0:g}: adversarial "
            f"pairs start 2 eta apart, already past the separation threshold")
    predicted = math.ceil(math.log(threshold / (2.0 * eta)) / math.log(abs(sys.eig_mu))) + 3
    if predicted > half_window:
        raise ParameterError(
            f"half window {half_window} is shorter than the {predicted} steps an "
            f"adversarial pair at eta = {eta:g} is predicted to take to separate")
    out = []
    passed = True
    for _ in range(trials):
        p0 = rng.random(2)
        z0 = rng.random()
        a = _center_pseudo_orbit(sys, p0, z0, half_window, eta, rng)
        b = _center_pseudo_orbit(sys, p0, z0, half_window, eta, rng)
        dmax = float(np.max(torus_distance(a, b)))
        base_mismatch = float(np.max(torus_distance(a[:, :2], b[:, :2])))
        conforms = base_mismatch < 1e-8
        passed &= conforms
        out.append(ProbeTrial("same-base", dmax, base_mismatch, conforms=conforms))

        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        q0 = wrap(p0 + 2.0 * eta * direction)
        c = _center_pseudo_orbit(sys, q0, z0, half_window, eta, rng)
        # separation after s steps: the pair's larger gap at indices +s and -s
        apart = np.maximum(torus_distance(a[half_window:], c[half_window:]),
                           torus_distance(a[half_window::-1], c[half_window::-1])) > threshold
        sep = int(np.argmax(apart)) if apart.any() else -1
        conforms = 0 <= sep <= predicted
        passed &= conforms
        out.append(ProbeTrial("adversarial", dmax, base_mismatch,
                              separation_steps=sep, predicted_steps=predicted,
                              conforms=conforms))
    return ProbeReport(eta=eta, trials=out, passed=passed)


# -- semiconjugacy files ----------------------------------------------------------


def write_semiconjugacy(sc: SemiConjugacy, path, model_name: str = "",
                        perturbation: str = "") -> None:
    """One row per lattice node: i1 i2 i3, pi, tau, identity residual."""
    header = {"model": model_name or sc.model_name, "perturbation": perturbation,
              "grid": " ".join(str(n) for n in sc.grid_res), "half_length": sc.window,
              **asdict(sc.params)}
    index = np.indices(sc.grid_res).reshape(3, -1).T
    write_table(path, header, np.column_stack([index, sc.pi, sc.tau, sc.residual]))
