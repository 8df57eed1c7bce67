"""Pseudo-orbit generation, validation, perturbed maps, and serialization."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from torusshadow import orbits
from torusshadow.geometry import minimal_displacement, torus_distance, wrap
from torusshadow.models import ModelError, SkewModel, TrigField, _norm, _trig_field
from torusshadow.orbits import (
    INVERSE_RESIDUAL_TOL,
    PerturbedMap,
    PseudoOrbit,
    _kicked_window,
    _wrapped_cumsum,
    from_map,
    generate_noisy,
    read_orbit,
    read_table,
    validate,
    write_orbit,
    write_table,
)
from torusshadow.shadowing import delta_for_epsilon, quasi_shadow, read_trace, write_trace
from torusshadow.stability import _lattice

from tests_helpers import reference_inverse, reference_trig_field

X0 = np.array([0.2, 0.35, 0.81])


def test_zero_delta_is_true_orbit(skew):
    orbit = generate_noisy(skew, X0, (-30, 30), 0.0, seed=1)
    fwd, bwd = validate(skew, orbit)
    assert fwd < 1e-13
    assert bwd < 1e-13


def test_seed_determinism(skew):
    a = generate_noisy(skew, X0, (-20, 20), 1e-4, seed=42)
    b = generate_noisy(skew, X0, (-20, 20), 1e-4, seed=42)
    assert np.array_equal(a.points, b.points)
    c = generate_noisy(skew, X0, (-20, 20), 1e-4, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_noise_norm_statistics(skew):
    # max defect over a 100-step window lands in [delta/10, delta] for
    # uniform ball noise (checked on several fixed seeds)
    for seed in range(5):
        orbit = generate_noisy(skew, X0, (0, 100), 1e-4, seed=seed)
        fwd, _ = validate(skew, orbit)
        assert 1e-5 <= fwd <= 1e-4


def test_backward_defect_bounded_by_mu(linear):
    # for the linear model Lip(f^-1) = mu exactly
    orbit = generate_noisy(linear, X0, (-50, 50), 1e-4, seed=9)
    fwd, bwd = validate(linear, orbit)
    assert fwd <= 1e-4
    assert bwd <= linear.rates.mu * 1e-4 * (1 + 1e-9)


def test_window_must_contain_zero(skew):
    with pytest.raises(ValueError):
        generate_noisy(skew, X0, (5, 30), 1e-4, seed=0)


@pytest.mark.parametrize("x0", [[0.2, np.nan, 0.8], [0.2, 0.35], [[0.2, 0.35, 0.81]]])
def test_start_must_be_three_finite_coordinates(skew, x0):
    with pytest.raises(ValueError, match=r"^x0 must be three finite coordinates, got "):
        generate_noisy(skew, x0, (-5, 5), 1e-4, seed=0)


def test_point_count_must_fill_the_window():
    with pytest.raises(ValueError, match=r"orbit window \[-5, 5\] needs 11 points, "
                                         r"got shape \(10, 3\)"):
        PseudoOrbit(-5, 5, np.full((10, 3), 0.5), 0.0)


# det -1 base with drift and one phi mode, next to the two builtin models
FLIP = {"matrix": [[-1, 1], [1, 0]], "omega": 0.03, "phi_modes": [(1, 0, 0.02, 0.0)]}


@pytest.fixture(params=["linear", "skew", "flip"])
def model(request):
    if request.param == "flip":
        return SkewModel(**FLIP)
    return request.getfixturevalue(request.param)


def test_noisy_defects_within_accounting_on_long_windows(model):
    # validate steps f and f^-1 one point at a time: an independent check of
    # the scalar base recursion and the wrapped fiber scan
    delta = 1e-4
    lip_f_inv = delta_for_epsilon(model, 1e-2).lip_f_inv
    for seed in range(5):
        orbit = generate_noisy(model, X0, (-1000, 1000), delta, seed=seed)
        fwd, bwd = validate(model, orbit)
        assert fwd <= delta * (1 + 1e-9)
        assert bwd <= lip_f_inv * delta * (1 + 1e-9)


def test_zero_delta_long_window_is_true_orbit(model):
    # the fiber scan reduces mod 1 at every pass: defects stay below 5e-15
    # here, where an unreduced cumulative sum reaches 3.4e-14 on skew
    orbit = generate_noisy(model, X0, (-2000, 2000), 0.0, seed=0)
    fwd, bwd = validate(model, orbit)
    assert fwd < 1e-14
    assert bwd < 1e-14


def stacked_kicked_window(sys, x0, window, kicks):
    """Reference `_kicked_window`: both base halves as one (2, 2) stack,
    one matrix product and one `wrap` per step."""
    n_min, n_max = window
    x0 = wrap(np.asarray(x0, dtype=float))
    L = max(n_max, -n_min) + 1
    e = np.zeros((L, 2, 3))
    e[:n_max, 0] = kicks[:n_max]
    e[:-n_min, 1] = kicks[n_max:]
    e_in = e[..., :2] * [[0.0], [1.0]]
    e_out = e[..., :2] * [[1.0], [0.0]]
    M = np.stack([sys.A, sys.A_inv]).astype(float)
    P = np.empty((L, 2, 2))
    P[0] = x0[:2]
    for i in range(L - 1):
        P[i + 1] = wrap((M @ (P[i] + e_in[i])[..., None])[..., 0] + e_out[i])
    phi = np.broadcast_to(sys.phi(P[..., 0], P[..., 1]), (L, 2))
    dz = np.empty((2, L))
    dz[:, 0] = x0[2]
    dz[0, 1:] = sys.omega + phi[:-1, 0] + e[:-1, 0, 2]
    dz[1, 1:] = e[:-1, 1, 2] - sys.omega - phi[1:, 1]
    z = _wrapped_cumsum(dz)
    pts = np.empty((n_max - n_min + 1, 3))
    pts[-n_min:, :2] = P[:n_max + 1, 0]
    pts[-n_min:, 2] = z[0, :n_max + 1]
    pts[:-n_min, :2] = P[-n_min:0:-1, 1]
    pts[:-n_min, 2] = z[1, -n_min:0:-1]
    return wrap(pts)


def test_kicked_window_matches_stacked_recursion(model):
    rng = np.random.default_rng(17)
    # (0, 0) has two empty halves and (-1, 1) two one-step halves
    for window in ((-1000, 1000), (0, 30), (-30, 0), (0, 0), (-1, 1)):
        n = window[1] - window[0]
        for scale in (0.0, 1e-4, 0.3):
            kicks = scale * rng.uniform(-1.0, 1.0, (n, 3))
            x0 = rng.random(3)
            assert np.array_equal(_kicked_window(model, x0, window, kicks),
                                  stacked_kicked_window(model, x0, window, kicks))
        # kicks of -1e-17 from the origin: every base step rounds up to 1.0
        # mod 1 and folds back to 0.0
        kicks = np.full((n, 3), -1e-17)
        x0 = np.array([0.0, 0.0, 0.5])
        out = _kicked_window(model, x0, window, kicks)
        assert np.array_equal(out, stacked_kicked_window(model, x0, window, kicks))
        assert ((out >= 0.0) & (out < 1.0)).all()


def count_calls(monkeypatch, counts, cls, *names):
    """Count every call of the methods `names` of `cls`, or of the functions
    `names` of a module `cls`, in the dict `counts`."""
    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))


def test_generation_map_calls_do_not_grow_with_window(skew, monkeypatch):
    counts = {}
    count_calls(monkeypatch, counts, SkewModel, "apply", "apply_inverse", "phi")
    per_window = []
    for half in (10, 1000):
        counts.clear()
        generate_noisy(skew, X0, (-half, half), 1e-4, seed=0)
        per_window.append(dict(counts))
    assert per_window[0] == per_window[1]


def stepped_orbit(g, x, window):
    """The g-orbit of points x (..., 3) on `window` as (..., N, 3), by
    `g.apply` and `g.apply_inverse` one step at a time."""
    n_min, n_max = window
    up, down = [x], [x]
    for _ in range(n_max):
        up.append(g.apply(up[-1]))
    for _ in range(-n_min):
        down.append(g.apply_inverse(down[-1]))
    return np.stack(down[:0:-1] + up, axis=-2)


def test_from_map_steps_forward_first(skew, monkeypatch):
    # every forward step of g is taken before the first backward one (a
    # kernel call per preimage), and the preimages' stacked residual check
    # after the last; a `_step` inside the kernel is its own residual
    g = PerturbedMap(skew, CRITERION_9_MODES, amplitude_bound=1.1e-3)
    calls, inverting = [], []
    step, inverse = PerturbedMap._step, PerturbedMap._newton_inverse

    def recorded_step(self, y, field):
        if not inverting:
            calls.append("up" if y.ndim == 2 else "check")
        return step(self, y, field)

    def recorded_inverse(self, xa, *args, **kwargs):
        calls.append("down")
        inverting.append(True)
        try:
            return inverse(self, xa, *args, **kwargs)
        finally:
            inverting.pop()

    monkeypatch.setattr(PerturbedMap, "_step", recorded_step)
    monkeypatch.setattr(PerturbedMap, "_newton_inverse", recorded_inverse)
    x = np.array([[0.375, 0.375, 0.375], [0.1, 0.8, 0.45]])
    orbit = from_map(skew, g, x, (-2, 3))
    assert calls == ["up"] * 3 + ["down"] * 2 + ["check"]
    monkeypatch.undo()
    assert orbit.points.shape == (2, 6, 3)
    assert orbit.points.tobytes() == stepped_orbit(g, x, (-2, 3)).tobytes()
    with pytest.raises(ValueError, match="index 0"):
        from_map(skew, g, x[0], (1, 3))


def reference_displacement(g, x):
    """The field as a sum over modes of full-argument sin and cos terms."""
    v = np.zeros(x.shape)
    for (j, m1, m2, m3, s, c) in g.modes:
        th = 2.0 * math.pi * (m1 * x[..., 0] + m2 * x[..., 1] + m3 * x[..., 2])
        v[..., j] += s * np.sin(th) + c * np.cos(th)
    return v


def reference_certificate(g):
    """The certificate on the flattened n^3 grid, built slab by slab."""
    n = g.certification_grid
    axis = (np.arange(n) + 0.5) / n
    plane = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    sup = 0.0
    for x in np.array_split(axis, min(n, max(1, n ** 3 // 262144))):
        G = np.column_stack([np.repeat(x, plane.shape[0]), np.tile(plane, (x.size, 1))])
        sup = max(sup, float(np.max(np.linalg.norm(reference_displacement(g, G), axis=1))))
    return sup + g.lip_v * (math.sqrt(3.0) / (2.0 * n))


# modes over zero, unit and negative frequencies, the constant mode among
# them, and zero amplitudes; several may perturb one coordinate
MODES = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(-3, 3),
                           st.integers(-3, 3), st.sampled_from([0.0, 1e-4, -3e-4, 2.5e-4]),
                           st.sampled_from([0.0, 2e-4, -1e-4])), max_size=5)
CRITERION_9_MODES = [(0, 0, 1, 0, 1e-3 / math.sqrt(3.0), 0.0),
                     (1, 0, 0, 1, 1e-3 / math.sqrt(3.0), 0.0),
                     (2, 1, 0, 0, 1e-3 / math.sqrt(3.0), 0.0)]
# criterion 9's modes with each amplitude split between sin and cos, as the
# semiconj-grid benchmark draws them
SPLIT_MODES = [(j, *freq, s * math.cos(t), s * math.sin(t))
               for (j, *freq, s, _c), t in zip(CRITERION_9_MODES, (0.4, 2.1, 4.9))]
# modes that read two or three axes, each with both sin and cos
CROSS_MODES = [(0, 1, 2, 0, 2e-4, -1e-4), (1, 0, 1, -1, -1.5e-4, 2e-4), (2, 1, -1, 2, 1e-4, 1e-4),
               (2, 2, 0, 1, -5e-5, 1.2e-4)]
# several modes a coordinate, most entries of Dv with two or three terms,
# scaled to lip_v Lip(f^-1) = 0.78 on the skew model
STRONG_MODES = [(j, *m, 1.2 * s, 1.2 * c) for (j, *m, s, c) in (
    (0, 1, 0, 0, 0.01, 0.005), (0, 1, 1, 0, -0.008, 0.0), (0, 3, -1, 1, 0.0, 0.003),
    (1, 0, 1, 0, 0.007, -0.006), (1, 1, 3, 1, 0.0, 0.002), (2, 1, 0, 0, 0.006, 0.0),
    (2, -1, 2, 1, 0.003, 0.002))]


PHI_MODES = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                               st.sampled_from([0.0, 1e-3, -3e-3, 2.5e-3]),
                               st.sampled_from([0.0, 2e-3, -1e-3])), max_size=4)


@given(modes=PHI_MODES)
@example(modes=[(0, 0, 0.0, 2e-3), (-2, 1, 2.5e-3, 0.0), (1, 3, 1e-3, -1e-3),
                (0, -1, -3e-3, 2e-3), (1, 0, 0.0, 0.0)])
@settings(max_examples=40, deadline=None)
@seed(27)
def test_phi_matches_full_argument_sum(modes):
    # phi is the fiber component of a field of modes (2, m1, m2, 0, s, c):
    # constant, negative, two-axis and sin+cos modes included
    sys = SkewModel([[2, 1], [1, 1]], omega=0.05, phi_modes=modes)
    field = SimpleNamespace(modes=[(2, m1, m2, 0, s, c) for (m1, m2, s, c) in modes])
    x = np.random.default_rng(len(modes)).random((5, 7, 3))
    for pts in (x, x[0, 0]):
        phi = np.broadcast_to(sys.phi(pts[..., 0], pts[..., 1]), pts.shape[:-1])
        assert phi.tobytes() == reference_displacement(field, pts)[..., 2].tobytes()
    assert sys.lip_phi == sum((2.0 * math.pi * math.hypot(m1, m2) * math.hypot(s, c)
                               for (m1, m2, s, c) in modes), 0.0)


class TestPerturbedMap:
    def _field(self, sys, amp):
        a = amp / np.sqrt(3.0)
        return PerturbedMap(sys, [(0, 0, 1, 0, a, 0.0), (1, 0, 0, 1, a, 0.0),
                                  (2, 1, 0, 0, a, 0.0)],
                            amplitude_bound=1.1 * amp)

    def test_zero_field_is_f(self, skew, rng):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        for _ in range(50):
            x = rng.random(3)
            assert torus_distance(g.apply(x), skew.apply(x)) == 0.0
        assert g.certified_bound() == 0.0

    def test_blocks_keep_the_bits_and_the_shape(self, skew, rng):
        # 5000 points run as blocks of 2048 rows through `_orbits`, on the
        # windows (0, 1) and (-1, 0): each point's g and g^-1 are those of a
        # call on the point alone, in the points' shape
        g = PerturbedMap(skew, SPLIT_MODES, amplitude_bound=1.1e-3)
        x = rng.random((2, 2500, 3))
        for f in (g.apply, g.apply_inverse):
            y = f(x)
            assert y.shape == x.shape
            alone = np.array([f(p) for p in x.reshape(-1, 3)[::499]])
            assert alone.tobytes() == y.reshape(-1, 3)[::499].tobytes()

    def test_certified_bound_brackets_field(self, skew):
        for amp in (1e-4, 1e-3, 1e-2):
            g = self._field(skew, amp)
            bound = g.certified_bound()
            assert amp * 0.9 <= bound <= 1.1 * amp

    def test_certification_failure_detected(self, skew):
        g = PerturbedMap(skew, [(2, 1, 0, 0, 1e-3, 0.0)], amplitude_bound=5e-4)
        with pytest.raises(ModelError):
            g.certified_bound()

    def test_certified_bound_memory_and_value(self, skew):
        # the grid is swept in slabs: the 128^3 certificate never holds the
        # whole 50 MiB grid, and the slabs see exactly the full grid's points
        modes = [(0, 0, 1, 0, 5e-4, 0.0), (2, 1, 2, 3, 1e-4, 2e-4)]
        g = PerturbedMap(skew, modes, amplitude_bound=1e-3, certification_grid=128)
        tracemalloc.start()
        try:
            g.certified_bound()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        n = 32
        axis = (np.arange(n) + 0.5) / n
        G = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        full = float(np.max(np.linalg.norm(reference_displacement(g, G), axis=1)))
        slack = g.lip_v * (np.sqrt(3.0) / (2.0 * n))
        small = PerturbedMap(skew, modes, amplitude_bound=1e-3, certification_grid=n)
        assert small.certified_bound() == full + slack

    @given(modes=MODES, grid=st.sampled_from([1, 7, 33]))
    @example(modes=[(0, 0, 1, 0, 3e-4, 0.0), (0, 0, -1, 2, 1e-4, -1e-4), (1, 0, 0, 0, 0.0, 2e-4),
                    (2, 1, 0, 0, 2.5e-4, 2e-4), (2, -2, 1, 0, -3e-4, 0.0)], grid=100)
    @example(modes=CRITERION_9_MODES + [(2, 0, 0, -1, 0.0, 2e-4)], grid=128)
    @settings(max_examples=40, deadline=None)
    @seed(21)
    def test_field_matches_full_argument_sum(self, skew, modes, grid):
        g = PerturbedMap(skew, modes, amplitude_bound=1.0, certification_grid=grid)
        assert g.certified_bound() == reference_certificate(g)
        x = np.random.default_rng(grid).random((5, 7, 3))
        for pts in (x, x[0, 0]):
            v = np.empty(pts.shape)
            field = TrigField(g.modes, "perturbation", axes=3, components=3)
            v[..., 0], v[..., 1], v[..., 2] = _trig_field(field, [pts[..., i] for i in range(3)])
            assert v.tobytes() == reference_displacement(g, pts).tobytes()

    def test_certificate_memory_follows_the_axes_read(self, skew):
        # each criterion-9 mode reads one axis; the flattened 128^3 grid
        # peaked at 22 MiB
        g = PerturbedMap(skew, CRITERION_9_MODES, amplitude_bound=1.1e-3,
                         certification_grid=128)
        tracemalloc.start()
        try:
            g.certified_bound()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_bad_certification_grid_rejected(self, skew):
        for grid in (0, -3, 2.5, True):
            with pytest.raises(ModelError, match="certification_grid"):
                PerturbedMap(skew, [(2, 1, 0, 0, 1e-3, 0.0)], amplitude_bound=1.2e-3,
                             certification_grid=grid)

    def test_inverse_fixed_point(self, skew, rng):
        # iterate-and-check oracle: g(g^-1(x)) == x to the stated residual
        for amp in (1e-4, 1e-3, 1e-2):
            g = self._field(skew, amp)
            for _ in range(100):
                x = rng.random(3)
                y = g.apply_inverse(x)
                assert torus_distance(g.apply(y), x) <= 1e-13

    def test_inverse_meets_the_residual_on_strong_fields(self, skew):
        # one-axis modes on every coordinate, up to frequency 140, with
        # lip_v Lip(f^-1) from 0.5 to 0.99; with K frozen at the start the
        # slowest rows took 118 steps at 0.9 and over INVERSE_MAX_ITER at 0.99,
        # with K re-taken every 4th step 10 and 14; Newton's method, a fresh K
        # every step, takes at most 5 at either rate
        x = np.random.default_rng(7).random((2000, 3))
        for j in range(3):
            for axis in range(3):
                for m in (1, 54, 140):
                    for rate in (0.5, 0.9, 0.99):
                        freq = [0, 0, 0]
                        freq[axis] = m
                        s = rate / (skew.lip_f_inv * 2.0 * math.pi * m)
                        g = PerturbedMap(skew, [(j, *freq, s, 0.0)], amplitude_bound=1.0)
                        y = g.apply_inverse(x)
                        assert np.max(torus_distance(g.apply(y), x)) <= 1e-13

    @given(modes=MODES)
    @settings(max_examples=30, deadline=None)
    @seed(5)
    def test_inverse_rows_are_solo_inversions(self, skew, modes):
        # the residual contract on every row, and each row of a batch has
        # the bits of its own one-point inversion
        g = PerturbedMap(skew, modes, amplitude_bound=1.0)
        x = np.random.default_rng(len(modes)).random((24, 3))
        x[:4] = [[0.0, 0.0, 0.0], [1.0 - 2.0 ** -53] * 3, [0.125, 0.875, 1e-300],
                 [0.5, 0.25, 1.0 - 2.0 ** -53]]
        y = g.apply_inverse(x)
        assert np.max(torus_distance(g.apply(y), x)) <= 1e-13
        for row, y_row in zip(x, y):
            assert np.array_equal(g.apply_inverse(row), y_row)

    def test_steep_field_rejected(self, skew):
        # sup |v| = 3e-4 is small, but lip_v Lip(f^-1) = 4.98 >= 1: the
        # preimage of g need not be unique
        with pytest.raises(ModelError, match=r"lip_v = 1\.88.* Lip\(f\^-1\) = 2\.64"):
            PerturbedMap(skew, [(1, 0, 1000, 0, 3e-4, 0.0)], amplitude_bound=1.0575e-3)
        rate = 0.999 / (skew.lip_f_inv * 2.0 * math.pi * 1000)
        PerturbedMap(skew, [(1, 0, 1000, 0, rate, 0.0)], amplitude_bound=1.0575e-3)

    def test_from_map_zero_perturbation(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        orbit = from_map(skew, g, X0, (-20, 20))
        fwd, _ = validate(skew, orbit)
        assert fwd < 1e-12
        assert orbit.delta == 0.0

    def test_from_map_defect_below_certified(self, skew):
        for amp in (1e-4, 1e-3, 1e-2):
            g = self._field(skew, amp)
            orbit = from_map(skew, g, X0, (-25, 25))
            fwd, _ = validate(skew, orbit)
            assert fwd <= orbit.delta
            assert orbit.delta == g.certified_bound()

    def test_inverse_evaluates_the_field_once_per_iterate(self, skew, rng, monkeypatch):
        # the start is one f^-1 and one field pass at f^-1(x), where the
        # residual is -v; then each Newton step is one field pass (one kernel
        # call for v, phi and their sin and cos) and one `_step` built from
        # it: neither g.apply nor f's own map or phi runs
        # (f^-1 calls phi once); criterion 9's field retires every row in at
        # most 2 steps
        g = PerturbedMap(skew, CRITERION_9_MODES, amplitude_bound=1.1e-3)
        on_g, on_f = {}, {}
        count_calls(monkeypatch, on_g, PerturbedMap, "apply", "_step")
        count_calls(monkeypatch, on_g, orbits, "_trig_field")
        count_calls(monkeypatch, on_f, SkewModel, "apply", "apply_inverse", "phi")
        g.apply_inverse(rng.random((256, 3)))
        assert on_f == {"apply_inverse": 1, "phi": 1}
        assert 1 <= on_g["_step"] <= 2
        assert on_g == {"_trig_field": on_g["_step"] + 1, "_step": on_g["_step"]}

    @pytest.mark.parametrize("modes", [CRITERION_9_MODES, SPLIT_MODES], ids=["sin", "sin-cos"])
    def test_from_map_rows_retire_within_two_steps(self, skew, modes, monkeypatch):
        # the 8x8x4 lattice's backward orbits on N = 40: each of the 40
        # preimages is one Newton kernel call of at most 2 field passes, the
        # start's and step 1's, so at most 2 steps, and the stacked check
        # inverts no row again; the rows of a rate-0.9 field of the
        # strong-field test take more, so they are inverted again, checked
        # at every step, in calls of more than 3 passes: the count can fail
        counts, passes = {}, []
        count_calls(monkeypatch, counts, orbits, "_trig_field")
        count_calls(monkeypatch, counts, SkewModel, "apply", "apply_inverse", "phi")
        inverse = PerturbedMap._newton_inverse

        def counted(self, xa, *args, **kwargs):
            before = counts["_trig_field"]
            y = inverse(self, xa, *args, **kwargs)
            passes.append(counts["_trig_field"] - before)
            return y

        monkeypatch.setattr(PerturbedMap, "_newton_inverse", counted)

        def kernel_passes(g):
            passes.clear()
            from_map(skew, g, _lattice((8, 8, 4)), (-40, 40))
            return list(passes)

        first = kernel_passes(PerturbedMap(skew, modes, amplitude_bound=1.1e-3))
        assert len(first) == 40 and max(first) <= 2
        rate = 0.9 / (skew.lip_f_inv * 2.0 * math.pi)
        strong = kernel_passes(PerturbedMap(skew, [(1, 0, 1, 0, rate, 0.0)], amplitude_bound=1.0))
        assert len(strong) > 40 and max(strong) > 3
        # only the kernel calls' f^-1 starts call phi, once each; f's map
        # never runs
        assert "apply" not in counts
        assert counts["phi"] == counts["apply_inverse"] == len(first) + len(strong)

    @pytest.mark.parametrize("field", ["criterion-9", "constant", "strong"])
    def test_from_map_has_the_bits_of_stepping_g(self, skew, field):
        # 2506 rows span two row blocks; criterion 9's field takes 2 steps a
        # preimage, the constant field's rows all retire at step 1, and the
        # rate-0.9 field's rows take more than 2, so they are inverted again
        rate = 0.9 / (skew.lip_f_inv * 2.0 * math.pi)
        modes = {"criterion-9": CRITERION_9_MODES,
                 "constant": [(0, 0, 0, 0, 2e-4, 1e-4), (2, 0, 0, 0, 0.0, 3e-4)],
                 "strong": [(1, 0, 1, 0, rate, 0.0)]}[field]
        g = PerturbedMap(skew, modes, amplitude_bound=1.0)
        x = np.random.default_rng(34).random((2506, 3))
        x[-3:] = [[0.0, 0.0, 0.0], [1.0 - 2.0 ** -53] * 3, [0.0, 0.5, 1.0 - 2.0 ** -53]]
        orbit = from_map(skew, g, x, (-12, 6))
        assert orbit.points.tobytes() == stepped_orbit(g, x, (-12, 6)).tobytes()

    @pytest.mark.parametrize("budget", [1, 3])
    def test_from_map_non_convergence_is_the_inverse_error(self, skew, monkeypatch, budget):
        # the rate-0.9 field's rows need more than 3 steps: with a budget of
        # 1 the stopped kernel raises, with 3 the checked re-inversion after
        # the stacked check; both with apply_inverse's message and count
        rate = 0.9 / (skew.lip_f_inv * 2.0 * math.pi)
        g = PerturbedMap(skew, [(1, 0, 1, 0, rate, 0.0)], amplitude_bound=1.0)
        monkeypatch.setattr(orbits, "INVERSE_MAX_ITER", budget)
        nodes = _lattice((8, 8, 4))
        with pytest.raises(ModelError) as stepped:
            stepped_orbit(g, nodes, (-40, 40))
        message = rf"did not reach residual 1e-13 in {budget} steps at \d+ point\(s\)$"
        with pytest.raises(ModelError, match=message) as stacked:
            from_map(skew, g, nodes, (-40, 40))
        assert str(stacked.value) == str(stepped.value)

    @pytest.mark.parametrize("modes", [CRITERION_9_MODES, SPLIT_MODES, CROSS_MODES],
                             ids=["criterion-9", "sin-cos", "cross"])
    def test_stopping_residual_has_the_bits_of_apply(self, skew, modes, monkeypatch):
        # every residual the checked kernel's stopping test reads is recorded
        # (the kernel the redo of a failing row runs); replaying the step at
        # which each row retires gives the residual that retired it, which
        # must be x - g(y) with g.apply's bits at the returned y: a row keeps
        # its point once it is done
        g = PerturbedMap(skew, modes, amplitude_bound=1.0)
        x = np.random.default_rng(500).random((506, 3))
        seam = 1.0 - 2.0 ** -53
        x[500:] = [[0.0, 0.0, 0.0], [seam] * 3, [0.0, seam, 0.0], [seam, 0.0, seam],
                   [0.0, 0.5, seam], [seam, seam, 0.0]]
        seen = []
        monkeypatch.setattr(orbits, "_norm", lambda r: seen.append(r) or _norm(r))
        y = g._newton_inverse(np.ascontiguousarray(x.T)).T
        monkeypatch.undo()
        last, done = np.full(x.shape, np.nan), np.zeros(x.shape[0], bool)
        for r in seen:
            retired = (_norm(r) <= INVERSE_RESIDUAL_TOL) & ~done
            last[retired] = r[retired]
            done |= retired
        assert done.all()
        assert np.array_equal(last, minimal_displacement(g.apply(y), x))

    def test_backward_points_are_g_preimages(self, skew):
        # every backward step of the 8x8x4 lattice's orbits on N = 40 meets
        # the inversion's residual under g.apply
        g = self._field(skew, 1e-3)
        pts = from_map(skew, g, _lattice((8, 8, 4)), (-40, 40)).points
        residual = torus_distance(g.apply(pts[:, :40]), pts[:, 1:41])
        assert residual.shape == (256, 40)
        assert np.max(residual) <= INVERSE_RESIDUAL_TOL

    @pytest.mark.parametrize("modes, phi_modes", [
        (CRITERION_9_MODES, [(1, 0, 0.02, 0.0)]), (SPLIT_MODES, [(1, 0, 0.02, 0.0)]),
        (CROSS_MODES, [(1, 0, 0.02, 0.0)]),
        (SPLIT_MODES, [(1, -1, 0.015, -0.01), (0, 2, 0.0, 0.01)]),
        ([], [(1, 2, 0.01, 0.005)]), (CROSS_MODES, []),
    ], ids=["criterion-9", "sin-cos", "cross", "phi-sin-cos", "no-field", "no-phi"])
    def test_apply_has_the_bits_of_f_plus_v(self, modes, phi_modes):
        # g is f plus v, each wrapped, whatever the stack's shape; seam
        # points included
        sys = SkewModel([[2, 1], [1, 1]], omega=0.05, phi_modes=phi_modes)
        g = PerturbedMap(sys, modes, amplitude_bound=1.0)
        seam = 1.0 - 2.0 ** -53
        x = np.random.default_rng(len(modes)).random((6, 10, 3))
        x[0, :6] = [[0.0, 0.0, 0.0], [seam] * 3, [0.0, seam, 0.0], [seam, 0.0, seam],
                    [0.0, 0.5, seam], [seam, seam, 1e-300]]
        for pts in (x, x[0], x[0, 1], x[1, 3], x[:0, 0]):
            out = g.apply(pts)
            assert out.shape == pts.shape
            assert out.tobytes() == wrap(sys.apply(pts) + reference_displacement(g, pts)).tobytes()

    def test_certified_bound_overflow_is_a_model_error(self, skew):
        # a constant mode's Lipschitz term is 0, so only the certificate can
        # reject an amplitude of 1e308, whose square overflows to inf
        for modes in ([(0, 0, 0, 0, 0.0, 1e308)], [(2, 0, 0, 0, 1e308, 1e308)] * 2):
            g = PerturbedMap(skew, modes, amplitude_bound=1.0)
            with pytest.raises(ModelError, match="certified d\\(f, g\\) = inf exceeds"):
                g.certified_bound()

    @pytest.mark.parametrize("modes", [CRITERION_9_MODES, SPLIT_MODES, CROSS_MODES, STRONG_MODES],
                             ids=["criterion-9", "sin-cos", "cross", "strong"])
    def test_newton_step_has_the_bits_of_the_per_entry_step(self, skew, modes):
        # from the same start f^-1(x), the stacked field, the (9, B) Dg and
        # its gathered cofactors give the bits of the mode-by-mode field and
        # the entry-by-entry adjugate, seam points and retiring rows included;
        # the strong field's steps are large enough that a rounding of Dg
        # reaches y, and its 2506 rows span two of apply_inverse's blocks
        g = PerturbedMap(skew, modes, amplitude_bound=1.0)
        x = np.random.default_rng(500).random((2506 if modes is STRONG_MODES else 506, 3))
        seam = 1.0 - 2.0 ** -53
        x[-6:] = [[0.0, 0.0, 0.0], [seam] * 3, [0.0, seam, 0.0], [seam, 0.0, seam],
                  [0.0, 0.5, seam], [seam, seam, 0.0]]
        assert g.apply_inverse(x).tobytes() == reference_inverse(g, x).tobytes()

    @given(modes=MODES, phi_modes=PHI_MODES)
    @settings(max_examples=25, deadline=None)
    @seed(31)
    def test_newton_step_bits_on_drawn_fields(self, modes, phi_modes):
        # drawn v and phi modes, several sharing a frequency or a coordinate
        g = PerturbedMap(SkewModel([[2, 1], [1, 1]], omega=0.05, phi_modes=phi_modes), modes,
                         amplitude_bound=1.0)
        x = np.random.default_rng(len(modes)).random((24, 3))
        x[:2] = [[0.0, 0.0, 0.0], [1.0 - 2.0 ** -53] * 3]
        assert g.apply_inverse(x).tobytes() == reference_inverse(g, x).tobytes()


# sin-only and cos-only modes of one frequency, a frequency shared by v and
# phi (coordinate 3), two- and three-axis modes, negative and zero
# frequencies, zero amplitudes, several modes on one coordinate, and many
KERNEL_FIELDS = {
    "newton": (CRITERION_9_MODES + [(3, 1, 0, 0, 0.02, 0.0)], 4),
    "one-each": ([(0, 0, 1, 0, -2e-4, 0.0), (1, -1, 0, 0, 1e-4, 0.0), (2, 1, 0, 1, -1e-4, 0.0)], 3),
    "shared": ([(0, 1, -1, 0, 2e-4, 0.0), (1, 1, -1, 0, 0.0, -1e-4), (3, 1, -1, 0, 0.015, -0.01),
                (2, 0, 2, 1, 1e-4, 1e-4), (3, 0, 2, 0, 0.0, 0.01), (2, 0, 0, 0, 3e-4, -2e-4)], 4),
    "several": (CROSS_MODES + [(0, -2, 0, 3, 0.0, 0.0), (0, 1, 2, 0, 5e-5, 0.0),
                               (1, 0, 0, 0, 0.0, 1e-4)], 3),
    "empty": ([], 3),
    # more distinct frequencies than np.broadcast takes in one call (32 in
    # numpy 1.x, 64 in 2.x)
    "many": ([(0, k % 5 - 2, k // 5 - 7, 0, 1e-5, 2e-5) for k in range(70)], 1),
}


@pytest.mark.parametrize("name", list(KERNEL_FIELDS))
def test_stacked_kernel_matches_the_per_mode_field(name):
    # every component and every mode's sin and cos, bit for bit, on the
    # three layouts the kernel takes: coordinate rows (3, B), series-like
    # (rows, terms) blocks with an unread axis None, and the certificate's
    # broadcasting axis vectors
    modes, components = KERNEL_FIELDS[name]
    field = TrigField(modes, "perturbation", axes=3, components=components)
    rng = np.random.default_rng(components)
    rows = rng.random((3, 40))
    rows[:, :4] = [[0.0, 1.0 - 2.0 ** -53, 0.0, 0.5], [0.0, 1.0 - 2.0 ** -53, 0.5, 0.0],
                   [0.0, 0.0, 1.0 - 2.0 ** -53, 0.25]]
    block = rng.random((3, 6, 9)) * 2.0 - 0.5
    axis = (np.arange(8) + 0.5) / 8
    unread = [k for k in range(3) if not any(m[1 + k] for m in modes)] or [None]
    layouts = [rows, [None if k == unread[0] else block[k] for k in range(3)],
               (axis[:5, None, None], axis[:, None], axis)]
    for coords in layouts:
        v, sn, cs = _trig_field(field, coords, trig=True)
        assert np.array_equal(_trig_field(field, coords), v)
        ref_v, ref_trig = reference_trig_field(modes, coords, components)
        assert len(sn) == len(set(tuple(m[1:4]) for m in modes))
        for j in range(components):
            assert v[j].tobytes() == np.broadcast_to(ref_v[j], v.shape[1:]).tobytes()
        for row, (ref_sn, ref_cs) in zip(field.row, ref_trig):
            assert sn[row].tobytes() == np.broadcast_to(ref_sn, sn.shape[1:]).tobytes()
            assert cs[row].tobytes() == np.broadcast_to(ref_cs, cs.shape[1:]).tobytes()


def test_inversion_forms_a_sin_and_a_cos_per_distinct_frequency(skew, monkeypatch):
    # criterion 9's field shares its (1, 0, 0) with phi's (1, 0): an
    # inversion stopped after 2 steps takes f^-1's one sin, 2 passes of
    # 3 sin and 3 cos and the stacked check's 3 sin, 16 arrays where one sin
    # and cos per mode took 21; a call's leading axis counts its arrays,
    # the (3, 1, b) stack of the check's included
    calls = []
    for name in ("sin", "cos"):
        monkeypatch.setattr(np, name, lambda x, *a, ufunc=getattr(np, name), **k:
                            calls.append(np.shape(x)) or ufunc(x, *a, **k))
    g = PerturbedMap(skew, CRITERION_9_MODES, amplitude_bound=1.1e-3)
    g.apply_inverse(np.random.default_rng(3).random((256, 3)))
    assert sum(shape[0] if len(shape) >= 2 else 1 for shape in calls) == 16


@pytest.fixture(scope="module")
def long_trace(linear):
    """A linear trace on [-1000, 1000], the size the file-memory tests use."""
    params = delta_for_epsilon(linear, 5e-2)
    orbit = generate_noisy(linear, X0, (-1000, 1000), params.delta, seed=2)
    return quasi_shadow(linear, orbit, 5e-2, params=params)


class TestOrbitFiles:
    def test_roundtrip_bit_exact(self, tmp_path, skew):
        orbit = generate_noisy(skew, X0, (-15, 15), 1e-4, seed=3)
        path = tmp_path / "orbit.txt"
        write_orbit(orbit, path, model_name="skew")
        back = read_orbit(path)
        assert back.n_min == orbit.n_min and back.n_max == orbit.n_max
        assert np.array_equal(back.points, orbit.points)
        assert back.delta == orbit.delta

    def test_write_table_matches_row_by_row_format(self, tmp_path):
        rows = np.array([[-3.0, -0.0, 1e-300, 1.0 - 2.0 ** -53],
                         [0.0, 2.0, 1.0 / 3.0, -1e300],
                         [7.0, 0.1, 5e-324, 12345678.0]])
        header = {"model": "skew", "delta": 0.1, "window": "-3 7"}
        path = tmp_path / "table.txt"
        write_table(path, header, rows)
        line = "%.17g %.17g %.17g %.17g\n"
        expected = ("# model: skew\n# delta: 0.10000000000000001\n# window: -3 7\n"
                    + "".join(line % tuple(row) for row in rows.tolist()))
        assert path.read_bytes() == expected.encode()

    def test_write_table_blocks_match_one_block(self, tmp_path, monkeypatch):
        rows = np.random.default_rng(5).random((37, 3)) - 0.5
        paths = []
        for block in (1, 100, 2 ** 40):    # row blocks of 1, 4 and all rows
            monkeypatch.setattr(orbits, "_BLOCK_ELEMENTS", block)
            paths.append(tmp_path / f"table{block}.txt")
            write_table(paths[-1], {"window": "0 36"}, rows)
        line = "%.17g %.17g %.17g\n"
        expected = "# window: 0 36\n" + "".join(line % tuple(row) for row in rows.tolist())
        for path in paths:
            assert path.read_bytes() == expected.encode()

    def test_write_trace_memory(self, tmp_path, long_trace):
        # a +-1000 trace formatted in one piece peaked at 1.13 MiB
        write_trace(long_trace, tmp_path / "warm.txt")
        tracemalloc.start()
        try:
            write_trace(long_trace, tmp_path / "trace.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * 2**20

    def test_read_trace_memory(self, tmp_path, long_trace):
        # holding every token of this file as a string peaked at 1.60 MiB,
        # converting them in blocks at 0.57 MiB; read by np.loadtxt, which
        # makes no Python string per token, the read peaks near 0.30 MiB
        write_trace(long_trace, tmp_path / "trace.txt")
        read_trace(tmp_path / "trace.txt")
        tracemalloc.start()
        try:
            back = read_trace(tmp_path / "trace.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.y_star, long_trace.y_star)
        assert peak <= 0.45 * 2**20

    def test_read_table_bit_exact_through_layout(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = np.column_stack([np.arange(-5, 6), rng.random((11, 2)) - 0.5])
        rows[3, 1], rows[4, 2], rows[5, 1] = -0.0, 1e-300, 1.0 - 2.0 ** -53
        path = tmp_path / "table.txt"
        write_table(path, {"window": "-5 5", "delta": 0.25}, rows)
        text = path.read_text().splitlines()
        body = [text[2 + i] for i in rng.permutation(11)]
        body = ["\t" + row.replace(" ", "  \t ") + "   " for row in body]
        path.write_text("\n\n".join(text[:2] + body) + "\n\n")
        header, window, back = read_table(path, 3)
        assert header == {"window": "-5 5", "delta": "0.25"} and window == (-5, 5)
        assert back.tobytes() == rows.tobytes()

    def test_read_table_keeps_nan_for_the_orbit_check(self, tmp_path):
        path = tmp_path / "orbit.txt"
        path.write_text("# delta: 0\n# window: 0 1\n1 0.5 NaN 0.5\n0 0.1 0.2 0.3\n")
        _, _, rows = read_table(path, 4)
        assert np.isnan(rows[1, 2]) and np.array_equal(rows[0], [0.0, 0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="index 1"):
            read_orbit(path)

    def test_read_table_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "orbit.txt"
        path.write_text("# delta: 0\n# window: 0 2\n0 0.1 0.2 0.3\n\n1 0.1 x2 0.3\n"
                        "2 0.1 0.2\n")
        with pytest.raises(ValueError, match=r"line 5 has a non-numeric field 'x2'"):
            read_orbit(path)
        path.write_text("# delta: 0\n# window: 0 2\n0 0.1 0.2 0.3\n\n1 0.1 0.2 0.3\n"
                        "2 0.1 0.2\n")
        with pytest.raises(ValueError, match=r"line 6 has 3 columns, expected 4"):
            read_orbit(path)
        # float() reads 1_0 as 10, np.loadtxt does not: a non-numeric field
        path.write_text("# delta: 0\n# window: 0 2\n0 0.1 0.2 0.3\n\n1 0.1 1_0 0.3\n"
                        "2 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match=r"line 5 has a non-numeric field '1_0'"):
            read_orbit(path)
        # a line with a bad field and another column count: the count is named
        path.write_text("# delta: 0\n# window: 0 2\n0 0.1 0.2 0.3\n1 0.1 x2\n"
                        "2 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match=r"line 4 has 3 columns, expected 4"):
            read_orbit(path)
        # headers come before the first row; a later `#` line is not a header
        path.write_text("# delta: 0\n\n# window: 0 2\n0 0.1 0.2 0.3\n1 0.1 0.2 0.3\n"
                        "# model: skew\n2 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match=r"line 6 is a '#' line after the first row"):
            read_orbit(path)

    @pytest.mark.parametrize("window", ["-50", "-50 fifty", "0 2 4", ""],
                             ids=["one-value", "non-integer", "three-values", "empty"])
    def test_malformed_window_header_is_named(self, tmp_path, window):
        path = tmp_path / "orbit.txt"
        path.write_text(f"# delta: 0\n# window: {window}\n0 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match=f"{path} has a malformed window header "
                                             f"'{window}', expected two integers"):
            read_orbit(path)

    def test_read_table_across_blocks(self, tmp_path):
        # 1500 rows of 4 fields with the faults deep in the file: values, the
        # line of a bad field and the order of the two errors are kept
        rows = np.column_stack([np.arange(1500), np.random.default_rng(5).random((1500, 3))])
        path = tmp_path / "orbit.txt"
        write_table(path, {"window": "0 1499", "delta": 0.0}, rows)
        assert read_table(path, 4)[2].tobytes() == rows.tobytes()
        text = path.read_text().splitlines()
        bad = list(text)
        bad[2 + 1200] = "1200 0.1 x2 0.3"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=r"line 1203 has a non-numeric field 'x2'"):
            read_orbit(path)
        bad[2 + 700] = "700 0.1 y7 0.3"
        bad[2 + 1300] = "1300 0.1 0.2"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=r"line 703 has a non-numeric field 'y7'"):
            read_orbit(path)
        bad[2 + 700] = text[2 + 700]
        bad[2 + 1200] = text[2 + 1200]
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=r"line 1303 has 3 columns, expected 4"):
            read_orbit(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "orbit.txt"
        path.write_text("0 0.1 0.2 0.3\n")
        with pytest.raises(ValueError):
            read_orbit(path)

    def test_non_finite_point_rejected(self, tmp_path):
        path = tmp_path / "orbit.txt"
        path.write_text("# delta: 0\n# window: 0 2\n0 0.1 0.2 0.3\n1 0.1 nan 0.3\n"
                        "2 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match="index 1"):
            read_orbit(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -1e-3])
    def test_points_must_be_finite_in_unit_interval(self, bad):
        pts = np.full((3, 3), 0.5)
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="index 2"):
            PseudoOrbit(0, 2, pts, 0.0)
        with pytest.raises(ValueError, match="index 1"):
            PseudoOrbit(-1, 1, np.stack([np.full((3, 3), 0.5), pts]), 0.0)

    def test_gap_in_indices_rejected(self, tmp_path):
        path = tmp_path / "orbit.txt"
        # a gap, and a file of headers alone (np.loadtxt is never asked to
        # read it, so no "input contained no data" warning escapes)
        for rows in ("0 0.1 0.2 0.3\n2 0.1 0.2 0.3\n", "\n\n", ""):
            path.write_text("# delta: 0\n# window: 0 2\n" + rows)
            with pytest.raises(ValueError, match=r"indices do not cover the declared window"):
                read_orbit(path)
