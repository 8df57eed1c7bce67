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
from torusshadow.models import ModelError, SkewModel, _norm
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
    for window in ((-1000, 1000), (0, 30), (-30, 0)):
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


def test_from_map_steps_forward_first(skew):
    # every forward step of a nearby map is taken before the first backward one
    calls = []

    class Stepper:
        def apply(self, x):
            calls.append("up")
            return x + 0.125

        def apply_inverse(self, x):
            calls.append("down")
            return x - 0.125

        def certified_bound(self):
            return 0.0

    orbit = from_map(skew, Stepper(), np.full((2, 3), 0.375), (-2, 3))
    assert calls == ["up"] * 3 + ["down"] * 2
    assert orbit.points.shape == (2, 6, 3)
    assert np.array_equal(orbit.points[1, :, 2], 0.375 + 0.125 * np.arange(-2.0, 4.0))
    with pytest.raises(ValueError, match="index 0"):
        from_map(skew, Stepper(), np.full(3, 0.375), (1, 3))


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
        full = float(np.max(np.linalg.norm(g.displacement(G), axis=1)))
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
            assert g.displacement(pts).tobytes() == reference_displacement(g, pts).tobytes()

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
        # residual is -v; then each Newton step is one f and one field pass
        # (one kernel call for v and grad phi), and g.apply is never called;
        # criterion 9's field retires every row in at most 2 steps
        g = PerturbedMap(skew, CRITERION_9_MODES, amplitude_bound=1.1e-3)
        on_g, on_f = {}, {}
        count_calls(monkeypatch, on_g, PerturbedMap, "apply", "displacement")
        count_calls(monkeypatch, on_g, orbits, "_trig_field")
        count_calls(monkeypatch, on_f, SkewModel, "apply", "apply_inverse")
        g.apply_inverse(rng.random((256, 3)))
        assert on_f["apply_inverse"] == 1
        assert 1 <= on_f["apply"] <= 2
        assert on_g == {"_trig_field": on_f["apply"] + 1}

    @pytest.mark.parametrize("modes", [CRITERION_9_MODES, SPLIT_MODES], ids=["sin", "sin-cos"])
    def test_from_map_rows_retire_within_two_steps(self, skew, modes, monkeypatch):
        # the 8x8x4 lattice's backward orbits on N = 40: each of the 40
        # inversions runs at most 2 Newton steps, one f each, so every row
        # retires within 2
        g = PerturbedMap(skew, modes, amplitude_bound=1.1e-3)
        counts, steps = {}, []
        count_calls(monkeypatch, counts, SkewModel, "apply")
        inverse = PerturbedMap.apply_inverse

        def counted(self, x):
            before = counts.get("apply", 0)
            y = inverse(self, x)
            steps.append(counts["apply"] - before)
            return y

        monkeypatch.setattr(PerturbedMap, "apply_inverse", counted)
        from_map(skew, g, _lattice((8, 8, 4)), (-40, 40))
        assert len(steps) == 40
        assert max(steps) <= 2

    @pytest.mark.parametrize("modes", [CRITERION_9_MODES, SPLIT_MODES, CROSS_MODES],
                             ids=["criterion-9", "sin-cos", "cross"])
    def test_stopping_residual_has_the_bits_of_apply(self, skew, modes, monkeypatch):
        # every residual the stopping test reads is recorded; replaying which
        # rows retire at each step gives each row's last residual, which must
        # be x - g(y) with g.apply's bits at the returned y
        g = PerturbedMap(skew, modes, amplitude_bound=1.0)
        x = np.random.default_rng(500).random((506, 3))
        seam = 1.0 - 2.0 ** -53
        x[500:] = [[0.0, 0.0, 0.0], [seam] * 3, [0.0, seam, 0.0], [seam, 0.0, seam],
                   [0.0, 0.5, seam], [seam, seam, 0.0]]
        seen = []
        monkeypatch.setattr(orbits, "_norm", lambda r: seen.append(r) or _norm(r))
        y = g.apply_inverse(x)
        last, active = np.full(x.shape, np.nan), np.arange(x.shape[0])
        for r in seen:
            done = _norm(r) <= INVERSE_RESIDUAL_TOL
            last[active[done]] = r[done]
            active = active[~done]
        assert active.size == 0
        assert np.array_equal(last, minimal_displacement(g.apply(y), x))

    def test_backward_points_are_g_preimages(self, skew):
        g = self._field(skew, 1e-3)
        orbit = from_map(skew, g, X0, (-10, 10))
        for k in range(-10, 0):
            img = g.apply(orbit.point(k))
            assert torus_distance(img, orbit.point(k + 1)) < 1e-12


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
