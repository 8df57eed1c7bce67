"""Pseudo-orbit generation, validation, perturbed maps, and serialization."""

import tracemalloc

import numpy as np
import pytest

from torusshadow.geometry import torus_distance
from torusshadow.models import ModelError
from torusshadow.orbits import (
    PerturbedMap,
    PseudoOrbit,
    fill_window,
    from_map,
    generate_noisy,
    read_orbit,
    validate,
    write_orbit,
)

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


def test_fill_window_steps_forward_first():
    # seeded generators draw their forward noise before the backward noise
    calls = []

    def step(x):
        calls.append("up")
        return x + 1.0

    def back_step(x):
        calls.append("down")
        return x - 1.0

    pts = fill_window(np.zeros((2, 3)), (-2, 3), step, back_step)
    assert calls == ["up"] * 3 + ["down"] * 2
    assert pts.shape == (2, 6, 3)
    assert np.array_equal(pts[1, :, 2], np.arange(-2.0, 4.0))
    with pytest.raises(ValueError, match="index 0"):
        fill_window(np.zeros(3), (1, 3), step, back_step)


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

    def test_bad_certification_grid_rejected(self, skew):
        for grid in (0, -3, 2.5, True):
            with pytest.raises(ModelError, match="certification_grid"):
                PerturbedMap(skew, [(2, 1, 0, 0, 1e-3, 0.0)], amplitude_bound=1.2e-3,
                             certification_grid=grid)

    def test_inverse_fixed_point(self, skew, rng):
        # iterate-and-check oracle: g(g^-1(x)) == x to the stated residual
        g = self._field(skew, 1e-3)
        for _ in range(100):
            x = rng.random(3)
            y = g.apply_inverse(x)
            assert torus_distance(g.apply(y), x) <= 1e-13

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

    def test_backward_points_are_g_preimages(self, skew):
        g = self._field(skew, 1e-3)
        orbit = from_map(skew, g, X0, (-10, 10))
        for k in range(-10, 0):
            img = g.apply(orbit.point(k))
            assert torus_distance(img, orbit.point(k + 1)) < 1e-12


class TestOrbitFiles:
    def test_roundtrip_bit_exact(self, tmp_path, skew):
        orbit = generate_noisy(skew, X0, (-15, 15), 1e-4, seed=3)
        path = tmp_path / "orbit.txt"
        write_orbit(orbit, path, model_name="skew")
        back = read_orbit(path)
        assert back.n_min == orbit.n_min and back.n_max == orbit.n_max
        assert np.array_equal(back.points, orbit.points)
        assert back.delta == orbit.delta

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
        path.write_text("# delta: 0\n# window: 0 2\n0 0.1 0.2 0.3\n2 0.1 0.2 0.3\n")
        with pytest.raises(ValueError):
            read_orbit(path)
