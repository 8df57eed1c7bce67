"""Semiconjugacy sampling and the identity and surjectivity (degree) reports."""

import time
from dataclasses import replace

import numpy as np
import pytest

from torusshadow.geometry import minimal_displacement, torus_distance, wrap
from torusshadow.orbits import PerturbedMap
from torusshadow.shadowing import ParameterError, delta_for_epsilon
from torusshadow.stability import (
    SemiConjugacy,
    _lattice,
    check_identity,
    semiconjugacy,
    surjectivity_density,
    write_semiconjugacy,
)

EPS = 0.216


def default_field(sys, amp, grid=128):
    a = amp / np.sqrt(3.0)
    return PerturbedMap(sys, [(0, 0, 1, 0, a, 0.0), (1, 0, 0, 1, a, 0.0),
                              (2, 1, 0, 0, a, 0.0)],
                        amplitude_bound=1.1 * amp, certification_grid=grid)


@pytest.fixture(scope="module")
def sc_small(skew):
    g = default_field(skew, 1e-3)
    return g, semiconjugacy(skew, g, (8, 8, 8), 30, EPS)


class TestSemiconjugacy:
    def test_identity_map_gives_identity(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, (4, 4, 4), 20, 1e-2)
        assert not sc.failures
        d = np.linalg.norm(
            np.minimum(np.abs(sc.pi - sc.nodes), 1.0 - np.abs(sc.pi - sc.nodes)), axis=1)
        assert np.max(d) < 1e-9
        assert np.max(np.abs(sc.tau)) < 1e-9

    def test_perturbation_too_large_rejected(self, skew):
        g = default_field(skew, 1e-2)
        with pytest.raises(ParameterError, match="admissible defect"):
            semiconjugacy(skew, g, (4, 4, 4), 20, 1e-2)

    def test_params_for_another_epsilon_rejected(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        with pytest.raises(ParameterError, match="epsilon = 0.01"):
            semiconjugacy(skew, g, (2, 2, 2), 20, 0.9, params=delta_for_epsilon(skew, 1e-2))

    @pytest.mark.parametrize("grid_res", [(0, 2, 2), (2.5, 4, 4), (True, 4, 4), (4, 4)],
                             ids=["zero", "float", "bool", "two-axes"])
    def test_grid_res_must_be_three_positive_integers(self, skew, grid_res):
        # (0, 2, 2) used to return an empty report and (2.5, 4, 4) a numpy TypeError
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        with pytest.raises(ValueError, match="grid_res must be three positive integers"):
            semiconjugacy(skew, g, grid_res, 20, EPS)

    @pytest.mark.parametrize("N", [20.7, 0, True], ids=["float", "zero", "bool"])
    def test_window_must_be_a_positive_integer(self, skew, N):
        # N = 20.7 used to run the window [-20, 20] and record 20.7 as its length
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        with pytest.raises(ValueError, match="N must be a positive integer"):
            semiconjugacy(skew, g, (2, 2, 2), N, EPS)

    def test_numpy_integer_arguments_accepted(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, np.array([2, 2, 2]), np.int64(20), 1e-2)
        assert sc.grid_res == (2, 2, 2) and sc.window == 20
        assert not sc.failures

    def test_identity_residuals(self, skew, sc_small):
        g, sc = sc_small
        assert not sc.failures
        report = check_identity(skew, sc, g)
        assert report.passed
        assert report.max_base_mismatch < 1e-8
        # tau and the check read the same `center_step`
        assert report.max_fiber_residual == 0.0

    def test_sup_pi_id_below_epsilon(self, sc_small):
        _, sc = sc_small
        assert sc.sup_pi_id < EPS

    @pytest.mark.parametrize("field", [
        lambda a: [(0, 0, 1, 0, a / np.sqrt(3.0), 0.0), (1, 0, 0, 1, a / np.sqrt(3.0), 0.0),
                   (2, 1, 0, 0, a / np.sqrt(3.0), 0.0)],
        lambda a: [(0, 0, 0, 1, a, 0.0), (1, 0, 0, 1, 0.0, a)],
    ], ids=["criterion-9", "z-reading"])
    def test_pi_is_lipschitz_in_d_f_g(self, skew, field):
        # Lipschitz shadowing (Pilyugin and Tikhomirov, Nonlinearity 23,
        # 2010): sup d(pi, id) <= C d(f, g), with C from the model, not a fit.
        # pi's base is the A-shadow of a pseudo-orbit whose base defects are
        # at most d(f, g); in the eigenframe (norm |_inv|) its stable and
        # unstable corrections sum at most 1 / (1 - |lam|) and 1 / (|mu| - 1)
        # defects, and a strong-leaf move changes the fiber by at most
        # leaf_slope_s times its offset.  For skew C = 2.28; the ratio
        # reads 1.16 (criterion 9's field) and 1.59 (z-reading), flat in a.
        C = (np.linalg.norm(skew._inv, ord=2)
             * (1.0 / (1.0 - abs(skew.eig_lam)) + 1.0 / (abs(skew.eig_mu) - 1.0))
             * np.sqrt(1.0 + skew.leaf_slope_s ** 2))
        for amp in (1e-5, 1e-4, 1e-3):
            # the finer certificate keeps the z-reading field's bound at 1e-3
            # below the admissible defect 1.0586e-3
            g = PerturbedMap(skew, field(amp), amplitude_bound=1.1 * amp,
                             certification_grid=256)
            sc = semiconjugacy(skew, g, (8, 8, 4), 40, EPS)
            assert not sc.failures
            assert sc.sup_pi_id <= C * g.certified_bound(), amp

    def test_report_holds_no_trace_memory(self, sc_small):
        # a view into the batch trace would keep all of its (B, 2N + 1, 3)
        # points alive for as long as the report lives
        _, sc = sc_small
        for name in ("nodes", "pi", "pi_g", "tau"):
            arr = getattr(sc, name)
            assert arr.flags.owndata and arr.base is None, name

    def test_injected_fault_flags_single_node(self, skew, sc_small):
        g, sc = sc_small
        import copy
        bad = copy.deepcopy(sc)
        node = 137
        bad.pi[node, 2] = (bad.pi[node, 2] + 0.05) % 1.0
        report = check_identity(skew, bad, g)
        assert not report.passed
        assert report.failing_nodes == [node]

    def test_window_stability(self, skew):
        # pi computed from window [-N, N] vs [-N-10, N+10] agrees to 1e-8
        g = default_field(skew, 1e-3)
        params = delta_for_epsilon(skew, EPS)
        a = semiconjugacy(skew, g, (3, 3, 3), 28, EPS, params=params)
        b = semiconjugacy(skew, g, (3, 3, 3), 38, EPS, params=params)
        for i in range(a.nodes.shape[0]):
            assert torus_distance(a.pi[i], b.pi[i]) < 1e-8

    def test_pi_uniqueness_under_limit_tol(self, skew):
        g = default_field(skew, 1e-3)
        pb = delta_for_epsilon(skew, EPS)    # limit_tol 1e-12
        pa = replace(pb, limit_tol=1e-10)
        a = semiconjugacy(skew, g, (3, 3, 3), 30, EPS, params=pa)
        b = semiconjugacy(skew, g, (3, 3, 3), 30, EPS, params=pb)
        for i in range(a.nodes.shape[0]):
            assert torus_distance(a.pi[i][:2], b.pi[i][:2]) < 1e-8

    def test_equivariance_against_snapped_nodes(self, skew, sc_small):
        # pi(g(x)) read from x's trace vs pi at the lattice node nearest to
        # g(x): bounded by the snap distance plus twice sup d(pi, id)
        g, sc = sc_small
        rng = np.random.default_rng(5)
        sup = sc.sup_pi_id
        n1, n2, n3 = sc.grid_res
        for idx in rng.integers(0, sc.nodes.shape[0], size=100):
            gx = g.apply(sc.nodes[idx])
            i1, i2, i3 = (int(round(gx[0] * n1)) % n1, int(round(gx[1] * n2)) % n2,
                          int(round(gx[2] * n3)) % n3)
            snapped = np.ravel_multi_index((i1, i2, i3), sc.grid_res, mode="wrap")
            snap_dist = torus_distance(gx, sc.nodes[snapped])
            gap = torus_distance(sc.pi_g[idx], sc.pi[snapped])
            assert gap <= snap_dist + 2.0 * sup + 1e-6

    def test_file_output(self, tmp_path, skew, sc_small):
        _, sc = sc_small
        path = tmp_path / "sc.txt"
        write_semiconjugacy(sc, path, model_name="skew", perturbation="default")
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 512
        first = lines[0].split()
        assert [int(v) for v in first[:3]] == [0, 0, 0]
        assert len(first) == 7


def synthetic(skew, grid, pi):
    """A SemiConjugacy holding pi(nodes) on the lattice, with no shadowing run."""
    nodes = _lattice(grid)
    return SemiConjugacy(grid_res=grid, nodes=nodes, pi=pi(nodes), pi_g=nodes.copy(),
                         tau=np.zeros(len(nodes)), window=0, params=delta_for_epsilon(skew, 1e-2))


def fiber_shift(nodes, shift):
    return wrap(nodes + np.outer(shift, [0.0, 0.0, 1.0]))


class TestContinuity:
    def test_edges_match_a_direct_loop(self, skew):
        # non-cubic lattice with a smooth pi and one NaN node at the wrapping
        # corner: the modulus equals a loop over every node and axis
        def pi(nodes):
            out = wrap(nodes + 0.01 * np.sin(2.0 * np.pi * nodes[:, [1, 2, 0]]))
            out[-1] = np.nan
            return out
        grid = (8, 9, 10)
        sc = synthetic(skew, grid, pi)
        report = surjectivity_density(sc, 0.35)
        disp = minimal_displacement(sc.nodes, sc.pi)
        jumps = []
        for shift in np.eye(3, dtype=int):
            for a, index in enumerate(np.ndindex(*grid)):
                b = np.ravel_multi_index(np.add(index, shift), grid, mode="wrap")
                if not np.isnan(sc.pi[[a, b]]).any():
                    diff = disp[a] - disp[b]
                    jumps.append(np.sqrt(np.sum(diff * diff)))
        assert len(jumps) == 3 * len(sc.nodes) - 6
        assert report.modulus == max(jumps)
        assert not report.passed   # the NaN node

    def test_planted_jump_fails_by_degree_alone(self, skew):
        # a fiber jump of 0.3 on half the lattice: no failed node and
        # sup d(pi, id) < epsilon, but sup + modulus >= 1/2
        sc = synthetic(skew, (8, 8, 8), lambda x: fiber_shift(x, 0.3 * (x[:, 0] < 0.5)))
        report = surjectivity_density(sc, 0.35)
        assert not np.isnan(sc.pi).any()
        assert report.sup_pi_id < 0.35
        assert report.modulus == pytest.approx(0.3, abs=1e-12)
        assert not report.passed


class TestSurjectivity:
    def test_identity_map_zero_gap(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, (6, 6, 6), 20, 1e-2)
        report = surjectivity_density(sc, 1e-2)
        assert report.sup_pi_id < 1e-9
        assert report.modulus < 1e-9
        assert report.passed

    def test_perturbed_density(self, sc_small):
        _, sc = sc_small
        report = surjectivity_density(sc, EPS)
        assert report.passed
        assert report.sup_pi_id + report.modulus < EPS

    def test_constant_shift_passes(self, skew):
        sc = synthetic(skew, (8, 8, 8), lambda x: fiber_shift(x, 0.3))
        report = surjectivity_density(sc, 0.35)
        assert report.sup_pi_id == pytest.approx(0.3, abs=1e-12)
        assert report.modulus < 1e-12
        assert report.passed

    def test_one_nan_node_fails(self, skew):
        def pi(nodes):
            out = nodes.copy()
            out[137] = np.nan
            return out
        report = surjectivity_density(synthetic(skew, (8, 8, 8), pi), 0.35)
        assert report.sup_pi_id == 0.0 and report.modulus == 0.0
        assert not report.passed

    def test_every_node_failed_gives_inf_gap(self, skew):
        # a window too short for any anchor to certify leaves the image empty
        sc = semiconjugacy(skew, default_field(skew, 1e-3), (2, 2, 2), 8, EPS)
        assert len(sc.failures) == 8
        report = surjectivity_density(sc, EPS)
        assert report.sup_pi_id == np.inf
        assert not report.passed
        assert "FAIL surjectivity: sup_d(pi,id)=inf" in report.summary()

    def test_linear_in_the_node_count(self, skew):
        # 131,072 nodes: a search quadratic in the node count would take minutes
        sc = synthetic(skew, (64, 64, 32),
                       lambda nodes: wrap(nodes + 1e-3 * np.sin(2.0 * np.pi * nodes)))
        start = time.perf_counter()
        report = surjectivity_density(sc, EPS)
        assert time.perf_counter() - start < 10.0
        assert report.passed
