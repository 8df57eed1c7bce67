"""Semiconjugacy sampling and the identity/continuity/surjectivity reports."""

import numpy as np
import pytest

from torusshadow.geometry import torus_distance, wrap
from torusshadow.orbits import PerturbedMap
from torusshadow.shadowing import ParameterError, delta_for_epsilon
from torusshadow.stability import (
    check_identity,
    continuity_report,
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
        assert np.nanmax(sc.residual) < 1e-8
        report = check_identity(skew, sc, g)
        assert report.passed
        assert report.max_base_mismatch < 1e-8
        assert report.max_fiber_residual < 1e-8

    def test_sup_pi_id_below_epsilon(self, sc_small):
        _, sc = sc_small
        assert sc.sup_pi_id < EPS

    def test_report_holds_no_trace_memory(self, sc_small):
        # a view into the batch trace would keep all of its (B, 2N + 1, 3)
        # points alive for as long as the report lives
        _, sc = sc_small
        for name in ("nodes", "pi", "pi_g", "tau", "residual"):
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
        pa = delta_for_epsilon(skew, EPS, limit_tol=1e-10)
        pb = delta_for_epsilon(skew, EPS, limit_tol=1e-12)
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
        assert len(first) == 8


class TestContinuity:
    def test_identity_map_ratios_one(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, (8, 8, 8), 20, 1e-2)
        report = continuity_report(sc)
        for r in report.max_ratio_per_axis:
            assert r == pytest.approx(1.0, abs=1e-9)
        assert not report.anomalies

    def test_small_grid_rejected(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, (4, 4, 4), 20, 1e-2)
        with pytest.raises(ValueError):
            continuity_report(sc)

    def test_anomaly_injection_flags_incident_nodes(self, skew):
        # synthetic pi = identity on a 16^3 lattice, one node corrupted far
        # enough that its six incident difference quotients exceed 10x the
        # median; the report is the unit under test, so no shadowing run
        from torusshadow.shadowing import delta_for_epsilon
        from torusshadow.stability import SemiConjugacy, _lattice
        nodes = _lattice((16, 16, 16))
        sc = SemiConjugacy(grid_res=(16, 16, 16), nodes=nodes, pi=nodes.copy(),
                           pi_g=nodes.copy(), tau=np.zeros(len(nodes)),
                           residual=np.zeros(len(nodes)), window=0,
                           params=delta_for_epsilon(skew, 1e-2))
        node = np.ravel_multi_index((7, 7, 7), sc.grid_res, mode="wrap")
        sc.pi[node] = (sc.pi[node] + 0.404) % 1.0
        report = continuity_report(sc)
        expected = {node}
        for shift in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            expected.add(np.ravel_multi_index(np.add((7, 7, 7), shift), sc.grid_res,
                                              mode="wrap"))
        assert set(report.anomalies) == expected

    def test_edges_match_a_direct_loop(self, skew):
        # non-cubic lattice with a smooth pi and one NaN node at the wrapping
        # corner: the report's edge set equals a loop over every node and axis
        from torusshadow.stability import SemiConjugacy, _lattice
        grid = (8, 9, 10)
        nodes = _lattice(grid)
        pi = wrap(nodes + 0.01 * np.sin(2.0 * np.pi * nodes[:, [1, 2, 0]]))
        pi[-1] = np.nan
        sc = SemiConjugacy(grid_res=grid, nodes=nodes, pi=pi, pi_g=pi.copy(),
                           tau=np.zeros(len(nodes)), residual=np.zeros(len(nodes)),
                           window=0, params=delta_for_epsilon(skew, 1e-2))
        report = continuity_report(sc)
        per_axis = []
        for shift in np.eye(3, dtype=int):
            ratios = []
            for a, index in enumerate(np.ndindex(*grid)):
                b = np.ravel_multi_index(np.add(index, shift), grid, mode="wrap")
                if not np.isnan(pi[[a, b]]).any():
                    ratios.append(torus_distance(pi[a], pi[b])
                                  / torus_distance(nodes[a], nodes[b]))
            per_axis.append(ratios)
        assert report.max_ratio_per_axis == tuple(max(r) for r in per_axis)
        everything = np.concatenate(per_axis)
        assert everything.size == 3 * len(nodes) - 6
        assert report.median_ratio == float(np.median(everything))
        assert [c for _, _, c in report.histogram] == np.histogram(everything, bins=10)[0].tolist()
        assert report.anomalies == []


class TestSurjectivity:
    def test_identity_map_zero_gap(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, (6, 6, 6), 20, 1e-2)
        report = surjectivity_density(sc, 1e-2)
        assert report.density_gap < 1e-9
        assert report.passed

    def test_perturbed_density(self, sc_small):
        _, sc = sc_small
        report = surjectivity_density(sc, EPS)
        assert report.passed
        assert report.density_gap < EPS

    def test_coarse_grid_flagged(self, skew):
        g = PerturbedMap(skew, [], amplitude_bound=1e-12)
        sc = semiconjugacy(skew, g, (4, 4, 4), 20, 1e-2)
        report = surjectivity_density(sc, 1e-2)
        assert not report.resolution_sufficient  # spacing 0.25 > epsilon

    def test_every_node_failed_gives_inf_gap(self, skew):
        # a window too short for any anchor to certify leaves the image empty
        sc = semiconjugacy(skew, default_field(skew, 1e-3), (2, 2, 2), 8, EPS)
        assert len(sc.failures) == 8
        report = surjectivity_density(sc, EPS)
        assert report.density_gap == np.inf
        assert report.sup_pi_id == np.inf
        assert not report.passed

