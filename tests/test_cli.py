"""CLI contract: subcommand chain, exit codes, manifests, determinism."""

import dataclasses
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import torusshadow
from torusshadow import cli, orbits, shadowing
from torusshadow.cli import main
from torusshadow.models import builtin_model
from torusshadow.orbits import PerturbedMap, generate_noisy, write_table
from torusshadow.shadowing import delta_for_epsilon


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_bytes_map(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# The JSON reports' schemas: each report dataclass's fields less `epsilon`,
# which the manifest holds.
VERIFY_KEYS = {"passed", "max_distance", "max_base_residual", "max_motion", "failing_indices",
               "interior", "oracle_gap"}
STABILITY_KEYS = {"identity": {"passed", "max_base_mismatch", "max_fiber_residual",
                               "failing_nodes"},
                  "surjectivity": {"passed", "sup_pi_id", "modulus"}}


class TestConstants:
    def test_default_linear(self, workdir, capsys):
        assert run(["constants", "--model", "linear", "--epsilon", "1e-2",
                    "--out", "c"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "margin" in out
        data = json.loads((workdir / "c" / "constants.json").read_text())
        assert all(m >= 2.0 for m in data["margins"].values())

    def test_oversized_epsilon_exit_3(self, workdir, capsys):
        assert run(["constants", "--model", "skew", "--epsilon", "0.5",
                    "--out", "c"]) == 3
        assert "validity radius" in capsys.readouterr().err

    def test_bad_model_file_exit_2(self, workdir, tmp_path, capsys):
        # broken JSON, and JSON that is not an object
        bad = tmp_path / "bad.json"
        for text, named in (("{", "not valid JSON"), ("[1, 2]", "got list"),
                            ('"skew"', "got str"), ("3", "got int")):
            bad.write_text(text)
            assert run(["constants", "--model", bad, "--epsilon", "1e-2",
                        "--out", "c"]) == 2
            assert named in capsys.readouterr().err

    def test_determinism(self, workdir):
        run(["constants", "--model", "skew", "--epsilon", "1e-2", "--out", "a"])
        first = read_bytes_map(workdir / "a")
        shutil.rmtree(workdir / "a")
        run(["constants", "--model", "skew", "--epsilon", "1e-2", "--out", "a"])
        assert read_bytes_map(workdir / "a") == first


class TestPipeline:
    def test_orbit_shadow_verify_chain(self, workdir, capsys):
        assert run(["orbit", "--model", "skew", "--delta", "0", "--window",
                    "-60", "60", "--seed", "5", "--out", "o"]) == 0
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s"]) == 0
        assert run(["verify", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--trace", "s/trace.txt", "--epsilon", "1e-2", "--out", "v"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads((workdir / "v" / "verify.json").read_text())
        assert set(report) == VERIFY_KEYS
        assert report["passed"]
        assert report["max_distance"] < 1e-9
        assert report["interior"] == [-58, 58]

    def test_noisy_chain_with_oracle(self, workdir, capsys):
        run(["constants", "--model", "linear", "--epsilon", "5e-2", "--out", "c"])
        delta = json.loads((workdir / "c" / "constants.json").read_text())["delta"]
        assert delta > 1e-4
        assert run(["orbit", "--model", "linear", "--delta", "1e-4", "--window",
                    "-50", "50", "--seed", "17", "--out", "o"]) == 0
        assert run(["shadow", "--model", "linear", "--orbit", "o/orbit.txt",
                    "--epsilon", "5e-2", "--out", "s"]) == 0
        assert run(["verify", "--model", "linear", "--orbit", "o/orbit.txt",
                    "--trace", "s/trace.txt", "--epsilon", "5e-2", "--out", "v"]) == 0
        report = json.loads((workdir / "v" / "verify.json").read_text())
        assert report["oracle_gap"] < 1e-8

    def test_missing_orbit_exit_2(self, workdir):
        assert run(["shadow", "--model", "skew", "--orbit", "nope.txt",
                    "--epsilon", "1e-2", "--out", "s"]) == 2

    def test_corrupted_trace_exit_1(self, workdir, capsys):
        run(["orbit", "--model", "skew", "--delta", "0", "--window", "-30", "30",
             "--seed", "5", "--out", "o"])
        run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
             "--epsilon", "1e-2", "--out", "s"])
        trace = (workdir / "s" / "trace.txt")
        lines = trace.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("3 "):
                parts = line.split()
                parts[3] = str((float(parts[3]) + 0.05) % 1.0)
                lines[i] = " ".join(parts)
                break
        trace.write_text("\n".join(lines) + "\n")
        assert run(["verify", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--trace", "s/trace.txt", "--epsilon", "1e-2", "--out", "v"]) == 1
        assert "failing" in capsys.readouterr().out

    def test_oversized_epsilon_on_shadow_exit_3(self, workdir):
        run(["orbit", "--model", "skew", "--delta", "0", "--window", "-30", "30",
             "--seed", "5", "--out", "o"])
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "0.9", "--out", "s"]) == 3

    def test_manifest_roundtrip_byte_identical(self, workdir):
        run(["orbit", "--model", "skew", "--delta", "2e-5", "--window", "-40", "40",
             "--seed", "23", "--out", "o1"])
        run(["shadow", "--model", "skew", "--orbit", "o1/orbit.txt",
             "--epsilon", "1e-2", "--out", "s1"])
        run(["constants", "--model", "skew", "--epsilon", "1e-2", "--out", "c1"])
        # replay each command from its manifest's canonical argv into a
        # fresh directory: outputs must be byte-identical
        for src, dst, fname in (("o1", "o2", "orbit.txt"),
                                ("s1", "s2", "trace.txt"),
                                ("c1", "c2", "constants.json")):
            manifest = json.loads((workdir / src / "manifest.json").read_text())
            argv = manifest["argv"]
            argv[argv.index("--out") + 1] = dst
            assert run(argv) == 0
            assert (workdir / src / fname).read_bytes() == (workdir / dst / fname).read_bytes()


class TestStability:
    def test_stability_small_grid(self, workdir, capsys):
        assert run(["stability", "--model", "skew", "--epsilon", "0.216",
                    "--grid", "8", "8", "8", "--half-length", "30",
                    "--delta", "1e-3", "--out", "st"]) == 0
        out = capsys.readouterr().out
        assert "PASS identity" in out
        assert "PASS surjectivity" in out
        data = json.loads((workdir / "st" / "stability.json").read_text())
        assert set(data) == {*STABILITY_KEYS, "node_failures"}
        for name, keys in STABILITY_KEYS.items():
            assert set(data[name]) == keys, name
        assert data["identity"]["passed"]
        assert not data["node_failures"]
        sc_file = (workdir / "st" / "semiconjugacy.txt").read_text().splitlines()
        assert sum(1 for l in sc_file if not l.startswith("#")) == 512

    def test_stability_perturbation_file(self, workdir, tmp_path):
        pert_file = tmp_path / "pert.json"
        pert_file.write_text(json.dumps({
            "amplitude_bound": 1.2e-3,
            "modes": [{"coord": 2, "freq": [1, 0, 0], "sin": 1e-3, "cos": 0.0}],
        }))
        assert run(["stability", "--model", "skew", "--epsilon", "0.216",
                    "--grid", "4", "4", "4", "--half-length", "30",
                    "--perturbation", pert_file, "--out", "st"]) == 0

    def test_stability_every_node_failed(self, workdir, capsys):
        # no anchor certifies in a half-length-8 window: FAIL with files, not a crash
        assert run(["stability", "--model", "skew", "--epsilon", "0.216",
                    "--grid", "2", "2", "2", "--half-length", "8",
                    "--delta", "1e-3", "--out", "st"]) == 1
        out = capsys.readouterr().out
        assert "FAIL surjectivity: sup_d(pi,id)=inf" in out
        assert "FAIL stability" in out and "node_failures=8" in out
        data = json.loads((workdir / "st" / "stability.json").read_text(),
                          parse_constant=_reject_constant)
        assert data["surjectivity"]["passed"] is False
        assert data["surjectivity"]["sup_pi_id"] is None
        assert len(data["node_failures"]) == 8
        assert (workdir / "st" / "semiconjugacy.txt").exists()

    def test_failure_lists_capped_at_100(self, workdir, capsys):
        # 125 nodes, none of which certifies an anchor in a half-length-8 window
        assert run(["stability", "--model", "skew", "--epsilon", "0.216",
                    "--grid", "5", "5", "5", "--half-length", "8",
                    "--delta", "1e-3", "--out", "st"]) == 1
        assert "failing_nodes=125" in capsys.readouterr().out
        data = json.loads((workdir / "st" / "stability.json").read_text())
        assert data["identity"]["failing_nodes"] == list(range(100))
        assert [node for node, _ in data["node_failures"]] == list(range(100))


def _edit_line(path: Path, prefix: str, column: int, value: str) -> None:
    """Replace one whitespace-separated field of the first line starting with prefix."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            parts = line.split()
            parts[column] = value
            lines[i] = " ".join(parts)
            break
    else:
        raise AssertionError(f"no line starts with {prefix!r}")
    path.write_text("\n".join(lines) + "\n")


class TestInputGuards:
    @pytest.fixture
    def chain(self, workdir):
        assert run(["orbit", "--model", "skew", "--delta", "0", "--window", "-30", "30",
                    "--seed", "5", "--out", "o"]) == 0
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s"]) == 0
        return workdir

    @staticmethod
    def verify(model="skew", epsilon="1e-2"):
        return run(["verify", "--model", model, "--orbit", "o/orbit.txt",
                    "--trace", "s/trace.txt", "--epsilon", epsilon, "--out", "v"])

    def test_nan_orbit_point_exit_2(self, chain, capsys):
        # index 3 is odd, so with k = 2 it is not a subsampled index
        _edit_line(chain / "o" / "orbit.txt", "3 ", 2, "nan")
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s2"]) == 2
        assert self.verify() == 2
        assert "index 3" in capsys.readouterr().err
        assert not (chain / "s2" / "trace.txt").exists()

    def test_non_numeric_field_names_its_line_exit_2(self, chain, capsys):
        orbit, trace = chain / "o" / "orbit.txt", chain / "s" / "trace.txt"
        clean = orbit.read_text()
        _edit_line(orbit, "3 ", 2, "abc")
        number = next(i for i, l in enumerate(orbit.read_text().splitlines(), 1) if "abc" in l)
        message = f"o/orbit.txt line {number} has a non-numeric field 'abc'"
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s2"]) == 2
        assert message in capsys.readouterr().err
        assert self.verify() == 2
        assert message in capsys.readouterr().err
        orbit.write_text(clean)
        _edit_line(trace, "3 ", 2, "abc")
        number = next(i for i, l in enumerate(trace.read_text().splitlines(), 1) if "abc" in l)
        assert self.verify() == 2
        assert f"s/trace.txt line {number} has a non-numeric field 'abc'" in capsys.readouterr().err

    def test_far_jump_in_orbit_exit_3(self, chain, capsys):
        # row 8 is a subsampled index; shifted by (0.45, 0.45) it is past the
        # lift-ambiguity radius of its intersections, and still only a defect
        lines = (chain / "o" / "orbit.txt").read_text().splitlines()
        row = next(line for line in lines if line.startswith("8 ")).split()
        for col in (1, 2):
            _edit_line(chain / "o" / "orbit.txt", "8 ", col,
                       repr((float(row[col]) + 0.45) % 1.0))
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s2"]) == 3
        err = capsys.readouterr().err
        assert "forward defect" in err and "Traceback" not in err

    def test_nan_trace_row_exit_2(self, chain, capsys):
        _edit_line(chain / "s" / "trace.txt", "3 ", 1, "nan")
        assert self.verify() == 2
        assert "row 3" in capsys.readouterr().err

    def test_verify_epsilon_mismatch_exit_3(self, chain, capsys):
        assert self.verify(epsilon="2e-2") == 3
        assert "epsilon" in capsys.readouterr().err
        # too large for the model: the parameter check itself fails
        assert self.verify(epsilon="0.5") == 3

    def test_verify_k_mismatch_exit_3(self, chain, capsys):
        text = (chain / "s" / "trace.txt").read_text()
        assert "# k: 2\n" in text
        (chain / "s" / "trace.txt").write_text(text.replace("# k: 2\n", "# k: 3\n"))
        assert self.verify() == 3
        assert "k = 3" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_verify_power_below_one_exit_2(self, chain, capsys, k):
        # an input error, found before the parameter comparison
        text = (chain / "s" / "trace.txt").read_text()
        (chain / "s" / "trace.txt").write_text(text.replace("# k: 2\n", f"# k: {k}\n"))
        assert self.verify() == 2
        assert f"trace file s/trace.txt has power k = {k};" in capsys.readouterr().err

    def test_verify_names_every_differing_parameter(self, chain, capsys):
        text = (chain / "s" / "trace.txt").read_text()
        line = next(l for l in text.splitlines() if l.startswith("# alpha: "))
        (chain / "s" / "trace.txt").write_text(text.replace(line, "# alpha: 1.5"))
        assert self.verify() == 3
        err = capsys.readouterr().err
        # the one differing field is named, with its resolved value
        assert "alpha = 1.5 (resolved " in err and err.count(" = ") == 1

    def test_verify_reads_an_older_trace_with_model_constants(self, chain):
        # older files also carried the model's L0, delta0 and delta1 before
        # lam_k, and lip_f and lip_f_inv after delta_step; read_trace ignores them
        path, sys_model = chain / "s" / "trace.txt", builtin_model("skew")
        params = shadowing.read_trace(path).params
        text = path.read_text()
        lam_k, step = (next(line for line in text.splitlines(keepends=True)
                            if line.startswith(key)) for key in ("# lam_k:", "# delta_step:"))
        before, after = ("".join(f"# {name}: {getattr(sys_model, name):.17g}\n" for name in names)
                         for names in (("L0", "delta0", "delta1"), ("lip_f", "lip_f_inv")))
        path.write_text(text.replace(lam_k, before + lam_k).replace(step, step + after))
        assert shadowing.read_trace(path).params == params
        assert self.verify() == 0

    def test_verify_trace_without_parameters_exit_2(self, chain, capsys):
        text = (chain / "s" / "trace.txt").read_text()
        (chain / "s" / "trace.txt").write_text("".join(
            l for l in text.splitlines(keepends=True) if not l.startswith("# delta_step:")))
        assert self.verify() == 2
        assert "delta_step" in capsys.readouterr().err

    def test_short_orbit_row_exit_2(self, chain, capsys):
        lines = (chain / "o" / "orbit.txt").read_text().splitlines()
        row = next(l for l in lines if l.startswith("1 "))
        (chain / "o" / "orbit.txt").write_text(
            "\n".join(l if l != row else "1 0.1 0.2" for l in lines) + "\n")
        assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s2"]) == 2
        assert self.verify() == 2
        assert "3 columns, expected 4" in capsys.readouterr().err

    def test_verify_ignores_an_edited_interior_header(self, chain, capsys):
        # the interior follows from the window and k, not from the file
        _edit_line(chain / "s" / "trace.txt", "3 ", 3, "0.5")
        lines = (chain / "s" / "trace.txt").read_text().splitlines(keepends=True)
        (chain / "s" / "trace.txt").write_text("# interior: 10 20\n" + "".join(
            line for line in lines if not line.startswith("# interior:")))
        assert self.verify() == 1
        assert "failing=[3, 4]" in capsys.readouterr().out

    def test_verify_model_mismatch_exit_2(self, chain, capsys):
        assert self.verify(model="linear") == 2
        assert "'skew'" in capsys.readouterr().err

    def test_verify_window_mismatch_exit_2(self, chain, capsys):
        # the trace of an orbit on [-30, 40] against the orbit on [-30, 30];
        # a window mismatch is an input error, found ahead of the parameter
        # mismatch (exit 3) this trace also has
        assert run(["orbit", "--model", "skew", "--delta", "0", "--window", "-30", "40",
                    "--seed", "5", "--out", "o2"]) == 0
        assert run(["shadow", "--model", "skew", "--orbit", "o2/orbit.txt",
                    "--epsilon", "1e-2", "--out", "s"]) == 0
        _edit_line(chain / "s" / "trace.txt", "# alpha:", 2, "1.5")
        capsys.readouterr()
        assert self.verify() == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR input: trace window [-30, 40] is not the orbit's [-30, 30]")

    def test_trace_rows_hold_y_star_alone(self, chain, capsys):
        # `q y1 y2 y3`; a row that also carries y', the motion and the
        # distance, nine columns in all, is an input error naming the count
        path = chain / "s" / "trace.txt"
        lines = path.read_text().splitlines()
        rows = [line.split() for line in lines if not line.startswith("#")]
        assert len(rows) == 61 and all(len(row) == 4 for row in rows)
        path.write_text("\n".join(line if line.startswith("#") else
                                   line + " " + " ".join(line.split()[1:]) + " 0 0"
                                   for line in lines) + "\n")
        assert self.verify() == 2
        assert "has 9 columns, expected 4" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line, after", [
        ("s/trace.txt", "# r1: 0.5", False),     # the last value won: PASS
        ("s/trace.txt", "# r1: 0.5", True),      # a parameter mismatch: exit 3
        ("o/orbit.txt", "# delta: 0.001", False),
    ], ids=["trace-before", "trace-after", "orbit"])
    def test_repeated_header_key_exit_2(self, chain, capsys, name, line, after):
        path = chain / name
        lines = path.read_text().splitlines()
        key = line.partition(":")[0]
        at = next(i for i, l in enumerate(lines) if l.startswith(key + ":"))
        lines.insert(at + after, line)
        path.write_text("\n".join(lines) + "\n")
        assert self.verify() == 2
        second = [i for i, l in enumerate(lines, 1) if l.startswith(key + ":")][1]
        assert (f"{name} line {second} repeats the header {key[2:]!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [["--grid", "0", "2", "2"],
                                       ["--grid", "2", "2", "2", "--half-length", "0"],
                                       ["--grid", "2", "-1", "2"],
                                       ["--grid", "2", "x", "2"]])
    def test_non_positive_sizes_exit_2(self, workdir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run(["stability", "--model", "skew", "--epsilon", "0.216", "--delta", "1e-3",
                 *flags, "--out", "st"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err and "positive integer" in err

    @pytest.mark.parametrize("flags", [["--delta", "1e-3", "--perturbation", "pert.json"],
                                       ["--perturbation", "pert.json", "--delta", "1e-3"]])
    def test_perturbation_and_delta_exit_2(self, workdir, capsys, flags):
        # one field or the other: the run would read the file and record both
        with pytest.raises(SystemExit) as exc:
            run(["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                 *flags, "--out", "st"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err and "not allowed with argument" in err


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:   # argparse rejected a value before any command ran
        return exc.code


# each row names its own id, so deleting a row renames no other
@pytest.mark.parametrize("argv, code", [
    pytest.param(["orbit", "--delta", "-1", "--window", "-5", "5"], 2, id="argv0-2"),
    pytest.param(["orbit", "--delta", "0", "--window", "5", "-5"], 2, id="argv1-2"),
    pytest.param(["orbit", "--delta", "0", "--window", "-5", "5", "--x0", "nan", "0", "0"], 2,
                 id="argv2-2"),
    pytest.param(["orbit", "--delta", "nan", "--window", "-5", "5"], 2, id="argv3-2"),
    pytest.param(["stability", "--epsilon", "0.216", "--grid", "2", "2", "2",
                  "--perturbation", "pert.json"], 2, id="argv4-2"),
    pytest.param(["stability", "--epsilon", "0.216", "--grid", "2", "2", "2",
                  "--delta", "nan"], 2, id="argv5-2"),
    pytest.param(["stability", "--epsilon", "0.216", "--grid", "2", "2", "2",
                  "--delta", "inf"], 2, id="argv6-2"),
    pytest.param(["stability", "--epsilon", "0.216", "--grid", "2", "2", "2",
                  "--perturbation", "pert-coord.json"], 2, id="argv7-2"),
    pytest.param(["constants", "--epsilon", "nan"], 3, id="argv8-3"),
    pytest.param(["stability", "--epsilon", "0.216", "--grid", "2", "2", "2",
                  "--perturbation", "pert-freq.json"], 2, id="argv9-2"),
])
def test_bad_command_line_exits_with_error(workdir, capsys, argv, code):
    (workdir / "pert.json").write_text(json.dumps({"amplitude_bound": 1e-3,
                                                   "modes": [[0, 1]]}))
    # non-integer coordinate and frequency, once read as coordinate 0, frequency 1
    for name, mode in (("coord", {"coord": 0.6, "freq": [1, 0, 0]}),
                       ("freq", {"coord": 0, "freq": [1.5, 0, 0]})):
        (workdir / f"pert-{name}.json").write_text(json.dumps({
            "amplitude_bound": 1.2e-3, "modes": [{**mode, "sin": 1e-3}]}))
    # an exception escaping main would fail the test before the asserts
    assert _exit_code([*argv, "--model", "skew", "--out", "x"]) == code
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert any(line.startswith("ERROR") or ": error: " in line for line in err.splitlines())


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_x0_exit_2_naming_x0(workdir, capsys, value):
    # the orbit's start is checked before it is wrapped, not by `wrap`
    assert run(["orbit", "--model", "skew", "--delta", "0", "--window", "-5", "5",
                "--x0", value, "0", "0", "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"ERROR input: x0 must be three finite coordinates, got [{value}, 0.0, 0.0]\n"
    assert not (workdir / "o" / "orbit.txt").exists()


SKEW_FILE = {"matrix": [[2, 1], [1, 1]], "omega": 0.05,
             "phi_modes": [{"freq": [1, 0], "sin": 0.02, "cos": 0.0}]}


@pytest.mark.parametrize("edit, message", [
    ({"series_tol": float("nan")}, "series_tol must be finite and positive"),
    ({"series_tol": float("inf")}, "series_tol must be finite and positive"),
    ({"omega": float("nan")}, "omega must be finite"),
    ({"phi_modes": [{"freq": [1, 0], "sin": float("nan")}]}, "amplitudes must be finite"),
    ({"matrix": [[2.7, 1], [1, 1.9]]}, "base matrix entries must be integers"),
    ({"phi_modes": [{"freq": [1.5, 0], "sin": 0.02}]}, "phi mode frequencies must be integers"),
    ({"series_tol": 1e-300}, "series_tol = 1e-300 needs more than 500 transfer-series terms"),
    ({"series_tol": 5e-324}, "series_tol = 5e-324 needs more than 500 transfer-series terms"),
    # integral, but outside int64: the cast used to wrap them to -2**63
    ({"phi_modes": [{"freq": [1e19, 0], "sin": 0.0}]}, "phi mode frequencies must be integers"),
    ({"perturbation": [{"coord": 2, "freq": [1e308, 0, 0], "sin": 1e-3}]},
     "perturbation coordinates and frequencies must be integers"),
    ({"matrix": [[0, 1], [1, 0]]}, "base matrix is not hyperbolic: eigenvalues -1.0, 1.0"),
    ({"matrix": [[2, 1], [1, 1], [0, 1]]}, "base matrix must be 2x2, got shape (3, 2)"),
    ({"phi_modes": [{"freq": [1, 0], "sin": 0.3}]}, "fiber coupling too strong"),
    ({"phi_modes": [{"freq": [1, 0, 5], "sin": 0.02}]},
     "phi mode (1, 0, 5, 0.02, 0.0) needs 2 frequencies"),
    ({"perturbation": [{"coord": 3, "freq": [1, 0, 0], "sin": 1e-3}]},
     "perturbation coordinate must be 0, 1, or 2, got 3"),
    ({"perturbation": [{"coord": 2, "freq": [1, 0], "sin": 1e-3}]},
     "perturbation mode (2, 1, 0, 0.001, 0.0) needs 3 frequencies"),
    # a JSON string or bool where a number belongs: "10" used to unpack to
    # the frequencies (1, 0), and true to read as 1.0
    ({"matrix": [["2", 1], [1, 1]]}, "matrix: expected a number, got '2'"),
    ({"phi_modes": [{"freq": "10", "sin": 0.02}]}, "phi mode freq: expected a list, got '10'"),
    ({"omega": True}, "omega: expected a number, got True"),
    ({"perturbation": [{"coord": 2, "freq": [1, 0, 0], "sin": "1e-3"}]},
     "perturbation mode sin: expected a number, got '1e-3'"),
    ({"amplitude_bound": True}, "amplitude_bound: expected a number, got True"),
    # a misspelt key used to be ignored: the field it meant read as absent
    ({"omeg": 0.05}, "model description: unknown key(s) ['omeg']"),
    ({"phi_modes": [{"freq": [1, 0], "sine": 0.3}]}, "phi mode: unknown key(s) ['sine']"),
    ({"perturbation": [{"coord": 0, "freq": [1, 0, 0], "sine": 0.1}]},
     "perturbation mode: unknown key(s) ['sine']"),
    ({"amplitude_bound": 1.2e-3, "certificaton_grid": 64},
     "perturbation: unknown key(s) ['certificaton_grid']"),
    # a mode that is not a JSON object used to exit with Python's own text
    # ("string indices must be integers, not 'str'")
    ({"phi_modes": [[1, 0, 0.02, 0.0]]}, "phi mode must be a JSON object, got list"),
    ({"phi_modes": ["abc"]}, "phi mode must be a JSON object, got str"),
    ({"perturbation": [[2, 1, 0, 0, 1e-3, 0.0]]},
     "perturbation mode must be a JSON object, got list"),
], ids=["series_tol-nan", "series_tol-inf", "omega-nan", "sin-nan", "matrix-fraction",
        "freq-fraction", "series_tol-tiny", "series_tol-subnormal", "freq-1e19",
        "perturbation-freq-1e308", "matrix-eigenvalues-on-circle", "matrix-3x2",
        "coupling-too-strong", "phi-freq-three", "perturbation-coord-3",
        "perturbation-freq-two", "matrix-string", "freq-string", "omega-bool",
        "perturbation-sin-string", "amplitude_bound-bool", "model-key-omeg",
        "phi-mode-key-sine", "perturbation-mode-key-sine", "perturbation-key-certificaton_grid",
        "phi-mode-list", "phi-mode-string", "perturbation-mode-list"])
def test_non_finite_model_field_exit_2(workdir, capsys, edit, message):
    # an edit with a "perturbation" (modes) or "amplitude_bound" key is one
    # of a perturbation file read by `stability`, every key of it included
    on_perturbation = bool(edit.keys() & {"perturbation", "amplitude_bound"})
    (workdir / "model.json").write_text(json.dumps(SKEW_FILE if on_perturbation
                                                   else {**SKEW_FILE, **edit}))
    argv = ["constants", "--model", "model.json", "--epsilon", "1e-2", "--out", "c"]
    if on_perturbation:
        (workdir / "pert.json").write_text(json.dumps({
            "amplitude_bound": 1.2e-3, "modes": [{"coord": 2, "freq": [1, 0, 0], "sin": 1e-3}],
            **{"modes" if key == "perturbation" else key: value for key, value in edit.items()}}))
        argv = ["stability", "--model", "model.json", "--epsilon", "0.216", "--grid", "2",
                "2", "2", "--perturbation", "pert.json", "--out", "st"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("ERROR model: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("data", [[{"coord": 2, "freq": [1, 0, 0], "sin": 1e-3}], "modes", 1e-3],
                         ids=["list", "string", "number"])
def test_perturbation_file_not_an_object_exit_2(workdir, capsys, data):
    # it used to exit with "TypeError: list indices must be integers or
    # slices, not str"
    (workdir / "pert.json").write_text(json.dumps(data))
    assert run(["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                "--perturbation", "pert.json", "--out", "st"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err == (f"ERROR model: perturbation must be a JSON object, "
                   f"got {type(data).__name__}\n")


@pytest.mark.parametrize("argv, message", [
    (["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2"],
     "ERROR input: stability needs --perturbation <file> or --delta <amplitude>"),
    (["constants", "--model", "missing.json", "--epsilon", "1e-2"],
     "ERROR model: cannot read model file missing.json"),
    (["constants", "--model", "no-matrix.json", "--epsilon", "1e-2"],
     "ERROR model: malformed model description: 'matrix'"),
    (["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
      "--perturbation", "no-modes.json"],
     "ERROR input: perturbation file no-modes.json is malformed: KeyError: 'modes'"),
    (["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
      "--perturbation", "no-coord.json"],
     "ERROR input: perturbation file no-coord.json is malformed: KeyError: 'coord'"),
], ids=["stability-without-a-field", "model-file-missing", "model-without-matrix",
        "perturbation-without-modes", "perturbation-mode-without-coord"])
def test_unusable_input_exit_2(workdir, capsys, argv, message):
    (workdir / "no-matrix.json").write_text(json.dumps({"omega": 0.05}))
    (workdir / "no-modes.json").write_text(json.dumps({"amplitude_bound": 1e-3}))
    (workdir / "no-coord.json").write_text(json.dumps(
        {"amplitude_bound": 1e-3, "modes": [{"freq": [1, 0, 0], "sin": 1e-3}]}))
    assert run([*argv, "--out", "x"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith(message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("model, epsilon, message", [
    # alpha = 0.75, and r2 is capped at r1 = 0.0726 < lam^k alpha
    ("skew", "5", "holonomy radius r2 too small for this epsilon"),
    # phi amplitude 0.235 leaves lam_eff = 0.989 below 1, and 2 lam_eff^k L0
    # at least 1/2 up to k = 60
    ("weak.json", "1e-2", "no admissible power k: contraction rate too weak"),
], ids=["holonomy-radius", "no-power-k"])
def test_infeasible_parameters_exit_3(workdir, capsys, model, epsilon, message):
    (workdir / "weak.json").write_text(json.dumps(
        {**SKEW_FILE, "phi_modes": [{"freq": [1, 0], "sin": 0.235}]}))
    assert run(["constants", "--model", model, "--epsilon", epsilon, "--out", "c"]) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and err == f"ERROR parameters: {message}\n"


def test_window_too_short_to_certify_exit_1(workdir, capsys):
    # +-6 holds the 3 subsampled steps a side that k = 2 needs, but the
    # forward anchor's tail bound is not below limit_tol within them
    assert run(["orbit", "--model", "skew", "--delta", "4.9e-5", "--window", "-6", "6",
                "--seed", "3", "--out", "o"]) == 0
    capsys.readouterr()
    assert run(["shadow", "--model", "skew", "--orbit", "o/orbit.txt", "--epsilon", "1e-2",
                "--out", "s"]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("ERROR construction: forward anchor tail bound")
    assert not (workdir / "s" / "trace.txt").exists()


def test_overflowing_perturbation_exit_2_without_a_warning(workdir):
    # a constant mode of amplitude 1e308 passes the mode checks, as its
    # Lipschitz term is 0; its square overflows, and the certificate
    # rejects it with one error line and no RuntimeWarning before it
    (workdir / "pert.json").write_text(json.dumps({
        "amplitude_bound": 1.2e-3, "modes": [{"coord": 0, "freq": [0, 0, 0], "cos": 1e308}]}))
    env = {**os.environ, "PYTHONPATH": str(Path(torusshadow.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "torusshadow.cli", "stability", "--model", "skew",
                           "--epsilon", "0.216", "--grid", "2", "2", "2", "--perturbation",
                           "pert.json", "--out", "st"],
                          cwd=workdir, env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("ERROR model: certified d(f, g) = inf exceeds ")
    assert len(done.stderr.splitlines()) == 1


def test_bad_certification_grid_exit_2(workdir, capsys):
    (workdir / "pert.json").write_text(json.dumps({
        "amplitude_bound": 1.2e-3, "certification_grid": 0,
        "modes": [{"coord": 2, "freq": [1, 0, 0], "sin": 1e-3}]}))
    assert run(["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                "--perturbation", "pert.json", "--out", "st"]) == 2
    assert "certification_grid must be a positive integer" in capsys.readouterr().err


def test_steep_perturbation_exit_2(workdir, capsys):
    # the certified sup |v| = 5.0e-4 is admissible, but lip_v Lip(f^-1) =
    # 4.98 >= 1, so g^-1 need not be unique; the inversion used to end in a
    # RuntimeError traceback
    (workdir / "pert.json").write_text(json.dumps({
        "amplitude_bound": 1.0575e-3, "certification_grid": 8192,
        "modes": [{"coord": 1, "freq": [0, 1000, 0], "sin": 3e-4}]}))
    assert run(["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                "--half-length", "10", "--perturbation", "pert.json", "--out", "st"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("ERROR model: ") and "Lip(f^-1) = 2.64" in err and "4.98" in err
    assert len(err.splitlines()) == 1


def test_inverse_non_convergence_exit_2(workdir, capsys, monkeypatch):
    # one Newton step leaves the default field's preimages short of the
    # residual; it used to end in a RuntimeError traceback
    monkeypatch.setattr(orbits, "INVERSE_MAX_ITER", 1)
    assert run(["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                "--half-length", "10", "--delta", "1e-3", "--out", "st"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("ERROR model: perturbed-map inversion did not reach residual ")
    assert "in 1 steps" in err and len(err.splitlines()) == 1


def test_one_process_matches_fresh_processes(workdir, tmp_path):
    # main builds its parser once per process: a chain, a rejected command
    # line and a rerun in this process write the bytes that a fresh
    # `python -m torusshadow.cli` writes for each command
    chain = [(["orbit", "--model", "skew", "--delta", "2e-5", "--window", "-30", "30",
               "--seed", "9", "--out", "o"], 0),
             (["shadow", "--model", "skew", "--orbit", "o/orbit.txt", "--epsilon", "1e-2",
               "--out", "s"], 0),
             (["verify", "--model", "skew", "--orbit", "o/orbit.txt", "--trace", "s/trace.txt",
               "--epsilon", "1e-2", "--out", "v"], 0),
             (["shadow", "--orbit", "o/orbit.txt", "--epsilon", "1e-2", "--out", "x"], 2),
             (["shadow", "--model", "skew", "--orbit", "o/orbit.txt", "--epsilon", "1e-2",
               "--out", "s2"], 0)]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(torusshadow.__file__).parents[1])}
    for argv, code in chain:
        assert subprocess.run([sys.executable, "-m", "torusshadow.cli", *argv], cwd=fresh,
                              env=env, capture_output=True).returncode == code
        assert _exit_code(argv) == code
    for out in ("o", "s", "v", "s2"):
        assert read_bytes_map(workdir / out) == read_bytes_map(fresh / out)
    assert not (workdir / "x").exists() and not (fresh / "x").exists()


def test_cli_chain_does_not_import_scipy(tmp_path):
    # both oracle branches of verify (linear_model_shadow on linear,
    # cat_map_shadow on skew) run in a fresh process that never loads scipy
    script = """
import sys
from torusshadow.cli import main
for model in ("linear", "skew"):
    for argv in (["orbit", "--model", model, "--delta", "2e-5", "--window", "-30", "30",
                  "--seed", "9", "--out", "o"],
                 ["shadow", "--model", model, "--orbit", "o/orbit.txt", "--epsilon", "1e-2",
                  "--out", "s"],
                 ["verify", "--model", model, "--orbit", "o/orbit.txt", "--trace",
                  "s/trace.txt", "--epsilon", "1e-2", "--out", "v"]):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(torusshadow.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_readme_commands_run(workdir):
    # the README's `torusshadow ...` examples, continuations joined, run in
    # order as written (their --out paths are relative, so under workdir):
    # every subcommand has one, and none can drift from the parser
    text = (Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("torusshadow ")]
    assert sorted(argv[0] for argv in commands) == ["constants", "orbit", "shadow",
                                                    "stability", "verify"]
    for argv in commands:
        assert run(argv) == 0, argv
        assert (workdir / argv[argv.index("--out") + 1] / "manifest.json").is_file()


def test_main_runs_the_command_bound_at_call_time(workdir, monkeypatch):
    # a function put in place of cmd_<name> after the parser was built (as
    # a tracer does) is the one main runs
    assert run(["constants", "--model", "skew", "--epsilon", "1e-2", "--out", "c"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_constants",
                        lambda args, sys_model, out: seen.append(vars(args)) or 7)
    assert run(["constants", "--model", "skew", "--epsilon", "1e-2", "--out", "c"]) == 7
    assert seen == [{"command": "constants", "model": "skew", "epsilon": 1e-2, "out": "c"}]


def test_verify_empty_interior_exit_3(workdir, capsys):
    # on [0, 2] with k = 2 there is no interior index to check: a parameter
    # error, never PASS and never a numpy traceback
    assert run(["orbit", "--model", "skew", "--delta", "0", "--window", "0", "2",
                "--out", "o"]) == 0
    params = dataclasses.asdict(delta_for_epsilon(builtin_model("skew"), 1e-2))
    # every y* at 0.5, about 0.3 from the orbit
    write_table(workdir / "trace.txt", {"model": "skew", **params, "window": "0 2"},
                [[q, 0.5, 0.5, 0.5] for q in range(3)])
    capsys.readouterr()
    assert run(["verify", "--model", "skew", "--orbit", "o/orbit.txt", "--trace", "trace.txt",
                "--epsilon", "1e-2", "--out", "v"]) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("ERROR parameters: ") and "window [0, 2]" in err
    assert not (workdir / "v" / "verify.json").exists()


@pytest.mark.parametrize("window, code, error", [
    ((5, 100), 2, "ERROR input: window [5, 100] must contain index 0"),
    ((-100, -5), 2, "ERROR input: window [-100, -5] must contain index 0"),
    ((-4, 100), 3, "ERROR parameters: window [-4, 100] must contain index 0 and at least 3 "
                   "subsampled steps on each side, [-6, 6] for power k = 2"),
], ids=["above-0", "below-0", "short-below"])
def test_orbit_file_window_rule(workdir, capsys, window, code, error):
    # a header window without index 0 is an input error when the file is
    # read, as it is for `orbit --window`; one around index 0 with too few
    # subsampled steps on a side is a parameter error of the construction
    sys = builtin_model("skew")
    orbit = generate_noisy(sys, [0.1, 0.2, 0.3], (-100, 100), 0.0, seed=0)
    a, b = window
    write_table(workdir / "orbit.txt", {"model": "skew", "delta": 0.0, "window": f"{a} {b}"},
                [[q, *orbit.point(q)] for q in range(a, b + 1)])
    assert run(["shadow", "--model", "skew", "--orbit", "orbit.txt", "--epsilon", "1e-2",
                "--out", "s"]) == code
    assert capsys.readouterr().err == error + "\n"


def test_out_of_memory_exit_2(workdir, capsys, monkeypatch):
    # an input that needs more memory than there is (a huge certification_grid)
    # is an input error; the certificate is patched, so nothing is allocated
    def out_of_memory(self):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(PerturbedMap, "certified_bound", out_of_memory)
    assert run(["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                "--delta", "1e-3", "--out", "st"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR input: ") and "7.28 TiB" in err
    assert len(err.splitlines()) == 1
