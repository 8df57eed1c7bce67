"""CLI contract: subcommand chain, exit codes, manifests, determinism."""

import json
import shutil
from pathlib import Path

import pytest

from torusshadow.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_bytes_map(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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

    def test_bad_model_file_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["constants", "--model", bad, "--epsilon", "1e-2",
                    "--out", "c"]) == 2

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
        assert report["passed"]
        assert report["max_distance"] < 1e-9

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


class TestStabilityAndProbe:
    def test_stability_small_grid(self, workdir, capsys):
        assert run(["stability", "--model", "skew", "--epsilon", "0.216",
                    "--grid", "8", "8", "8", "--half-length", "30",
                    "--delta", "1e-3", "--out", "st"]) == 0
        out = capsys.readouterr().out
        assert "PASS identity" in out
        assert "PASS surjectivity" in out
        data = json.loads((workdir / "st" / "stability.json").read_text())
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

    def test_probe(self, workdir, capsys):
        assert run(["probe", "--model", "skew", "--eta", "1e-2", "--trials", "5",
                    "--seed", "2", "--out", "p"]) == 0
        data = json.loads((workdir / "p" / "probe.json").read_text())
        assert data["passed"]
        assert len(data["trials"]) == 10


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

    def test_verify_names_every_differing_parameter(self, chain, capsys):
        text = (chain / "s" / "trace.txt").read_text()
        line = next(l for l in text.splitlines() if l.startswith("# L0: "))
        (chain / "s" / "trace.txt").write_text(text.replace(line, "# L0: 1.5"))
        assert self.verify() == 3
        err = capsys.readouterr().err
        # the one differing field is named, with its resolved value
        assert "L0 = 1.5 (resolved " in err and err.count(" = ") == 1

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

    @pytest.mark.parametrize("flags", [["--grid", "0", "2", "2"],
                                       ["--grid", "2", "2", "2", "--half-length", "0"],
                                       ["--grid", "2", "-1", "2"]])
    def test_non_positive_sizes_exit_2(self, workdir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run(["stability", "--model", "skew", "--epsilon", "0.216", "--delta", "1e-3",
                 *flags, "--out", "st"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err and "positive integer" in err


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:   # argparse rejected a value before any command ran
        return exc.code


@pytest.mark.parametrize("argv, code", [
    (["orbit", "--delta", "-1", "--window", "-5", "5"], 2),
    (["orbit", "--delta", "0", "--window", "5", "-5"], 2),
    (["orbit", "--delta", "0", "--window", "-5", "5", "--x0", "nan", "0", "0"], 2),
    (["orbit", "--delta", "nan", "--window", "-5", "5"], 2),
    (["probe", "--eta", "-1"], 2),
    (["probe", "--eta", "1e-2", "--trials", "-3"], 2),
    (["stability", "--epsilon", "0.216", "--grid", "2", "2", "2",
      "--perturbation", "pert.json"], 2),
    (["stability", "--epsilon", "0.216", "--grid", "2", "2", "2", "--delta", "nan"], 2),
    (["constants", "--epsilon", "nan"], 3),
    (["stability", "--epsilon", "0.216", "--grid", "2", "2", "2", "--delta", "inf"], 2),
])
def test_bad_command_line_exits_with_error(workdir, capsys, argv, code):
    (workdir / "pert.json").write_text(json.dumps({"amplitude_bound": 1e-3,
                                                   "modes": [[0, 1]]}))
    # an exception escaping main would fail the test before the asserts
    assert _exit_code([*argv, "--model", "skew", "--out", "x"]) == code
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert any(line.startswith("ERROR") or ": error: " in line for line in err.splitlines())
