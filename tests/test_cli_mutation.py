"""Input contracts under mutation: seeded edits of orbit, trace, model and
perturbation files run through `cli.main`, which must turn every one into an
exit code.

The edits are token swaps (each number in a line is a token, header values
included), line deletes, line duplicates and truncations.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusshadow.cli import main
from torusshadow.models import builtin_model, model_to_dict

TOKENS = ("nan", "inf", "1e308", "-0.5", "1.0", "", "1_0", "0x10")
NUMBER = re.compile(r"[-+]?\d[\w.+-]*")
SETTINGS = dict(derandomize=True, database=None, deadline=None)
# one-axis, sin+cos and two-axis modes, one to a line, certified below the
# admissible defect of epsilon 0.216; on a 2x2x2 grid with half-length 20
# the clean file passes
PERTURBATION = """{"amplitude_bound": 4.5e-05, "certification_grid": 16, "modes": [
  {"coord": 0, "freq": [0, 1, 0], "sin": 1.5e-05, "cos": 0.0},
  {"coord": 1, "freq": [0, 0, 1], "sin": 1e-05, "cos": 1e-05},
  {"coord": 2, "freq": [1, -1, 0], "sin": 0.0, "cos": 1.5e-05}]}
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The clean orbit, trace and model texts, and the command that reads
    each mutated file (its path filled in last)."""
    root = tmp_path_factory.mktemp("mutation")
    assert main(["orbit", "--model", "skew", "--delta", "2e-5", "--window", "-30", "30",
                 "--seed", "9", "--out", str(root / "o")]) == 0
    assert main(["shadow", "--model", "skew", "--orbit", str(root / "o" / "orbit.txt"),
                 "--epsilon", "1e-2", "--out", str(root / "s")]) == 0
    orbit = str(root / "o" / "orbit.txt")
    return root, {
        "orbit": ((root / "o" / "orbit.txt").read_text(),
                  lambda path: ["shadow", "--model", "skew", "--orbit", path,
                                "--epsilon", "1e-2", "--out", str(root / "out")]),
        "trace": ((root / "s" / "trace.txt").read_text(),
                  lambda path: ["verify", "--model", "skew", "--orbit", orbit, "--trace", path,
                                "--epsilon", "1e-2", "--out", str(root / "out")]),
        "model": (json.dumps(model_to_dict(builtin_model("skew")), indent=2),
                  lambda path: ["constants", "--model", path, "--epsilon", "1e-2",
                                "--out", str(root / "out")]),
    }


@pytest.fixture(scope="module")
def perturbation(files):
    """The clean perturbation text and the `stability` command that reads a
    mutated copy; the clean file exits 0."""
    root, _ = files

    def command(path):
        return ["stability", "--model", "skew", "--epsilon", "0.216", "--grid", "2", "2", "2",
                "--half-length", "20", "--perturbation", path, "--out", str(root / "out")]

    assert _run(root, command, "perturbation", PERTURBATION) == 0
    return PERTURBATION, command


@st.composite
def edits(draw, text):
    """`text` after one to three seeded edits."""
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("swap", "delete", "duplicate", "truncate")))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        numbers = list(NUMBER.finditer(lines[i]))
        if kind == "swap" and numbers:
            m = draw(st.sampled_from(numbers))
            lines[i] = lines[i][:m.start()] + draw(st.sampled_from(TOKENS)) + lines[i][m.end():]
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            whole = "".join(lines)
            lines = whole[:draw(st.integers(0, len(whole)))].splitlines(keepends=True)
    return "".join(lines)


def _run(root, command, name, text) -> int:
    path = root / f"mutated-{name}"
    path.write_text(text)
    return main([str(a) for a in command(str(path))])


@settings(max_examples=150, **SETTINGS)
@given(data=st.data())
def test_mutated_file_ends_in_an_exit_code(files, data):
    # no exception escapes main, whatever the edit
    root, kinds = files
    name = data.draw(st.sampled_from(sorted(kinds)))
    text, command = kinds[name]
    assert _run(root, command, name, data.draw(edits(text))) in (0, 1, 2, 3)


@settings(max_examples=100, **SETTINGS)
@given(data=st.data())
def test_mutated_perturbation_ends_in_an_exit_code(files, perturbation, data):
    # the shared mode check from outside the package: a coordinate or
    # frequency of 1e308 is rejected, not cast to int64
    text, command = perturbation
    assert _run(files[0], command, "perturbation", data.draw(edits(text))) in (0, 1, 2, 3)


@settings(max_examples=40, **SETTINGS)
@given(data=st.data())
def test_duplicated_header_line_exits_2(files, data):
    # a header key given twice is malformed wherever the copy lands: before
    # the first row it is a repeated key, after it a '#' line among the rows
    root, kinds = files
    name = data.draw(st.sampled_from(["orbit", "trace"]))
    text, command = kinds[name]
    lines = text.splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(header)))
    assert _run(root, command, name, "".join(lines)) == 2
