"""Unit tests for the command-line surface: subcommands, exit codes,
deterministic output."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homotopes
from homotopes import cli
from homotopes.cli import main
from homotopes.families import sample_in_subspace, sym_space
from homotopes.matrices import Matrix
from homotopes.scalars import HQ, Q, QI, ring_components


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestAxioms:
    def test_pass_exit_zero(self, tmp_path):
        code, text = run(tmp_path, "axioms", "--family", "1.a",
                         "--p", "2", "--q", "2", "--samples", "4", "--seed", "1")
        assert code == 0
        assert json.loads(text)["pass"] is True

    def test_unknown_family_exit_two(self, tmp_path, capsys):
        """The message of the KeyError, not its quoted repr."""
        code, _ = run(tmp_path, "axioms", "--family", "bogus", "--p", "1", "--q", "1")
        assert code == 2
        assert assert_one_line_error(capsys) == "error: unknown family label 'bogus'\n"
        code, text = run(tmp_path, "axioms", "--family", "nope", "--n", "1")
        assert code == 2 and text == ""
        assert assert_one_line_error(capsys) == "error: unknown family label 'nope'\n"

    def test_missing_sizes_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "axioms", "--family", "1.a")
        assert code == 2

    def test_negative_samples_exit_two(self, tmp_path, capsys):
        code, text = run(tmp_path, "axioms", "--family", "2.a", "--n", "2",
                         "--samples", "-3")
        assert code == 2 and text == ""
        assert "--samples" in assert_one_line_error(capsys)

    def test_zero_samples(self, tmp_path, capsys):
        """No samples is no check: a pass over empty results would be vacuous."""
        code, text = run(tmp_path, "axioms", "--family", "2.a", "--n", "2",
                         "--samples", "0")
        assert code == 2 and text == ""
        assert "--samples must be >= 1" in assert_one_line_error(capsys)


class TestTable:
    def test_verified_exit_zero(self, tmp_path):
        code, text = run(tmp_path, "table", "--construction", "quat2",
                         "--n", "1", "--samples", "2", "--seed", "0")
        assert code == 0
        assert json.loads(text)["verified"] is True

    def test_bad_size_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "table", "--construction", "quat2", "--n", "0")
        assert code == 2

    def test_markdown(self, tmp_path):
        code, text = run(tmp_path, "table", "--construction", "proj",
                         "--p", "1", "--q", "1", "--samples", "2",
                         "--format", "md")
        assert code == 0
        assert text.startswith("#")


class TestEigenspaces:
    def test_quat1_dims(self, tmp_path):
        code, text = run(tmp_path, "eigenspaces", "--construction", "quat1",
                         "--n", "1")
        assert code == 0
        assert json.loads(text)["dims"] == [1, 2, 0, 1]

    def test_quat2_dims(self, tmp_path):
        code, text = run(tmp_path, "eigenspaces", "--construction", "quat2",
                         "--n", "1")
        assert code == 0
        assert json.loads(text)["dims"] == [3, 1, 3, 1]

    def test_sizes_above_four_warn(self, tmp_path, capsys):
        """A size above 4 runs, with one warning line on stderr; 4 has none."""
        code, text = run(tmp_path, "eigenspaces", "--construction", "proj", "--p", "5", "--q", "1")
        assert code == 0 and json.loads(text)["dims"] == [16, 5, 5, 10]
        assert capsys.readouterr().err == "warning: sizes above 4 get slow quickly\n"
        assert run(tmp_path, "eigenspaces", "--construction", "proj", "--p", "4", "--q", "1")[0] == 0
        assert capsys.readouterr().err == ""


class TestGroup:
    @pytest.mark.parametrize("check", ["axioms", "tangent", "membership"])
    def test_checks(self, tmp_path, check):
        code, text = run(tmp_path, "group", "--check", check, "--n", "2",
                         "--samples", "3", "--seed", "2")
        assert code == 0
        assert json.loads(text)["pass"] is True

    def test_unknown_check_exit_two(self, tmp_path, capsys):
        """The --check choices are the keys of ``cli.GROUP_CHECKS``: argparse
        rejects any other before a suite runs."""
        assert set(cli.GROUP_CHECKS) == {"axioms", "tangent", "membership"}
        code, text = run(tmp_path, "group", "--check", "unitary", "--n", "2")
        assert code == 2 and text == ""
        assert "invalid choice: 'unitary'" in capsys.readouterr().err


class TestNormalForm:
    def test_symmetric(self, tmp_path):
        m = sample_in_subspace(sym_space(2, Q), random.Random(5))
        inp = tmp_path / "m.json"
        inp.write_text(json.dumps(m.to_json()))
        code, text = run(tmp_path, "normal-form", "--kind", "symmetric",
                         "--input", str(inp))
        assert code == 0
        data = json.loads(text)
        assert data["verified"] is True and data["intertwines"] is True

    @pytest.mark.parametrize("data, reason", [
        ({"rows": 1, "cols": 2, "ring": "Q", "entries": [["1/0", "1"]]}, "zero denominator"),
        ([["1", "0"], ["0", "1"]], "must be an object"),
        ({"rows": 1, "cols": 1, "ring": "QQ", "entries": [["1"]]}, "unknown ring 'QQ'"),
        ({"rows": 1, "cols": 2, "ring": "Q", "entries": [["", "1 2"]]}, "bad scalar literal ''"),
        ({"rows": 1, "cols": 1, "ring": "Q", "entries": [[" "]]}, "bad scalar literal ' '"),
        ({"rows": 1, "cols": 1, "ring": "Q", "entries": [["1 2"]]}, "bad scalar literal '1 2'"),
        ({"rows": 1, "cols": 1, "ring": "Q", "entries": [["1/2 3"]]}, "bad scalar literal '1/2 3'"),
        ({"rows": 1, "cols": 2, "ring": "QI", "entries": [["1", "2j"]]}, "unit 'j' not available in ring QI"),
    ], ids=["zero-denominator", "top-level-array", "unknown-ring", "empty-literal", "blank-literal",
            "space-between-digits", "space-after-fraction", "quaternion-unit-over-qi"])
    def test_bad_input_exit_two(self, tmp_path, capsys, data, reason):
        inp = tmp_path / "m.json"
        inp.write_text(json.dumps(data))
        code, text = run(tmp_path, "normal-form", "--kind", "symmetric",
                         "--input", str(inp))
        assert code == 2 and text == ""
        assert reason in assert_one_line_error(capsys)

    def test_hermitian_over_quaternions_exit_two(self, tmp_path, capsys):
        inp = tmp_path / "m.json"
        inp.write_text(json.dumps({"rows": 1, "cols": 1, "ring": "HQ", "entries": [["1"]]}))
        code, text = run(tmp_path, "normal-form", "--kind", "hermitian", "--input", str(inp))
        assert code == 2 and text == ""
        assert assert_one_line_error(capsys) == "error: hermitian normal form needs a matrix over Q or QI, got HQ\n"

    def test_entry_too_large_for_the_squarefree_reduction_exit_two(self, tmp_path, capsys):
        inp = tmp_path / "m.json"
        big = (2**61 - 1)**2 * (2**89 - 1)
        inp.write_text(json.dumps({"rows": 1, "cols": 1, "ring": "Q", "entries": [[str(big)]]}))
        code, text = run(tmp_path, "normal-form", "--kind", "symmetric", "--input", str(inp))
        assert code == 2 and text == ""
        assert "too large for the squarefree reduction" in assert_one_line_error(capsys)

    def test_missing_file_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "normal-form", "--kind", "symmetric",
                      "--input", str(tmp_path / "nope.json"))
        assert code == 2


class TestListFamilies:
    def test_module_entry_point(self, capsys):
        """``python -m homotopes`` runs the same command line as ``cli.main``."""
        src = os.path.dirname(os.path.dirname(homotopes.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "homotopes", "list-families"],
                              capture_output=True, env=env, check=False)
        code = main(["list-families"])
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())

    def test_json(self, tmp_path):
        code, text = run(tmp_path, "list-families")
        assert code == 0
        data = json.loads(text)
        assert len(data["families"]) == 50
        assert data["constructions"] == ["proj", "siegel", "quat1", "quat2"]


@pytest.mark.parametrize("argv", [
    ["table", "--construction", "quat2", "--n", "1"],
    ["group", "--check", "axioms", "--n", "2"],
], ids=["table", "group"])
def test_zero_samples_exit_two(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv, "--samples", "0")
    assert code == 2 and text == ""
    assert "--samples must be >= 1" in assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["eigenspaces", "--construction", "quat1", "--n", "1", "--samples", "3"],
    ["eigenspaces", "--construction", "quat1", "--n", "1", "--seed", "3"],
    ["axioms", "--family", "2.a", "--n", "2", "--format", "md"],
    ["group", "--check", "axioms", "--n", "2", "--format", "md"],
    ["group", "--check", "axioms", "--p", "2"],
    ["group", "--check", "axioms", "--q", "2"],
    ["normal-form", "--kind", "symmetric", "--input", "m.json", "--format", "md"],
], ids=["eigenspaces-samples", "eigenspaces-seed", "axioms-format", "group-format",
        "group-p", "group-q", "normal-form-format"])
def test_unread_flag_exit_two(tmp_path, capsys, argv):
    """A subcommand accepts only the flags it reads; argparse rejects the rest."""
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table", "--construction", "siegel", "--n", "1", "--p", "2"],
    ["eigenspaces", "--construction", "proj", "--p", "1", "--q", "1", "--n", "2"],
    ["axioms", "--family", "2.a", "--n", "2", "--p", "7"],
    ["axioms", "--family", "1.a", "--p", "1", "--q", "1", "--n", "1"],
], ids=["table-siegel-p", "eigenspaces-proj-n", "axioms-n-family-p", "axioms-pq-family-n"])
def test_size_flag_not_taken_exit_two(tmp_path, capsys, argv):
    """A size flag the target does not take is rejected, not ignored."""
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert f"does not take {argv[-2]}" in assert_one_line_error(capsys)


class TestDeterminism:
    def test_byte_identical_repeats(self, tmp_path):
        outputs = []
        for rep in range(2):
            code, text = run(tmp_path, "axioms", "--family", "3.a", "--n", "2",
                             "--samples", "4", "--seed", "9")
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1]

    def test_one_parser_for_every_call(self, tmp_path, capsys):
        """The parser is built once per process and parsing leaves it as it
        was: in one process, table, list-families, an unknown family and
        table again exit 0, 0, 2, 0, and the repeated table writes the bytes
        of the first."""
        calls = [["table", "--construction", "proj", "--p", "1", "--q", "1", "--samples", "2", "--seed", "4"],
                 ["list-families"], ["axioms", "--family", "bogus", "--n", "1"]]
        calls.append(calls[0])
        codes, outputs = [], []
        for idx, argv in enumerate(calls):
            out = tmp_path / f"out{idx}.json"
            codes.append(main(argv + ["--out", str(out)]))
            outputs.append(out.read_bytes() if out.exists() else None)
        assert codes == [0, 0, 2, 0]
        assert outputs[3] == outputs[0] and outputs[0] and outputs[2] is None
        assert assert_one_line_error(capsys) == "error: unknown family label 'bogus'\n"
        assert cli.build_parser() is cli.build_parser()


@st.composite
def normal_form_inputs(draw):
    ring = draw(st.sampled_from([Q, QI, HQ]))
    kind = draw(st.sampled_from(["rectangular", "symmetric", "skew", "hermitian"]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind != "rectangular" and draw(st.booleans()):
        cols = rows
    k = ring_components(ring)
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    a = Matrix.unflatten((rows, cols, ring), draw(st.lists(entry, min_size=rows * cols * k,
                                                           max_size=rows * cols * k)))
    # star-symmetrise square inputs so the congruence kinds get past validation
    if rows == cols and draw(st.booleans()):
        a = {"symmetric": a + a.transpose(), "skew": a - a.transpose(),
             "hermitian": a + a.dagger("conj") if ring != HQ else a + a.dagger("qconj"),
             "rectangular": a}[kind]
    return kind, a.to_json()


@settings(max_examples=50, deadline=None)
@given(normal_form_inputs())
def test_normal_form_exit_codes(case):
    """Any well-formed matrix either gets a verified normal form (exit 0) or
    is rejected as bad input (exit 2, one error line); never exit 1 or a
    traceback."""
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "m.json")
        with open(inp, "w") as fh:
            json.dump(data, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["normal-form", "--kind", kind, "--input", inp,
                         "--out", os.path.join(tmp, "out.json")])
    assert code in (0, 2), (code, kind, data)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
