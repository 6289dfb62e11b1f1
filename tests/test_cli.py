import argparse
import contextlib
import errno
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softlip.cli as cli
import softlip.games as games_module
import softlip.lipschitz as lipschitz_module
from softlip.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_INLINE_LENGTH,
    dumps_report,
    format_float,
    main,
    parse_inline_vector,
    read_matrix_csv,
    InputError,
)
from softlip.fixtures import attaining_logits, example_logits, write_fixtures
from softlip.games import TAU_MIN, DsfpError
from softlip.opnorm import NormEstimate, NormOrder, OpNormError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def fixture_dir(tmp_path):
    if FIXTURES.is_dir():
        return FIXTURES
    write_fixtures(tmp_path)
    return tmp_path


def run_cli(argv, stdout=subprocess.PIPE, wrap=(), **env):
    """`python -m softlip.cli argv` in a fresh process, on this checkout's src,
    behind the `wrap` command prefix and with `env` added to the environment."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [*wrap, sys.executable, "-m", "softlip.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def load_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,-2e-3\n0.25,3\n", encoding="utf-8")
        np.testing.assert_array_equal(
            read_matrix_csv(str(path)), [[1.5, -2e-3], [0.25, 3.0]]
        )

    def test_crlf(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\r\n3,4\r\n")
        np.testing.assert_array_equal(read_matrix_csv(str(path)), [[1, 2], [3, 4]])

    def test_ragged_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            read_matrix_csv(str(path))

    def test_bad_token_names_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,abc\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2, column 2"):
            read_matrix_csv(str(path))

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,nan\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1, column 2"):
            read_matrix_csv(str(path))

    def test_trailing_comma_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_matrix_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="empty"):
            read_matrix_csv(str(path))

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        # the decode error named no file: "error: 'utf-8' codec can't decode ..."
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        assert main(["estimate", "--matrix", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_clean_file_skips_the_per_cell_parser(self, tmp_path, monkeypatch):
        def fail(text, what=""):
            raise AssertionError("per-cell parser called on a clean file")

        monkeypatch.setattr(cli, "_parse_float", fail)
        path = tmp_path / "m.csv"
        path.write_text(" 1.5 ,-2e-3\r\n\n0.25,\t3\n", encoding="utf-8")
        np.testing.assert_array_equal(
            read_matrix_csv(str(path)), [[1.5, -2e-3], [0.25, 3.0]]
        )

    def test_bad_last_line_parses_only_that_line_per_cell(self, monkeypatch):
        calls, parse_float = [], cli._parse_float

        def spy(text, what=""):
            calls.append(what)
            return parse_float(text, what)

        monkeypatch.setattr(cli, "_parse_float", spy)
        text = "1.5,-2e-3,3\n" * 49 + "4,1e400,6\n"
        with pytest.raises(InputError, match="line 50, column 2: non-finite value '1e400'"):
            cli._parse_matrix(text, "m.csv")
        assert calls == [f"m.csv: line 50, column {col}" for col in (1, 2)]


def parse_matrix_cells(text, path):
    """The per-cell reference parser: `_parse_float` on every field, line
    by line, then the width and empty-input checks."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line == "":
            continue
        parsed = []
        for col, tok in enumerate(line.split(","), start=1):
            parsed.append(cli._parse_float(tok.strip(), f"{path}: line {lineno}, column {col}"))
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InputError(
                f"expected {width} fields, found {len(parsed)}", f"{path}: line {lineno}"
            )
        rows.append(parsed)
    if not rows:
        raise InputError("empty input", path)
    return np.array(rows, dtype=np.float64)


def parse_outcome(parse, text):
    """The array's shape and bits, or the InputError message."""
    try:
        mat = parse(text, "m.csv")
    except InputError as exc:
        return "error", str(exc)
    return mat.shape, mat.tobytes()


_CSV_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "0", "-0.0", "+.5", "1.", ".e1", "1e400", "-1e400", "1e-400", "nan", "inf",
        "-Infinity", "1_0", "0x10", "abc", "", "1 2", "\u0661", "1e5e5", "1e308", "-1e308",
    ]),
)
# whitespace that str.strip removes; \x1c and \xa0 are not ASCII spaces to float()
_CSV_SPACE = st.text(alphabet=" \t\r\x0b\x0c\x1c\xa0", max_size=2)
_CSV_CELL = st.builds(lambda pre, tok, post: pre + tok + post, _CSV_SPACE, _CSV_TOKENS, _CSV_SPACE)
_CSV_LINE = st.one_of(st.lists(_CSV_CELL, min_size=1, max_size=4).map(",".join), st.just(""))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    lines=st.lists(_CSV_LINE, max_size=4),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
)
def test_csv_fast_path_matches_per_cell_parser(lines, newline, trailing):
    # the reader gives the per-cell parser's array bits or its exact message
    text = newline.join(lines) + (newline if trailing else "")
    assert parse_outcome(cli._parse_matrix, text) == parse_outcome(parse_matrix_cells, text)


@pytest.mark.parametrize("text", [
    "1,2\n3,4\n", " 1 ,\t2\r\n3 , 4\r\n", "1e400,1\n", "1,nan\n", "1_0,2\n",
    "1,2\n3\n", "1,2\n\n3,4,5\n", "1\x1c,2\n", "\n\n", "1,2,\n", "1e308,1e308\n",
    "1,2\n3,1e400,5\n",
])
def test_csv_fast_path_examples(text):
    assert parse_outcome(cli._parse_matrix, text) == parse_outcome(parse_matrix_cells, text)


class TestInlineVectors:
    def test_plain_floats(self):
        np.testing.assert_array_equal(parse_inline_vector("1,2.5,-3e2"), [1.0, 2.5, -300.0])

    def test_ln9_generator(self):
        v = parse_inline_vector("ln9-vector(10)")
        assert v[0] == pytest.approx(math.log(9.0))
        np.testing.assert_array_equal(v[1:], np.zeros(9))

    def test_example_generator(self):
        v = parse_inline_vector("example-vector(5, 7)")
        np.testing.assert_array_equal(v, [0.0, 0.0, -7.0, -7.0, -7.0])

    def test_zeros_generator(self):
        np.testing.assert_array_equal(parse_inline_vector("zeros(3)"), np.zeros(3))

    def test_unknown_generator(self):
        with pytest.raises(InputError):
            parse_inline_vector("mystery(4)")

    @pytest.mark.parametrize("form", ["ln9-vector", "example-vector", "zeros"])
    @pytest.mark.parametrize("length", ["1e400", "2.5", "-3"])
    def test_length_must_be_finite_whole(self, form, length):
        with pytest.raises(InputError, match="whole number"):
            parse_inline_vector(f"{form}({length})")

    @pytest.mark.parametrize("form", ["ln9-vector", "example-vector", "zeros"])
    def test_length_cap(self, form):
        # Just above the cap, so a missing check allocates only 8 MB.
        with pytest.raises(InputError, match="exceeds the limit"):
            parse_inline_vector(f"{form}({MAX_INLINE_LENGTH + 1})")

    def test_short_length_names_the_generator(self):
        with pytest.raises(InputError, match=r"^ln9-vector: needs length >= 2$"):
            parse_inline_vector("ln9-vector(1)")

    def test_length_at_cap_accepted(self):
        assert parse_inline_vector(f"zeros({MAX_INLINE_LENGTH})").size == MAX_INLINE_LENGTH

    @pytest.mark.parametrize("inline", ["ln9-vector(1e400)", f"zeros({MAX_INLINE_LENGTH + 1})"])
    def test_bad_length_exits_2(self, inline, capsys):
        assert main(["jacobian-norm", "--inline", inline]) == EXIT_INPUT
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize("inline", ["ln9-vector(3,4)", "example-vector(1,2,3)", "zeros(1,2)"])
    def test_wrong_arity_exits_2(self, inline, capsys):
        assert main(["jacobian-norm", "--inline", inline]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: " + inline.split("(")[0] + " takes")


class TestJsonEmission:
    def test_seventeen_digit_round_trip(self):
        values = [1 / 3, 0.1, math.pi, 1e-300, 123456789.123456789]
        doc = dumps_report({"xs": values})
        parsed = json.loads(doc)
        assert parsed["xs"] == values

    def test_format_float_literal(self):
        assert format_float(0.5) == "0.5"
        assert float(format_float(1 / 3)) == 1 / 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dumps_report({"x": float("inf")})

    def test_numpy_and_empty_values_keep_their_bytes(self):
        doc = {
            "float64": np.float64(0.1), "int64": np.int64(-3), "bool_": np.bool_(True),
            "empty_array": np.array([]), "empty_dict": {}, "empty_list": [],
            "matrix": np.array([[1, 2]]),
        }
        assert dumps_report(doc) == (
            '{\n'
            '  "float64": 0.10000000000000001,\n'
            '  "int64": -3,\n'
            '  "bool_": true,\n'
            '  "empty_array": [],\n'
            '  "empty_dict": {},\n'
            '  "empty_list": [],\n'
            '  "matrix": [\n'
            '    [\n'
            '      1,\n'
            '      2\n'
            '    ]\n'
            '  ]\n'
            '}\n'
        )

    @pytest.mark.parametrize("value, text", [(2.5, "2.5"), (0.0, "0"), (True, "true"), (3, "3")])
    def test_zero_d_array_is_its_scalar(self, value, text):
        # a 0-d array was emitted as a list: "[]" when zero, else a TypeError
        assert dumps_report({"x": np.array(value)}) == f'{{\n  "x": {text}\n}}\n'

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_report({"x": object()})

    def test_control_characters_are_escaped(self):
        # only backslash, quote and newline were escaped, so a raw tab made
        # the report invalid JSON
        text = "".join(map(chr, range(0x20))) + '\\"\x7f\u00e9'
        doc = dumps_report({"s": text})
        assert json.loads(doc) == {"s": text}
        assert doc.startswith('{\n  "s": "\\u0000\\u0001')
        assert "\\u0009" in doc and "\\n" in doc and "\\u000a" not in doc

    @pytest.mark.parametrize("char", ["\t", "\r"], ids=["tab", "cr"])
    def test_paths_with_control_characters_load(self, char, fixture_dir, tmp_path):
        # the paths land in manifest.command; json.loads is strict
        matrix = tmp_path / f"scores{char}8.csv"
        matrix.write_bytes((fixture_dir / "attention_scores_8x8.csv").read_bytes())
        prefix = tmp_path / f"est{char}out"
        assert main(["estimate", "--matrix", str(matrix), "--trials", "2",
                     "--out", str(prefix)]) == EXIT_OK
        report = tmp_path / f"jac{char}.json"
        assert main(["jacobian-norm", "--inline", "0,1", "--json-out", str(report)]) == EXIT_OK
        assert load_report(report)["manifest"]["command"][-1] == str(report)
        estimate = load_report(f"{prefix}.json")
        assert str(matrix) in estimate["manifest"]["command"]

    def test_lone_surrogates_are_escaped(self):
        # argv holds the byte 0xff of a path as U+DCFF, which UTF-8 cannot encode
        text = "a\udcff\ud800b\U0001f600"  # the emoji is one code point, kept raw
        doc = dumps_report({"s": text})
        assert '"a\\udcff\\ud800b\U0001f600"' in doc
        doc.encode("utf-8")
        assert json.loads(doc) == {"s": text}

    def test_paths_that_are_not_utf8_write_strict_json(self, fixture_dir, tmp_path):
        # the report was written as UTF-8 after its file was opened, so the
        # surrogate in manifest.command exited 2 with an encoder error that
        # named neither the path nor the option, and left an empty file
        out = tmp_path / "m\udcff.json"
        assert main(["dsfp", "--payoff", str(fixture_dir / "matching_pennies.csv"),
                     "--out", str(out)]) == EXIT_OK
        assert load_report(out)["manifest"]["command"][-1] == str(out)
        prefix = tmp_path / "est\udcff"
        assert main(["estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv"),
                     "--trials", "2", "--out", str(prefix)]) == EXIT_OK
        assert load_report(f"{prefix}.json")["manifest"]["command"][-1] == str(prefix)
        assert os.fsencode(out).endswith(b"m\xff.json")
        assert (tmp_path / "est\udcff.csv").read_text(encoding="utf-8").startswith("epsilon,")


class TestJacobianNormCommand:
    def test_uniform_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        rc = main(["jacobian-norm", "--inline", "0,0,0", "--p", "inf", "--lambda", "1",
                   "--json-out", str(out_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "global bound lambda/2: 0.5" in out
        result = load_report(out_path)["result"]
        assert result["closed_form_one_inf"] == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert result["upper"] == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_half_mass_point(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        rc = main([
            "jacobian-norm", "--inline", "ln9-vector(10)", "--p", "1",
            "--json-out", str(out_path),
        ])
        assert rc == EXIT_OK
        report = load_report(out_path)
        assert report["result"]["upper"] == pytest.approx(0.5, abs=1e-14)
        assert report["result"]["exact"] is True

    def test_column_file_reads_as_the_row_file(self, tmp_path, capsys):
        row, column = tmp_path / "row.csv", tmp_path / "column.csv"
        row.write_text("0.5,-1,2\n", encoding="utf-8")
        column.write_text("0.5\n-1\n2\n", encoding="utf-8")
        outs = []
        for path in (row, column):
            assert main(["jacobian-norm", "--logits-file", str(path), "--p", "1.5"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_empty_file_is_input_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["jacobian-norm", "--logits-file", str(path)]) == EXIT_INPUT

    def test_saturated_huge_lambda_is_certified(self, tmp_path):
        # lam = 1e308 rounds the top softmax entry to 1: its 1 - s_1 must
        # come from the other entries, or ||J||_1 = ||J||_inf falls below
        # the realized ratio and the bracket is inconsistent
        out_path = tmp_path / "r.json"
        rc = main(["jacobian-norm", "--lambda", "1e308", "--inline", "ln9-vector(5)",
                   "--p", "9e5", "--json-out", str(out_path)])
        assert rc == EXIT_OK
        result = load_report(out_path)["result"]
        assert 0.0 < result["lower"] <= result["upper"] <= result["closed_form_one_inf"]

    def test_requires_exactly_one_source(self):
        assert main(["jacobian-norm"]) == EXIT_INPUT
        assert main(["jacobian-norm", "--inline", "0,0", "--logits-file", "x.csv"]) == EXIT_INPUT

    def test_empty_logits_path_is_unreadable(self, capsys):
        # "" counted as no file, and the inline parser got None: AttributeError
        assert main(["jacobian-norm", "--logits-file", ""]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["1", "2", "1.5"])
    def test_one_softmax_per_run(self, p, monkeypatch, capsys):
        # the point local_lipschitz works at also gives the report's closed
        # form and clamp flag
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, lipschitz_module):
            monkeypatch.setattr(module, "softmax", counting(module.softmax))
        assert main(["jacobian-norm", "--inline", "ln9-vector(10)", "--p", p]) == EXIT_OK
        assert len(calls) == 1


class TestWitnessCommand:
    def test_example_mode(self, tmp_path):
        out_path = tmp_path / "w.json"
        rc = main([
            "witness", "--mode", "example", "--n", "10", "--K", "20",
            "--eps", "1e-4", "--p", "2", "--json-out", str(out_path),
        ])
        assert rc == EXIT_OK
        report = load_report(out_path)
        assert report["result"]["ratio"] == pytest.approx(0.49999999504472, abs=1e-9)

    def test_attained_mode(self, tmp_path):
        out_path = tmp_path / "w.json"
        rc = main(["witness", "--mode", "attained", "--n", "5", "--p", "1",
                   "--json-out", str(out_path)])
        assert rc == EXIT_OK
        assert load_report(out_path)["result"]["constant"] == pytest.approx(0.5, abs=1e-14)

    def test_limit_sequence_mode(self, tmp_path):
        out_path = tmp_path / "w.json"
        rc = main([
            "witness", "--mode", "limit-sequence", "--n", "5", "--p", "2",
            "--epsilons", "0.1,0.01", "--json-out", str(out_path),
        ])
        assert rc == EXIT_OK
        steps = load_report(out_path)["result"]["steps"]
        assert [s["certified_ratio"] for s in steps] == pytest.approx([0.4, 0.49], abs=1e-12)

    @pytest.mark.parametrize("mode", ["example", "limit-sequence", "attained"])
    @pytest.mark.parametrize("n", ["1000000000000", "2.5", "1e400"])
    def test_n_is_a_bounded_length(self, mode, n, capsys):
        # --n 1000000000000 ended in a numpy allocation traceback, exit 1
        argv = ["witness", "--mode", mode, "--n", n, "--p", "3", "--epsilons", "0.1"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: argument --n: length" in err
        assert "Traceback" not in err

    def test_n_takes_the_length_syntax(self, tmp_path):
        out_path = tmp_path / "w.json"
        argv = ["witness", "--mode", "attained", "--n", "5e0", "--p", "1", "--json-out", str(out_path)]
        assert main(argv) == EXIT_OK
        assert load_report(out_path)["result"]["n"] == 5

    def test_invalid_combination(self):
        assert main(["witness", "--mode", "attained", "--n", "5", "--p", "2"]) == EXIT_INPUT
        assert main(["witness", "--mode", "limit-sequence", "--n", "5", "--p", "2"]) == EXIT_INPUT
        assert main(["witness", "--mode", "unknown"]) == EXIT_INPUT


class TestEstimateCommand:
    def test_fixture_below_bound(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main([
            "estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv"),
            "--rowwise", "--lambda", "1", "--p-list", "1,2,inf",
            "--eps-list", "1e-1,1e-3", "--trials", "10", "--seed", "5",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        report = load_report(str(out) + ".json")
        assert report["result"]["max_empirical_lp"] < 0.5
        csv_lines = Path(str(out) + ".csv").read_text().strip().split("\n")
        assert csv_lines[0] == "epsilon,p,empirical_lp"
        assert len(csv_lines) == 1 + 3 * 2
        for line in csv_lines[1:]:
            assert float(line.split(",")[2]) < 0.5

    def test_huge_magnitudes_fail_with_one_error_line(self, tmp_path):
        # in a fresh process with default warning filters, the overflow in
        # scaling the draw and in x + d printed two RuntimeWarnings first
        matrix = tmp_path / "huge.csv"
        matrix.write_text("1e308,1e308\n1e308,1e308\n", encoding="utf-8")
        done = run_cli(
            ["estimate", "--matrix", str(matrix), "--eps-list", "1e308", "--trials", "1"]
        )
        assert done.returncode == EXIT_INPUT
        assert done.stderr == "error: logits must have finite entries\n"

    def test_byte_identical_reruns(self, fixture_dir, tmp_path):
        args = [
            "estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv"),
            "--lambda", "2", "--p-list", "2", "--eps-list", "1e-2",
            "--trials", "5", "--seed", "11",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (
            Path(str(a) + ".csv").read_bytes() == Path(str(b) + ".csv").read_bytes()
        )
        doc_a = load_report(str(a) + ".json")
        doc_b = load_report(str(b) + ".json")
        doc_a["manifest"]["timestamp"] = doc_b["manifest"]["timestamp"] = ""
        doc_a["manifest"]["command"] = doc_b["manifest"]["command"] = []
        assert doc_a == doc_b

    @pytest.mark.parametrize("env", [
        "abc", "1_0", "\u0663", pytest.param("7" * 5000, id="5000_digits"),
    ])
    def test_non_integer_env_seed_exits_2(self, env, fixture_dir, monkeypatch, capsys):
        monkeypatch.setenv("SOFTLIP_SEED", env)
        argv = ["estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: SOFTLIP_SEED must be an integer, got {env!r}\n"

    def test_env_seed_and_flag_priority(self, fixture_dir, tmp_path, monkeypatch):
        matrix = str(fixture_dir / "attention_scores_8x8.csv")
        base = ["estimate", "--matrix", matrix, "--p-list", "2",
                "--eps-list", "1e-2", "--trials", "3"]
        monkeypatch.setenv("SOFTLIP_SEED", "99")
        out_env = tmp_path / "env"
        assert main(base + ["--out", str(out_env)]) == EXIT_OK
        assert load_report(str(out_env) + ".json")["manifest"]["seed"] == 99
        out_flag = tmp_path / "flag"
        assert main(base + ["--seed", "3", "--out", str(out_flag)]) == EXIT_OK
        assert load_report(str(out_flag) + ".json")["manifest"]["seed"] == 3

    def test_lambda_scaling_regime_end_to_end(self, tmp_path):
        # a single uniform 2-logit row at lam = 4, p = 8 approaches lam/2 = 2
        matrix = tmp_path / "uniform2.csv"
        matrix.write_text("0,0\n", encoding="utf-8")
        out = tmp_path / "rl"
        rc = main([
            "estimate", "--matrix", str(matrix), "--lambda", "4",
            "--p-list", "8", "--eps-list", "1e-4", "--trials", "1",
            "--mode", "top-eigenvector", "--out", str(out),
        ])
        assert rc == EXIT_OK
        value = load_report(str(out) + ".json")["result"]["max_empirical_lp"]
        assert 1.999 <= value <= 2.0 + 1e-9

    def test_overflowing_logits_row(self, tmp_path):
        # lam * 1e308 overflows; the softmax must shift before it scales
        matrix = tmp_path / "huge.csv"
        matrix.write_text("1e308,0\n", encoding="utf-8")
        out = tmp_path / "huge"
        assert main(["estimate", "--matrix", str(matrix), "--lambda", "10",
                     "--out", str(out)]) == EXIT_OK
        assert load_report(str(out) + ".json")["result"]["max_empirical_lp"] == 0.0

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("1\n2\n3\n", encoding="utf-8")
        assert main(["estimate", "--matrix", str(path)]) == EXIT_INPUT

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n", encoding="utf-8")
        assert main(["estimate", "--matrix", str(path)]) == EXIT_INPUT


class TestDsfpCommand:
    def test_matching_pennies(self, fixture_dir, tmp_path):
        out_path = tmp_path / "mp.json"
        rc = main([
            "dsfp", "--payoff", str(fixture_dir / "matching_pennies.csv"),
            "--tau", "1", "--out", str(out_path),
        ])
        assert rc == EXIT_OK
        result = load_report(out_path)["result"]
        assert result["y_star"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert result["x_star"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert result["converged"] is True

    def test_auto_tau_is_certified(self, fixture_dir, tmp_path):
        out_path = tmp_path / "r.json"
        rc = main([
            "dsfp", "--payoff", str(fixture_dir / "random_payoff_5x5.csv"),
            "--tau", "auto", "--out", str(out_path),
        ])
        assert rc == EXIT_OK
        doc = load_report(out_path)
        assert doc["result"]["converged"] is True
        assert doc["result"]["contraction_nominal"] < 1.0
        assert doc["result"]["no_certificate"] is False
        assert doc["manifest"]["resolved"]["tau"] == doc["result"]["tau"]

    @pytest.mark.parametrize("p", ["1", "2", "3"])
    @pytest.mark.parametrize("rows", [["0,0,0", "0,0,0"], ["1e-160,0", "0,1e-160"]],
                             ids=["zero", "tiny"])
    def test_auto_tau_is_at_least_the_minimum(self, tmp_path, rows, p):
        # auto was 1.01 tau_min alone, below 2^-512 here, and exited 2 with
        # "tau must satisfy ... got 0.0" (or 5.05e-161), a tau never typed
        path = tmp_path / "small.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out_path = tmp_path / "r.json"
        argv = ["dsfp", "--payoff", str(path), "--p", p, "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        doc = load_report(out_path)
        assert doc["result"]["tau"] == doc["manifest"]["resolved"]["tau"] == TAU_MIN
        assert doc["result"]["contraction_safe"] < 1.0 / 1.0201
        assert doc["result"]["certified"] is True and doc["result"]["converged"] is True

    @pytest.mark.parametrize("rows, norm", [
        (["1e308,1e308", "1e308,1e308"], "inf"), (["1e308"], "1.0000000000009095e+308"),
    ], ids=["infinite-norm", "finite-norm"])
    def test_auto_tau_beyond_the_limit(self, tmp_path, capsys, rows, norm):
        # auto exited 2 with "tau must satisfy ... got inf" (or 5.05e307)
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["dsfp", "--payoff", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --tau auto: the payoff's ||A||_2 upper end {norm} ")
        assert captured.err.count("\n") == 1

    def test_failed_eigensolve_answers_at_p_two(self, fixture_dir, tmp_path, monkeypatch):
        # p = 2 takes the certified fallback bracket's upper end, as other
        # p do; it exited 4
        payoff = fixture_dir / "random_payoff_5x5.csv"
        two = np.linalg.svd(read_matrix_csv(str(payoff)), compute_uv=False)[0]

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        out_path = tmp_path / "r.json"
        argv = ["dsfp", "--payoff", str(payoff), "--p", "2", "--tau", "auto", "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        result = load_report(out_path)["result"]
        assert result["tau"] >= 1.01 * two / 2.0
        assert result["converged"] is True and result["no_certificate"] is False

    def test_low_tau_sets_no_certificate_flag(self, fixture_dir, tmp_path):
        out_path = tmp_path / "r.json"
        rc = main([
            "dsfp", "--payoff", str(fixture_dir / "random_payoff_5x5.csv"),
            "--tau", "0.05", "--tol", "1e-8", "--out", str(out_path),
        ])
        result = load_report(out_path)["result"]
        assert result["no_certificate"] is True
        assert rc in (EXIT_OK, EXIT_NO_CONVERGENCE)

    def test_nonconvergence_exit_code(self, fixture_dir):
        rc = main([
            "dsfp", "--payoff", str(fixture_dir / "random_payoff_5x5.csv"),
            "--tau", "0.6", "--tol", "1e-15", "--max-iter", "2",
        ])
        assert rc == EXIT_NO_CONVERGENCE

    def test_nan_payoff_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,nan\n2,3\n", encoding="utf-8")
        assert main(["dsfp", "--payoff", str(path)]) == EXIT_INPUT

    def check_tau_rejected(self, fixture_dir, capsys, tau):
        argv = ["dsfp", "--payoff", str(fixture_dir / "matching_pennies.csv"), "--tau", tau]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: tau must satisfy 2^-512 <= tau < 2^511")
        assert "Traceback" not in err

    def test_underflowing_tau(self, fixture_dir, capsys):
        # 4 tau^2 would underflow to 0 in contraction_factor
        self.check_tau_rejected(fixture_dir, capsys, "1e-306")

    def test_subnormal_tau(self, fixture_dir, capsys):
        # 1/tau would overflow to inf; this once read "probs must have finite entries"
        self.check_tau_rejected(fixture_dir, capsys, "1e-310")

    def test_huge_tau(self, fixture_dir, capsys):
        # 4 tau^2 would overflow to inf
        self.check_tau_rejected(fixture_dir, capsys, "1e200")

    def test_negative_tau(self, fixture_dir, capsys):
        # the one tau rule of the games module, not a second CLI check
        self.check_tau_rejected(fixture_dir, capsys, "-1")

    def test_overflowing_contraction_factor(self, tmp_path, capsys):
        # tau is in range, but ||A||^2 / (4 tau^2) = 1e20 / 4e-300 is not a
        # float; this once printed a line, then failed to serialize inf
        path = tmp_path / "big.csv"
        path.write_text("1e10,0\n0,1e10\n", encoding="utf-8")
        out_path = tmp_path / "r.json"
        argv = ["dsfp", "--payoff", str(path), "--tau", "1e-150", "--out", str(out_path)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tau 1e-150 is too small for this payoff")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_overflowing_factor_takes_no_step(self, tmp_path, monkeypatch, capsys, p):
        # the factor was checked after a full solve: 10,000 steps on a
        # 200 x 200 payoff before the same exit 2
        steps = []
        step = games_module._dsfp_step

        def counted(a, lam, y, x, t_y, bounded=False):
            steps.append(lam)
            return step(a, lam, y, x, t_y, bounded)

        monkeypatch.setattr(games_module, "_dsfp_step", counted)
        path = tmp_path / "big.csv"
        path.write_text("1e10,0\n0,1e10\n", encoding="utf-8")
        argv = ["dsfp", "--payoff", str(path), "--tau", "1e-150", "--p", p]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --tau 1e-150 is too small for this payoff")
        assert steps == []

    @pytest.mark.parametrize("rows, flags", [
        # lam * (A y) overflowed: the solve failed with exit 4
        (["-1e300,-1e300", "-1e300,-1e300"], ["--tau", "1e-10"]),
        # A^T A overflows, and so does the factor (2e200 / 2e-150)^2
        (["1e200,-1e200", "-1e200,1e200"], ["--tau", "1e-150", "--p", "2"]),
    ], ids=["overflowing-logits", "overflowing-gram"])
    def test_extreme_payoff_is_too_small_a_tau(self, tmp_path, capsys, rows, flags):
        path = tmp_path / "extreme.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["dsfp", "--payoff", str(path), *flags]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(r"error: --tau \S+ is too small for this payoff", captured.err)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_norm_whose_square_overflows(self, tmp_path, p):
        # ||A||^2 = 4e400 overflowed, and the CLI called tau 1e150 too small,
        # though the factor (2e200 / 2e150)^2 = 1e100 is a float
        path = tmp_path / "extreme.csv"
        path.write_text("1e200,-1e200\n-1e200,1e200\n", encoding="utf-8")
        out_path = tmp_path / "r.json"
        argv = ["dsfp", "--payoff", str(path), "--tau", "1e150", "--p", p, "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        result = load_report(out_path)["result"]
        assert result["contraction_nominal"] == pytest.approx(1e100, rel=1e-10)
        assert result["certified"] is False

    @pytest.mark.parametrize("p", ["1", "2", "3", "inf"])
    def test_norm_beyond_the_float_range(self, tmp_path, capsys, p):
        # ||A||_p = 2e308: p = 3 exited 4 after a full solve, p = 1 exited 2
        path = tmp_path / "big.csv"
        path.write_text("1e308,1e308\n1e308,1e308\n", encoding="utf-8")
        assert main(["dsfp", "--payoff", str(path), "--tau", "1", "--p", p]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --tau 1 is too small for this payoff")


class TestScsaCommand:
    def test_hand_evaluated(self, capsys):
        rc = main(["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4",
                   "--wq", "1", "--wk", "1", "--wv", "1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "refined SCSA Lipschitz bound:      8" in out

    def test_weight_norm_beyond_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "wq.csv"
        path.write_text("1e308,1e308\n1e308,1e308\n", encoding="utf-8")
        rc = main(["scsa", "--n", "1", "--nu", "1", "--tau", "1", "--eps", "1",
                   "--wq-file", str(path), "--wk", "1", "--wv", "1"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ||A||_2 = ") and "exceeds the float range" in err

    def test_huge_matrix_file_weight(self, tmp_path):
        # A^T A overflowed: the norm was NaN and the report failed to serialize
        path = tmp_path / "wq.csv"
        path.write_text("1e200,0\n0,1e200\n", encoding="utf-8")
        out = tmp_path / "r.json"
        rc = main(["scsa", "--n", "1", "--nu", "1", "--tau", "1", "--eps", "1",
                   "--wq-file", str(path), "--wk", "1", "--wv", "1", "--json-out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["result"]["wq_norm"] == 1e200

    def test_matrix_file_weights(self, tmp_path):
        w = tmp_path / "w.csv"
        w.write_text("3,0\n0,1\n", encoding="utf-8")  # spectral norm 3
        out_path = tmp_path / "s.json"
        rc = main(["scsa", "--n", "1", "--nu", "1", "--tau", "1", "--eps", "1",
                   "--wq-file", str(w), "--wk", "0", "--wv", "0",
                   "--json-out", str(out_path)])
        assert rc == EXIT_OK
        result = load_report(out_path)["result"]
        assert result["wq_norm"] == pytest.approx(3.0, rel=1e-12)
        assert result["bound"] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("values", [
        ["--nu", "1", "--tau", "1", "--eps", "4", "--wq", "1e308", "--wk", "1", "--wv", "1"],
        ["--nu", "1e308", "--tau", "1e308", "--eps", "1e-308", "--wq", "1", "--wk", "1",
         "--wv", "1"],
    ], ids=["refined_finite", "both_inf"])
    def test_overflowing_bound_is_an_input_error_before_output(self, values, tmp_path, capsys):
        # printed the refined bound, then failed to serialize the other as inf
        out = tmp_path / "s.json"
        rc = main(["scsa", "--n", "2", *values, "--json-out", str(out)])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the SCSA Lipschitz bound overflows float64; "
            "use smaller parameters or weight norms\n"
        )
        assert not out.exists()

    def test_bound_beyond_an_overflowing_intermediate(self, tmp_path, capsys):
        # nu * tau overflowed beside --wk 0: exited 2 with "overflows float64"
        # for a bound of 2e200
        out = tmp_path / "s.json"
        rc = main(["scsa", "--n", "2", "--nu", "1e200", "--tau", "1e200", "--eps", "1",
                   "--wq", "1e-200", "--wk", "0", "--wv", "0", "--json-out", str(out)])
        assert rc == EXIT_OK
        result = load_report(out)["result"]
        exact = 2 * Fraction(1e200) * Fraction(1e200) * Fraction(1e-200)
        for key, factor in (("bound", 1), ("pre_refinement_bound", 2)):
            assert abs(Fraction(result[key]) - factor * exact) <= factor * exact / 2**49
        assert "refined SCSA Lipschitz bound:      1.9999999999999999e+200" in capsys.readouterr().out

    @pytest.mark.parametrize("weights, message", [
        (["--wk", "1", "--wv", "1"], "one of the arguments --wq --wq-file is required"),
        (["--wq", "1", "--wq-file", "w.csv", "--wk", "1", "--wv", "1"],
         "argument --wq-file: not allowed with argument --wq"),
        (["--wq", "1", "--wk", "1", "--wv-file", "w.csv", "--wv", "1"],
         "argument --wv: not allowed with argument --wv-file"),
    ])
    def test_exactly_one_source_per_weight(self, weights, message, capsys):
        argv = ["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4", *weights]
        assert main(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["wq", "wk", "wv"])
    def test_negative_weight_names_its_option(self, name, capsys):
        weights = {"wq": "1", "wk": "1", "wv": "1", name: "-1"}
        argv = ["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4"]
        argv += [a for w, v in weights.items() for a in (f"--{w}", v)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: --{name} must be nonnegative\n"

    def test_nonpositive_rejected(self):
        assert main(["scsa", "--n", "0", "--nu", "1", "--tau", "1", "--eps", "1",
                     "--wq", "1", "--wk", "1", "--wv", "1"]) == EXIT_INPUT
        assert main(["scsa", "--n", "1", "--nu", "-1", "--tau", "1", "--eps", "1",
                     "--wq", "1", "--wk", "1", "--wv", "1"]) == EXIT_INPUT


class TestUnwritableReport:
    """An output path that cannot be written exits 2 with one `error:` line
    naming it; it ended in a traceback and exit 1. What was printed or
    written before stays."""

    # each report write, with the report path its command line ends in
    SITES = {
        "jacobian_norm": ["jacobian-norm", "--inline", "1,2", "--json-out"],
        "witness": ["witness", "--mode", "attained", "--n", "5", "--p", "1", "--json-out"],
        "estimate": ["estimate", "--matrix", "SCORES", "--trials", "2", "--out"],
        "dsfp": ["dsfp", "--payoff", "PAYOFF", "--out"],
        "scsa": ["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4",
                 "--wq", "1", "--wk", "1", "--wv", "1", "--json-out"],
    }

    def run(self, site, out, fixture_dir, capsys):
        files = {"SCORES": "attention_scores_8x8.csv", "PAYOFF": "matching_pennies.csv"}
        argv = [str(fixture_dir / files[a]) if a in files else a for a in self.SITES[site]]
        assert main([*argv, str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out != ""  # the summary lines came first
        assert captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_missing_directory(self, site, fixture_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        written = f"{out}.json" if site == "estimate" else str(out)
        err = self.run(site, out, fixture_dir, capsys)
        assert err == f"error: cannot write {written}: {os.strerror(errno.ENOENT)}\n"

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_path_is_a_directory(self, site, fixture_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        (tmp_path / ("taken.json" if site == "estimate" else "taken")).mkdir()
        written = f"{out}.json" if site == "estimate" else str(out)
        assert self.run(site, out, fixture_dir, capsys).startswith(f"error: cannot write {written}: ")

    def test_estimate_csv_after_its_json(self, fixture_dir, tmp_path, capsys):
        # the CSV write is the second of `estimate --out`; the JSON stays
        out = tmp_path / "report"
        (tmp_path / "report.csv").mkdir()
        err = self.run("estimate", out, fixture_dir, capsys)
        assert err.startswith(f"error: cannot write {out}.csv: ")
        assert load_report(f"{out}.json")["result"]["trials_per_input"] == 2


class TestStdoutFailure:
    """A stdout that cannot take the output (closed, a pipe whose reader has
    gone, a full device) exits 2 with one `error: cannot write <stdout>: ...`
    line. It ended in a BrokenPipeError or AttributeError traceback and exit
    1, or in Python's "Exception ignored" at exit and exit 120. Only a fresh
    process shows that flush at exit."""

    @staticmethod
    def readme_estimate(fixture_dir):
        return [
            "estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv"), "--rowwise",
            "--lambda", "1", "--p-list", "1,2,inf", "--eps-list", "1e-1,1e-2,1e-3",
            "--trials", "100", "--seed", "42",
        ]

    @staticmethod
    def run_into_broken_pipe(argv, unbuffered):
        # the reader is gone before the command starts, so the first write fails
        read, write = os.pipe()
        os.close(read)
        try:
            return run_cli(argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_broken_pipe(self, unbuffered, fixture_dir):
        # buffered, the flush after the command fails; unbuffered, the first print
        done = self.run_into_broken_pipe(self.readme_estimate(fixture_dir), unbuffered)
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT, f"error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"
        )

    def test_broken_pipe_keeps_written_reports(self, fixture_dir, tmp_path):
        out = tmp_path / "report"
        argv = [*self.readme_estimate(fixture_dir), "--out", str(out)]
        done = self.run_into_broken_pipe(argv, "")
        assert done.returncode == EXIT_INPUT
        assert done.stderr.count("\n") == 1
        assert load_report(f"{out}.json")["result"]["trials_per_input"] == 100
        assert Path(f"{out}.csv").read_text(encoding="utf-8").startswith("epsilon,p,")

    def test_closed_stdout(self, fixture_dir):
        wrap = ["sh", "-c", 'exec "$@" >&-', "sh"]
        done = run_cli(self.readme_estimate(fixture_dir), wrap=wrap)
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT, f"error: cannot write <stdout>: {os.strerror(errno.EBADF)}\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, fixture_dir):
        with open("/dev/full", "w") as full:
            done = run_cli(self.readme_estimate(fixture_dir), stdout=full, PYTHONUNBUFFERED="")
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT, f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["--help"], ["--version"], ["estimate", "--help"]],
        ids=["help", "version", "estimate-help"],
    )
    def test_help_and_version_into_a_broken_pipe(self, argv, unbuffered):
        # buffered, main returned 0 without the flush, and at exit Python
        # printed "Exception ignored ... BrokenPipeError" and exited 120;
        # unbuffered, argparse dropped the failed write and main exited 0
        done = self.run_into_broken_pipe(argv, unbuffered)
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT, f"error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_into_a_full_device(self, flag, unbuffered):
        with open("/dev/full", "w") as full:
            done = run_cli([flag], stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT, f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
        )

    def test_version_into_a_closed_stdout(self):
        # argparse writes the text to stderr when stdout is closed
        done = run_cli(["--version"], wrap=["sh", "-c", 'exec "$@" >&-', "sh"])
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT,
            f"softlip {cli.softlip.__version__}\nerror: cannot write <stdout>: {os.strerror(errno.EBADF)}\n",
        )

    def test_failed_write_in_process_keeps_what_came_before(self, fixture_dir, tmp_path):
        # the stream takes the summary line and fails on the next one; the
        # reports written between them stay
        class Stream(io.StringIO):
            def write(self, text):
                if "\n" in self.getvalue():
                    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
                return super().write(text)

        out, stdout, stderr = tmp_path / "report", Stream(), io.StringIO()
        argv = ["estimate", "--matrix", str(fixture_dir / "matching_pennies.csv"),
                "--trials", "2", "--out", str(out)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(argv) == EXIT_INPUT
        assert stdout.getvalue().startswith("max empirical L_p = ")
        assert stdout.getvalue().count("\n") == 1
        assert stderr.getvalue() == f"error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"
        assert Path(f"{out}.json").is_file() and Path(f"{out}.csv").is_file()

    def test_no_stdout_in_process(self, capsys):
        with contextlib.redirect_stdout(None):
            assert main(["jacobian-norm", "--inline", "0,0"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: cannot write <stdout>: {os.strerror(errno.EBADF)}\n"
        )


#: Values an option type may reject; none may reach argparse's own
#: "invalid <type> value" message.
HOSTILE_VALUES = {
    "5000_digits": "7" * 5000, "arabic_three": "\u0663", "underscore": "1_0",
    "nan": "nan", "1e400": "1e400", "empty": "", "space": " ",
}

#: The options each command needs besides the one under test.
REQUIRED_OPTIONS = {
    "jacobian-norm": {"--inline": "0,0"},
    "witness": {"--mode": "attained"},
    "estimate": {"--matrix": "m.csv"},
    "dsfp": {"--payoff": "m.csv"},
    "scsa": {"--n": "2", "--nu": "1", "--tau": "1", "--eps": "1",
             "--wq": "1", "--wk": "1", "--wv": "1"},
}


def _typed_options():
    """(command, option, action) for every option of `build_parser()` with a type."""
    [commands] = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0], action)
            for command, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


TYPED_OPTIONS = _typed_options()


class TestOptionTypes:
    """The parsers are the option types: each raises only `InputError`, an
    `ArgumentTypeError`, so argparse prints softlip's message after the
    option's name and never its own "invalid <type> value"."""

    @pytest.mark.parametrize("text", HOSTILE_VALUES.values(), ids=HOSTILE_VALUES.keys())
    @pytest.mark.parametrize(
        "command, option, action", TYPED_OPTIONS,
        ids=[f"{command}{option}" for command, option, _ in TYPED_OPTIONS],
    )
    def test_hostile_value(self, command, option, action, text, capsys):
        required = {k: v for k, v in REQUIRED_OPTIONS[command].items() if k != option}
        argv = [command, option, text, *[x for kv in required.items() for x in kv]]
        try:
            want = action.type(text)
        except InputError as exc:
            assert main(argv) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err.endswith(f"softlip {command}: error: argument {option}: {exc}\n")
            assert "invalid" not in err
        else:
            # a value the type reads, such as "1e400" for --p (infinity)
            assert getattr(cli._parser().parse_args(argv), action.dest) == want


class TestParserBehavior:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_help_exits_0(self):
        assert main(["--help"]) == EXIT_OK

    def test_version_exits_0(self):
        assert main(["--version"]) == EXIT_OK

    def test_bad_numeric_flag(self):
        assert main(["jacobian-norm", "--inline", "0,0", "--lambda", "abc"]) == EXIT_INPUT

    # a command line each flag is valid on, and what the flag's value is
    _FLAG_COMMANDS = {
        "--p": (["jacobian-norm", "--inline", "0,0"], "a number"),
        "--lambda": (["jacobian-norm", "--inline", "0,0"], "a number"),
        "--trials": (["estimate", "--matrix", "m.csv"], "an integer"),
        "--seed": (["estimate", "--matrix", "m.csv"], "an integer"),
        "--max-iter": (["dsfp", "--payoff", "m.csv"], "an integer"),
        "--n": (["scsa", "--nu", "1", "--tau", "1", "--eps", "1",
                 "--wq", "1", "--wk", "1", "--wv", "1"], "an integer"),
    }

    @pytest.mark.parametrize("flag,value", [
        ("--p", "abc"), ("--p", "nan"), ("--lambda", "1_0"),
        # the integer options read argparse's `int`, which took these
        ("--trials", "1_0"), ("--trials", "\uff13"), ("--seed", "1_0"), ("--seed", "\u0663"),
        ("--max-iter", "1_000"), ("--max-iter", "0x10"), ("--n", "\uff12"), ("--n", "2e0"),
    ])
    def test_bad_flag_names_the_option_once(self, flag, value, capsys):
        command, kind = self._FLAG_COMMANDS[flag]
        assert main([*command, flag, value]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument {flag}: cannot parse {value!r} as {kind}" in err
        assert err.count(flag + ":") == 1

    @pytest.mark.parametrize("text, want", [
        ("42", 42), (" +7 ", 7), ("-3", -3), ("007", 7),
        pytest.param("9" * 400, 10**400 - 1, id="400_digits"),
    ])
    def test_integer_grammar(self, text, want):
        assert cli._parse_int(text) == want

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_integer_digit_limit(self, sign):
        # int() raised CPython's "Exceeds the limit (4300 digits) ... use
        # sys.set_int_max_str_digits()" beyond it
        assert cli._parse_int(sign + "9" * 4300) == int(sign + "9" * 4300)
        with pytest.raises(InputError, match="^--seed: 4301 digits exceed the limit of 4300$"):
            cli._parse_int(sign + "9" * 4301, "--seed")

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_integer_beyond_the_digit_limit_names_the_option(self, flag, fixture_dir, capsys):
        argv = ["estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv")]
        assert main([*argv, flag, "7" * 5000]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: 5000 digits exceed the limit of 4300\n")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("where", ["--seed", "SOFTLIP_SEED"])
    def test_integer_beyond_a_lower_interpreter_limit(self, where, fixture_dir):
        # int() raised a plain ValueError below 4300 digits, and argparse
        # printed its own "invalid _parse_int value: '777...'"
        seed = "7" * 1000
        argv = ["estimate", "--matrix", str(fixture_dir / "matching_pennies.csv"), "--trials", "2"]
        if where == "--seed":
            done = run_cli([*argv, "--seed", seed], PYTHONINTMAXSTRDIGITS="640")
            want = "error: argument --seed: 1000 digits exceed the limit of 640\n"
        else:
            done = run_cli(argv, PYTHONINTMAXSTRDIGITS="640", SOFTLIP_SEED=seed)
            want = f"error: SOFTLIP_SEED must be an integer, got {seed!r}\n"
        assert done.returncode == EXIT_INPUT
        assert done.stderr.endswith(want)
        assert "_parse_int" not in done.stderr

    def test_main_builds_one_parser_per_process(self, monkeypatch):
        built, build = [], cli.build_parser

        def counted():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert main(["--version"]) == EXIT_OK
            assert main(["frobnicate"]) == EXIT_INPUT
            assert main(["jacobian-norm", "--inline", "0,0"]) == EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["jacobian-norm", "--inline", "0,0", "--p", "0.5"],
        ["estimate", "--matrix", "m.csv", "--p-list", ","],
        ["estimate", "--matrix", "m.csv", "--p-list", "0.3"],
        ["estimate", "--matrix", "m.csv", "--p-list", "x"],
        ["estimate", "--matrix", "m.csv", "--eps-list", "nan"],
        ["witness", "--mode", "limit-sequence", "--n", "5", "--epsilons", ","],
        ["witness", "--mode", "example", "--K", "-1"],
        ["dsfp", "--payoff", "m.csv", "--tau", "1", "--alpha", "2"],
    ])
    def test_input_errors_exit_2(self, argv, tmp_path, monkeypatch):
        (tmp_path / "m.csv").write_text("1,2\n3,4\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT

    @pytest.mark.parametrize("argv, option", [
        (["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "1e400",
          "--wq", "1", "--wk", "1", "--wv", "1"], "--eps"),
        (["scsa", "--n", "2", "--nu", "1", "--tau", "1e400", "--eps", "1e400",
          "--wq", "1", "--wk", "1", "--wv", "1"], "--tau"),
        (["estimate", "--matrix", "m.csv", "--eps-list", "1e-2,1e400"], "--eps-list"),
    ], ids=["scsa_eps", "scsa_tau", "estimate_eps_list"])
    def test_overflowing_value_names_the_option(self, argv, option, tmp_path, monkeypatch, capsys):
        # 1e400 read as inf and failed late, or not at all: scsa --eps gave
        # a bound of 0, scsa --tau a report that could not hold its NaN, and
        # estimate blamed the logits
        (tmp_path / "m.csv").write_text("1,2\n3,4\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT
        assert f"{option}: non-finite value '1e400'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["witness", "--mode", "attained", "--n", "1"], "n must be at least 2, got 1"),
        (["witness", "--mode", "limit-sequence", "--n", "2", "--epsilons", "0.1"],
         "n must be at least 3, got 2"),
        (["scsa", "--n", "0", "--nu", "1", "--tau", "1", "--eps", "1",
          "--wq", "1", "--wk", "1", "--wv", "1"], "n must be at least 1, got 0"),
        (["estimate", "--matrix", "m.csv", "--trials", "0"],
         "trials_per_input must be at least 1, got 0"),
        (["dsfp", "--payoff", "m.csv", "--tau", "1", "--max-iter", "0"],
         "max_iter must be at least 1, got 0"),
    ], ids=["attained", "limit_sequence", "scsa", "estimate", "dsfp"])
    def test_count_below_its_least_value(self, argv, message, tmp_path, monkeypatch, capsys):
        # the value types state each count's least value with its
        # whole-number rule, and the message gives the value
        (tmp_path / "m.csv").write_text("1,2\n3,4\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_beyond_int64_rows_exits_2(self, fixture_dir, capsys):
        # the row indices overflowed int64: exit 4 with "Python int too large
        # to convert to C long"
        matrix = str(fixture_dir / "matching_pennies.csv")
        argv = ["estimate", "--matrix", matrix, "--trials", "99999999999999999999999"]
        assert main(argv) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: trials_per_input is too large: 2 inputs x")
        assert out.err.count("\n") == 1

    def test_input_error_names_what_it_concerns(self):
        assert isinstance(InputError("x"), ValueError)
        assert isinstance(InputError("x"), argparse.ArgumentTypeError)
        assert str(InputError("empty list", "--eps-list")) == "--eps-list: empty list"
        assert str(InputError("empty list")) == "empty list"

    @pytest.mark.filterwarnings("default")
    def test_warning_is_one_line(self, capsys):
        # the coercion warning escaped as "<string>:4: UserWarning: ..." plus
        # its source line, naming code the dataclass machinery generated
        assert main(["jacobian-norm", "--inline", "1,2,3", "--p", "2e6"]) == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: norm order p=2e+06 exceeds 1e+06; treating as infinity\n"
        )

    def test_callers_warning_filters_still_apply(self):
        # the suite runs under filterwarnings = error: main must not reset it
        with pytest.raises(UserWarning, match="treating as infinity"):
            main(["jacobian-norm", "--inline", "1,2,3", "--p", "2e6"])

    def test_norm_order_spellings(self):
        for text in ("inf", " Infinity ", "OO"):
            assert cli._parse_norm_order(text).is_infinity
        assert cli._parse_norm_order("1.5").p == 1.5
        with pytest.raises(InputError, match="--p-list: cannot parse 'x'"):
            cli._parse_list("2, x", "--p-list", cli._parse_norm_order)

    @pytest.mark.parametrize("text, want", [
        ("1_5", "cannot parse '1_5' as a number"),
        ("\u0663", "3"),  # a decimal digit, as in every number
        ("1e400", "inf"),
        (" Inf ", "inf"),
        ("0.5", "norm order must satisfy p >= 1, got 0.5"),
    ])
    def test_norm_order_grammar_is_norm_order_of(self, text, want, capsys):
        # NormOrder.of read "1_5" as p = 15, which --p rejected
        try:
            got = NormOrder.of(text).label
        except ValueError as exc:
            got = str(exc)
        assert got == want
        rc = main(["jacobian-norm", "--inline", "0,0", "--p", text])
        captured = capsys.readouterr()
        if rc == EXIT_OK:
            assert f"(p={want}," in captured.out
        else:
            assert rc == EXIT_INPUT
            assert f"argument --p: {want}" in captured.err


class TestNumericalFailure:
    """Solver and eigensolve failures exit 4 with one `error:` line, no traceback."""

    def check(self, argv, capsys):
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_dsfp_error(self, fixture_dir, monkeypatch, capsys):
        def fail(game, config):
            raise DsfpError("non-finite iterate at step 3")

        monkeypatch.setattr(cli, "dsfp_solve", fail)
        self.check(["dsfp", "--payoff", str(fixture_dir / "matching_pennies.csv")], capsys)

    def test_opnorm_error(self, monkeypatch, capsys):
        def fail(x, lam, order):
            raise OpNormError("eigensolve failed", NormEstimate(0.0, 1.0, False, "fallback"))

        monkeypatch.setattr(cli, "local_lipschitz", fail)
        self.check(["jacobian-norm", "--inline", "0,0"], capsys)

    def test_failed_eigh(self, fixture_dir, monkeypatch, capsys):
        # OpNormError from a weight file's spectral norm; `dsfp` answers
        # from the fallback bracket instead (TestDsfpCommand)
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        self.check(["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4",
                    "--wq-file", str(fixture_dir / "random_payoff_5x5.csv"),
                    "--wk", "1", "--wv", "1"], capsys)

    @pytest.mark.parametrize("argv", [
        ["jacobian-norm", "--inline", "0.3,-1,2", "--p", "2"],
        ["jacobian-norm", "--inline", "0.3,-1,2,0.5,0", "--p", "1.5"],
        ["witness", "--mode", "example", "--n", "4"],
        ["estimate", "--matrix", "SCORES", "--mode", "top-eigenvector",
         "--p-list", "1.5,3", "--trials", "2"],
    ], ids=["jacobian_norm_p2", "jacobian_norm_p15", "witness_example", "estimate_topeig"])
    def test_softmax_jacobian_needs_no_eigensolve(
        self, argv, fixture_dir, tmp_path, monkeypatch, capsys
    ):
        # local constants and top eigenvectors of J run on the secular
        # equation and the O(n) product, so a broken eigensolver changes nothing
        scores = str(fixture_dir / "attention_scores_8x8.csv")
        argv = [scores if a == "SCORES" else a for a in argv]
        monkeypatch.chdir(tmp_path)
        untimed = functools.partial(re.sub, r'"timestamp": "[^"]*"', "")
        assert main(argv) == 0
        expected = untimed(capsys.readouterr().out)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert main(argv) == 0
        assert untimed(capsys.readouterr().out) == expected

    @pytest.mark.parametrize("exc", [
        RuntimeError("dense symmetric eigensolve failed"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
    ])
    def test_eigensolve_error(self, exc, fixture_dir, monkeypatch, capsys):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "order_sweep", fail)
        self.check(["estimate", "--matrix", str(fixture_dir / "attention_scores_8x8.csv")], capsys)


def test_inline_generators_use_the_fixture_builders():
    np.testing.assert_array_equal(parse_inline_vector("ln9-vector(7)"), attaining_logits(7))
    np.testing.assert_array_equal(parse_inline_vector("example-vector(6, 3)"), example_logits(6, 3.0))
    np.testing.assert_array_equal(parse_inline_vector("example-vector(6)"), example_logits(6))


@pytest.mark.parametrize("code", [
    "import softlip.cli",
    "import softlip.cli\nsoftlip.cli.main(['--version'])",
], ids=["import", "version"])
def test_cli_start_leaves_numpy_random_unloaded(code):
    # numpy.random costs a fresh process about 17 ms to import; the
    # estimator loads it on its first draw
    probe = code + "\nimport sys\nprint('numpy.random' in sys.modules)"
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# argv fuzzing: every command line ends in a documented exit code, with no
# exception, no warning escaping `main`, and no `warning:` line but the
# NormOrder coercion above p = 1e6

_HOSTILE_CSVS = {
    "huge.csv": "1e308,1e308\n1e308,1e308\n",
    "max.csv": "1.7976931348623157e308,-1.7976931348623157e308\n-1e308,1e308\n",
    "subnormal.csv": "1e-310,-1e-310\n2e-310,1e-310\n",
    "mixed.csv": "1e308,-1e-310,0\n0,5e-324,-1e308\n",
    "one.csv": "5\n",
    "column.csv": "1\n2\n3\n",
    "zeros.csv": "0,0,0\n0,0,0\n",
}
# "=@name" stands for a file of the fuzz directory; missing.csv is never
# written, and "" is the empty path
_FUZZ_FILES = st.sampled_from(
    ["@attention_scores_8x8.csv", "@example_logits.csv", "@matching_pennies.csv",
     "@random_payoff_5x5.csv", "@missing.csv", ""] + [f"@{name}" for name in _HOSTILE_CSVS]
)
_EXTREME_NUMBERS = st.sampled_from([
    "0", "-0", "1", "-1", "0.5", "2", "1e308", "-1e308", "1.7976931348623157e308",
    "2.2250738585072014e-308", "1e-310", "5e-324", "1e-320", "1e-400",
])
_NUMBERS = st.one_of(
    _EXTREME_NUMBERS,
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "-inf", "1_5", "abc", "", " 3 ", "\u0663"]),
)
_ORDERS = st.one_of(
    st.sampled_from(["1", "2", "inf", "oo", "INF", "infinity", "1.5", "3", "1e400", "1_5",
                     "1e6", "1e7", "9e5", "0.5", "0", "-1", "nan", "1.0000001", "abc"]),
    st.floats(min_value=1.0, max_value=1e7).map(repr),
)
_LENGTHS = st.one_of(
    st.integers(-2, 64).map(str), st.sampled_from(["5e0", "1e400", "2.5", "1_0", "x"])
)
_COUNTS = st.one_of(
    st.integers(-2, 64).map(str), st.integers(0, 10**400).map(str), st.just("1e3")
)


# report paths: writable, in a directory that is never made, and a directory
_REPORT_PATHS = st.sampled_from(["@out.json", "@missing/out.json", "@taken.json"])
# `estimate --out` is a prefix for <prefix>.json and <prefix>.csv
_REPORT_PREFIXES = st.sampled_from(["@out", "@missing/out", "@taken"])


def _comma_list(items):
    return st.one_of(st.lists(items, min_size=1, max_size=3).map(",".join), st.just(""))


_INLINE = st.one_of(
    st.lists(_NUMBERS, min_size=0, max_size=64).map(",".join),
    st.builds("ln9-vector({})".format, _LENGTHS),
    st.builds("example-vector({}, {})".format, _LENGTHS, _NUMBERS),
    st.builds("example-vector({})".format, _LENGTHS),
)


def _argv(command, required, optional):
    """[command, "--flag=value", ...]: every required option and a subset of
    the optional ones, each with a drawn value (None for a bare flag); the
    "=" keeps a value such as "-1" from reading as an option."""

    def flatten(options):
        return [command] + [
            flag if value is None else f"{flag}={value}" for flag, value in options.items()
        ]

    return st.fixed_dictionaries(required, optional=optional).map(flatten)


def _weight(name):
    """`scsa`'s --name=value, --name-file=path, or neither (None)."""
    return st.one_of(
        _NUMBERS.map(f"--{name}={{}}".format),
        _FUZZ_FILES.map(f"--{name}-file={{}}".format),
        st.none(),
    )


_FUZZ_ARGV = st.one_of(
    _argv("jacobian-norm", {}, {
        "--inline": _INLINE, "--logits-file": _FUZZ_FILES, "--lambda": _NUMBERS,
        "--p": _ORDERS, "--json-out": _REPORT_PATHS,
    }),
    _argv("jacobian-norm", {"--inline": _INLINE, "--lambda": _NUMBERS, "--p": _ORDERS}, {}),
    _argv("witness", {"--mode": st.sampled_from(["attained", "limit-sequence", "example"])}, {
        "--n": _LENGTHS, "--p": _ORDERS, "--K": _NUMBERS, "--eps": _NUMBERS,
        "--epsilons": _comma_list(_NUMBERS), "--json-out": _REPORT_PATHS,
    }),
    _argv("estimate", {"--matrix": _FUZZ_FILES, "--trials": st.integers(0, 3).map(str)}, {
        "--rowwise": st.none(), "--lambda": _NUMBERS, "--p-list": _comma_list(_ORDERS),
        "--eps-list": _comma_list(st.one_of(_EXTREME_NUMBERS, _NUMBERS)),
        "--seed": st.integers(-2**70, 2**70).map(str),
        "--mode": st.sampled_from(["random-gaussian-normalized", "top-eigenvector"]),
        "--aggregate": st.sampled_from(["max", "mean"]), "--out": _REPORT_PREFIXES,
    }),
    _argv("dsfp", {"--payoff": _FUZZ_FILES, "--max-iter": st.integers(-1, 50).map(str)}, {
        "--tau": st.one_of(st.just("auto"), _NUMBERS), "--alpha": _NUMBERS, "--p": _ORDERS,
        "--tol": _NUMBERS, "--out": _REPORT_PATHS,
    }),
    st.tuples(
        _argv("scsa", {"--n": _COUNTS, "--nu": _NUMBERS, "--tau": _NUMBERS, "--eps": _NUMBERS},
              {"--json-out": _REPORT_PATHS}),
        _weight("wq"), _weight("wk"), _weight("wv"),
    ).map(lambda parts: parts[0] + [w for w in parts[1:] if w]),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_fixtures(root)
    for name, text in _HOSTILE_CSVS.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "taken.json").mkdir()
    return root


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(argv=_FUZZ_ARGV)
@example(argv=["estimate", "--matrix=@huge.csv", "--eps-list=1e308", "--trials=1"])
@example(argv=["jacobian-norm", "--logits-file="])
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_dir, argv):
    argv = [a.replace("=@", f"={fuzz_dir}{os.sep}") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()
    assert caught == [], argv
    for line in err.getvalue().splitlines():
        if line.startswith("warning: "):
            assert re.fullmatch(
                r"warning: norm order p=\S+ exceeds 1e\+06; treating as infinity", line
            ), (argv, line)
