"""Byte-for-byte golden reports for the `estimate` command.

The files under tests/golden/ were written by the CLI before the estimator
was batched. Each command runs from a scratch working directory with a
relative matrix path, so the manifest's argv and the result's `matrix`
field do not depend on where the repository lives. The timestamp is the
one field excluded from reproducibility and is blanked on both sides.
"""

import re
import shutil
from pathlib import Path

import pytest

from softlip.cli import EXIT_OK, main
from softlip.fixtures import write_fixtures

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
FIXTURES = HERE.parent / "fixtures"
MATRIX = "attention_scores_8x8.csv"

# golden name -> (argv, the --out prefix it was written under)
CASES = {
    "estimate_readme": ([
        "estimate", "--matrix", f"fixtures/{MATRIX}", "--rowwise",
        "--lambda", "1", "--p-list", "1,2,inf", "--eps-list", "1e-1,1e-2,1e-3",
        "--trials", "100", "--seed", "42", "--out", "report",
    ], "report"),
    "estimate_topeig_mean": ([
        "estimate", "--matrix", f"fixtures/{MATRIX}", "--rowwise",
        "--lambda", "2.5", "--mode", "top-eigenvector", "--aggregate", "mean",
        "--p-list", "1.5,3", "--eps-list", "1e-2,1e-3",
        "--trials", "3", "--seed", "7", "--out", "topeig",
    ], "topeig"),
}


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_report_bytes(name, tmp_path, monkeypatch):
    (tmp_path / "fixtures").mkdir()
    if (FIXTURES / MATRIX).is_file():
        shutil.copy(FIXTURES / MATRIX, tmp_path / "fixtures" / MATRIX)
    else:
        write_fixtures(tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    argv, out = CASES[name]
    assert main(argv) == EXIT_OK
    got_json = strip_timestamp((tmp_path / f"{out}.json").read_text(encoding="utf-8"))
    assert got_json == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    got_csv = (tmp_path / f"{out}.csv").read_bytes()
    assert got_csv == (GOLDEN / f"{name}.csv").read_bytes()
