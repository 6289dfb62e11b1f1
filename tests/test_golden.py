"""Byte-for-byte golden reports for the README's CLI commands.

The files under tests/golden/ were written by the CLI before the code they
guard was refactored: the `estimate` goldens before the estimator was
batched, the general-p `jacobian-norm` and `dsfp` ones before the power
iteration moved onto `row_norms`, the others before the CLI's parsers and
error handling were consolidated. `dsfp_tau_auto_p3` was rewritten once,
when `tau auto` at general p moved from the interpolation bound to the
smaller Riesz-Thorin upper end (tau 1.4485 -> 1.1262, 8 -> 10 iterations),
and `dsfp_readme` once, when the p = 2 end became the eigenvalue solve's
||A||_2 times 1 + 2^-40 (tau 1.01 -> 1.0100000000009186; every other
field kept its bytes). Each command runs from a scratch working
directory holding a copy of fixtures/, with relative paths, so the
manifest's argv and the result's path fields do not depend on where the
repository lives. The timestamp is the one field excluded from
reproducibility and is blanked on both sides.

A case writes one or more files; the file `out` is compared with
tests/golden/<case name><suffix of out>.

Three more goldens were rewritten when the softmax Jacobian stopped being
formed: `jacobian_norm_p15` (its upper end moved to Riesz-Thorin,
0.46694 -> 0.35216, and `method` with it; the lower end kept its bits),
`estimate_topeig_mean` (the top eigenvector from the secular equation
instead of a dense eigensolve; two values moved by 1-2e-16) and
`witness_limit_sequence_readme` (the O(n) product instead of the dense
one; one certified ratio moved by one ulp, onto 0.49 itself).
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from softlip.cli import EXIT_OK, main
from softlip.fixtures import write_fixtures

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
FIXTURES = HERE.parent / "fixtures"
README = HERE.parent / "README.md"
MATRIX = "fixtures/attention_scores_8x8.csv"

# golden name -> (argv, the files it writes). Where a README command writes
# no report, its case appends `--json-out <file>` and nothing else.
CASES = {
    "jacobian_norm_readme": ([
        "jacobian-norm", "--inline", "ln9-vector(10)", "--p", "1", "--lambda", "1",
        "--json-out", "jac.json",
    ], ["jac.json"]),
    "witness_example_readme": ([
        "witness", "--mode", "example", "--n", "10", "--K", "20", "--eps", "1e-4",
        "--p", "2", "--json-out", "example.json",
    ], ["example.json"]),
    "witness_attained_readme": ([
        "witness", "--mode", "attained", "--n", "5", "--p", "1",
        "--json-out", "attained.json",
    ], ["attained.json"]),
    "witness_limit_sequence_readme": ([
        "witness", "--mode", "limit-sequence", "--n", "5", "--p", "2",
        "--epsilons", "0.1,0.01", "--json-out", "limit.json",
    ], ["limit.json"]),
    "estimate_readme": ([
        "estimate", "--matrix", MATRIX, "--rowwise",
        "--lambda", "1", "--p-list", "1,2,inf", "--eps-list", "1e-1,1e-2,1e-3",
        "--trials", "100", "--seed", "42", "--out", "report",
    ], ["report.json", "report.csv"]),
    "estimate_topeig_mean": ([
        "estimate", "--matrix", MATRIX, "--rowwise",
        "--lambda", "2.5", "--mode", "top-eigenvector", "--aggregate", "mean",
        "--p-list", "1.5,3", "--eps-list", "1e-2,1e-3",
        "--trials", "3", "--seed", "7", "--out", "topeig",
    ], ["topeig.json", "topeig.csv"]),
    "jacobian_norm_p15": ([
        "jacobian-norm", "--inline", "0.3,-1,2,0.5,0", "--p", "1.5",
        "--json-out", "jac.json",
    ], ["jac.json"]),
    "dsfp_readme": ([
        "dsfp", "--payoff", "fixtures/matching_pennies.csv", "--tau", "auto", "--out", "mp.json",
    ], ["mp.json"]),
    "dsfp_tau_auto_p3": ([
        "dsfp", "--payoff", "fixtures/random_payoff_5x5.csv", "--tau", "auto", "--p", "3",
        "--out", "dsfp.json",
    ], ["dsfp.json"]),
    "scsa_readme": ([
        "scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4",
        "--wq", "1", "--wk", "1", "--wv", "1", "--json-out", "scsa.json",
    ], ["scsa.json"]),
}


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def readme_commands() -> list[list[str]]:
    """The argv of every `softlip ...` line in the README's CLI block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("softlip ")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, tmp_path, monkeypatch):
    if FIXTURES.is_dir():
        shutil.copytree(FIXTURES, tmp_path / "fixtures")
    else:
        write_fixtures(tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    argv, outs = CASES[name]
    assert main(argv) == EXIT_OK
    for out in outs:
        golden = GOLDEN / f"{name}{Path(out).suffix}"
        got = (tmp_path / out).read_bytes().decode("utf-8")
        if out.endswith(".json"):
            got = strip_timestamp(got)
        assert got == golden.read_bytes().decode("utf-8"), out


def test_every_readme_command_has_a_golden_case():
    cases = [argv[:-2] if argv[-2] == "--json-out" else argv for argv, _ in CASES.values()]
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert argv in cases, f"no golden case for README command: softlip {shlex.join(argv)}"
