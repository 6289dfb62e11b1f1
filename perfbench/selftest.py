"""Self-test of the benchmark in smoke mode (tiny sizes; about two minutes).

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks that

- every workload emits every metric named in BENCHMARK.json, with its
  unit, under --trace 0 (end_to_end) and --trace 1 (per_layer), and passes
  its own correctness checks;
- a planted bad result (a bracket with lower > upper) counts as a failure;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            try:
                res = result(bench(ROOT, workload, trace))
            except (RuntimeError, ValueError, IndexError) as exc:
                problems.append(f"{where}: {exc}")
                continue
            if set(res) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m.get("unit") for name, m in res["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            bad = [n for n, m in res["metrics"].items()
                   if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")

    try:
        planted = result(bench(ROOT, "jacobian-wide", 0, "--plant"))
        if planted["correct"] or planted["failed"] < 1:
            problems.append("a planted bracket with lower > upper was not counted as a failure")
    except (RuntimeError, ValueError, IndexError) as exc:
        problems.append(f"--plant: {exc}")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("without the package, the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
