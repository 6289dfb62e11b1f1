"""softlip benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from its
`src/`. A single closed-loop caller: one Python process works at a time,
and every process started here runs OpenBLAS on one thread. With --trace 0
the last line of output holds the end-to-end metrics, timed at the
reference host's speed (hostspeed.py), with --trace 1 the per-layer ones;
the line before it holds the details (sample counts, the metrics of single
call kinds, the yardstick times, the environment, failures). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from reports import report_files, strip_timestamp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate-attn", "jacobian-wide", "dsfp-games", "cli-readme")
SETUP_PROBES_PER_ROUND = 3
COLD_RUNS_PER_ROUND = 6  # fresh CLI processes, at least one per command
TRACE_PROBES = 3
TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SOFTLIP_"))}
    # One BLAS thread everywhere: a 2-thread pool sometimes stays in a slow
    # mode for the life of a process and adds start-up time to every CLI run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONNOUSERSITE"] = "1"
    return env


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def timing(values, unit="s") -> dict:
    q = tail_percentile(len(values))
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "tail_percentile": q, "tail": percentile(values, q)}


class Run:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.py = sys.executable
        self.workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.outdir = ROOT / ".perfbench_out"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.scaler: hostspeed.Scaler | None = None
        self.setups: list[float] = []
        self.cold_s: dict = {}  # argv as JSON -> its fresh-process times
        self.cold_out: list[tuple] = []  # (argv, (exit code, stdout, reports))

    def worker(self, mode: str, *extra: str) -> list[str]:
        a = self.args
        cmd = [self.py, str(HERE / "worker.py"), mode, "--workload", a.workload, "--seed", str(a.seed),
               "--workdir", str(self.workdir), "--trace", str(a.trace), *extra]
        return cmd + (["--smoke"] if a.smoke else [])

    def run(self, cmd, cwd=None) -> tuple[subprocess.CompletedProcess, float]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"timed out after {TIMEOUT_S} s: {' '.join(cmd)}") from exc
        return proc, time.perf_counter() - t0

    def op_result(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def yardstick(self) -> float:
        """A fresh process that imports numpy and nothing of softlip."""
        proc, dt = self.run([self.py, "-c", "import numpy"])
        if proc.returncode != 0:
            raise BenchError(f"the yardstick process failed: {proc.stderr[-2000:]}")
        return dt

    def setup_probe(self) -> float:
        """Spawn to first call returned, in a fresh process."""
        if self.args.workload == "cli-readme":
            proc, dt = self.run([self.py, "-m", "softlip.cli", "--version"])
            self.op_result(proc.returncode == 0 and proc.stdout.startswith("softlip "), "--version failed")
            return dt
        errfile = self.workdir / "probe.err"
        with errfile.open("w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.worker("setup"), env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                line = proc.stdout.readline()
                dt = time.perf_counter() - t0
                proc.communicate(timeout=TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        ok = proc.returncode == 0 and line.strip() == "ready"
        self.op_result(ok, f"setup probe failed: {errfile.read_text()[-500:]}")
        return dt

    def json_line(self, cmd) -> dict:
        proc, _ = self.run(cmd)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def cold_round(self, argvs: list) -> None:
        """The workload's CLI commands as fresh processes; outputs kept for checking."""
        cold = self.workdir / "cold"
        for _ in range(max(1, -(-COLD_RUNS_PER_ROUND // len(argvs)))):
            for argv in argvs:
                proc, dt = self.run([self.py, "-m", "softlip.cli", *argv], cwd=cold)
                self.scaler.add(dt, self.cold_s.setdefault(json.dumps(argv), []))
                files = {name: strip_timestamp((cold / name).read_text(encoding="utf-8"))
                         for name in report_files(argv) if (cold / name).is_file()}
                self.cold_out.append((argv, (proc.returncode, proc.stdout, files)))

    def outer_round(self, argvs: list) -> None:
        """Fresh-process measurements, made before and after the worker so that
        they sample the machine over the whole run, not one moment of it."""
        for _ in range(1 if self.args.smoke else SETUP_PROBES_PER_ROUND):
            self.scaler.add(self.setup_probe(), self.setups)
        self.cold_round(argvs)
        self.scaler.flush()

    def execute(self) -> tuple[dict, dict]:
        a = self.args
        self.workdir.mkdir(parents=True)
        # Untimed: writes the inputs, compiles bytecode, fills the page cache.
        argvs = self.json_line(self.worker("prepare"))["cli"]
        detail: dict = {}
        if a.trace:
            probes = [self.json_line(self.worker("setup")) for _ in range(1 if a.smoke else TRACE_PROBES)]
        else:
            self.scaler = hostspeed.Scaler(self.yardstick, hostspeed.PROCESS_REFERENCE_S, every_s=0.0)
            self.outer_round(argvs)
        extra = ["--seconds", str(a.seconds), "--out", str(self.outdir)] + (["--plant"] if a.plant else [])
        res = self.json_line(self.worker("measure", *extra))
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]
        detail["env"] = res["env"]
        by_kind, per_call = {}, {}  # all samples per call kind; each call's median, per kind
        for label, samples in res["latencies"].items():
            kind = res["kinds"][label]
            by_kind.setdefault(kind, []).extend(samples)
            per_call.setdefault(kind, []).append(statistics.median(samples))
        primary = per_call[res["primary"]]
        if not a.trace and not a.smoke:
            self.outer_round(argvs)
        expected = {json.dumps(c["argv"]): (c["code"], c["stdout"], c["files"]) for c in res["cli"]}
        for argv, got in self.cold_out:
            self.op_result(got == expected[json.dumps(argv)],
                           f"cold `{' '.join(argv)}` differs from the in-process run")
        cold_per_cmd = [statistics.median(v) for v in self.cold_s.values()]

        if a.trace:
            metrics = dict(res["layers"])
            for name in probes[0]:
                metrics[name] = (statistics.median(p[name] for p in probes), "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
        else:
            # Every time is at the reference host's speed (hostspeed.py), and
            # a median: of fresh processes, of passes, of each call's repetitions.
            metrics = {
                "setup_s": {"value": statistics.median(self.setups), "unit": "s"},
                "pass_s": {"value": statistics.median(res["passes"]), "unit": "s"},
                "op_p90_s": {"value": percentile(primary, 90), "unit": "s"},
                "cli_cold_p50_s": {"value": statistics.median(cold_per_cmd), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            detail.update(setup_s=timing(self.setups), pass_s=timing(res["passes"]),
                          op_s=timing(by_kind[res["primary"]]),
                          op_p50_s={"value": percentile(primary, 50), "unit": "s", "samples": len(primary)},
                          cli_cold_s=timing([t for v in self.cold_s.values() for t in v]),
                          cli_warm_s=timing(by_kind["cli"]),
                          cli_warm_p50_s={"value": statistics.median(per_call["cli"]), "unit": "s",
                                          "samples": len(per_call["cli"])},
                          yardstick_process_s=timing(self.scaler.yardsticks),
                          yardstick_loop_s=timing(res["yardstick_loop"]))
            if res["yardstick_dense"]:
                detail["yardstick_dense_s"] = timing(res["yardstick_dense"])
        # Per-call-kind names (brackets, solves), where the workload has such calls.
        for kind in ("bracket", "solve"):
            if kind in by_kind:
                detail[f"{kind}_p50_s"] = timing(by_kind[kind])
                detail[f"{kind}_p90_s"] = {"value": percentile(by_kind[kind], 90), "unit": "s",
                                           "samples": len(by_kind[kind])}
        if res["sweep_seconds"] > 0:
            detail["secant_ratios_per_s"] = {"value": res["sweep_ratios"] / res["sweep_seconds"],
                                             "unit": "1/s", "samples": res["sweep_ratios"]}
        if res["bracket_rel_gaps"]:
            gaps = res["bracket_rel_gaps"]
            detail["bracket_rel_gap"] = {"value": sum(gaps) / len(gaps), "unit": "ratio", "samples": len(gaps)}
        detail["error_rate"] = {"value": self.failed / self.attempted, "unit": "ratio",
                                "samples": self.attempted}
        detail["warm_passes"] = res["warm_passes"]
        return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--plant", action="store_true", help="plant a bad bracket (self-test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "softlip" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} is not a softlip source checkout (needs src/softlip and fixtures/)",
              file=sys.stderr)
        return 2
    run = Run(args)
    try:
        metrics, detail = run.execute()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  errors=run.errors[:20])
    run.outdir.mkdir(exist_ok=True)
    (run.outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
