"""One workload in one fresh process. Started by run.py, one at a time.

    worker.py prepare --workload W --seed S --workdir D [--smoke]
    worker.py setup   --workload W --seed S --workdir D [--trace 1] [--smoke]
    worker.py measure --workload W --seed S --seconds T --workdir D --out O
                      [--trace 1] [--smoke] [--plant]

`prepare` writes the inputs and makes the first call, untimed, so bytecode
and page cache are warm for what follows; it prints the CLI argv. `setup`
imports the package, generates the inputs and makes the workload's
first call, then prints "ready"; run.py times it from spawn to that line.
With --trace 1 it instead reports import times and the first LAPACK call.

`measure` runs whole passes untimed until every call is steady, times
passes for --seconds, checks every result and prints one JSON line. Call
times are rescaled to the reference host's speed (hostspeed.py). With
--trace 1 it times untraced passes for half the time, then as many traced
passes, and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OP_SAMPLES = 100  # the p90 of the workload's op then has ten samples beyond it
MIN_PASSES = 3
WARM_MAX_PASSES = 3
STEADY = 0.10  # warm-up ends when a pass is within 10% of the one before
MAX_TRACED_PASSES = 5  # spans stay in memory; this bounds them


def import_package() -> tuple[float, float]:
    """(numpy import seconds, softlip.cli import seconds including numpy)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import softlip.cli

    t2 = time.perf_counter()
    src = (ROOT / "src").resolve()
    if src not in Path(softlip.cli.__file__).resolve().parents:
        sys.exit(f"softlip was imported from {softlip.cli.__file__}, not from {src}")
    return t1 - t0, t2 - t0


def environment() -> dict:
    """Machine and library facts that every result records."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        env["openblas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        env["openblas"] = None
    # The thread count OpenBLAS actually runs with, read from the library.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    env["openblas_threads"] = None
    for lib in libs:
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["openblas_threads"] = fn()
                break
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    env["l2_bytes_per_core"] = libc.sysconf(191)  # _SC_LEVEL2_CACHE_SIZE
    env["l3_bytes"] = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE
    return env


def make_workload(args):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke, ROOT)
    workdir = Path(args.workdir)
    wl.prepare_dirs(workdir)
    os.chdir(workdir / "warm")
    return wl, wl.ops()


def prepare(args) -> None:
    import_package()
    wl, ops = make_workload(args)
    ops[0].fn()
    print(json.dumps({"cli": wl.cli_argvs()}))


def setup(args) -> None:
    numpy_s, import_s = import_package()
    wl, ops = make_workload(args)
    if not args.trace:
        ops[0].fn()
        print("ready", flush=True)
        return
    from spans import LAPACK, Tracer

    tracer = Tracer().install(only={LAPACK})
    try:
        for op in ops:  # up to the first LAPACK call, if the workload makes one
            op.fn()
            if tracer.spans:
                break
    finally:
        tracer.restore()
    first = min(tracer.spans, default=None)
    print(json.dumps({
        "cli.numpy_import_s": numpy_s,
        "cli.import_s": import_s,
        "opnorm.first_lapack_s": first[3] - first[2] if first else 0.0,
    }))


class Runner:
    """Runs passes over the ops and keeps what the checks need."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict | None = None  # label -> result of the first pass
        self.first_summary: dict = {}
        self.executions = 0
        self.failed_runs: dict = {}  # label -> failed executions
        self.errors: list[str] = []

    def run_pass(self, scalers, tracer=None) -> list:
        """One pass over the ops; their times, at the reference host's speed."""
        results, latencies = {}, []
        loop, dense = scalers
        for op in self.ops:
            if op.dense:
                loop.flush()
                dense.restart()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = op.fn()
                else:
                    with tracer.span("bench." + op.kind):
                        res = op.fn()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                res = exc
            (dense if op.dense else loop).add(time.perf_counter() - t0, latencies)
            if op.dense:
                loop.restart()
            results[op.label] = res
        loop.flush()
        self._account(results)
        return latencies

    def _account(self, results) -> None:
        for op in self.ops:
            res = results[op.label]
            self.executions += 1
            if isinstance(res, Exception):
                bad = f"{type(res).__name__}: {res}"
            elif self.first is None:
                self.first_summary[op.label] = op.summary(res)
                continue
            elif op.summary(res) != self.first_summary.get(op.label):
                bad = "result differs from the first pass"
            else:
                continue
            self.failed_runs[op.label] = self.failed_runs.get(op.label, 0) + 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.label}: {bad}")
        if self.first is None:
            self.first = results

    def check(self, plant: bool) -> set:
        """Check the first pass's results; returns the labels that failed."""
        bad = set()
        planted = False
        for op in self.ops:
            res = self.first[op.label]
            if isinstance(res, Exception):
                continue
            if plant and not planted and op.kind == "bracket":
                # A certified bracket can never read lower > upper.
                res = types.SimpleNamespace(lower=0.3, upper=0.2, witness=res.witness, exact=False)
                planted = True
            try:
                errs = op.check(res, self.first)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            if errs:
                bad.add(op.label)
                self.errors.extend(f"{op.label}: {e}" for e in errs[:3])
        if plant and not planted:
            self.errors.append("--plant: this workload has no bracket to plant")
            bad.add("plant")
        return bad


def measure(args) -> None:
    import_package()
    import hostspeed  # after the package: setup times its imports from scratch

    wl, ops = make_workload(args)
    runner = Runner(ops)
    dense = any(op.dense for op in ops)
    scalers = (hostspeed.Scaler(),
               hostspeed.Scaler(hostspeed.timer(hostspeed.dense), hostspeed.DENSE_REFERENCE_S, every_s=0.0)
               if dense else None)
    passes_warm = []
    while True:
        passes_warm.append(sum(runner.run_pass(scalers)))
        if args.smoke or len(passes_warm) >= WARM_MAX_PASSES:
            break
        if len(passes_warm) >= 2 and abs(passes_warm[-1] - passes_warm[-2]) <= STEADY * passes_warm[-2]:
            break

    timed_seconds = args.seconds / 2.0 if args.trace else args.seconds
    min_samples = 1 if args.smoke else MIN_OP_SAMPLES
    min_passes = 1 if args.smoke else MIN_PASSES
    passes, lat = [], {op.label: [] for op in ops}
    primary_per_pass = sum(op.kind == wl.primary for op in ops)
    first = [len(s.yardsticks) if s else 0 for s in scalers]
    start = time.perf_counter()
    while True:
        latencies = runner.run_pass(scalers)
        passes.append(sum(latencies))
        for op, t in zip(ops, latencies):
            lat[op.label].append(t)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= min_passes and len(passes) * primary_per_pass >= min_samples
        if (elapsed >= timed_seconds and enough) or elapsed >= 4 * timed_seconds + 30:
            break

    out = {"primary": wl.primary, "warm_passes": passes_warm, "passes": passes,
           "latencies": lat, "kinds": {op.label: op.kind for op in ops},
           "yardstick_loop": scalers[0].yardsticks[first[0]:],
           "yardstick_dense": scalers[1].yardsticks[first[1]:] if dense else []}
    out["sweep_ratios"] = len(passes) * sum(op.ratios for op in ops)
    out["sweep_seconds"] = sum(sum(lat[op.label]) for op in ops if op.kind == "sweep")

    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer().install()
        traced = []
        try:
            for _ in range(max(1, min(len(passes), MAX_TRACED_PASSES))):
                traced.append(sum(runner.run_pass(scalers, tracer)))
        finally:
            tracer.restore()
        out["layers"] = layer_metrics(tracer, len(traced))
        out["layers"]["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(passes), "s")
        Path(args.out).mkdir(parents=True, exist_ok=True)
        tracer.write(Path(args.out) / f"spans-{args.workload}-seed{args.seed}.csv")

    bad = runner.check(args.plant)
    attempted = runner.executions
    failed = sum(n for label, n in runner.failed_runs.items() if label not in bad)
    failed += len(bad) * (runner.executions // len(ops))  # every pass ran every op
    try:
        run_errs = wl.run_checks()
    except Exception as exc:
        run_errs = [f"reference check raised {type(exc).__name__}: {exc}"]
    attempted += 1
    failed += bool(run_errs)
    runner.errors.extend(run_errs)

    from reports import report_files, strip_timestamp

    # What each CLI command printed and wrote in process; run.py expects the
    # same from fresh processes.
    out["cli"] = []
    for k, argv in enumerate(wl.cli_argvs()):
        res = runner.first[f"cli/{k}/{argv[0]}"]
        code, stdout = (None, "") if isinstance(res, Exception) else res
        files = {name: strip_timestamp(Path(name).read_text(encoding="utf-8"))
                 for name in report_files(argv) if Path(name).is_file()}
        out["cli"].append({"argv": argv, "code": code, "stdout": stdout, "files": files})

    out["bracket_rel_gaps"] = [
        (r.upper - r.lower) / r.upper
        for op in ops
        if op.kind == "bracket" and op.label.rsplit("p=", 1)[1] not in ("1", "2", "inf")
        for r in [runner.first[op.label]]
        if not isinstance(r, Exception) and r.upper > 0.0
    ]
    out.update(
        attempted=attempted,
        failed=failed,
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(out))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["prepare", "setup", "measure"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--plant", action="store_true")
    args = ap.parse_args()
    {"prepare": prepare, "setup": setup, "measure": measure}[args.mode](args)


if __name__ == "__main__":
    main()
