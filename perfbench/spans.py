"""Spans around the package's public functions, wrapped by name from outside.

The traced run replaces each function in the module namespace where it is
called (`softlip.estimator.softmax`, `softlip.games.dsfp_map`, ...) with a
wrapper that records a span (id, name, start, end, parent). Spans stay in
memory and are written out when the run ends. Self time is a span's
duration minus the part of it its child spans cover. Nothing inside the
package is instrumented, so work it does without calling a wrapped name
(power iterations inside opnorm, for instance) shows only as self time.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import softlip.cli as sl_cli
import softlip.estimator as sl_est
import softlip.games as sl_games
import softlip.lipschitz as sl_lip
import softlip.opnorm as sl_op

LAPACK = "numpy.linalg.lapack"


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _local_lipschitz_name(args, kwargs):
    kind = sl_op.NormOrder.of(_arg(args, kwargs, 2, "p", 2.0)).kind
    return "lipschitz.local_lipschitz." + ("closed" if kind in ("one", "infinity") else kind)


def _p_estimate_name(args, kwargs):
    return "opnorm.p_estimate." + sl_op.NormOrder.of(_arg(args, kwargs, 1, "p", None)).kind


def _count_clamp(counts, point):
    counts["core.clamp_events"] += int(point.clamped)


def _count_bytes(counts, jac):
    counts["core.jacobian.bytes_computed"] += jac.matrix.nbytes


def _count_ratios(counts, report):
    counts["estimator.ratios"] += report.inputs_count * report.trials_per_input


def _count_iterations(counts, result):
    counts["games.iterations"] += result.iterations


# (module, attribute, span name or namer, result hook)
WRAPPED = [
    (sl_est, "softmax", "core.softmax", _count_clamp),
    (sl_lip, "softmax", "core.softmax", _count_clamp),
    (sl_cli, "softmax", "core.softmax", _count_clamp),
    (sl_est, "jacobian", "core.jacobian", _count_bytes),
    (sl_lip, "jacobian", "core.jacobian", _count_bytes),
    (sl_est, "vector_norm", "opnorm.vector_norm", None),
    (sl_lip, "vector_norm", "opnorm.vector_norm", None),
    (sl_op, "vector_norm", "opnorm.vector_norm", None),
    (sl_est, "subseed", "estimator.subseed", None),
    (sl_est, "sample_perturbation", "estimator.sample_perturbation", None),
    (sl_est, "empirical_lp", "estimator.empirical_lp", _count_ratios),
    (sl_est, "epsilon_sweep", "estimator.epsilon_sweep", None),
    (sl_cli, "epsilon_sweep", "estimator.epsilon_sweep", None),
    (np.random, "default_rng", "numpy.random.default_rng", None),
    (np.linalg, "eigh", LAPACK, None),
    (np.linalg, "eigvalsh", LAPACK, None),
    (sl_lip, "opnorm_p_estimate", _p_estimate_name, None),
    (sl_games, "opnorm_p_estimate", _p_estimate_name, None),
    (sl_op, "interpolation_bound", "opnorm.interpolation_bound", None),
    (sl_lip, "local_lipschitz", _local_lipschitz_name, None),
    (sl_cli, "local_lipschitz", _local_lipschitz_name, None),
    (sl_lip, "witness_example_pair", "lipschitz.witness_example_pair", None),
    (sl_cli, "witness_example_pair", "lipschitz.witness_example_pair", None),
    (sl_games, "dsfp_map", "games.dsfp_map", _count_clamp),
    (sl_games, "tau_min", "games.tau_min", None),
    (sl_cli, "tau_min", "games.tau_min", None),
    (sl_games, "contraction_factor", "games.contraction_factor", None),
    (sl_games, "dsfp_solve", "games.dsfp_solve", _count_iterations),
    (sl_cli, "dsfp_solve", "games.dsfp_solve", _count_iterations),
    (sl_cli, "read_matrix_csv", "cli.read_matrix_csv", None),
    (sl_cli, "dumps_report", "cli.dumps_report", None),
    (sl_cli, "main", "cli.main", None),
]


class Tracer:
    """Records nested spans of wrapped calls; one thread, one stack."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple] = []

    def _enter(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, name, start, parent) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(sid, name, start, parent)

    def wrap(self, module, attr: str, name, hook=None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid, parent = tracer._enter()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(sid, label, start, parent)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self, only=None) -> "Tracer":
        """Wrap every name in WRAPPED, or only those whose span name is in `only`."""
        for module, attr, name, hook in WRAPPED:
            if only is None or name in only:
                self.wrap(module, attr, name, hook)
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            f.write("id,name,start,end,parent\n")
            for sid, name, start, end, parent in sorted(self.spans):
                f.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics from the spans and counts of `passes` passes."""
    names = [""] * tracer._next
    parents = [-1] * tracer._next
    child_time = defaultdict(float)
    for sid, name, start, end, parent in tracer.spans:
        names[sid], parents[sid] = name, parent
        if parent >= 0:
            child_time[parent] += end - start
    # Ids grow in call order, so a parent's flag is set before its children's.
    under_estimator = [False] * tracer._next
    for sid in range(tracer._next):
        p = parents[sid]
        under_estimator[sid] = p >= 0 and (under_estimator[p] or names[p].startswith("estimator."))

    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    est = defaultdict(float)
    for sid, name, start, end, parent in tracer.spans:
        d = end - start
        calls[name] += 1
        incl[name] += d
        self_s[name] += d - child_time[sid]
        if under_estimator[sid]:
            if name in ("numpy.random.default_rng", "estimator.subseed"):
                est["rng_setup_s"] += d
            est["generators"] += name == "numpy.random.default_rng"
            est["jacobian_calls"] += name == "core.jacobian"
        elif name.startswith("estimator."):
            est["top_s"] += d
        if name.startswith("estimator."):
            est["self_s"] += d - child_time[sid]

    per = 1.0 / passes
    counts = tracer.counts
    ratios = counts["estimator.ratios"] * per
    solve_s = incl["games.dsfp_solve"] + incl["games.tau_min"]

    def count(v):
        return (v * per, "count")

    def secs(v):
        return (v * per, "s")

    def micros(total, n):
        return (1e6 * total / n if n else 0.0, "us")

    m = {
        "core.softmax.calls": count(calls["core.softmax"]),
        "core.softmax.self_s": secs(self_s["core.softmax"]),
        "core.softmax.us_per_call": micros(incl["core.softmax"], calls["core.softmax"]),
        "core.jacobian.calls": count(calls["core.jacobian"]),
        "core.jacobian.self_s": secs(self_s["core.jacobian"]),
        "core.jacobian.bytes_computed": (counts["core.jacobian.bytes_computed"] * per, "B"),
        "core.clamp_events": count(counts["core.clamp_events"]),
        "estimator.ratios": (ratios, "count"),
        "estimator.generators": count(est["generators"]),
        "estimator.generators_per_ratio": (est["generators"] * per / ratios if ratios else 0.0, "ratio"),
        "estimator.rng_setup_s": secs(est["rng_setup_s"]),
        "estimator.jacobian_calls": count(est["jacobian_calls"]),
        "estimator.self_s": secs(est["self_s"]),
        "estimator.us_per_ratio": (1e6 * est["top_s"] * per / ratios if ratios else 0.0, "us"),
        "opnorm.vector_norm.calls": count(calls["opnorm.vector_norm"]),
        "opnorm.vector_norm.self_s": secs(self_s["opnorm.vector_norm"]),
        "opnorm.interpolation_bound.self_s": secs(self_s["opnorm.interpolation_bound"]),
        "lipschitz.witness_example_pair_s": secs(incl["lipschitz.witness_example_pair"]),
        "games.dsfp_map.calls": count(calls["games.dsfp_map"]),
        "games.dsfp_map.us_per_call": micros(incl["games.dsfp_map"], calls["games.dsfp_map"]),
        "games.iterations": count(counts["games.iterations"]),
        "games.tau_min.self_s": secs(self_s["games.tau_min"]),
        "games.contraction_factor.self_s": secs(self_s["games.contraction_factor"]),
        "games.diag_share": (
            (incl["games.tau_min"] + incl["games.contraction_factor"]) / solve_s if solve_s else 0.0,
            "ratio",
        ),
        "games.solve.self_s": secs(self_s["games.dsfp_solve"]),
        "cli.read_matrix_csv_s": secs(incl["cli.read_matrix_csv"]),
        "cli.dumps_report_s": secs(incl["cli.dumps_report"]),
        "cli.main.self_s": secs(self_s["cli.main"]),
    }
    for kind in ("two", "general"):
        m[f"opnorm.p_estimate.calls.{kind}"] = count(calls[f"opnorm.p_estimate.{kind}"])
        m[f"opnorm.p_estimate.self_s.{kind}"] = secs(self_s[f"opnorm.p_estimate.{kind}"])
    for kind in ("closed", "two", "general"):
        m[f"lipschitz.local_lipschitz.calls.{kind}"] = count(calls[f"lipschitz.local_lipschitz.{kind}"])
        m[f"lipschitz.local_lipschitz.self_s.{kind}"] = secs(self_s[f"lipschitz.local_lipschitz.{kind}"])
    return m
