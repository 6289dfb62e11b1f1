"""Correctness checks for benchmark results, independent of the package.

Each check returns a list of failure messages; an empty list means the
result passed. Two kinds of check are used:

- where the v1 contract fixes a value (estimator maxima and their argmax
  provenance, exact-order norms, the example pair) the result is matched
  against a reference computed here, with the contract's own arithmetic,
  or against a value recorded in reference.json;
- everywhere else only the certified inequalities are checked, so that a
  tighter bracket or a less conservative `tau auto` never reads as a
  failure.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from reports import report_files

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

_TINY = float(np.finfo(np.float64).tiny)
_MASK64 = (1 << 64) - 1
EXACT_REL_TOL = 1e-12
# Absolute slack, at the scale lam of the Jacobian's entries. A nearly
# saturated softmax loses digits to cancellation in 1 - max(s): at
# 1 - max(s) = 6e-6 (seed 31 of jacobian-wide) the package's p=1 norm and
# the dense reference are 7e-11 and 3e-11 off the 60-digit value, relative,
# yet agree to 4e-16 absolute. A wrong formula is off by O(1) relative.
ROUNDOFF_ABS_TOL = 64 * float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# reference arithmetic (the v1 contract, written out independently)


def ref_pnorm(v, p: float) -> float:
    """The lp norm with the contract's arithmetic: max-scaled for general p."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    if math.isinf(p):
        return float(a.max())
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return float(np.sqrt(np.dot(a, a)))
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return m * float(((a / m) ** p).sum()) ** (1.0 / p)


def ref_softmax(x, lam: float) -> np.ndarray:
    z = lam * np.asarray(x, dtype=np.float64)
    e = np.exp(z - z.max())
    s = e / e.sum()
    zero = s == 0.0
    if zero.any():
        s[zero] = _TINY
        s = s / s.sum()
    return s


def ref_jacobian(x, lam: float) -> np.ndarray:
    s = ref_softmax(x, lam)
    return lam * (np.diag(s) - np.outer(s, s))


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def ref_subseed(seed: int, i: int, trial: int, j: int) -> int:
    h = seed & _MASK64
    for v in (i, trial, j):
        h = _mix64(h ^ _mix64(v & _MASK64))
    return h


def ref_sweep(rows: np.ndarray, lam: float, p: float, epsilons, trials: int, seed: int):
    """Max secant ratio of a random-mode epsilon sweep, with provenance.

    Ties break toward the lowest epsilon, then input, then trial index,
    as the contract prescribes. Returns (value, (i, trial, j), table).
    """
    best, best_at, table = -1.0, None, []
    for j, eps in enumerate(epsilons):
        row_best, row_at = -1.0, None
        for i, x in enumerate(rows):
            sx = ref_softmax(x, lam)
            for t in range(trials):
                rng = np.random.default_rng(ref_subseed(seed, i, t, j))
                g = rng.standard_normal(x.size)
                while not g.any():
                    g = rng.standard_normal(x.size)
                delta = g * (eps / ref_pnorm(g, p))
                sy = ref_softmax(x + delta, lam)
                ratio = ref_pnorm(sy - sx, p) / ref_pnorm(delta, p)
                if ratio > row_best:
                    row_best, row_at = ratio, (i, t, j)
        table.append((float(eps), row_best))
        if row_best > best:
            best, best_at = row_best, row_at
    return best, best_at, table


def _rel_close(a: float, b: float, tol: float = EXACT_REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(tol * max(abs(a), abs(b), _TINY), abs_tol)


# ---------------------------------------------------------------------------
# checks on library results


def check_sweep(report, rows, lam, p, epsilons, trials, seed) -> list[str]:
    """Random-mode sweep: maximum, provenance and table bit-identical."""
    value, at, table = ref_sweep(rows, lam, p, epsilons, trials, seed)
    got_at = (report.argmax_input_index, report.argmax_trial, report.argmax_epsilon_index)
    errs = []
    if report.empirical_lp != value:
        errs.append(f"sweep max {report.empirical_lp!r} != reference {value!r}")
    if got_at != at:
        errs.append(f"sweep argmax {got_at} != reference {at}")
    if [tuple(r) for r in report.per_epsilon_table] != table:
        errs.append("sweep per-epsilon table differs from reference")
    if value > lam / 2.0:
        errs.append(f"secant ratio {value!r} exceeds lam/2")
    return errs


def check_sweep_bound(report, lam) -> list[str]:
    """Sweeps without a fixed reference (top-eigenvector mode): the bound."""
    if not 0.0 < report.empirical_lp <= lam / 2.0:
        return [f"secant ratio {report.empirical_lp!r} outside (0, lam/2]"]
    return []


def check_bracket(est, x, lam: float, p: float, exact_dense_limit: int) -> list[str]:
    """A local Lipschitz bracket: certified, witnessed, exact where fixed."""
    errs = []
    lower, upper = est.lower, est.upper
    if not 0.0 <= lower <= upper <= lam / 2.0:
        errs.append(f"bracket [{lower!r}, {upper!r}] violates 0 <= lower <= upper <= lam/2")
    if est.witness is None:
        return errs + ["bracket has no witness"]
    J = ref_jacobian(x, lam)
    w = np.asarray(est.witness, dtype=np.float64)
    realized = ref_pnorm(J @ w, p) / ref_pnorm(w, p)
    slack = ROUNDOFF_ABS_TOL * lam
    if not _rel_close(realized, lower, abs_tol=slack):
        errs.append(f"lower {lower!r} not re-realized by its witness ({realized!r})")
    if p == 1.0 or math.isinf(p):
        exact = float(np.abs(J).sum(axis=0 if p == 1.0 else 1).max())
    elif p == 2.0 and x.size <= exact_dense_limit:
        exact = float(np.linalg.eigvalsh(J)[-1])
    else:
        exact = None
    if exact is not None and not (_rel_close(lower, exact, abs_tol=slack)
                                  and _rel_close(upper, exact, abs_tol=slack)):
        errs.append(f"exact p={p} norm [{lower!r}, {upper!r}] != reference {exact!r}")
    return errs


def check_example_pair(ratio: float) -> list[str]:
    ref = REFERENCE["example_pair_ratio"]
    if abs(ratio - ref) > REFERENCE["example_pair_tol"]:
        return [f"example pair ratio {ratio!r} differs from {ref!r}"]
    return []


def check_solve(res, a: np.ndarray, tau: float, p: float) -> list[str]:
    """A `tau auto` DSFP solve: converged to tolerance, on the simplex, tau as certified."""
    errs = []
    if not res.converged:
        errs.append(f"dsfp did not converge ({res.iterations} iterations)")
    if not res.residual <= res.config.tol:
        errs.append(f"dsfp residual {res.residual!r} above tol {res.config.tol!r}")
    for name, v in (("y_star", res.y_star), ("x_star", res.x_star)):
        if not (np.all(np.isfinite(v)) and v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12 * v.size):
            errs.append(f"dsfp {name} is not a probability vector")
    if p == 2.0:
        exact = float(np.linalg.norm(a, 2))
        if not _rel_close(tau / 1.01 * 2.0, exact):
            errs.append(f"tau auto {tau!r} not 1.01 * ||A||_2 / 2 = {1.01 * exact / 2.0!r}")
    if not res.contraction_nominal < 1.0:
        errs.append(f"tau auto gives nominal contraction {res.contraction_nominal!r} >= 1")
    return errs


# ---------------------------------------------------------------------------
# checks on CLI output


def load_reports(cwd: Path, argv: list[str]) -> tuple[dict, list[str]]:
    """Parse every report of one invocation; JSON must parse, CSV must be numeric."""
    docs, errs = {}, []
    for name in report_files(argv):
        path = cwd / name
        try:
            text = path.read_text(encoding="utf-8")
            if name.endswith(".json"):
                docs[name] = json.loads(text)
            else:
                lines = text.splitlines()
                for line in lines[1:]:
                    eps, _, val = line.split(",")
                    float(eps), float(val)
                docs[name] = lines
        except (OSError, ValueError) as exc:
            errs.append(f"report {name} does not parse: {exc}")
    return docs, errs


def stdout_floats(stdout: str, key: str) -> list[float]:
    return [float(m) for m in re.findall(rf"{re.escape(key)}=(\S+)", stdout)]
