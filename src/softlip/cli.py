"""Command-line front end.

Subcommands cover every analysis: `jacobian-norm` (local constants),
`witness` (sharpness constructions), `estimate` (empirical constants over
CSV score matrices), `dsfp` (regularized game solving), and `scsa` (the
refined attention bound). Input matrices are headerless CSV; reports are
JSON documents {"manifest": ..., "result": ...} whose numeric fields carry
17 significant digits, so re-running a manifest's command reproduces the
report byte-for-byte (the timestamp sits in its own field) on the same
numpy version and SIMD dispatch level: numpy's AVX-512 and AVX2 kernels
for `exp`, `log` and non-integer `**` differ in the last bit of some
results. The golden reports were recorded with numpy 2.4.6 under AVX-512.

`main` may be called any number of times in one process; every call
parses with the same parser, built by the first.

Exit codes: 0 success, 2 input error (including a `dsfp` tau so small for
its payoff that the contraction factor overflows, an input file that is
not UTF-8, and an output path or a stdout that cannot be written, such as
a closed stdout or a pipe whose reader has gone), 3 solver did not
converge, 4 numerical failure (a solver produced non-finite values, an
eigensolve failed, or float arithmetic raised, such as a division by a
product that underflowed to zero). Summary lines already printed and
report files already written stay when a later step fails.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import re
import sys
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import softlip
from softlip.core import Logits, softmax
from softlip.estimator import (
    MODE_RANDOM,
    MODE_TOP_EIGENVECTOR,
    PerturbationSpec,
    epsilon_sweep,  # not called here; perfbench/spans.py wraps this name
    order_sweep,
)
from softlip.fixtures import attaining_logits, example_logits
from softlip.games import (
    TAU_LIMIT,
    TAU_MIN,
    DsfpConfig,
    DsfpResult,
    MatrixGame,
    contraction_factor,
    dsfp_solve,
    tau_min,
)
from softlip.lipschitz import (
    ScsaParams,
    closed_form_linf,
    global_bound,
    local_lipschitz,
    scsa_bound,
    scsa_bound_unrefined,
    witness_attained,
    witness_example_pair,
    witness_limit_sequence,
)
from softlip.opnorm import _FLOAT_RE, NormOrder, opnorm_two

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4

_DEFAULT_SEED = 0
#: `str.translate` deletes these characters, the alphabet of a clean CSV
#: text. Over it, `float` accepts exactly `_FLOAT_RE` plus surrounding
#: spaces, tabs and CRs, as `_parse_float` after `strip` does.
_CSV_ALPHABET = dict.fromkeys(map(ord, "0123456789eE+-.,\t\r\n "))
_INT_RE = re.compile(r"[+-]?[0-9]+")
#: Most digits `_parse_int` reads: CPython's default limit for `int(str)`.
_MAX_INT_DIGITS = 4300


class InputError(ValueError, argparse.ArgumentTypeError):
    """User-input problem (exit code 2). A given `what`, the option, file or
    field concerned, prefixes the message: "--eps-list: empty list".

    As an `ArgumentTypeError`, it is what argparse reports for an option
    whose `type` raised it: "argument --trials: cannot parse ..."."""

    def __init__(self, message: str, what: str = ""):
        super().__init__(f"{what}: {message}" if what else message)


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_number(text: str, what: str = "") -> float:
    """The one number syntax: decimal or scientific notation, no
    nan/inf/underscores. A value beyond the float range reads as +-inf."""
    token = text.strip()
    if not _FLOAT_RE.fullmatch(token):
        raise InputError(f"cannot parse {text!r} as a number", what)
    return float(token)


def _parse_float(text: str, what: str = "") -> float:
    """A finite number in `_parse_number`'s syntax; one beyond the float
    range, such as 1e400, is an input error naming `what`."""
    value = _parse_number(text, what)
    if not math.isfinite(value):
        raise InputError(f"non-finite value {text.strip()!r}", what)
    return value


def _parse_int(text: str, what: str = "") -> int:
    """A whole number: ASCII `[+-]?[0-9]+` after `strip`, read exactly
    (never through a float); no underscores, no non-ASCII digits and at
    most `_MAX_INT_DIGITS` digits, or the interpreter's lower limit."""
    token = text.strip()
    if not _INT_RE.fullmatch(token):
        raise InputError(f"cannot parse {text!r} as an integer", what)
    digits = len(token.lstrip("+-"))
    # PYTHONINTMAXSTRDIGITS may set int's limit lower (0 is no limit; before
    # 3.10.7 Python has neither the limit nor the call)
    limit = min(_MAX_INT_DIGITS, getattr(sys, "get_int_max_str_digits", int)() or _MAX_INT_DIGITS)
    if digits > limit:
        raise InputError(f"{digits} digits exceed the limit of {limit}", what)
    return int(token)


def _parse_norm_order(text: str, what: str = "") -> NormOrder:
    """`NormOrder.of`, its ValueError an input error naming `what`."""
    try:
        return NormOrder.of(text)
    except ValueError as exc:
        raise InputError(str(exc), what) from None


def _parse_list(text: str, what: str, parse_item) -> list:
    """Split a comma list, skipping blank items, and parse each item."""
    items = [tok for tok in text.split(",") if tok.strip() != ""]
    if not items:
        raise InputError("empty list", what)
    return [parse_item(tok, what) for tok in items]


def read_matrix_csv(path: str) -> np.ndarray:
    """Parse a headerless CSV matrix, diagnosing problems by line and column.

    UTF-8, LF or CRLF line endings, comma-separated decimal floats
    (scientific notation allowed), rectangular, finite, no trailing commas.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return _parse_matrix(text, path)


def _parse_matrix(text: str, path: str) -> np.ndarray:
    """The matrix in a CSV text, read in one loop over its lines.

    One `str.translate` checks that the whole text uses only
    `_CSV_ALPHABET` (ASCII digits, `eE+-.`, comma, space, tab, CR and LF).
    Each non-blank line is split once; in a clean text it is one `float`
    map. A line of an unclean text, one `float` rejects, or one whose sum
    is not finite (1e400, or finite entries that overflow) is parsed cell
    by cell by `_parse_float`, which names the line and column of its
    first bad field. Then its width is checked against the first row's.
    """
    clean = not text.translate(_CSV_ALPHABET)
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line == "":
            continue  # blank lines (incl. the trailing newline) carry no row
        cells = line.split(",")
        try:
            row = list(map(float, cells)) if clean else None
        except ValueError:
            row = None
        if row is None or not math.isfinite(sum(row)):
            row = [
                _parse_float(tok.strip(), f"{path}: line {lineno}, column {col}")
                for col, tok in enumerate(cells, start=1)
            ]
        if rows and len(row) != len(rows[0]):
            raise InputError(
                f"expected {len(rows[0])} fields, found {len(row)}", f"{path}: line {lineno}"
            )
        rows.append(row)
    if not rows:
        raise InputError("empty input", path)
    return np.array(rows, dtype=np.float64)


def read_vector_csv(path: str) -> np.ndarray:
    mat = read_matrix_csv(path)
    if 1 in mat.shape:  # a single row or column
        return mat.ravel()
    raise InputError(f"expected a single row or column vector, got {mat.shape}", path)


_GEN_RE = re.compile(r"(?P<name>[a-z0-9-]+)\((?P<args>[^)]*)\)")

#: Longest vector an inline generator expands to (8 MB of float64).
MAX_INLINE_LENGTH = 1_000_000


def _length_arg(text: str, what: str = "", minimum: int = 0) -> int:
    """A whole number from minimum to MAX_INLINE_LENGTH: an inline
    generator's length or `witness --n`."""
    value = _parse_number(text, what)
    if not (math.isfinite(value) and value >= 0 and value == math.floor(value)):
        raise InputError(f"length must be a whole number, got {text.strip()!r}", what)
    if value > MAX_INLINE_LENGTH:
        raise InputError(f"length {int(value)} exceeds the limit {MAX_INLINE_LENGTH}", what)
    if value < minimum:
        raise InputError(f"needs length >= {minimum}", what)
    return int(value)


def parse_inline_vector(text: str) -> np.ndarray:
    """Parse an inline vector: comma-separated floats or a generator form.

    Generators: ln9-vector(N) -> (ln(N-1), 0, ..., 0); example-vector(N[,K])
    -> (0, 0, -K, ..., -K) with K defaulting to 20; zeros(N). The length N
    must be a whole number no larger than MAX_INLINE_LENGTH.
    """
    token = text.strip().lower()
    gen = _GEN_RE.fullmatch(token)
    if gen:
        name = gen.group("name")
        args = [a.strip() for a in gen.group("args").split(",") if a.strip() != ""]
        if name in ("ln9-vector", "zeros") and len(args) != 1:
            raise InputError(f"{name} takes one argument: the length")
        if name == "ln9-vector":
            return attaining_logits(_length_arg(args[0], "ln9-vector", minimum=2))
        if name == "example-vector":
            if len(args) not in (1, 2):
                raise InputError("example-vector takes (length[, K])")
            n = _length_arg(args[0], "example-vector", minimum=2)
            big_k = _parse_float(args[1], "example-vector") if len(args) == 2 else 20.0
            return example_logits(n, big_k)
        if name == "zeros":
            return np.zeros(_length_arg(args[0], "zeros"))
        raise InputError(f"unknown inline generator {name!r}")
    return np.array(_parse_list(text, "--inline", _parse_float), dtype=np.float64)


# ---------------------------------------------------------------------------
# deterministic report emission


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any finite float64."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


#: JSON string escapes: backslash, quote and newline by name, every other
#: control character (below U+0020) as \u00XX.
_STRING_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04x}" for c in range(0x20)} | {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
)


def _emit(obj, indent: int, out: list) -> None:
    """Append the report text of `obj` to `out`. numpy values become Python
    values first (`tolist`, so a 0-d array is its scalar); a dict, list or
    tuple puts each entry on its own line, an empty one stays on one."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    pad = "  " * indent
    if isinstance(obj, (dict, list, tuple)):
        if isinstance(obj, dict):
            items = list(obj.items())
            open_, close = "{", "}"
        else:
            items = [(None, v) for v in obj]
            open_, close = "[", "]"
        out.append(open_)
        for i, (key, value) in enumerate(items):
            out.append(",\n" if i else "\n")
            out.append(pad + "  " if key is None else f'{pad}  "{key}": ')
            _emit(value, indent + 1, out)
        if items:
            out.append("\n" + pad)
        out.append(close)
    elif isinstance(obj, str):
        text = obj.translate(_STRING_ESCAPES)
        if not text.isascii():
            # a lone surrogate, argv's form of a byte that is not UTF-8, which
            # UTF-8 cannot encode, as \uXXXX; other code points stay raw
            text = text.encode("utf-8", "backslashreplace").decode("utf-8")
        out.append(f'"{text}"')
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, NormOrder):
        _emit(obj.label, indent, out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_report(doc: dict) -> str:
    out: list = []
    _emit(doc, 0, out)
    out.append("\n")
    return "".join(out)


def _report_text(argv: list[str], seed, resolved: dict, result: dict) -> str:
    """The JSON report of a command run: its manifest, then its result."""
    manifest = {
        "schema_version": "1",
        "tool": "softlip",
        "version": softlip.__version__,
        "command": list(argv),
        "seed": seed,
        "resolved": resolved,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return dumps_report({"manifest": manifest, "result": result})


def _fields_dict(obj, **keys) -> dict:
    """A report section that mirrors a result dataclass: its fields in
    declaration order, each under its own name or the key `keys` maps it to."""
    return {keys.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8; a failed write is an input error.
    The text is encoded before the file is opened, so a text that cannot be
    encoded leaves no file behind."""
    data = text.encode("utf-8")
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SOFTLIP_SEED")
    if env is not None:
        try:
            return _parse_int(env)
        except InputError:
            raise InputError(f"SOFTLIP_SEED must be an integer, got {env!r}") from None
    return _DEFAULT_SEED


# ---------------------------------------------------------------------------
# subcommands


def cmd_jacobian_norm(args, argv: list[str]) -> int:
    path = args.logits_file
    vec = read_vector_csv(path) if path is not None else parse_inline_vector(args.inline)
    x = Logits(vec)
    s = softmax(x, args.lam)
    est = local_lipschitz(s, args.lam, args.p)
    closed = args.lam * closed_form_linf(s)
    bound = global_bound(args.lam)
    print(
        f"local Lipschitz (p={args.p.label}, lambda={format_float(args.lam)}): "
        f"lower={format_float(est.lower)} upper={format_float(est.upper)} "
        f"exact={'true' if est.exact else 'false'}"
    )
    print(f"closed form for p in {{1, inf}}: {format_float(closed)}")
    print(f"global bound lambda/2: {format_float(bound)}")
    result = {
        "n": x.n,
        "p": args.p,
        "lambda": args.lam,
        "lower": est.lower,
        "upper": est.upper,
        "exact": est.exact,
        "method": est.method,
        "closed_form_one_inf": closed,
        "global_bound": bound,
        "clamped": s.clamped,
    }
    if args.json_out:
        resolved = {"lambda": args.lam, "p": args.p}
        _write_text(args.json_out, _report_text(argv, None, resolved, result))
    return EXIT_OK


def cmd_witness(args, argv: list[str]) -> int:
    if args.mode == "attained":
        x, constant = witness_attained(args.n, args.p)
        result = {
            "mode": "attained",
            "n": args.n,
            "p": args.p,
            "x": x.values,
            "constant": constant,
        }
        print(f"attained witness (n={args.n}, p={args.p.label}): constant={format_float(constant)}")
    elif args.mode == "limit-sequence":
        if args.epsilons is None:
            raise InputError("--epsilons is required for limit-sequence mode")
        epsilons = _parse_list(args.epsilons, "--epsilons", _parse_float)
        steps = witness_limit_sequence(args.n, args.p, epsilons)
        result = {
            "mode": "limit-sequence",
            "n": args.n,
            "p": args.p,
            "steps": [_fields_dict(st) for st in steps],
        }
        for st in steps:
            print(
                f"step {st.k}: epsilon={format_float(st.epsilon)} "
                f"certified_ratio={format_float(st.certified_ratio)}"
            )
    else:  # example
        pair = witness_example_pair(args.n, args.K, args.eps, args.p)
        result = {
            "mode": "example",
            "n": args.n,
            "K": args.K,
            "eps_pert": args.eps,
            "p": args.p,
            "lambda": pair.lam,
            "ratio": pair.ratio,
            "x": pair.x.values,
            "y": pair.y.values,
        }
        print(
            f"example pair (n={args.n}, K={format_float(args.K)}, "
            f"eps={format_float(args.eps)}, p={args.p.label}): "
            f"ratio={format_float(pair.ratio)}"
        )
    if args.json_out:
        _write_text(args.json_out, _report_text(argv, None, {"mode": args.mode}, result))
    return EXIT_OK


def cmd_estimate(args, argv: list[str]) -> int:
    matrix = read_matrix_csv(args.matrix)
    if matrix.shape[1] < 2:
        raise InputError(f"rows have {matrix.shape[1]} column(s); need at least 2", args.matrix)
    seed = _resolve_seed(args)
    epsilons = _parse_list(args.eps_list, "--eps-list", _parse_float)
    if any(e <= 0.0 for e in epsilons):
        raise InputError("magnitudes must be positive", "--eps-list")
    orders = _parse_list(args.p_list, "--p-list", _parse_norm_order)
    spec = PerturbationSpec(
        p=orders[0],
        epsilon=epsilons[0],
        trials_per_input=args.trials,
        mode=args.mode,
        seed=seed,
        aggregate=args.aggregate,
    )
    reports = order_sweep(matrix, args.lam, spec, epsilons, orders)
    csv_lines = ["epsilon,p,empirical_lp"]
    for report in reports:
        for eps, value in report.per_epsilon_table:
            csv_lines.append(f"{format_float(eps)},{report.p.label},{format_float(value)}")
    overall = max(r.empirical_lp for r in reports)
    result = {
        "matrix": args.matrix,
        "rowwise": bool(args.rowwise),
        "lambda": args.lam,
        "mode": args.mode,
        "trials_per_input": args.trials,
        "aggregate": args.aggregate,
        "global_bound": global_bound(args.lam),
        "max_empirical_lp": overall,
        "reports": [_fields_dict(r, lam="lambda") for r in reports],
    }
    resolved = {
        "seed": seed,
        "perturbation_law": args.mode,
        "aggregate": args.aggregate,
        "clamp_events": sum(r.clamp_events for r in reports),
    }
    report = _report_text(argv, seed, resolved, result)
    print(
        f"max empirical L_p = {format_float(overall)} "
        f"(global bound {format_float(global_bound(args.lam))})"
    )
    if args.out:
        _write_text(args.out + ".json", report)
        _write_text(args.out + ".csv", "\n".join(csv_lines) + "\n")
        print(f"wrote {args.out}.json and {args.out}.csv")
    else:
        print(report, end="")
    return EXIT_OK


def _dsfp_result_dict(res: DsfpResult) -> dict:
    return {
        "tau": res.config.tau,
        "alpha": res.config.alpha,
        "p": res.config.p,
        "tol": res.config.tol,
        "max_iter": res.config.max_iter,
        "y0": "uniform" if isinstance(res.config.y0, str) else res.config.y0,
        "y_star": res.y_star,
        "x_star": res.x_star,
        "iterations": res.iterations,
        "residual": res.residual,
        "contraction_nominal": res.contraction_nominal,
        "contraction_safe": res.contraction_safe,
        "certified": res.certified,
        "no_certificate": not res.certified,
        "regularized_value": res.regularized_value,
        "converged": res.converged,
        "clamp_events": res.clamp_events,
        "trace": [[k, d] for k, d in res.trace],
    }


def cmd_dsfp(args, argv: list[str]) -> int:
    payoff = read_matrix_csv(args.payoff)
    game = MatrixGame(payoff)
    order = args.p
    if args.tau.strip().lower() == "auto":
        # at least TAU_MIN, so a zero or tiny payoff gets a tau in range;
        # the factor stays below 1 / 1.01^2 either way
        threshold = tau_min(game, order)
        resolved_tau = max(1.01 * threshold, TAU_MIN)
        if not resolved_tau < TAU_LIMIT:
            raise InputError(
                f"the payoff's ||A||_{order.label} upper end {2.0 * threshold:.17g} puts "
                f"tau at {resolved_tau:.17g}, not below 2^511; scale the payoff down",
                "--tau auto",
            )
    else:
        resolved_tau = _parse_float(args.tau, "--tau")
    config = DsfpConfig(
        tau=resolved_tau,
        alpha=args.alpha,
        p=order,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    if not all(map(math.isfinite, contraction_factor(game, resolved_tau, order))):
        # ||A||_p^2 / (4 tau^2) overflows: a true "not certified" that no
        # report can carry, so it is an input error before any step
        raise InputError(
            f"--tau {format_float(resolved_tau)} is too small for this payoff: the contraction "
            "factor ||A||_p^2 / (4 tau^2) overflows float64; use a larger tau"
        )
    res = dsfp_solve(game, config)
    print(
        f"dsfp: converged={'true' if res.converged else 'false'} "
        f"iterations={res.iterations} residual={format_float(res.residual)}"
    )
    print(
        f"contraction: nominal={format_float(res.contraction_nominal)} "
        f"safe={format_float(res.contraction_safe)} "
        f"certified={'true' if res.certified else 'false'}"
    )
    print(f"value: {format_float(res.regularized_value)}")
    if args.out:
        resolved = {
            "tau": resolved_tau,
            "alpha": args.alpha,
            "p": order,
            "tol": args.tol,
            "clamp_events": res.clamp_events,
        }
        _write_text(args.out, _report_text(argv, None, resolved, _dsfp_result_dict(res)))
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _weight_norm(args, name: str) -> float:
    """--name, or the spectral norm of the --name-file matrix."""
    scalar = getattr(args, name)
    if scalar is None:
        return opnorm_two(read_matrix_csv(getattr(args, f"{name}_file")))
    if scalar < 0.0:
        raise InputError(f"--{name} must be nonnegative")
    return scalar


def cmd_scsa(args, argv: list[str]) -> int:
    params = ScsaParams(
        n=args.n, nu=args.nu, tau=args.tau, eps=args.eps,
        wq_norm=_weight_norm(args, "wq"),
        wk_norm=_weight_norm(args, "wk"),
        wv_norm=_weight_norm(args, "wv"),
    )
    bound = scsa_bound(params)
    before = scsa_bound_unrefined(params)
    if not (math.isfinite(bound) and math.isfinite(before)):
        # no report can carry it, so it is an input error before any output
        raise InputError(
            "the SCSA Lipschitz bound overflows float64; use smaller parameters or weight norms"
        )
    print(f"refined SCSA Lipschitz bound:      {format_float(bound)}")
    print(f"pre-refinement bound (2x QK terms): {format_float(before)}")
    result = {**_fields_dict(params), "bound": bound, "pre_refinement_bound": before}
    if args.json_out:
        _write_text(args.json_out, _report_text(argv, None, {}, result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _RaisingParser(argparse.ArgumentParser):
    """An `ArgumentParser` whose write to stdout raises its `OSError`, as a
    `print` does, where argparse drops it: so `main` reports `--help` and
    `--version` into a stdout that cannot take them, buffered or not. Writes
    to stderr, and to stderr in place of a closed stdout, stay argparse's.
    Subparsers are built with the same class."""

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _RaisingParser(
        prog="softlip",
        description="Softmax Lipschitz analysis: constants, witnesses, estimation, games.",
    )
    parser.add_argument("--version", action="version", version=f"softlip {softlip.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    jac = sub.add_parser("jacobian-norm", help="local Lipschitz constant at a logit vector")
    source = jac.add_mutually_exclusive_group(required=True)
    source.add_argument("--logits-file", help="CSV file holding a single row or column vector")
    source.add_argument("--inline", help="inline vector, e.g. '0,0,0' or 'ln9-vector(10)'")
    jac.add_argument("--lambda", dest="lam", type=_parse_float, default=1.0)
    jac.add_argument("--p", type=_parse_norm_order, default=NormOrder.two())
    jac.add_argument("--json-out", help="write the JSON report here")
    jac.set_defaults(func=cmd_jacobian_norm)

    wit = sub.add_parser("witness", help="sharpness witnesses for the lambda/2 bound")
    wit.add_argument("--mode", required=True, choices=["attained", "limit-sequence", "example"])
    wit.add_argument("--n", type=_length_arg, default=10)
    wit.add_argument("--p", type=_parse_norm_order, default=NormOrder.two())
    wit.add_argument("--K", type=_parse_float, default=20.0)
    wit.add_argument("--eps", type=_parse_float, default=1e-4,
                     help="perturbation size (example mode)")
    wit.add_argument("--epsilons", help="comma list of gaps (limit-sequence mode)")
    wit.add_argument("--json-out", help="write the JSON report here")
    wit.set_defaults(func=cmd_witness)

    est = sub.add_parser("estimate", help="empirical Lipschitz constants over a CSV matrix")
    est.add_argument("--matrix", required=True, help="CSV matrix; rows are input vectors")
    est.add_argument("--rowwise", action="store_true",
                     help="no-op kept for compatibility: rows are always the softmax "
                          "inputs; the report records the flag")
    est.add_argument("--lambda", dest="lam", type=_parse_float, default=1.0)
    est.add_argument("--p-list", default="2", help="comma list of norm orders")
    est.add_argument("--eps-list", default="1e-4", help="comma list of perturbation sizes")
    est.add_argument("--trials", type=_parse_int, default=100)
    est.add_argument("--mode", choices=[MODE_RANDOM, MODE_TOP_EIGENVECTOR], default=MODE_RANDOM)
    est.add_argument("--aggregate", choices=["max", "mean"], default="max")
    est.add_argument("--seed", type=_parse_int, default=None,
                     help="RNG seed; falls back to SOFTLIP_SEED, then 0")
    est.add_argument("--out", help="prefix for the .json and .csv reports")
    est.set_defaults(func=cmd_estimate)

    dsf = sub.add_parser("dsfp", help="solve an entropy-regularized zero-sum matrix game")
    dsf.add_argument("--payoff", required=True, help="CSV payoff matrix")
    dsf.add_argument(
        "--tau", default="auto", help="regularization, or 'auto' (=max(1.01 * tau_min, 2^-512))"
    )
    dsf.add_argument("--alpha", type=_parse_float, default=1.0)
    dsf.add_argument("--p", type=_parse_norm_order, default=NormOrder.two())
    dsf.add_argument("--tol", type=_parse_float, default=1e-10)
    dsf.add_argument("--max-iter", type=_parse_int, default=10_000)
    dsf.add_argument("--out", help="write the JSON report here")
    dsf.set_defaults(func=cmd_dsfp)

    scs = sub.add_parser("scsa", help="refined Lipschitz bound for scaled cosine attention")
    scs.add_argument("--n", type=_parse_int, required=True, help="token count")
    scs.add_argument("--nu", type=_parse_float, required=True)
    scs.add_argument("--tau", type=_parse_float, required=True)
    scs.add_argument("--eps", type=_parse_float, required=True)
    for name in ("wq", "wk", "wv"):
        weight = scs.add_mutually_exclusive_group(required=True)
        weight.add_argument(f"--{name}", type=_parse_float,
                            help=f"spectral norm of W_{name[1].upper()}")
        weight.add_argument(f"--{name}-file", help="CSV matrix; reduced via its spectral norm")
    scs.add_argument("--json-out", help="write the JSON report here")
    scs.set_defaults(func=cmd_scsa)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call in this process parses with, built once.

    Sharing it is safe: `parse_args` leaves a parser as it found it, each
    call gets a new `Namespace`, every default is immutable and `prog` is
    fixed. The option types (`_parse_float`, `_parse_norm_order`,
    `_length_arg`, `_parse_int`) and the `cmd_*` functions are bound when
    the parser is built, so replacing one of those names in this module
    changes what `main` does only after `_parser.cache_clear()`; a test of
    one calls it directly instead.
    """
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings():
        # each warning the caller's filters let through is one "warning:" line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            try:
                args = _parser().parse_args(argv)
            except SystemExit as exc:
                # argparse exits 2 on bad usage and 0 for --help/--version, whose
                # text still needs the checks below (into a closed stdout,
                # argparse writes it to stderr)
                if exc.code not in (0, None):
                    return EXIT_INPUT
                code = EXIT_OK
            else:
                code = args.func(args, argv)
            if sys.stdout is None:  # started with stdout closed: `print` dropped every line
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.flush()  # so a stdout that cannot take them fails here, not at exit
            return code
        except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
            # LinAlgError subclasses ValueError, so it is caught first
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except OSError as exc:
            # reads and report files raise InputError, so a stdout write failed
            print(f"error: cannot write <stdout>: {exc.strerror or exc}", file=sys.stderr)
            # Python's flush at exit then puts what stayed buffered in the null
            # device instead of failing again (None or an in-memory stream: no-op)
            with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
