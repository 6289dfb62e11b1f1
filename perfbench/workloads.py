"""The benchmark's workloads: seeded inputs, the calls of one pass, checks.

A pass is a fixed list of calls into the package's public functions (the
"ops"), ending with the workload's CLI commands run in process through
`softlip.cli.main`. The same CLI argv also runs as fresh processes from
run.py. Every input comes from the workload seed; the package sees only
the generated arrays or the CSV files written from them.

Functions are looked up on their module at call time (`sl_est.epsilon_sweep`,
not an imported name), so the traced run can wrap them in place.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import softlip.cli as sl_cli
import softlip.estimator as sl_est
import softlip.games as sl_games
import softlip.lipschitz as sl_lip

import checks

INF = math.inf


@dataclass
class Op:
    kind: str  # sweep | bracket | witness | solve | cli
    label: str
    fn: Callable[[], object]
    check: Callable[[object, dict], list]
    summary: Callable[[object], object]
    ratios: int = 0  # secant ratios one call computes
    dense: bool = False  # dominated by a dense eigensolve beyond L2 (hostspeed.dense)


def write_csv(path: Path, arr) -> None:
    """17 significant digits, so the CLI parses exactly the benchmark's floats."""
    rows = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    path.write_text("".join(",".join(format(v, ".17g") for v in r) + "\n" for r in rows))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sl_cli.main(list(argv))
    return code, out.getvalue()


def p_label(p: float) -> str:
    return "inf" if math.isinf(p) else format(p, "g")


def _sweep_summary(r):
    return (r.empirical_lp, r.argmax_input_index, r.argmax_trial, r.argmax_epsilon_index)


def _bracket_summary(e):
    return (e.lower, e.upper)


def _solve_summary(r):
    tau, res = r
    return (tau, res.iterations, res.residual, res.y_star.tobytes())


class Workload:
    name = ""
    primary = ""  # the op kind whose per-call latency is op_p90_s (op_p50_s in the details)
    needs_fixtures = False

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.rng = np.random.default_rng(seed)

    # inputs and calls -------------------------------------------------------

    def write_inputs(self, indir: Path) -> None:
        """CSV inputs of the CLI commands, written from the seeded arrays."""

    def library_ops(self) -> list[Op]:
        raise NotImplementedError

    def cli_argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def check_cli(self, argv, stdout: str, docs: dict, results: dict) -> list:
        return []

    def run_checks(self) -> list:
        """Once-per-run checks against recorded references, outside timing."""
        return []

    def ops(self) -> list[Op]:
        ops = self.library_ops()
        for k, argv in enumerate(self.cli_argvs()):
            ops.append(
                Op(
                    "cli",
                    f"cli/{k}/{argv[0]}",
                    lambda argv=argv: run_cli(argv),
                    lambda res, results, argv=argv: self._check_cli_op(argv, res, results),
                    lambda res: res,
                )
            )
        return ops

    def _check_cli_op(self, argv, res, results) -> list:
        code, stdout = res
        if code != 0:
            return [f"{' '.join(argv)} exited {code}"]
        docs, errs = checks.load_reports(Path.cwd(), argv)
        return errs or self.check_cli(argv, stdout, docs, results)

    def prepare_dirs(self, workdir: Path) -> None:
        indir = workdir / "in"
        for d in (indir, workdir / "warm", workdir / "cold"):
            d.mkdir(parents=True, exist_ok=True)
        self.write_inputs(indir)
        if self.needs_fixtures:
            for d in ("warm", "cold"):
                shutil.copytree(self.root / "fixtures", workdir / d / "fixtures", dirs_exist_ok=True)


# ---------------------------------------------------------------------------
# estimate-attn


class EstimateAttn(Workload):
    """Many narrow score rows in random mode, swept like `cmd_estimate`.

    Chosen because per-ratio overhead (validated softmax, subseed plus a
    fresh Generator, Python vector_norm) dominates at n=16, not arithmetic,
    and no LAPACK runs: this is where batching and shared draws act.
    """

    name = "estimate-attn"
    primary = "sweep"
    ORDERS = (1.0, 2.0, 3.0, INF)
    EPSILONS = (1e-1, 1e-2, 1e-3)

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        heads, rows, n = (2, 4, 8) if smoke else (8, 8, 16)
        self.trials = 2 if smoke else 10
        # Score scales 0.5..4 per head, flat to peaked attention rows, and one
        # saturated head whose softmax underflows, so the clamp path runs.
        scales = [*np.geomspace(0.5, 4.0, heads - 1), 400.0]
        self.heads = [s * self.rng.standard_normal((rows, n)) for s in scales]

    def write_inputs(self, indir):
        write_csv(indir / "head0.csv", self.heads[0])

    def _spec(self, p):
        return sl_est.PerturbationSpec(
            p=p, epsilon=self.EPSILONS[0], trials_per_input=self.trials, seed=self.seed
        )

    def library_ops(self):
        ops = []
        for p in self.ORDERS:
            for h, rows in enumerate(self.heads):
                ops.append(
                    Op(
                        "sweep",
                        f"sweep/p={p_label(p)}/head={h}",
                        lambda rows=rows, p=p: sl_est.epsilon_sweep(
                            list(rows), 1.0, self._spec(p), self.EPSILONS
                        ),
                        lambda r, _, rows=rows, p=p: checks.check_sweep(
                            r, rows, 1.0, p, self.EPSILONS, self.trials, self.seed
                        ),
                        _sweep_summary,
                        ratios=rows.shape[0] * self.trials * len(self.EPSILONS),
                    )
                )
        return ops

    def cli_argvs(self):
        return [[
            "estimate", "--matrix", "../in/head0.csv", "--rowwise", "--lambda", "1",
            "--p-list", "1,2,3,inf", "--eps-list", "1e-1,1e-2,1e-3",
            "--trials", str(self.trials), "--seed", str(self.seed), "--out", "est",
        ]]

    def check_cli(self, argv, stdout, docs, results):
        errs = []
        for p, rep in zip(self.ORDERS, docs["est.json"]["result"]["reports"]):
            lib = results[f"sweep/p={p_label(p)}/head=0"]
            if rep["empirical_lp"] != lib.empirical_lp:
                errs.append(f"CLI estimate p={p_label(p)} differs from the library sweep")
        return errs


# ---------------------------------------------------------------------------
# jacobian-wide


class JacobianWide(Workload):
    """Local Lipschitz brackets on wide logit vectors, plus wide-row estimates.

    Chosen because the dense n x n Jacobian and LAPACK dominate here (n=2048
    at p=2 is seconds and hundreds of MB), while the p in {1, inf} closed
    form and the wide-row estimator use the same layers with no dense
    matrix: matrix-free work shows here, and so does a change that helps
    narrow rows but costs wide ones.
    """

    name = "jacobian-wide"
    primary = "bracket"
    # p=2 first, so the pass's first call is also its first LAPACK call.
    ORDERS = (2.0, 1.0, 1.5, 3.0, INF)
    DENSE_EXACT_LIMIT = 512  # eigvalsh reference for p=2 up to this n
    DENSE_FROM = 512  # the n x n Jacobian outgrows L2 from here

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        # Mostly narrow vectors, so the median and p90 bracket latencies fall
        # inside the n=64 classes rather than on a boundary between sizes.
        sizes = [16, 16, 32, 64] if smoke else [64] * 120 + [512] * 4 + [2048]
        self.general_p_limit = 32 if smoke else 512
        # Logit scales 1, 2, 4 in turn: from flat to peaked softmax outputs.
        self.vectors = [
            (1 << (k % 3)) * self.rng.standard_normal(n) for k, n in enumerate(sizes)
        ]
        # CLI inputs: the widest vector for the closed forms, a 512 one for p=2.
        self.cli_inputs = {"1": len(sizes) - 1, "inf": len(sizes) - 1, "2": len(sizes) - 2}
        self.wide_n, self.eig_n = (64, 16) if smoke else (4096, 256)
        self.wide_rows = 2.0 * self.rng.standard_normal((2, self.wide_n))
        self.eig_rows = 2.0 * self.rng.standard_normal((2, self.eig_n))
        self.wide_trials = 2 if smoke else 5
        self.wide_eps = (1e-2, 1e-3)

    def write_inputs(self, indir):
        for k in set(self.cli_inputs.values()):
            write_csv(indir / f"v{k}.csv", self.vectors[k])

    def library_ops(self):
        ops = []
        for k, x in enumerate(self.vectors):
            for p in self.ORDERS:
                if x.size > self.general_p_limit and p in (1.5, 3.0):
                    # Power iteration at n=2048 took from 0.2 s to 20 s with
                    # the seed's vector: no bound survives that.
                    continue
                ops.append(
                    Op(
                        "bracket",
                        f"bracket/v={k}/n={x.size}/p={p_label(p)}",
                        lambda x=x, p=p: sl_lip.local_lipschitz(x, 1.0, p),
                        lambda e, _, x=x, p=p: checks.check_bracket(
                            e, x, 1.0, p, self.DENSE_EXACT_LIMIT
                        ),
                        _bracket_summary,
                        dense=x.size >= self.DENSE_FROM and p not in (1.0, INF),
                    )
                )
        for p in self.ORDERS:
            ops.append(
                Op(
                    "witness",
                    f"witness/p={p_label(p)}",
                    lambda p=p: sl_lip.witness_example_pair(10, 20.0, 1e-4, p),
                    lambda w, _: checks.check_example_pair(w.ratio),
                    lambda w: w.ratio,
                )
            )
        for p in (2.0, 3.0):
            spec = sl_est.PerturbationSpec(
                p=p, epsilon=self.wide_eps[0], trials_per_input=self.wide_trials, seed=self.seed
            )
            ops.append(
                Op(
                    "sweep",
                    f"sweep/random/n={self.wide_n}/p={p_label(p)}",
                    lambda spec=spec: sl_est.epsilon_sweep(
                        list(self.wide_rows), 1.0, spec, self.wide_eps
                    ),
                    lambda r, _, p=p: checks.check_sweep(
                        r, self.wide_rows, 1.0, p, self.wide_eps, self.wide_trials, self.seed
                    ),
                    _sweep_summary,
                    ratios=self.wide_rows.shape[0] * self.wide_trials * len(self.wide_eps),
                )
            )
        spec = sl_est.PerturbationSpec(
            p=2.0, epsilon=1e-3, trials_per_input=self.wide_trials,
            mode=sl_est.MODE_TOP_EIGENVECTOR, seed=self.seed,
        )
        ops.append(
            Op(
                "sweep",
                f"sweep/top-eigenvector/n={self.eig_n}",
                lambda: sl_est.empirical_lp(list(self.eig_rows), 1.0, spec),
                lambda r, _: checks.check_sweep_bound(r, 1.0),
                _sweep_summary,
                ratios=self.eig_rows.shape[0] * self.wide_trials,
            )
        )
        return ops

    def cli_argvs(self):
        return [
            ["jacobian-norm", "--logits-file", f"../in/v{k}.csv", "--p", p, "--json-out", f"jn{p}.json"]
            for p, k in self.cli_inputs.items()
        ]

    def check_cli(self, argv, stdout, docs, results):
        p = argv[argv.index("--p") + 1]
        k = self.cli_inputs[p]
        lib = results[f"bracket/v={k}/n={self.vectors[k].size}/p={p}"]
        got = docs[f"jn{p}.json"]["result"]
        if (got["lower"], got["upper"]) != (lib.lower, lib.upper):
            return [f"CLI jacobian-norm p={p} differs from the library bracket"]
        return []


# ---------------------------------------------------------------------------
# dsfp-games


class DsfpGames(Workload):
    """Regularized game solves: undamped `tau auto`, and heavily damped.

    Chosen because the games module is used two ways: an undamped solve
    spends most of its time in tau_min and contraction_factor (opnorm on
    nonsymmetric A and A^T), a damped one in hundreds of dsfp_map steps.
    A non-square payoff keeps A and A^T apart.
    """

    name = "dsfp-games"
    primary = "solve"
    TOL = 1e-10
    # (label, p, alpha): tau is `auto` (1.01 * tau_min at p) in every solve.
    SOLVES = (("auto-p2", 2.0, 1.0), ("auto-p3", 3.0, 1.0), ("damped", 2.0, 0.05))

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        shapes = [(5, 5), (10, 10), (6, 12)] if smoke else [(50, 50), (200, 200), (120, 300)]
        self.games = [sl_games.MatrixGame(self.rng.standard_normal(s)) for s in shapes for _ in range(5)]
        self.cli_game = 5  # the first game of the middle size

    def write_inputs(self, indir):
        write_csv(indir / "game.csv", self.games[self.cli_game].a)

    def _solve(self, game, p, alpha):
        tau = 1.01 * sl_games.tau_min(game, p)
        return tau, sl_games.dsfp_solve(game, sl_games.DsfpConfig(tau=tau, alpha=alpha, p=p, tol=self.TOL))

    def library_ops(self):
        ops = []
        for g, game in enumerate(self.games):
            for label, p, alpha in self.SOLVES:
                ops.append(
                    Op(
                        "solve",
                        f"solve/g={g}/{game.n}x{game.m}/{label}",
                        lambda game=game, p=p, alpha=alpha: self._solve(game, p, alpha),
                        lambda r, _, game=game, p=p: checks.check_solve(r[1], game.a, r[0], p),
                        _solve_summary,
                    )
                )
        return ops

    def cli_argvs(self):
        return [
            ["dsfp", "--payoff", "../in/game.csv", "--tau", "auto", "--out", "auto-p2.json"],
            ["dsfp", "--payoff", "../in/game.csv", "--tau", "auto", "--p", "3", "--out", "auto-p3.json"],
            ["dsfp", "--payoff", "../in/game.csv", "--tau", "auto", "--alpha", "0.05", "--out", "damped.json"],
        ]

    def check_cli(self, argv, stdout, docs, results):
        name = argv[-1]
        label = name.removesuffix(".json")
        game = self.games[self.cli_game]
        lib = results[f"solve/g={self.cli_game}/{game.n}x{game.m}/{label}"]
        got = docs[name]["result"]
        if got["y_star"] != lib[1].y_star.tolist() or got["iterations"] != lib[1].iterations:
            return [f"CLI dsfp {label} differs from the library solve"]
        return []


# ---------------------------------------------------------------------------
# cli-readme


class CliReadme(Workload):
    """The README's seven CLI commands on the shipped fixtures.

    Chosen because the compute is tiny, so interpreter start, importing
    softlip (numpy most of it), the first LAPACK call, CSV ingestion and
    report emission dominate: the only workload where `cli` does most of
    the work. The seed sets `estimate --seed`.
    """

    name = "cli-readme"
    primary = "cli"
    needs_fixtures = True

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        self.trials = 2 if smoke else 100

    def library_ops(self):
        return []

    def cli_argvs(self):
        return [
            ["jacobian-norm", "--inline", "ln9-vector(10)", "--p", "1", "--lambda", "1"],
            ["witness", "--mode", "example", "--n", "10", "--K", "20", "--eps", "1e-4", "--p", "2"],
            ["witness", "--mode", "attained", "--n", "5", "--p", "1"],
            ["witness", "--mode", "limit-sequence", "--n", "5", "--p", "2", "--epsilons", "0.1,0.01"],
            ["estimate", "--matrix", "fixtures/attention_scores_8x8.csv", "--rowwise",
             "--lambda", "1", "--p-list", "1,2,inf", "--eps-list", "1e-1,1e-2,1e-3",
             "--trials", str(self.trials), "--seed", str(self.seed), "--out", "report"],
            ["dsfp", "--payoff", "fixtures/matching_pennies.csv", "--tau", "auto", "--out", "mp.json"],
            ["scsa", "--n", "2", "--nu", "1", "--tau", "2", "--eps", "4",
             "--wq", "1", "--wk", "1", "--wv", "1"],
        ]

    def check_cli(self, argv, stdout, docs, results):
        cmd = argv[0] if argv[0] != "witness" else argv[2]
        if cmd == "jacobian-norm":
            vals = checks.stdout_floats(stdout, "lower") + checks.stdout_floats(stdout, "upper")
            return [] if len(vals) == 2 and all(abs(v - 0.5) <= 1e-12 and v <= 0.5 for v in vals) else [
                f"jacobian-norm at ln9-vector(10) gave {vals}, expected 1/2"]
        if cmd == "example":
            vals = checks.stdout_floats(stdout, "ratio")
            return checks.check_example_pair(vals[0]) if vals else ["witness example printed no ratio"]
        if cmd == "attained":
            vals = checks.stdout_floats(stdout, "constant")
            return [] if vals and abs(vals[0] - 0.5) <= 1e-12 else [f"attained constant {vals}"]
        if cmd == "limit-sequence":
            vals = checks.stdout_floats(stdout, "certified_ratio")
            want = [0.5 - 0.1, 0.5 - 0.01]
            return [] if len(vals) == 2 and all(abs(v - w) <= 1e-12 for v, w in zip(vals, want)) else [
                f"limit-sequence ratios {vals}, expected {want}"]
        if cmd == "estimate":
            return self._check_estimate(docs["report.json"]["result"])
        if cmd == "dsfp":
            res = docs["mp.json"]["result"]
            ok = res["converged"] and res["residual"] <= res["tol"] and all(
                abs(v - 0.5) <= 1e-12 for v in res["y_star"])
            return [] if ok else ["matching pennies did not solve to (1/2, 1/2)"]
        if cmd == "scsa":
            # Hand-evaluated: 4*2*(1/2) + 2*2*(1/2) + 2*2*(1/2) = 8, and 14 unrefined.
            got = [float(line.rsplit(":", 1)[1]) for line in stdout.splitlines()]
            return [] if got == [8.0, 14.0] else [f"scsa bounds {got}, expected [8, 14]"]
        return [f"unchecked command {cmd}"]

    def _check_estimate(self, result) -> list:
        rows = sl_cli.read_matrix_csv(str(Path("fixtures/attention_scores_8x8.csv")))
        errs = []
        for rep in result["reports"]:
            p = INF if rep["p"] == "inf" else float(rep["p"])
            value, at, _ = checks.ref_sweep(rows, 1.0, p, (1e-1, 1e-2, 1e-3), self.trials, self.seed)
            got_at = (rep["argmax_input_index"], rep["argmax_trial"], rep["argmax_epsilon_index"])
            if rep["empirical_lp"] != value or got_at != at:
                errs.append(f"estimate p={rep['p']}: {rep['empirical_lp']!r} at {got_at}, reference {value!r} at {at}")
        return errs

    def run_checks(self):
        """The README estimate at its own seed 42 against the recorded values."""
        ref = checks.REFERENCE["readme_estimate"]
        rows = sl_cli.read_matrix_csv(str(self.root / ref["matrix"]))
        errs = []
        for label, want in ref["by_p"].items():
            spec = sl_est.PerturbationSpec(
                p=label, epsilon=ref["epsilons"][0], trials_per_input=ref["trials"], seed=ref["seed"]
            )
            got = sl_est.epsilon_sweep(list(rows), ref["lambda"], spec, ref["epsilons"])
            at = [got.argmax_input_index, got.argmax_trial, got.argmax_epsilon_index]
            if got.empirical_lp != want["empirical_lp"] or at != want["argmax"]:
                errs.append(f"README estimate p={label} at seed 42 differs from the recorded reference")
        return errs


WORKLOADS = {w.name: w for w in (EstimateAttn, JacobianWide, DsfpGames, CliReadme)}
