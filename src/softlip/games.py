"""Entropy-regularized two-player zero-sum matrix games.

The regularized problem min_x max_y x^T A y + tau (H(x) - H(y)) is solved
by the damped double-softmax fixed-point iteration

    y  <-  (1 - alpha) y + alpha * T(y),
    T(y) = sig_{1/tau}(A^T sig_{1/tau}(-A y)),

which is a contraction whenever tau > ||A||_p / 2, with factor
||A||_p^2 / (4 tau^2) under the classical chain (which silently uses
||A^T||_p = ||A||_p, true for p = 2 but not in general). Both that
factor and the conservative ||A||_p ||A^T||_p / (4 tau^2) are reported;
solving proceeds either way, flagged as uncertified when the conservative
factor is not below 1.

Both factors read only certified upper ends of ||A||_p and ||A^T||_p,
with no power iteration: the dense upper-end policy `opnorm._upper_norms`
states which end each order takes. A `MatrixGame` computes the norms those
ends need at most once, on first use, so `tau_min` and every contraction
factor of one game share its one eigensolve, whatever the order.

Both softmaxes of a step run `core._softmax_kernel`, the arithmetic of
`core.softmax`: logits whose product with 1/tau overflows are shifted
before they are scaled, so a payoff near the float max still answers at a
small tau. `dsfp_solve` decides once per solve whether the payoff bounds
every logit so that check can be skipped. A bounded step then costs little
more than its two matvecs, and the damping updates T(y) in place with the
bits of the written-out formula.

tau must satisfy TAU_MIN <= tau < TAU_LIMIT, that is 2^-512 <= tau < 2^511
(about 7.5e-155 to 6.7e153): there 1/tau and 4 tau^2 are normal floats, so
neither the softmax scale nor the factors' denominator overflows or
underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from softlip.core import SimplexPoint, _count, _softmax_rows, boundary_point
from softlip.opnorm import (
    NormOrder,
    _SQUARES_MIN,
    _MatrixNorms,
    _as_matrix,
    _upper_norms,
    opnorm_p_estimate,  # not called here; perfbench/spans.py wraps this name
    row_norms,
)

_TRACE_CAP = 100_000

#: Smallest accepted tau: 4 * TAU_MIN^2 = 2^-1022 is the smallest normal float.
TAU_MIN = 2.0**-512

#: Accepted tau stay below this: 4 * TAU_LIMIT^2 = 2^1024 overflows.
TAU_LIMIT = 2.0**511

class DsfpError(RuntimeError):
    """Raised when the iteration produces non-finite values."""


def _check_tau(tau) -> None:
    if not TAU_MIN <= tau < TAU_LIMIT:
        raise ValueError(
            f"tau must satisfy 2^-512 <= tau < 2^511 (minimum {TAU_MIN!r}), so that "
            f"1/tau and 4 tau^2 are normal floats; got {tau!r}"
        )


@dataclass(frozen=True)
class MatrixGame:
    """A finite payoff matrix; the row player minimizes x^T A y.

    `a` is a read-only copy, so its norms, computed once on first use, stay
    valid for the game's lifetime. They take no part in equality or repr,
    and a pickled game carries only `a`.
    """

    a: np.ndarray
    _norms: _MatrixNorms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _as_matrix(self.a).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "_norms", _MatrixNorms(arr))

    def __reduce__(self):
        return type(self), (self.a,)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class DsfpConfig:
    """Solver knobs: regularization, damping, norm, stopping, start point."""

    tau: float
    alpha: float = 1.0
    p: NormOrder = field(default_factory=NormOrder.two)
    tol: float = 1e-10
    max_iter: int = 10_000
    y0: Union[str, np.ndarray] = "uniform"

    def __post_init__(self):
        _check_tau(self.tau)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "max_iter", _count(self.max_iter, "max_iter", 1))
        object.__setattr__(self, "p", NormOrder.of(self.p))
        if not isinstance(self.y0, str):
            arr = np.array(self.y0, dtype=np.float64, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, "y0", arr)
        elif self.y0 != "uniform":
            raise ValueError(f"y0 must be 'uniform' or a probability vector, got {self.y0!r}")


@dataclass(frozen=True)
class DsfpResult:
    """Equilibrium strategies plus convergence and contraction diagnostics.

    `contraction_nominal` is ||A||_p^2 / (4 tau^2); `contraction_safe` is the
    conservative ||A||_p ||A^T||_p / (4 tau^2) (they agree at p = 2).
    `certified` records whether the safe factor was < 1, i.e. whether the
    Banach argument guarantees this run converged to the unique fixed point.
    """

    y_star: np.ndarray
    x_star: np.ndarray
    iterations: int
    residual: float
    contraction_nominal: float
    contraction_safe: float
    regularized_value: float
    trace: tuple
    converged: bool
    certified: bool
    clamp_events: int
    config: DsfpConfig


def _check_strategy(y, m: int) -> np.ndarray:
    """A point of the closed simplex with m entries (`core.boundary_point`)."""
    arr = boundary_point(y)
    if arr.size != m:
        raise ValueError(f"strategy must have {m} entries, got {arr.size}")
    return arr


def _dsfp_step(
    a: np.ndarray, lam: float, y: np.ndarray, bounded: bool = False
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(T(y), x, clamped) at lam = 1/tau, unvalidated: x = sig_lam(-A y) is
    the row player's response, and `clamped` covers both inner softmaxes.

    `bounded` asserts that every |lam * logit| stays below half the float
    max (see `dsfp_solve`); the softmaxes then skip their overflow check
    with the same bits. Negation is exact, so there -lam * (A y) has the
    bits of lam * -(A y) and saves the negated copy.
    """
    if bounded:
        x, x_clamped = _softmax_rows(a @ y, -lam, True)
    else:
        x, x_clamped = _softmax_rows(-(a @ y), lam)
    t_y, y_clamped = _softmax_rows(a.T @ x, lam, bounded)
    return t_y, x, bool(x_clamped) or bool(y_clamped)


def dsfp_map(game: MatrixGame, tau: float, y) -> SimplexPoint:
    """One application of T(y) = sig_{1/tau}(A^T sig_{1/tau}(-A y)).

    The returned point's `clamped` flag covers both inner softmaxes.
    """
    _check_tau(tau)
    t_y, _, clamped = _dsfp_step(game.a, 1.0 / tau, _check_strategy(y, game.m))
    return SimplexPoint(t_y, clamped=clamped)


def tau_min(game: MatrixGame, p: Union[NormOrder, float, str]) -> float:
    """Contraction threshold ||A||_p / 2, from the certified upper end of
    ||A||_p that `opnorm._upper_norms` gives. The norms it reads are the
    game's, computed on the first call at any order and then reused.

    Any tau strictly above the threshold makes the classical factor < 1.
    For general p that factor leans on ||A^T||_p = ||A||_p, which only
    holds at p = 2; compare contraction_factor's safe value before
    trusting it.
    """
    return _upper_norms(game._norms, NormOrder.of(p))[0] / 2.0


def contraction_factor(
    game: MatrixGame, tau: float, p: Union[NormOrder, float, str]
) -> tuple[float, float]:
    """(nominal, safe) contraction factors of T at regularization tau.

    nominal = ||A||_p^2 / (4 tau^2); safe = ||A||_p ||A^T||_p / (4 tau^2),
    both from the certified upper ends of `opnorm._upper_norms` on the
    game's norms, which `tau_min` reads too: one eigensolve per game
    serves every order outside {1, inf}. At p = 2 it serves both sides, so
    safe == nominal; they also coincide for symmetric payoffs, and
    elsewhere the safe factor is the provable one. tau outside
    [TAU_MIN, TAU_LIMIT) raises ValueError.
    """
    _check_tau(tau)
    a_norm, at_norm = _upper_norms(game._norms, NormOrder.of(p))
    return _factor(a_norm, a_norm, float(tau)), _factor(a_norm, at_norm, float(tau))


def _factor(a: float, b: float, tau: float) -> float:
    """a b / (4 tau^2) in Python floats, which overflow to inf silently;
    where a b overflows (a norm above about 1.3e154), (a / (2 tau)) (b /
    (2 tau)), which is inf only if the factor is."""
    product = a * b
    if product == math.inf:
        return (a / (2.0 * tau)) * (b / (2.0 * tau))
    return product / (4.0 * tau * tau)


def shannon_entropy(u) -> float:
    """H(u) = -sum u_i ln u_i with the convention 0 ln 0 = 0."""
    arr = np.asarray(u, dtype=np.float64)
    pos = arr > 0.0
    return -float((arr[pos] * np.log(arr[pos])).sum())


def regularized_value(game: MatrixGame, tau: float, x, y) -> float:
    """The regularized objective x^T A y + tau (H(x) - H(y)).

    tau outside [TAU_MIN, TAU_LIMIT) raises ValueError.
    """
    _check_tau(tau)
    xv = _check_strategy(x, game.n)
    yv = _check_strategy(y, game.m)
    return float(xv @ game.a @ yv) + tau * (shannon_entropy(xv) - shannon_entropy(yv))


def dsfp_solve(game: MatrixGame, config: DsfpConfig) -> DsfpResult:
    """Iterate the damped map to the regularized equilibrium.

    Stops when ||y_{k+1} - y_k||_p <= tol * alpha (scaled by alpha so heavy
    damping cannot fake convergence) or when max_iter is exhausted;
    `converged` additionally requires the fixed-point residual
    ||T(y) - y||_p <= tol at the final iterate. Exhausting max_iter is not
    an exception, just converged = False. Non-finite iterates raise.

    The start point is validated here, once; the steps run the unvalidated
    kernel behind `dsfp_map`, with the same arithmetic and so the same bits.
    `x_star` is the final step's inner response sig_{1/tau}(-A y_star).
    """
    if isinstance(config.y0, str):
        y = np.full(game.m, 1.0 / game.m)
    else:
        y = _check_strategy(config.y0, game.m).copy()
    lam = 1.0 / float(config.tau)
    # y and x stay nonnegative with sums within m * 1e-12 of 1
    # (`core.boundary_point`), so every logit, an entry of A y or A^T x, is
    # below 2 max|a_ij| in magnitude. With 4 lam max|a_ij| finite, every
    # |lam * logit| stays below half the float max, and a step skips
    # `_scaled_logits`' overflow check.
    bounded = math.isfinite(4.0 * lam * float(np.abs(game.a).max()))
    alpha = config.alpha
    beta = 1.0 - alpha
    order = config.p
    is_two = order.is_two
    stop = config.tol * alpha
    trace: list = []
    stride = 1
    stopped = False
    iterations = 0
    clamps = 0
    for k in range(1, config.max_iter + 1):
        y_next, _, clamped = _dsfp_step(game.a, lam, y, bounded)
        clamps += int(clamped)
        # damp T(y), a fresh array, in place: IEEE addition commutes, so
        # alpha T(y) + beta y has the bits of (1 - alpha) y + alpha T(y), and
        # at alpha = 1 it is T(y) + 0 = T(y)
        y_next *= alpha
        y_next += beta * y
        step = y_next - y
        # p = 2: one dot product gives row_norms' bits whenever its sum is in
        # range, which a NaN or inf in the iterate is not
        squares = float(np.vecdot(step, step)) if is_two else math.nan
        if _SQUARES_MIN <= squares < math.inf:
            disp = math.sqrt(squares)
        else:
            if not np.all(np.isfinite(y_next)):
                raise DsfpError(f"non-finite iterate at step {k}")
            disp = float(row_norms(step[None], order)[0])
        if k % stride == 0:
            trace.append((k, disp))
            if len(trace) >= _TRACE_CAP:
                trace = trace[::2]  # geometric thinning: drop every other entry
                stride *= 2
        y = y_next
        iterations = k
        if disp <= stop:
            stopped = True
            break
    t_y, x_star, clamped = _dsfp_step(game.a, lam, y, bounded)
    clamps += int(clamped)
    residual = float(row_norms((t_y - y)[None], order)[0])
    nominal, safe = contraction_factor(game, config.tau, order)
    return DsfpResult(
        y_star=y,
        x_star=x_star,
        iterations=iterations,
        residual=residual,
        contraction_nominal=nominal,
        contraction_safe=safe,
        regularized_value=regularized_value(game, config.tau, x_star, y),
        trace=tuple(trace),
        converged=stopped and residual <= config.tol,
        certified=safe < 1.0,
        clamp_events=clamps,
        config=config,
    )
