"""Local and global Lipschitz analysis of the softmax operator.

The global constant is lam/2 in every lp norm. The local constant at a
point is the induced p-norm of the Jacobian there; for p in {1, inf} it
has the closed form lam * max_i 2 s_i (1 - s_i), and for p = 2 it is lam
times the top eigenvalue of Diag(s) - s s^T, a root of the secular
equation of that rank-one update, found in O(n) without forming the
matrix. This module computes those constants, builds the witnesses that
show lam/2 is sharp (an attaining point for p in {1, inf}, an interior
sequence approaching it for 1 < p < inf, and a concrete near-attaining
secant pair), checks co-coercivity, and evaluates the refined
attention-layer bound that the sharp constant yields.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from softlip.core import Logits, SimplexPoint, Temperature, jacobian, m_of_s, softmax
from softlip.fixtures import attaining_logits, example_logits
from softlip.opnorm import NormEstimate, NormOrder, opnorm_p_estimate, top_eigenvector, vector_norm


@dataclass(frozen=True)
class WitnessPair:
    """A secant pair (x, y) whose softmax difference ratio nearly attains lam/2.

    Leave `ratio` out to have it measured from the pair (`recompute_ratio`);
    a given ratio must match that measurement to 1e-12.
    """

    x: Logits
    y: Logits
    p: NormOrder
    lam: float
    ratio: Optional[float] = None

    def __post_init__(self):
        if np.array_equal(self.x.values, self.y.values):
            raise ValueError("witness pair must have x != y")
        measured = self.recompute_ratio()
        if self.ratio is None:
            object.__setattr__(self, "ratio", measured)
        if self.ratio > self.lam / 2.0 + 1e-9:
            raise ValueError(f"ratio {self.ratio} exceeds the global bound {self.lam / 2}")
        if abs(measured - self.ratio) > 1e-12:
            raise ValueError("stored ratio is not reproducible from the pair")

    def recompute_ratio(self) -> float:
        num = vector_norm(
            softmax(self.y, self.lam).probs - softmax(self.x, self.lam).probs, self.p
        )
        den = vector_norm(self.y.values - self.x.values, self.p)
        return num / den


@dataclass(frozen=True)
class LimitSequenceStep:
    """One interior point of the sequence whose p-norm ratio tends to 1/2.

    `certified_ratio` is the realized ratio ||M(s) v||_p with the two-point
    witness v; `closed_form` is 1/2 - 2 delta (1 - delta), which equals
    1/2 - epsilon by the choice of delta. The two must agree to 1e-12.
    """

    k: int
    epsilon: float
    delta: float
    s: np.ndarray
    certified_ratio: float
    closed_form: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if abs(self.certified_ratio - self.closed_form) > 1e-12:
            raise ValueError(
                f"certified ratio {self.certified_ratio!r} disagrees with "
                f"closed form {self.closed_form!r}"
            )


@dataclass(frozen=True)
class ScsaParams:
    """Inputs of the scaled cosine-similarity attention Lipschitz bound.

    The bound depends on the projection weights only through their spectral
    norms, so those are taken directly (opnorm_two reduces matrices).
    """

    n: int
    nu: float
    tau: float
    eps: float
    wq_norm: float
    wk_norm: float
    wv_norm: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("token count n must be a positive integer")
        for name in ("nu", "tau", "eps"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("wq_norm", "wk_norm", "wv_norm"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def closed_form_linf(s) -> float:
    """max_i 2 s_i (1 - s_i): the exact 1- and inf-norm of Diag(s) - s s^T."""
    probs = s.probs if isinstance(s, SimplexPoint) else np.asarray(s, dtype=np.float64)
    return float((2.0 * probs * (1.0 - probs)).max())


def _float_bits(x: float) -> int:
    # For floats >= 0 the bit patterns, read as integers, keep their order.
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _secular_witness(probs: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of Diag(s) - s s^T, in O(n) time and memory.

    When the largest entry is tied (s_i1 == s_i2), (e_i1 - e_i2) / sqrt(2)
    is an exact eigenvector for mu = s_(1). Otherwise mu is the unique root
    in (s_(2), s_(1)) of the secular equation of the rank-one update
    (Golub 1973, Some modified matrix eigenvalue problems)

        f(mu) = 1 - sum_i s_i^2 / (s_i - mu) = 0,

    decreasing between the two poles, and w_i = s_i / (s_i - mu). The root
    is bisected in d = mu - o, its offset from the pole o in {s_(2), s_(1)}
    on its side of the midpoint, so s_i - mu = (s_i - o) - d keeps its
    relative accuracy; d is bisected over float bit patterns, which reaches
    adjacent floats in at most 63 steps. Saturated rows stay accurate:
    the i1 term is taken as (s_i1 (1 - s_i1) - mu) / (s_i1 - mu), which
    does not cancel when s_i1 is near 1; s_i^2 is never formed, since it
    underflows for s_i below 1e-154; and w is scaled by |d| <= |s_i - mu|,
    so no entry overflows.
    """
    n = probs.size
    i2, i1 = np.argpartition(probs, n - 2)[n - 2:]
    s1, s2 = float(probs[i1]), float(probs[i2])
    if s1 == s2:
        wit = np.zeros(n)
        wit[i1], wit[i2] = math.sqrt(0.5), -math.sqrt(0.5)
        return wit
    rest = probs.copy()
    rest[i1] = 0.0
    diag = s1 * (1.0 - s1)  # entry (i1, i1) of Diag(s) - s s^T
    buf = np.empty(n)

    def secular(shifted: np.ndarray, origin: float, d: float) -> float:
        # f(origin + d), with shifted = probs - origin
        np.subtract(shifted, d, out=buf)
        np.divide(rest, buf, out=buf)
        return (diag - origin - d) / (s1 - origin - d) - float(rest @ buf)

    half = 0.5 * (s1 - s2)
    shifted = probs - s2
    if secular(shifted, s2, half) > 0.0:  # the root lies above the midpoint
        origin, sign = s1, -1.0
        shifted = probs - s1
    else:
        origin, sign = s2, 1.0
    lo, hi = 0, _float_bits(half)  # |d| lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (secular(shifted, origin, sign * _bits_float(mid)) > 0.0) == (sign > 0.0):
            lo = mid
        else:
            hi = mid
    dist = _bits_float(lo or hi)
    wit = probs * (dist / (shifted - sign * dist))
    wit /= np.abs(wit).max()
    return wit / vector_norm(wit, 2.0)


def _m_of_s_times(probs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(Diag(s) - s s^T) w in O(n): entry i is s_i (w_i - s.w).

    At the largest entry, w_i - s.w cancels when s_i is near 1, so there it
    is taken as w_i (1 - s_i) - sum_{j != i} s_j w_j.
    """
    i = int(probs.argmax())
    out = probs * (w - float(probs @ w))
    others = float(probs[:i] @ w[:i]) + float(probs[i + 1:] @ w[i + 1:])
    out[i] = probs[i] * (w[i] * (1.0 - probs[i]) - others)
    return out


def global_bound(t: Union[Temperature, float]) -> float:
    """The global softmax Lipschitz constant lam/2, valid in every lp norm."""
    return Temperature.of(t).lam / 2.0


def local_lipschitz(
    x, t: Union[Temperature, float] = 1.0, p: Union[NormOrder, float, str] = 2.0
) -> NormEstimate:
    """Bracket of the local Lipschitz constant ||J(x)||_p of the softmax.

    For p in {1, inf} the O(n) closed form lam * max_i 2 s_i (1 - s_i) is
    used (exact, bypassing generic matrix norms). p = 2 is exact too, also
    in O(n) time and memory: the top eigenvector w of the Jacobian comes
    from its secular equation (`_secular_witness`), and the value is the
    realized ratio ||J w||_2 / ||w||_2 with J w formed without J. Other
    orders return the certified power-iteration bracket on the dense
    Jacobian, with the upper end capped at the global constant lam/2.
    """
    order = NormOrder.of(p)
    lam = Temperature.of(t).lam
    s = softmax(x, lam)
    if order.is_one or order.is_infinity:
        val = lam * closed_form_linf(s)
        i = int((s.probs * (1.0 - s.probs)).argmax())
        if order.is_one:
            wit = np.zeros(s.n)
            wit[i] = 1.0
        else:
            # Row i of Diag(s) - s s^T in O(n), with m_of_s's arithmetic; its
            # sign pattern (+1 at i, -1 off it) realizes the row sum.
            row = 0.0 - s.probs[i] * s.probs
            row[i] = s.probs[i] - s.probs[i] * s.probs[i]
            wit = np.sign(row)
        return NormEstimate(val, val, exact=True, method="2s(1-s) closed form", witness=wit)
    if order.is_two:
        wit = _secular_witness(s.probs)
        val = vector_norm(lam * _m_of_s_times(s.probs, wit), 2.0) / vector_norm(wit, 2.0)
        return NormEstimate(val, val, exact=True, method="secular equation", witness=wit)
    est = opnorm_p_estimate(jacobian(s, lam).matrix, order)
    cap = global_bound(lam)
    if est.upper <= max(cap, est.lower):
        return est
    # The interpolation bound can round past the theorem's lam/2.
    return NormEstimate.bracket(
        est.lower, max(est.lower, cap), "power iteration + lam/2 cap", est.witness
    )


def witness_attained(n: int, p: Union[NormOrder, float, str]) -> tuple[Logits, float]:
    """A point where the local constant equals exactly 1/2 (lam = 1).

    The logits (ln(n-1), 0, ..., 0) give s_1 = 1/2, at which the 1- and
    inf-norm of the Jacobian attain the global bound. Attainment fails for
    every other order when n > 2, so those are rejected.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    order = NormOrder.of(p)
    if not (order.is_one or order.is_infinity):
        raise ValueError(
            f"the bound is attained at an interior point only for p in {{1, inf}}, got p={order.label}"
        )
    x = Logits(attaining_logits(n))
    return x, local_lipschitz(x, 1.0, order).upper


def witness_limit_sequence(
    n: int, p: Union[NormOrder, float, str], epsilons
) -> list[LimitSequenceStep]:
    """Interior points whose certified p-norm ratio equals 1/2 - epsilon.

    For each epsilon in (0, 1/2): delta solves 2 delta (1 - delta) =
    epsilon (the root in (0, 1/2)), the point s has its first two
    coordinates at 1/2 - 2 delta (1 - delta) with the rest uniform, and
    the realized ratio ||M(s) v||_p with v = (2^(-1/p), -2^(-1/p), 0, ...)
    comes out to exactly 1/2 - epsilon. Smaller epsilon moves the point
    toward the boundary and the ratio toward 1/2.
    """
    if n <= 2:
        raise ValueError("the limit sequence needs n > 2 free coordinates")
    order = NormOrder.of(p)
    if order.is_one or order.is_infinity:
        raise ValueError("the limit sequence is for 1 < p < inf; use witness_attained instead")
    steps = []
    for k, eps in enumerate(epsilons):
        eps = float(eps)
        if not 0.0 < eps < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {eps}")
        # Stable root of 2d(1-d) = eps: no cancellation for tiny eps.
        delta = eps / (1.0 + math.sqrt(1.0 - 2.0 * eps))
        big = 0.5 - 2.0 * delta * (1.0 - delta)
        rest = (1.0 - 2.0 * big) / (n - 2)
        s = np.full(n, rest)
        s[0] = s[1] = big
        c = 2.0 ** (-1.0 / order.p)
        v = np.zeros(n)
        v[0], v[1] = c, -c
        certified = vector_norm(m_of_s(s) @ v, order) / vector_norm(v, order)
        steps.append(
            LimitSequenceStep(
                k=k,
                epsilon=eps,
                delta=delta,
                s=s,
                certified_ratio=certified,
                closed_form=0.5 - 2.0 * delta * (1.0 - delta),
            )
        )
    return steps


def witness_example_pair(
    n: int,
    K: float = 20.0,
    eps_pert: float = 1e-4,
    p: Union[NormOrder, float, str] = 2.0,
) -> WitnessPair:
    """The concrete near-attaining secant pair built from x = (0, 0, -K, ...).

    y perturbs x by eps_pert along the top Jacobian eigenvector at x. For
    n = 10, K = 20, eps_pert = 1e-4 the measured ratio is 0.499999995...
    in every lp norm, a hair under the sharp constant 1/2.

    The numerator cancels almost completely, so for eps_pert below ~1e-7
    the measured ratio carries float64 noise of order 1e-9 and can even
    poke past 1/2; the true ratio never does.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if K < 0.0:
        raise ValueError("K must be nonnegative")
    if eps_pert <= 0.0:
        raise ValueError("eps_pert must be positive")
    order = NormOrder.of(p)
    x = Logits(example_logits(n, K))
    v = top_eigenvector(jacobian(softmax(x), 1.0).matrix)
    y = Logits(x.values + eps_pert * v)
    return WitnessPair(x=x, y=y, p=order, lam=1.0)


def cocoercivity_check(
    x, y, t: Union[Temperature, float] = 1.0
) -> tuple[float, float, bool]:
    """Evaluate <sig(x) - sig(y), x - y> >= (2/lam) ||sig(x) - sig(y)||_2^2.

    Returns (lhs, rhs, holds) with holds true when lhs >= rhs - 1e-12.
    Co-coercivity with constant 2/lam is what makes the softmax firmly
    nonexpansive for lam <= 2.
    """
    lam = Temperature.of(t).lam
    xv = Logits.of(x).values
    yv = Logits.of(y).values
    if xv.size != yv.size:
        raise ValueError("x and y must have the same length")
    diff = softmax(xv, lam).probs - softmax(yv, lam).probs
    lhs = float(diff @ (xv - yv))
    rhs = (2.0 / lam) * float(diff @ diff)
    return lhs, rhs, lhs >= rhs - 1e-12


def scsa_bound(params: ScsaParams) -> float:
    """Refined l2 Lipschitz bound for scaled cosine-similarity attention.

    n^2 nu tau eps^(-1/2) ||W_K|| + n nu tau eps^(-1/2) ||W_Q||
    + 2 n nu eps^(-1/2) ||W_V^T||, where eps is the normalization floor.
    """
    root = params.eps**-0.5
    return (
        params.n**2 * params.nu * params.tau * root * params.wk_norm
        + params.n * params.nu * params.tau * root * params.wq_norm
        + 2.0 * params.n * params.nu * root * params.wv_norm
    )


def scsa_bound_unrefined(params: ScsaParams) -> float:
    """The same bound before sharpening the softmax constant.

    A softmax Lipschitz constant of ~1 instead of 1/2 doubles the two
    score-path terms (W_K and W_Q); the value-path term is unaffected.
    Reported for comparison only.
    """
    root = params.eps**-0.5
    return (
        2.0 * params.n**2 * params.nu * params.tau * root * params.wk_norm
        + 2.0 * params.n * params.nu * params.tau * root * params.wq_norm
        + 2.0 * params.n * params.nu * root * params.wv_norm
    )
