"""Local and global Lipschitz analysis of the softmax operator.

The global constant is lam/2 in every lp norm. The local constant at a
point is the induced p-norm of the Jacobian J = lam (Diag(s) - s s^T)
there, and no order needs the n x n matrix: for p in {1, inf} it has the
closed form lam * max_i 2 s_i (1 - s_i); for p = 2 it is lam times the top
eigenvalue of Diag(s) - s s^T, a root of the secular equation of that
rank-one update; for 1 < p < inf it is bracketed by a power iteration on
the O(n) product V -> J V below and, above, by the smallest of the
interpolation bound, the Riesz-Thorin bound from ||J||_1 = ||J||_inf and
||J||_2, and lam/2. J is symmetric, so ||J||_p = ||J||_q for 1/p + 1/q = 1:
the two orders of a conjugate pair share one power iteration, run at the
order below 2, and a one-point memo (`_held_pair`: the last point's pair,
2n + 2 floats) lets the pair's second call at that point reuse it. A call
sets its point up once: the softmax point (validated with the logits, not
again), one Jacobian diagonal that the closed form, the row map and the
secular witness share, and each ratio's two norms from one `row_norms`
call. This module computes those constants, builds the witnesses that
show lam/2 is sharp (an attaining point for p in {1, inf}, an interior
sequence approaching it for 1 < p < inf, and a concrete near-attaining
secant pair), checks co-coercivity, and evaluates the refined
attention-layer bound that the sharp constant yields.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from softlip.core import (
    Logits,
    SimplexPoint,
    Temperature,
    _count,
    _jacobian_diagonal,
    _jacobian_times,
    _secular_witness,
    boundary_point,
    jacobian,  # not called here; perfbench/spans.py wraps this name
    softmax,
)
from softlip.fixtures import attaining_logits, example_logits
from softlip.opnorm import (
    NormEstimate,
    NormOrder,
    _boyd_lower,
    _bracket,
    _dual_witness,
    _ratio,
    opnorm_p_estimate,  # not called here; perfbench/spans.py wraps this name
    vector_norm,
)


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
        object.__setattr__(self, "n", _count(self.n, "n", 1))
        for name in ("nu", "tau", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("wq_norm", "wk_norm", "wv_norm"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


def closed_form_linf(s) -> float:
    """max_i 2 s_i (1 - s_i): the exact 1- and inf-norm of Diag(s) - s s^T,
    from `core._jacobian_diagonal` (accurate where the top s_i nears 1).
    A SimplexPoint is taken as it is; any other `s` must pass
    `core.boundary_point`, as in `m_of_s`."""
    probs = s.probs if isinstance(s, SimplexPoint) else boundary_point(s)
    return 2.0 * float(_jacobian_diagonal(probs)[0].max())


class _PairMemo:
    """The last point's conjugate pair for `local_lipschitz`, held read-only
    under a lock: one entry, whose key is (probs.tobytes(), lam, r) and
    whose value is (||J||_2, the order-r lower end, its witness v, the dual
    witness z of v), 2n + 2 floats beside the key's n. The value is a
    function of the key alone, so a held pair has the bits that computing
    it again gives."""

    def __init__(self):
        self._held = None
        self._lock = threading.Lock()

    def get(self, key) -> Optional[tuple]:
        with self._lock:
            held = self._held
        return held[1] if held is not None and held[0] == key else None

    def put(self, key, pair: tuple) -> None:
        for arr in pair[2:]:
            arr.flags.writeable = False
        with self._lock:
            self._held = (key, pair)

    def clear(self) -> None:
        with self._lock:
            self._held = None

    def info(self) -> tuple[int, int]:
        """The points and the floats held."""
        with self._lock:
            held = self._held
        if held is None:
            return 0, 0
        _, _, v, z = held[1]
        return 1, 2 + v.size + z.size


#: Both orders of a conjugate pair at one point share one power iteration:
#: a warm pass over many points gets no more hits than a cold one.
_held_pair = _PairMemo()


def global_bound(t: Union[Temperature, float]) -> float:
    """The global softmax Lipschitz constant lam/2, valid in every lp norm."""
    return Temperature.of(t).lam / 2.0


def local_lipschitz(
    x, t: Union[Temperature, float] = 1.0, p: Union[NormOrder, float, str] = 2.0
) -> NormEstimate:
    """Bracket of the local Lipschitz constant ||J(x)||_p of the softmax.

    `x` holds the logits, or is the SimplexPoint softmax(x, lam) itself:
    J = lam (Diag(s) - s s^T) depends on x only through s, so a caller that
    already has the point passes it. No order forms the n x n matrix. For
    p in {1, inf} the O(n) closed form lam * max_i 2 s_i (1 - s_i) is used
    (exact). Other orders build the O(n) row map V -> lam (V o s - (V s) s^T)
    once, as `apply` (J is symmetric, so it is its own transpose). p = 2 is
    exact: ||J||_2 is the ratio ||J w||_2 / ||w||_2 that `apply` gives at the
    top eigenvector w from the secular equation (`_secular_witness`). Other
    orders get a certified bracket from `opnorm._bracket`: a realized ratio
    below, and above the smallest of the interpolation bound and the
    Riesz-Thorin bound at p from ||J||_1 = ||J||_inf and ||J||_2, rounded
    outward, and lam/2; `method` names the one that won.

    The ratio below comes from one power iteration (`opnorm._boyd_lower`)
    at r = p for p < 2 and at the conjugate r = p/(p-1) for p > 2, since
    ||J||_p = ||J^T||_q = ||J||_q. At p < 2 it is that run's ratio and
    witness v; at p > 2 the witness is the run's dual vector
    z = psi_r(J v) (`opnorm._dual_witness`) and the ratio ||J z||_p /
    ||z||_p, measured at p, which Hoelder keeps at or above the r run's
    ratio. The point's ||J||_2, the r run's ratio, v and z are held for
    the last key (probs bytes, lam, r) alone (`_held_pair`), so the pair's
    second call at a point skips the secular solve and the iteration; each
    bracket is a function of (point, lam, p), the same bits whichever
    order came first.

    Each call takes `core._jacobian_diagonal` once and hands it to the
    closed form, `_jacobian_times` and `_secular_witness`, and takes the
    p = 2 ratio's two norms from one `row_norms` call (`opnorm._ratio`); the
    bits are those of each part computing its own.
    """
    order = NormOrder.of(p)
    lam = Temperature.of(t).lam
    s = x if isinstance(x, SimplexPoint) else softmax(x, lam)
    probs = s.probs
    diagonal = _jacobian_diagonal(probs)
    top = int(diagonal[0].argmax())  # the largest column sum
    one = lam * (2.0 * float(diagonal[0][top]))  # ||J||_1 = ||J||_inf: `closed_form_linf`
    if order.is_one or order.is_infinity:
        wit = np.zeros(s.n)
        wit[top] = 1.0
        if order.is_infinity:  # row i of J is J e_i; its signs realize the row sum
            wit = np.sign(_jacobian_times(probs, 1.0, diagonal)(wit[None])[0])
        return NormEstimate(one, one, exact=True, method="2s(1-s) closed form", witness=wit)
    apply = _jacobian_times(probs, lam, diagonal)
    if order.is_two:
        wit = _secular_witness(probs, diagonal)
        two = _ratio(apply(wit[None]), wit[None], 2.0)
        return NormEstimate(two, two, exact=True, method="secular equation", witness=wit)
    # the pair's one iteration runs at the order below 2
    r = order.p if order.p < 2.0 else order.p / (order.p - 1.0)
    key = (probs.tobytes(), lam, r)
    pair = _held_pair.get(key)
    if pair is None:
        wit = _secular_witness(probs, diagonal)
        two = _ratio(apply(wit[None]), wit[None], 2.0)
        lower, v = _boyd_lower(apply, apply, NormOrder(r), s.n)
        pair = (two, lower, v, _dual_witness(apply, v, r))
        _held_pair.put(key, pair)
    two, lower, wit, dual = pair
    if order.p > 2.0:  # ||J||_p = ||J||_r; the dual witness is measured at p
        lower, wit = _ratio(apply(dual[None]), dual[None], order), dual
    # a ratio rounded above lam/2 (by an ulp at s = (1/2, 1/2)) is lam/2
    return _bracket(
        order, one, two, one, lower, wit.copy(), cap=global_bound(lam), cap_name="lam/2 cap"
    )


def witness_attained(n: int, p: Union[NormOrder, float, str]) -> tuple[Logits, float]:
    """A point where the local constant equals exactly 1/2 (lam = 1).

    The logits (ln(n-1), 0, ..., 0) give s_1 = 1/2, at which the 1- and
    inf-norm of the Jacobian attain the global bound. Attainment fails for
    every other order when n > 2, so those are rejected.
    """
    n = _count(n, "n", 2)
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
    n = _count(n, "n", 3)
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
        certified = vector_norm(_jacobian_times(s)(v[None])[0], order) / vector_norm(v, order)
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
    n = _count(n, "n", 2)
    if not 0.0 <= K < math.inf:
        raise ValueError("K must be nonnegative and finite")
    if not 0.0 < eps_pert < math.inf:
        raise ValueError("eps_pert must be positive and finite")
    order = NormOrder.of(p)
    x = Logits(example_logits(n, K))
    v = _secular_witness(softmax(x).probs)
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


def _frexp(x) -> tuple[float, int]:
    """`math.frexp(x)`, for an int beyond the float range too: the int over
    a power of two rounds once, as `float(x)` does."""
    if isinstance(x, int):
        bits = x.bit_length()
        return x / (1 << bits), bits
    return math.frexp(x)


def _product(*factors) -> float:
    """The left-to-right float product of nonnegative `factors`, formed on
    their mantissas with the exponents summed apart and applied once. A
    power-of-two scale is exact, so the bits are those of the plain product
    wherever that neither overflows nor underflows, and a product that
    overflows only in an intermediate, or beside a zero factor, is still
    answered; one beyond the float range is inf."""
    mantissa, exponent = 1.0, 0
    for x in factors:
        m, e = _frexp(x)
        mantissa *= m
        exponent += e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _scsa(params: ScsaParams, score_factor: float) -> float:
    """The SCSA bound with its two score-path terms (W_K and W_Q) times
    score_factor, applied first; each term is one `_product`."""
    n, nu, tau, root = params.n, params.nu, params.tau, params.eps**-0.5
    return (
        _product(score_factor, n**2, nu, tau, root, params.wk_norm)
        + _product(score_factor, n, nu, tau, root, params.wq_norm)
        + _product(2.0, n, nu, root, params.wv_norm)
    )


def scsa_bound(params: ScsaParams) -> float:
    """Refined l2 Lipschitz bound for scaled cosine-similarity attention.

    n^2 nu tau eps^(-1/2) ||W_K|| + n nu tau eps^(-1/2) ||W_Q||
    + 2 n nu eps^(-1/2) ||W_V^T||, where eps is the normalization floor.
    """
    return _scsa(params, 1.0)


def scsa_bound_unrefined(params: ScsaParams) -> float:
    """The same bound before sharpening the softmax constant.

    A softmax Lipschitz constant of ~1 instead of 1/2 doubles the two
    score-path terms (W_K and W_Q); the value-path term is unaffected.
    Reported for comparison only.
    """
    return _scsa(params, 2.0)
