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
order below 2 from the point's top eigenvector and e_i1 - e_i2. Each
point is set up once: a one-point memo (`_held_pair`) keeps the last
point's softmax, its Jacobian diagonal (which the closed form, the row
map and the secular witness share), its row map, ||J||_2 with the top
eigenvector, and its pair, about 10n floats. So the five orders
(1, 1.5, 2, 3, inf) at one point take one softmax, one diagonal, one row
map, one secular solve and one iteration, whether the point comes as
logits (found by their bytes, not validated again) or as the
SimplexPoint. Each ratio takes its two norms from one `row_norms` call.
This module computes those constants, builds the witnesses that
show lam/2 is sharp (an attaining point for p in {1, inf}, an interior
sequence approaching it for 1 < p < inf, and a concrete near-attaining
secant pair), checks co-coercivity, and evaluates the refined
attention-layer bound that the sharp constant yields.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from softlip.core import (
    Logits,
    SimplexPoint,
    Temperature,
    _count,
    _jacobian_diagonal,
    _jacobian_times,
    _secular_witness,
    _vector_hash,
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
    Equality compares `s` by value (`np.array_equal`), and the hash agrees
    with it.
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

    def _scalars(self) -> tuple:
        return self.k, self.epsilon, self.delta, self.certified_ratio, self.closed_form

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scalars() == other._scalars() and np.array_equal(self.s, other.s)

    def __hash__(self):
        return hash((self._scalars(), _vector_hash(self.s)))


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


class _HeldPoint(NamedTuple):
    """One point's setup and results for `local_lipschitz`, all read-only:
    the logits it came from (None for a point given as a SimplexPoint),
    lam, the softmax `probs`, `core._jacobian_diagonal(probs)`, and, once
    computed, the row map of J, ||J||_2 with the top eigenvector w, and
    `run`: for the last order r below 2 alone, (r, the order-r lower end,
    its witness v, the dual witness z of v). Every field is a function of
    (probs, lam), and of the logits where those are held."""

    logits: Optional[np.ndarray]
    lam: float
    probs: np.ndarray
    diagonal: tuple
    apply: Optional[Callable[[np.ndarray], np.ndarray]] = None
    two: Optional[float] = None
    w: Optional[np.ndarray] = None
    run: Optional[tuple] = None


def _same_bits(held: np.ndarray, values: np.ndarray) -> bool:
    """Whether two float64 vectors hold the same bytes (-0.0 is not 0.0),
    compared in place: no copy of either, at any n."""
    return (
        held.shape == values.shape
        and held[0] == values[0]  # most other points differ here already
        and np.array_equal(held.view(np.int64), values.view(np.int64))
    )


def _held_floats(value) -> int:
    """The floats an entry of `_PointMemo` holds, those its row map closes
    over included."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, float):
        return 1
    if isinstance(value, tuple):
        return sum(map(_held_floats, value))
    if callable(value):
        return sum(_held_floats(cell.cell_contents) for cell in value.__closure__ or ())
    return 0


class _PointMemo:
    """The last point `local_lipschitz` set up, held under a lock: one
    `_HeldPoint`, whose arrays are read-only. A call finds it by the bytes
    of its logits and lam, or, given a SimplexPoint or logits whose softmax
    has the held bytes, by its probs and lam. The entry is a function of
    that key alone, so a held entry has the bits that computing it again
    gives."""

    def __init__(self):
        self._held = None
        self._lock = threading.Lock()

    def get(self) -> Optional[_HeldPoint]:
        with self._lock:
            return self._held

    def put(self, held: _HeldPoint) -> None:
        with self._lock:
            self._held = held

    def clear(self) -> None:
        with self._lock:
            self._held = None

    def info(self) -> tuple[int, int]:
        """The points and the floats held."""
        held = self.get()
        return (0, 0) if held is None else (1, _held_floats(tuple(held)))


#: A call at the held point reuses its softmax, diagonal and row map, and
#: the p = 2 call and both orders of a conjugate pair there share one
#: secular solve and one power iteration: a warm pass over many points
#: gets no more hits than a cold one.
_held_pair = _PointMemo()


def _frozen(*arrays: np.ndarray) -> tuple:
    """`arrays`, made read-only for `_held_pair`."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _point(x, lam: float) -> _HeldPoint:
    """The held setup of the logits or SimplexPoint `x` at lam, or a new one
    (not yet held). Logits with the held bytes skip their validation, which
    the same bytes already passed; other logits are validated by `softmax`.
    The logits and the softmax come read-only from `Logits` and `softmax`
    (or the SimplexPoint)."""
    held = _held_pair.get()
    if isinstance(x, SimplexPoint):
        logits, probs = None, x.probs
    else:
        values = x.values if isinstance(x, Logits) else np.asarray(x, dtype=np.float64)
        if (
            held is not None
            and held.lam == lam
            and held.logits is not None
            and _same_bits(held.logits, values)
        ):
            return held
        logits = x if isinstance(x, Logits) else Logits(values)
        probs = softmax(logits, lam).probs
        logits = logits.values
    if held is not None and held.lam == lam and _same_bits(held.probs, probs):
        return held if logits is None else held._replace(logits=logits)
    entries, i, comp, rest = _jacobian_diagonal(probs)
    _frozen(entries, rest)
    return _HeldPoint(logits, lam, probs, (entries, i, comp, rest))


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
    ||J||_p = ||J^T||_q = ||J||_q. It starts from two rows, the point's own
    witnesses: w, exact at p = 2, and the attaining direction e_i1 - e_i2
    on the two largest entries of s (w is +-(e_i1 - e_i2)/sqrt(2) where
    they tie, and at n = 2). At p < 2 the lower end is that run's ratio
    and witness v; at p > 2 the witness is the run's dual vector
    z = psi_r(J v) (`opnorm._dual_witness`) and the ratio ||J z||_p /
    ||z||_p, measured at p, which Hoelder keeps at or above the r run's
    ratio.

    The last point's setup is held (`_held_pair`, `_HeldPoint`): its
    logits' bytes and lam, or its probs' bytes and lam where it came as a
    SimplexPoint (or as other logits with the same softmax), find its
    softmax, its `core._jacobian_diagonal` (which the closed form,
    `_jacobian_times` and `_secular_witness` share), its row map, ||J||_2
    with w, and the r run's ratio, v and z for its last r alone. Logits
    with the held bytes skip the `Logits` validation, which those bytes
    passed; they are compared in place, with no copy, at any n. So the
    orders at one point share one softmax, one diagonal, one row map, one
    secular solve and one iteration per pair (at lam = 1 the inf witness
    reads the same row map too). The entry is a function of its key
    alone: each bracket is a function of (point, lam, p), the same bits
    whichever order and form came first, and a warm pass over many points
    gets no more hits than a cold one. The p = 2 ratio takes its two
    norms from one `row_norms` call (`opnorm._ratio`); the bits are those
    of each part computing its own.
    """
    order = NormOrder.of(p)
    lam = Temperature.of(t).lam
    held, estimate = _bracket_at(_point(x, lam), order)
    _held_pair.put(held)
    return estimate


def _bracket_at(held: _HeldPoint, order: NormOrder) -> tuple[_HeldPoint, NormEstimate]:
    """`local_lipschitz` at the point `held` sets up: the bracket, and the
    entry with what it computed added."""
    probs, lam, diagonal = held.probs, held.lam, held.diagonal
    top = int(diagonal[0].argmax())  # the largest column sum
    one = lam * (2.0 * float(diagonal[0][top]))  # ||J||_1 = ||J||_inf: `closed_form_linf`
    if held.apply is None and not (order.is_one or (order.is_infinity and lam != 1.0)):
        # J's row map, held for the other orders; at lam = 1 the inf witness reads it
        held = held._replace(apply=_jacobian_times(probs, lam, diagonal))
    if order.is_one or order.is_infinity:
        wit = np.zeros(probs.size)
        wit[top] = 1.0
        if order.is_infinity:  # row i of J is J e_i; its signs realize the row sum
            unit = held.apply if lam == 1.0 else _jacobian_times(probs, 1.0, diagonal)
            wit = np.sign(unit(wit[None])[0])
        return held, NormEstimate(one, one, exact=True, method="2s(1-s) closed form", witness=wit)
    apply = held.apply
    if held.w is None:
        (w,) = _frozen(_secular_witness(probs, diagonal))
        held = held._replace(two=_ratio(apply(w[None]), w[None], 2.0), w=w)
    two, w = held.two, held.w
    if order.is_two:
        return held, NormEstimate(two, two, exact=True, method="secular equation", witness=w.copy())
    # the pair's one iteration runs at the order below 2
    r = order.p if order.p < 2.0 else order.p / (order.p - 1.0)
    if held.run is None or held.run[0] != r:
        # start from w and the attaining direction e_i1 - e_i2 on the two
        # largest entries of s (`rest` is s with s_i1 set to 0)
        _, i1, _, rest = diagonal
        attaining = np.zeros(probs.size)
        attaining[i1], attaining[int(rest.argmax())] = 1.0, -1.0
        lower, v = _boyd_lower(apply, apply, NormOrder(r), np.stack((w, attaining)))
        held = held._replace(run=(r, lower, *_frozen(v, _dual_witness(apply, v, r))))
    _, lower, wit, dual = held.run
    if order.p > 2.0:  # ||J||_p = ||J||_r; the dual witness is measured at p
        lower, wit = _ratio(apply(dual[None]), dual[None], order), dual
    # a ratio rounded above lam/2 (by an ulp at s = (1/2, 1/2)) is lam/2
    return held, _bracket(
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
