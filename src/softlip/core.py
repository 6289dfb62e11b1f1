"""Numerically stable softmax primitives and the exact softmax Jacobian.

Everything here is pure and operates on immutable values: inputs are
validated once at construction and all arrays are frozen (write-protected)
copies, so values can be shared freely across threads or processes.

Every form of the Jacobian lam * (Diag(s) - s s^T) takes its diagonal from
`_jacobian_diagonal`. Without the n x n matrix, `_jacobian_times` applies it
to a block of rows in O(n) per row and `_secular_witness` finds its top
eigenvector in O(n) from the secular equation of the rank-one update.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

#: Per-entry tolerance on |sum(probs) - 1|; accumulation error scales with n.
TOL_SIMPLEX_PER_ENTRY = 1e-12

#: Smallest positive normal float64; underflowed softmax entries are clamped
#: here so outputs stay strictly inside the simplex.
_TINY = float(np.finfo(np.float64).tiny)


def _count(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int of at least `minimum`. A count must pass
    `operator.index`, so numpy integers do and 2.5 or 2.0 do not; the error
    names the field."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {count}")
    return count


def _frozen_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Temperature:
    """Inverse temperature of the softmax; larger values sharpen the output."""

    lam: float

    def __post_init__(self):
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"inverse temperature must be positive and finite, got {self.lam}")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def of(cls, t: Union["Temperature", float, int]) -> "Temperature":
        return t if isinstance(t, Temperature) else cls(float(t))


@dataclass(frozen=True)
class Logits:
    """A finite real input vector of length >= 2.

    Length-1 inputs are rejected: the softmax of a single logit is the
    constant 1 and its Jacobian is identically zero, so every Lipschitz
    question below is degenerate there.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_vector(self.values, "logits")
        if arr.size < 2:
            raise ValueError(f"logits need at least 2 entries, got {arr.size}")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @classmethod
    def of(cls, x) -> "Logits":
        return x if isinstance(x, Logits) else cls(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class SimplexPoint:
    """A strictly positive probability vector.

    Entries must be in (0, 1] (the value 1.0 is reachable only through
    rounding of 1 - tiny) and sum to 1 within TOL_SIMPLEX_PER_ENTRY * n.
    `clamped` records whether an underflow clamp fired while producing
    this point; it is metadata and does not affect equality of `probs`.
    """

    probs: np.ndarray
    clamped: bool = field(default=False, compare=False)

    def __post_init__(self):
        arr = boundary_point(self.probs)
        if arr.min() <= 0.0:
            raise ValueError("probability vector must be strictly positive (interior point)")
        if arr.max() > 1.0:
            raise ValueError("probability entries must not exceed 1")
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.size

    @classmethod
    def of(cls, s) -> "SimplexPoint":
        return s if isinstance(s, SimplexPoint) else cls(np.asarray(s, dtype=np.float64))


def boundary_point(probs) -> np.ndarray:
    """Validate a point of the closed simplex (zero entries allowed).

    Witness constructions need boundary points like (1/2, 1/2, 0, ..., 0),
    which SimplexPoint rejects by design. Returns a frozen array.
    """
    arr = _frozen_vector(probs, "probs")
    if arr.size < 1:
        raise ValueError("probability vector must be non-empty")
    if arr.min() < 0.0:
        raise ValueError("probability vector must be nonnegative")
    drift = abs(float(arr.sum()) - 1.0)
    if drift > TOL_SIMPLEX_PER_ENTRY * arr.size:
        raise ValueError(f"probabilities sum to 1 +/- {drift:.3e}, beyond tolerance")
    return arr


@dataclass(frozen=True)
class SoftmaxJacobian:
    """The softmax Jacobian lam * (Diag(s) - s s^T) at a simplex point.

    Symmetric and positive semidefinite with zero row sums, also where s_i
    rounds to 1; construct it via `jacobian` (the entrywise formula).
    """

    matrix: np.ndarray
    lam: float
    source: SimplexPoint

    @property
    def n(self) -> int:
        return self.source.n


#: Below this, lam^2 sum v_i^2 bounds every |lam v_i| by 2^510, so neither
#: the product nor a row's span can overflow.
_SAFE_SQUARES = 2.0**1020

#: `_row_max` reduces a block of at least this many rows, each at most this
#: long, across a transposed copy.
_NARROW = 32


def _row_max(a: np.ndarray, initial=None) -> np.ndarray:
    """The maximum of each row of a 2-D array (NaN where a row holds one),
    starting from `initial` when one is given.

    The row maximum of the softmax stacks, `opnorm.row_norms` and the
    power iteration. numpy's reduce along rows pays a fixed cost for each
    row, whatever its length, so a block of many narrow rows (`_NARROW` or
    more rows of at most `_NARROW` entries) is copied transposed and
    reduced across its rows, where the inner loop runs down the whole
    block; every other block takes the plain per-row reduce. A maximum is
    exact in any order, so both give the same values; only a row whose
    maximum ties +0.0 with -0.0 may get either zero.
    """
    rows, n = a.shape
    if n <= _NARROW <= rows:
        return np.maximum.reduce(np.ascontiguousarray(a.T), axis=0, initial=initial)
    return np.maximum.reduce(a, axis=1, initial=initial)


def _softmax_kernel(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax along the last axis of pre-scaled logits, unvalidated.

    Takes one vector or a C-contiguous stack of rows, and returns the
    softmax and a clamp flag per row (a numpy bool for a vector). Rows may
    have any length >= 1 (the game solver softmaxes length-1 payoff rows
    for degenerate 1-strategy games). Entries that round to exact 0 are
    clamped to the smallest positive normal and only those rows are
    renormalized, keeping the result strictly positive; each row gets the
    same bits as the vector on its own.

    A vector is overwritten with its softmax and returned: the shift, the
    exponential and the normalization run in place, and its max, sum and
    minimum are scalar reductions. That is the game solver's step, whose
    logits live in a buffer it owns, and `_softmax_rows`, whose scaled
    logits are a fresh array. A stack is only read: the shift z - max z is
    the one array the kernel allocates, and it is exponentiated and
    normalized in place. A stack takes its row maxima from `_row_max`,
    exact in any layout; a maximum that ties +0.0 with -0.0 may be either
    zero, and z minus either gives the same exponentials. The row sums are
    the ufunc reduce behind `ndarray.sum` along C-contiguous rows, with its
    bits. One minimum over all entries skips the clamp mask when no entry
    is 0; a NaN minimum falls through to it and, as before, flags nothing.
    """
    if z.ndim == 1:
        z -= np.maximum.reduce(z)
        np.exp(z, out=z)
        z /= np.add.reduce(z)
        if np.minimum.reduce(z) > 0.0:
            return z, np.False_
        zero = z == 0.0
        clamped = zero.any()
        if clamped:
            z[zero] = _TINY
            z /= np.add.reduce(z)
        return z, clamped
    s = np.subtract(z, _row_max(z)[:, None])
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    if np.minimum.reduce(s, axis=None) > 0.0:
        return s, np.zeros(s.shape[:-1], dtype=bool)
    zero = s == 0.0
    clamped = zero.any(-1)
    s[zero] = _TINY
    return np.where(clamped[..., None], s / s.sum(-1, keepdims=True), s), clamped


def _scaled_logits(v: np.ndarray, lam: float) -> np.ndarray:
    """lam * v along the last axis, for `_softmax_kernel`.

    When lam^2 sum v_i^2 is below _SAFE_SQUARES (one dot product, the
    common case), every |lam v_i| is below 2^510 and nothing can overflow.
    Otherwise a row whose product overflows is scaled after shifting by its
    max, lam * (v - max v), and a finite row that spans more than the float
    range is shifted here, z - max z, so the entries that overflow to -inf
    (and give exp 0) raise no warning. The kernel's own shift then leaves
    both unchanged, so finite logits never become inf - inf. Every other
    row keeps the bits of lam * v, and the softmax keeps its bits everywhere.
    """
    lam = float(lam)
    if float(np.vdot(v, v)) * lam * lam < _SAFE_SQUARES:
        return lam * v
    with np.errstate(over="ignore", invalid="ignore"):
        z = lam * v
        top = z.max(-1, keepdims=True)
        wide = ~np.isfinite(top - z.min(-1, keepdims=True))[..., 0]
        overflowed = ~np.isfinite(z).all(-1)
        rows = v[overflowed]
        z[overflowed] = lam * (rows - rows.max(-1, keepdims=True))
        shifted = wide & ~overflowed
        z[shifted] -= top[shifted]
    return z


def _softmax_rows(v: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax at inverse temperature lam along the last axis, unvalidated,
    and the clamp flag of each row (0-d for a vector); each row has the
    bits and the flag of `softmax` of that row."""
    return _softmax_kernel(_scaled_logits(v, lam))


def log_sum_exp(x, t: Union[Temperature, float] = 1.0) -> float:
    """Temperature-scaled log-sum-exp: (1/lam) * log(sum_i exp(lam * x_i)).

    Computed with max-subtraction, so arbitrarily large logits cannot
    overflow and adding a constant to every logit shifts the result by
    exactly that constant (up to the final addition's rounding).
    """
    lam = Temperature.of(t).lam
    v = Logits.of(x).values
    m = float(v.max())
    with np.errstate(over="ignore"):  # a shift beyond the float range is -inf: exp gives 0
        shifted = lam * (v - m)
    return m + float(np.log(np.exp(shifted).sum())) / lam


def softmax(x, t: Union[Temperature, float] = 1.0) -> SimplexPoint:
    """Softmax of the logits at inverse temperature lam.

    s_i = exp(lam * (x_i - max x)) / sum_j exp(lam * (x_j - max x)); the
    shift makes the computation overflow-safe and algorithmically invariant
    under adding a constant to every logit. The logits are scaled before
    the shift unless lam * x overflows (see `_scaled_logits`). Output
    entries that underflow to 0 are clamped (see SimplexPoint.clamped).

    The point is built from the kernel's guarantees, with no second
    `boundary_point` pass: `_softmax_rows` of validated logits returns a
    fresh array, no view of the caller's, whose entries are finite,
    strictly positive (a clamped entry is the smallest normal over a sum
    near 1) and at most 1 (exp of at most 0 over a sum of at least 1), and
    whose sum is 1 to within n roundings, far inside TOL_SIMPLEX_PER_ENTRY
    * n. It is frozen here. `SimplexPoint(...)` itself still validates.
    """
    s, clamped = _softmax_rows(Logits.of(x).values, Temperature.of(t).lam)
    s.flags.writeable = False
    point = object.__new__(SimplexPoint)
    object.__setattr__(point, "probs", s)
    object.__setattr__(point, "clamped", bool(clamped))
    return point


def jacobian(s, t: Union[Temperature, float] = 1.0) -> SoftmaxJacobian:
    """Exact softmax Jacobian lam * (Diag(s) - s s^T) at the point s.

    Diagonal entries are lam * s_i * (1 - s_i) (`_jacobian_diagonal`) and
    off-diagonal ones -lam * s_i * s_j: exactly symmetric in floating point.
    """
    point = SimplexPoint.of(s)
    lam = Temperature.of(t).lam
    mat = lam * m_of_s(point.probs)
    mat.flags.writeable = False
    return SoftmaxJacobian(matrix=mat, lam=lam, source=point)


def m_of_s(s) -> np.ndarray:
    """Diag(s) - s s^T for a probability vector s (interior or boundary).

    This is the unit-temperature Jacobian core; boundary points such as
    one-hot vectors (which give the zero matrix) are accepted so witness
    constructions can evaluate it on the closed simplex.
    """
    p = s.probs if isinstance(s, SimplexPoint) else boundary_point(s)
    mat = np.outer(-p, p)
    np.fill_diagonal(mat, _jacobian_diagonal(p)[0])
    return mat


def _jacobian_diagonal(probs: np.ndarray) -> tuple[np.ndarray, int, float, np.ndarray]:
    """(d, i, c, r): the diagonal d_j = s_j (1 - s_j) of Diag(s) - s s^T,
    the index i of the top entry, its c = 1 - s_i, and r = s with r_i = 0.

    The one rule for the diagonal. 1 - s_j is exact from 1/2 up (Sterbenz)
    but keeps s_j's own rounding, all of 1 - s_j once s_j nears 1, so a top
    entry above 1/2 takes c = sum(r): relative accuracy, zero row sums. At
    s_i = 1/2 (the attaining point) the direct form gives exactly 1/4.
    """
    i = int(probs.argmax())
    rest = probs.copy()
    rest[i] = 0.0
    comp = 1.0 - probs
    if probs[i] > 0.5:
        comp[i] = rest.sum()
    return probs * comp, i, float(comp[i]), rest


def _jacobian_times(
    probs: np.ndarray, lam: float = 1.0, diagonal: Optional[tuple] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """The row map W -> W J of J = lam (Diag(s) - s s^T), in O(n) per row.

    J is symmetric, so each row w goes to J w, whose entry j is
    lam s_j (w_j - s.w). At the top entry i that cancels when s_i is near 1,
    so there it is lam s_i (w_i c - r.w), with c = 1 - s_i and r from
    `_jacobian_diagonal`, or from `diagonal` when the caller has already
    taken it; both sums come from one product with [s, r].
    """
    _, i, comp, rest = diagonal or _jacobian_diagonal(probs)
    sums = np.stack([probs, rest], axis=1)
    scaled, scaled_top = lam * probs, lam * float(probs[i])

    def times(W: np.ndarray) -> np.ndarray:
        dots = W @ sums
        out = scaled * (W - dots[:, :1])
        out[:, i] = scaled_top * (W[:, i] * comp - dots[:, 1])
        return out

    return times


def _float_bits(x: float) -> int:
    # For floats >= 0 the bit patterns, read as integers, keep their order.
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _secular_witness(probs: np.ndarray, diagonal: Optional[tuple] = None) -> np.ndarray:
    """Unit top eigenvector of Diag(s) - s s^T, in O(n) time and memory,
    signed so that its first nonzero entry is positive. `diagonal` is
    `_jacobian_diagonal(probs)` when the caller has already taken it.

    When the largest entry is tied (s_i1 == s_i2), (e_i1 - e_i2) / sqrt(2)
    is an exact eigenvector for mu = s_(1). Otherwise mu is the unique root
    in (s_(2), s_(1)) of the secular equation of the rank-one update
    (Golub 1973, Some modified matrix eigenvalue problems)

        f(mu) = 1 - sum_i s_i^2 / (s_i - mu) = 0,

    decreasing between the two poles, and w_i = s_i / (s_i - mu). The root
    is searched in t = |mu - o|, its offset from the pole o in {s_(2),
    s_(1)} on its side of the midpoint, so s_i - mu = (s_i - o) -+ t keeps
    its relative accuracy. The search keeps a bracket (lo, hi] of float bit
    patterns of t and ends when they are adjacent floats. Inside it, it
    takes regula falsi steps on h(t) = t f(mu) / o (sign-adjusted), which
    removes the pole at t = 0: that is the rational model c / t + d of f
    with its pole at the origin, and h(0) is the pole's residue over o. An
    Illinois halving keeps both ends moving. A step bisects the bit
    patterns instead when the last two steps did not halve the bracket, so
    every three steps at least halve it: at most 3 x 63 steps, against 63
    for bisection alone and about 8 to 17 in practice. The last bracket is
    the one bisection ends on wherever the sign of f is monotone in t.
    Saturated rows stay accurate: the i1 term is (d_i1 - mu) / (s_i1 - mu)
    with d_i1 from `_jacobian_diagonal`, which does not cancel when s_i1
    is near 1; s_i^2 is never formed, since it underflows for s_i below
    1e-154; and w is scaled by t <= |s_i - mu|, so no entry overflows.
    """
    n = probs.size
    i2, i1 = np.argpartition(probs, n - 2)[n - 2:]
    s1, s2 = float(probs[i1]), float(probs[i2])
    if s1 == s2:
        wit = np.zeros(n)
        wit[min(i1, i2)], wit[max(i1, i2)] = math.sqrt(0.5), -math.sqrt(0.5)
        return wit
    # its top index is i1, as s1 > s2
    entries, _, _, rest = diagonal or _jacobian_diagonal(probs)
    diag = float(entries[i1])  # entry (i1, i1) of Diag(s) - s s^T
    buf = np.empty(n)

    def secular(shifted: np.ndarray, origin: float, d: float) -> float:
        # f(origin + d), with shifted = probs - origin
        np.subtract(shifted, d, out=buf)
        np.divide(rest, buf, out=buf)
        return (diag - origin - d) / (s1 - origin - d) - float(rest @ buf)

    half = 0.5 * (s1 - s2)
    shifted = probs - s2
    f_half = secular(shifted, s2, half)
    if f_half > 0.0:  # the root lies above the midpoint
        origin, sign = s1, -1.0
        shifted = probs - s1
        h_lo = s1  # residue s_(1)^2 of the pole, over the scale s_(1)
    else:
        origin, sign = s2, 1.0
        h_lo = float(np.count_nonzero(probs == s2)) * s2
    # h(t) = t / origin * sign * f(origin + sign t): positive below the root
    h_hi = half / origin * (sign * f_half)
    lo, hi = 0, _float_bits(half)  # t lies in (lo, hi]
    widths = (2 * hi, 2 * hi)  # bracket widths before the last two steps
    held = 0  # +1 / -1 when lo / hi moved on the last step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 2 * (hi - lo) <= widths[0] and h_lo >= 0.0 >= h_hi and h_lo > h_hi:
            t_lo, t_hi = _bits_float(lo), _bits_float(hi)
            t = t_lo + (t_hi - t_lo) * (h_lo / (h_lo - h_hi))
            if t_lo <= t <= t_hi:
                mid = min(max(_float_bits(t), lo + 1), hi - 1)
        widths = (widths[1], hi - lo)
        t = _bits_float(mid)
        f = secular(shifted, origin, sign * t)
        h = t / origin * (sign * f)
        if (f > 0.0) == (sign > 0.0):  # the root lies beyond t
            lo, h_lo = mid, h
            if held == 1:
                h_hi *= 0.5
            held = 1
        else:
            hi, h_hi = mid, h
            if held == -1:
                h_lo *= 0.5
            held = -1
    dist = _bits_float(lo or hi)
    wit = probs * (dist / (shifted - sign * dist))
    wit /= np.abs(wit).max()
    wit /= np.sqrt(np.vecdot(wit, wit))  # `row_norms` at p = 2: no entry exceeds 1
    return wit if wit[np.flatnonzero(wit)[0]] > 0.0 else -wit
