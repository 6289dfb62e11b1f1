"""Numerically stable softmax primitives and the exact softmax Jacobian.

Everything here is pure and operates on immutable values: inputs are
validated once at construction and all arrays are frozen (write-protected)
copies, so values can be shared freely across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

#: Per-entry tolerance on |sum(probs) - 1|; accumulation error scales with n.
TOL_SIMPLEX_PER_ENTRY = 1e-12

#: Smallest positive normal float64; underflowed softmax entries are clamped
#: here so outputs stay strictly inside the simplex.
_TINY = float(np.finfo(np.float64).tiny)


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
        arr = _frozen_vector(self.probs, "probs")
        n = arr.size
        if n < 1:
            raise ValueError("probability vector must be non-empty")
        if arr.min() <= 0.0:
            raise ValueError("probability vector must be strictly positive (interior point)")
        if arr.max() > 1.0:
            raise ValueError("probability entries must not exceed 1")
        drift = abs(float(arr.sum()) - 1.0)
        if drift > TOL_SIMPLEX_PER_ENTRY * n:
            raise ValueError(f"probabilities sum to 1 +/- {drift:.3e}, beyond tolerance")
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

    Symmetric and positive semidefinite with zero row sums; construct it
    via `jacobian`, which guarantees the entrywise formula.
    """

    matrix: np.ndarray
    lam: float
    source: SimplexPoint

    @property
    def n(self) -> int:
        return self.source.n


def _softmax_kernel(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax along the last axis of pre-scaled logits, unvalidated.

    Takes one vector or a C-contiguous stack of rows, and returns the
    softmax and a clamp flag per row (0-d for a vector). Rows may have any
    length >= 1 (the game solver softmaxes length-1 payoff rows for
    degenerate 1-strategy games). Entries that round to exact 0 are clamped
    to the smallest positive normal and only those rows are renormalized,
    keeping the result strictly positive; each row gets the same bits as
    the vector on its own.
    """
    s = np.exp(z - z.max(-1, keepdims=True))
    s /= s.sum(-1, keepdims=True)
    zero = s == 0.0
    if not zero.any():
        return s, zero[..., 0]  # all False: one flag per row, no new array
    clamped = zero.any(-1)
    s[zero] = _TINY
    return np.where(clamped[..., None], s / s.sum(-1, keepdims=True), s), clamped


def _scaled_logits(v: np.ndarray, lam: float) -> np.ndarray:
    """lam * v along the last axis, for `_softmax_kernel`.

    A row whose product overflows is scaled after shifting by its max,
    lam * (v - max v); the kernel's own shift then leaves it unchanged, so
    finite logits never become inf - inf. Rows whose product is finite keep
    the bits of lam * v.
    """
    with np.errstate(over="ignore"):
        z = lam * v
        if np.isfinite(z).all():
            return z
        overflowed = ~np.isfinite(z).all(-1)
        rows = v[overflowed]
        z[overflowed] = lam * (rows - rows.max(-1, keepdims=True))
    return z


def log_sum_exp(x, t: Union[Temperature, float] = 1.0) -> float:
    """Temperature-scaled log-sum-exp: (1/lam) * log(sum_i exp(lam * x_i)).

    Computed with max-subtraction, so arbitrarily large logits cannot
    overflow and adding a constant to every logit shifts the result by
    exactly that constant (up to the final addition's rounding).
    """
    lam = Temperature.of(t).lam
    v = Logits.of(x).values
    m = float(v.max())
    return m + float(np.log(np.exp(lam * (v - m)).sum())) / lam


def softmax(x, t: Union[Temperature, float] = 1.0) -> SimplexPoint:
    """Softmax of the logits at inverse temperature lam.

    s_i = exp(lam * (x_i - max x)) / sum_j exp(lam * (x_j - max x)); the
    shift makes the computation overflow-safe and algorithmically invariant
    under adding a constant to every logit. The logits are scaled before
    the shift unless lam * x overflows (see `_scaled_logits`). Output
    entries that underflow to 0 are clamped (see SimplexPoint.clamped).
    """
    lam = Temperature.of(t).lam
    v = Logits.of(x).values
    s, clamped = _softmax_kernel(_scaled_logits(v, lam))
    return SimplexPoint(s, clamped=bool(clamped))


def jacobian(s, t: Union[Temperature, float] = 1.0) -> SoftmaxJacobian:
    """Exact softmax Jacobian lam * (Diag(s) - s s^T) at the point s.

    Diagonal entries are lam * s_i * (1 - s_i) and off-diagonal entries
    -lam * s_i * s_j; the matrix is exactly symmetric in floating point.
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
    if isinstance(s, SimplexPoint):
        p = s.probs
    else:
        p = boundary_point(s)
    return np.diag(p) - np.outer(p, p)
