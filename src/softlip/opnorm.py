"""Induced matrix p-norms.

Exact closed forms exist for p in {1, 2, inf} (max column sum, largest
singular value, max row sum). For general p the norm is intractable to
compute exactly, so every operator gets one certified bracket
(`_power_bracket`): the lower end is a realized ratio ||A v||_p / ||v||_p
for a stored witness v found by nonlinear power iteration, and the upper
end is the smaller of the interpolation bound ||A||_1^(1/p) *
||A||_inf^(1-1/p) and the Riesz-Thorin bound from ||A||_1, ||A||_2 and
||A||_inf, rounded outward (`_outward_upper`); ends that agree to
relative 1e-9 are marked exact and the upper end stays outward. The
power iteration (`_boyd_lower`) sees A only through its row maps
V -> V A^T and U -> U A, so an operator with a cheap product (the softmax
Jacobian, say) never needs its dense matrix. It starts from the rows
its caller gives, each scaled by its p-norm, and stops when two sweeps in
a row raise the best ratio by no more than 1e-13 of itself, whatever the
operator's scale. Where its best row's ratio gains fall geometrically,
it extrapolates that row along its last step to the limit of the
sequence (Aitken) and sweeps the result like any other row, so the
geometric tail of the iteration is skipped and every lower end is still
a ratio its stored witness realizes. A dense matrix starts from fixed
restart rows, kept read-only for the last 4 sizes n (`_restart_block`,
64 n bytes each). `_bracket` builds the same bracket from a lower end
found elsewhere: `lipschitz.local_lipschitz`, whose Jacobian is
symmetric (||J||_p = ||J||_q for 1/p + 1/q = 1), runs one iteration per
conjugate pair at the order r below 2 from the point's own two
witnesses (its top eigenvector and e_i1 - e_i2), takes the run's dual
vector psi_r(J v) (`_dual_witness`) as the witness at p > 2, and holds
the last point's setup, secular solve and pair in a one-point memo. The dense
2-norm forms one Gram matrix (`_gram`), of A scaled by the power of
two that brings its largest entry into [1/2, 1).
`_upper_norms` is the one policy for certified upper ends of ||A||_p and
||A^T||_p of a dense matrix without power iteration, which the game
solver's contraction diagnostics read. It takes the norms it needs from a
`_MatrixNorms`, which computes each at most once per matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from softlip.core import _row_max

#: Orders beyond this are indistinguishable from infinity in float64.
P_COERCE_TO_INF = 1e6

#: Spellings of p = infinity that NormOrder.of accepts.
INFINITY_NAMES = ("inf", "infinity", "oo")

#: The one number syntax of text input: decimal or scientific notation,
#: no nan, inf or underscores.
_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

#: Smallest positive normal float64.
_TINY = float(np.finfo(np.float64).tiny)

#: Largest finite float64.
_FLOAT_MAX = float(np.finfo(np.float64).max)

_BOYD_RESTARTS = 8
_BOYD_MAX_ITER = 500
_BOYD_STALL_TOL = 1e-13

# `_boyd_lower` extrapolates its best row along its last step only where
# that row's ratio gains form a geometric sequence, which these bound:
#: the three gains that give two rates come from iterates after the last
#: extrapolation, whose jump breaks the sequence: four sweeps;
_EXTRAPOLATE_SPAN = 4
#: the two rates agree within this fraction, so the linear model that
#: predicts the tail holds over the last three steps;
_EXTRAPOLATE_AGREE = 0.1
#: the ratio rate is below 0.81, the vector rate below 0.9: the step
#: factor rho / (1 - rho) stays below 9, and an error in rho, amplified by
#: 1 / (1 - rho)^2, stays below a hundred times its size;
_EXTRAPOLATE_RATE = 0.81
#: the last gain exceeds this fraction of the ratio: below it the tail is
#: within 1e-8 of the ratio and a few plain sweeps end it, while the step
#: v_new - v nears the rounding of the iterates, which an extrapolation
#: would amplify into the witness; so the last sweeps are plain ones.
_EXTRAPOLATE_FLOOR = 1e-9

#: Relative outward rounding of upper ends built from computed norms
#: (`_outward_upper`). A two-norm from an eigenvalue solve fell up to
#: 2.6e-15 below the ratio its eigenvector realizes (matrices up to
#: 512 x 512), and on constant and rank-one matrices, where the bounds are
#: tight, the unrounded bound fell below a realized ratio.
_UPPER_SLACK = 2.0**-40


class OpNormError(RuntimeError):
    """Raised when an exact norm computation fails; carries the best bracket."""

    def __init__(self, message: str, bracket: "NormEstimate"):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class NormOrder:
    """A vector/operator norm order p in [1, inf].

    p = 1, 2, inf are the canonical exact cases; any other finite p > 1 is
    "general" and induced norms for it are bracketed rather than computed.
    Orders above P_COERCE_TO_INF are coerced to infinity with a warning,
    since p-th powers degenerate in floating point there.
    """

    p: float

    def __post_init__(self):
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"norm order must satisfy p >= 1, got {self.p}")
        if p > P_COERCE_TO_INF and not math.isinf(p):
            warnings.warn(
                f"norm order p={p:g} exceeds {P_COERCE_TO_INF:g}; treating as infinity",
                stacklevel=3,  # the caller of the generated __init__
            )
            p = math.inf
        object.__setattr__(self, "p", p)

    @classmethod
    def two(cls) -> "NormOrder":
        return cls(2.0)

    @classmethod
    def infinity(cls) -> "NormOrder":
        return cls(math.inf)

    @classmethod
    def of(cls, value: Union["NormOrder", float, int, str]) -> "NormOrder":
        if isinstance(value, NormOrder):
            return value
        if isinstance(value, str):
            text = value.strip().lower()
            if text in INFINITY_NAMES:
                return cls.infinity()
            if not _FLOAT_RE.fullmatch(text):
                raise ValueError(f"cannot parse {text!r} as a number")
            return cls(float(text))
        return cls(float(value))

    @property
    def is_one(self) -> bool:
        return self.p == 1.0

    @property
    def is_two(self) -> bool:
        return self.p == 2.0

    @property
    def is_infinity(self) -> bool:
        return math.isinf(self.p)

    @property
    def kind(self) -> str:
        if self.is_one:
            return "one"
        if self.is_two:
            return "two"
        if self.is_infinity:
            return "infinity"
        return "general"

    @property
    def label(self) -> str:
        """Short string form: '1', '2', 'inf', or the decimal value."""
        if self.is_infinity:
            return "inf"
        if self.p == int(self.p):
            return str(int(self.p))
        return repr(self.p)


@dataclass(frozen=True)
class NormEstimate:
    """A certified bracket [lower, upper] for an induced p-norm.

    `lower` is always realized by some vector (stored in `witness` when the
    bound came from power iteration); `exact` means the two ends agree to
    relative 1e-9 and the value can be treated as a point.
    """

    lower: float
    upper: float
    exact: bool
    method: str
    witness: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")


def _as_matrix(A) -> np.ndarray:
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


#: At or above this sum of squares, the squares that underflowed (each
#: under 2^-1022) move a row's sum by less than n * 2^-107 relative, far
#: below one rounding; rows under it are rescaled before squaring.
_SQUARES_MIN = 2.0**-968


def _rescaled_two_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of every row, each row scaled by the exact power of two
    that brings its largest magnitude into [1/2, 1) before squaring, so
    neither overflow nor underflow loses it."""
    _, expo = np.frexp(_row_max(np.abs(a)))
    scaled = np.ldexp(a, -expo[:, None])
    with np.errstate(over="ignore"):  # a norm beyond the float max is inf
        return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), expo)


def row_norms(rows: np.ndarray, p: Union[NormOrder, float, str]) -> np.ndarray:
    """The lp norm of every row of a 2-D float64 array, unvalidated.

    Rows are summed in C order, so each row's norm has the same bits as
    that row on its own (a Fortran-ordered sum adds sequentially instead
    of pairwise); row maxima come from `core._row_max`, exact in any
    layout. p = 2 takes the BLAS dot product per row and rescales only the
    rows whose sum of squares overflowed or fell below _SQUARES_MIN
    (`_rescaled_two_norms`); every other row keeps the plain dot product's
    bits. General p factors out the row's max entry m before powering, so
    huge orders (up to the coercion threshold) neither overflow nor
    underflow, and takes m * s ** (1/p) in Python floats, one map over all
    rows: libm's `pow` per row, which numpy's vectorized power does not
    reproduce to the last bit. At every p a row holding inf, or whose norm
    is beyond the float max, has norm inf, and a row holding NaN has norm
    NaN, with no warning.
    """
    order = NormOrder.of(p)
    a = np.ascontiguousarray(rows, dtype=np.float64)
    if order.is_two:  # the squares need no abs
        with np.errstate(over="ignore"):  # overflowed rows are rescaled below
            squares = np.vecdot(a, a)
        out = np.sqrt(squares)
        extreme = (squares < _SQUARES_MIN) | (squares == math.inf)
        if extreme.any():
            out[extreme] = _rescaled_two_norms(a[extreme])
        return out
    if order.is_one:
        return _abs_sums(a, 1)
    a = np.abs(a)
    if order.is_infinity:
        return _row_max(a)
    # the row max, clamped into [5e-324, float max] so that an all-zero row
    # sums to 0 and a row holding inf to inf, with no 0/0 or inf/inf
    m = np.minimum(_row_max(a, initial=5e-324), _FLOAT_MAX)
    a /= m[:, None]
    sums = np.add.reduce(a**order.p, axis=1)
    # m * s ** (1/p) in Python floats, whose product overflows to inf with
    # no warning, mapped over the rows in C
    roots = map(pow, sums.tolist(), itertools.repeat(1.0 / order.p))
    return np.fromiter(map(operator.mul, m.tolist(), roots), np.float64, len(m))


def _ratio(image: np.ndarray, w: np.ndarray, p: Union[NormOrder, float, str]) -> float:
    """||A w||_p / ||w||_p from the rows `image` = A w and `w` (each of shape
    (1, length)), each norm with the bits `row_norms` gives its row alone:
    one call on the two rows stacked when they have one length."""
    if image.shape == w.shape:
        num, den = row_norms(np.concatenate((image, w)), p)
    else:
        (num,), (den,) = row_norms(image, p), row_norms(w, p)
    return float(num / den)


def vector_norm(v, p: Union[NormOrder, float, str]) -> float:
    """The lp norm of a vector, stable for any order in [1, inf]: the one-row
    case of `row_norms`."""
    order = NormOrder.of(p)
    arr = np.asarray(v, dtype=np.float64).reshape(1, -1)
    if arr.size == 0:
        return 0.0
    return float(row_norms(arr, order)[0])


def _abs_sums(arr: np.ndarray, axis: int) -> np.ndarray:
    """The absolute column (axis 0) or row (axis 1) sums; a sum above the
    float max rounds to inf without a warning."""
    with np.errstate(over="ignore"):
        return np.abs(arr).sum(axis=axis)


def _one_inf(arr: np.ndarray) -> tuple[float, float]:
    """(||A||_1, ||A||_inf) of a validated matrix: its largest absolute
    column and row sums."""
    return float(_abs_sums(arr, 0).max()), float(_abs_sums(arr, 1).max())


def opnorm_one(A) -> float:
    """||A||_1: the maximum absolute column sum. Exact."""
    return float(_abs_sums(_as_matrix(A), 0).max())


def opnorm_inf(A) -> float:
    """||A||_inf: the maximum absolute row sum. Exact."""
    return float(_abs_sums(_as_matrix(A), 1).max())


def _two_norm_fallback_bracket(arr: np.ndarray) -> NormEstimate:
    # Certified lower: best column two-norm, i.e. the ratio at a basis vector.
    lower = float(row_norms(arr.T, 2).max())
    fro = float(row_norms(arr.reshape(1, -1), 2)[0])
    one, inf = _one_inf(arr)
    upper = min(fro, math.sqrt(one) * math.sqrt(inf))
    return NormEstimate(lower, max(upper, lower), exact=False, method="two-norm fallback bracket")


def _gram(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(B, G, e) with B = A 2^-e and G = B^T B or B B^T, whichever is smaller.

    The exact power of two 2^e brings max|b_ij| into [1/2, 1) (e = 0 for
    A = 0), so G neither overflows nor underflows, and ||A||_2 = 2^e ||B||_2.
    """
    m, n = arr.shape
    expo = math.frexp(float(np.abs(arr).max()))[1]
    arr = np.ldexp(arr, -expo)
    return arr, arr.T @ arr if n <= m else arr @ arr.T, expo


def _unscaled(norm: float, expo: int) -> float:
    """||A||_2 = 2^e ||B||_2 from `_gram`'s B; OverflowError if not a float."""
    try:
        return math.ldexp(norm, expo)
    except OverflowError:
        raise OverflowError(f"||A||_2 = {norm!r} * 2^{expo} exceeds the float range") from None


def opnorm_two(A) -> float:
    """||A||_2: the largest singular value, via the smaller Gram matrix.

    The largest eigenvalue (`eigvalsh`, no eigenvector) of A^T A or A A^T,
    whichever is smaller, of A scaled by a power of two (`_gram`), at any
    size. A failed eigensolve raises OpNormError carrying the certified
    fallback bracket; a norm beyond the float max raises OverflowError.
    """
    return _two_norm(_as_matrix(A))


def _eigensolve(solve, gram: np.ndarray, arr: np.ndarray):
    """solve(gram) for `_gram`'s matrix of arr; a failed eigensolve raises
    OpNormError carrying arr's fallback bracket."""
    try:
        return solve(gram)
    except np.linalg.LinAlgError as exc:
        raise OpNormError(
            f"symmetric eigensolve failed: {exc}", _two_norm_fallback_bracket(arr)
        ) from exc


def _two_norm(arr: np.ndarray) -> float:
    """`opnorm_two` of a validated matrix."""
    _, gram, expo = _gram(arr)
    top = float(_eigensolve(np.linalg.eigvalsh, gram, arr)[-1])
    return _unscaled(math.sqrt(max(top, 0.0)), expo)


def _two_norm_upper(arr: np.ndarray) -> float:
    """`_two_norm`, the fallback bracket's upper end if the eigensolve fails,
    or inf beyond the float max: ||A||_2 for an upper end rounded outward."""
    try:
        return _two_norm(arr)
    except OpNormError as exc:
        return exc.bracket.upper
    except OverflowError:
        return math.inf


def _two_norm_witness(arr: np.ndarray) -> tuple[float, np.ndarray]:
    """||A||_2 and a unit vector w realizing it to machine precision; the
    value is the ratio ||A w||_2 / ||w||_2, taken on `_gram`'s rescaled B.
    The Gram matrix's top eigenvector is taken with its first nonzero entry
    positive. Fails as `_two_norm` does."""
    scaled, gram, expo = _gram(arr)
    vec = _eigensolve(np.linalg.eigh, gram, arr)[1][:, -1]
    if vec[np.flatnonzero(vec)[0]] < 0.0:
        vec = -vec
    wit = vec / vector_norm(vec, 2.0)
    n = arr.shape[1]
    if n > arr.shape[0]:
        wit = scaled.T @ wit
        norm = vector_norm(wit, 2.0)
        # A == 0: any direction realizes the norm
        wit = wit / norm if norm else np.eye(1, n)[0]
    return _unscaled(vector_norm(scaled @ wit, 2.0) / vector_norm(wit, 2.0), expo), wit


def interpolation_bound(A, p: Union[NormOrder, float, str]) -> float:
    """Upper bound ||A||_1^(1/p) * ||A||_inf^(1-1/p) on ||A||_p.

    With the conventions 1/inf = 0 and t^0 = 1 this reduces to the exact
    value at p = 1 and p = inf.
    """
    order = NormOrder.of(p)
    return _interpolate(*_one_inf(_as_matrix(A)), order)


def _interpolate(one: float, inf: float, order: NormOrder) -> float:
    """one^(1/p) * inf^(1-1/p), 0 for a zero matrix; exactly `one` at p = 1
    and `inf` at p = inf, since x^1 = x and x^0 = 1."""
    if one == 0.0 or inf == 0.0:
        return 0.0
    inv_p = 1.0 / order.p
    return one**inv_p * inf ** (1.0 - inv_p)


def riesz_thorin_bound(
    one: float, two: float, inf: float, p: Union[NormOrder, float, str]
) -> float:
    """Upper bound on ||A||_p from upper bounds on ||A||_1, ||A||_2, ||A||_inf.

    The Riesz-Thorin theorem makes log ||A||_{1/t} convex in t = 1/p, so
    the bound interpolates between p = 2 and the nearer end:
    one^(1-theta) two^theta with theta = 2(1 - 1/p) for p < 2, and
    inf^(1-theta) two^theta with theta = 2/p for p > 2. It returns `one`,
    `two` or `inf` itself at p = 1, 2 or inf. For a matrix whose 2-norm is
    small next to its row and column sums it is far below
    `interpolation_bound`, which uses the two ends alone. Each bound must
    be non-negative; inf is allowed. A zero bound means a zero matrix, so
    any zero bound gives 0.0, also beside an inf.
    """
    for name, bound in (("one", one), ("two", two), ("inf", inf)):
        if not bound >= 0.0:
            raise ValueError(f"{name} must be a non-negative norm bound, got {bound}")
    order = NormOrder.of(p)
    if 0.0 in (one, two, inf):
        return 0.0
    if order.is_two:
        return two
    if order.p < 2.0:
        theta = 2.0 * (1.0 - 1.0 / order.p)
        return one ** (1.0 - theta) * two**theta
    theta = 2.0 / order.p  # 0 at p = inf
    return inf ** (1.0 - theta) * two**theta


def _outward_upper(one: float, two: float, inf: float, order: NormOrder) -> tuple[float, str]:
    """A certified upper end of ||A||_p for a general order, and which bound
    gave it ("interpolation" or "Riesz-Thorin").

    `one`, `two` and `inf` are upper ends of ||A||_1, ||A||_2 and
    ||A||_inf, or the computed values themselves. The smaller of the
    interpolation and Riesz-Thorin bounds is raised by the relative
    _UPPER_SLACK. Since ||A||_2^2 <= ||A||_1 ||A||_inf, Riesz-Thorin is the
    smaller in exact arithmetic; the min keeps a rounded-up two-norm from
    ever giving more than the interpolation bound.
    """
    interpolated = _interpolate(one, inf, order)
    rt = riesz_thorin_bound(one, two, inf, order)
    outward = 1.0 + _UPPER_SLACK
    if rt < interpolated:
        return outward * rt, "Riesz-Thorin"
    return outward * interpolated, "interpolation"


class _MatrixNorms:
    """The norms `_upper_norms` reads from one validated matrix that is
    never written: `one_inf`, (||A||_1, ||A||_inf) from `_one_inf`, and
    `two`, the `_two_norm_upper` end of ||A||_2. Each is computed on first
    use and kept, so every order and every caller holding this object
    share one eigensolve."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    @functools.cached_property
    def one_inf(self) -> tuple[float, float]:
        return _one_inf(self.arr)

    @functools.cached_property
    def two(self) -> float:
        return _two_norm_upper(self.arr)


def _upper_norms(norms: _MatrixNorms, order: NormOrder) -> tuple[float, float]:
    """Certified upper ends of (||A||_p, ||A^T||_p) for the matrix of
    `norms`, with no power iteration: the dense upper-end policy.

    p in {1, inf}: the exact column and row sums (||A^T||_1 = ||A||_inf).
    Every other p reads one ||A||_2 = ||A^T||_2 from `_two_norm_upper`:
    the eigenvalue solve, the upper end of the certified fallback bracket
    if that solve fails, or inf beyond the float max. p = 2 raises it by
    the relative _UPPER_SLACK (2^-40, over 300 times the largest
    eigenvalue-solve error measured up to 512 x 512) for both sides.
    General p takes `_outward_upper` per side, the smaller of the
    interpolation and Riesz-Thorin bounds raised by the same slack: the
    upper end that `opnorm_p_estimate` starts from.
    """
    if order.is_two:
        two = norms.two * (1.0 + _UPPER_SLACK)
        return two, two
    one, inf = norms.one_inf
    if order.is_one:
        return one, inf
    if order.is_infinity:
        return inf, one
    two = norms.two
    return _outward_upper(one, two, inf, order)[0], _outward_upper(inf, two, one, order)[0]


@functools.lru_cache(maxsize=4)
def _restart_block(n: int) -> np.ndarray:
    """Fixed restart rows: basis vectors, all-ones, then `default_rng(0)` signs.

    Read-only, and kept for the last 4 sizes asked for: each holds
    _BOYD_RESTARTS * n * 8 = 64 n bytes (6.4 MB at n = 10^5).
    """
    rng = np.random.default_rng(0)
    rows = []
    for j in range(min(n, _BOYD_RESTARTS - 2)):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e)
    rows.append(np.ones(n))
    while len(rows) < _BOYD_RESTARTS:
        rows.append(rng.choice([-1.0, 1.0], size=n))
    block = np.vstack(rows)
    block.flags.writeable = False
    return block


def _boyd_lower(
    apply: Callable[[np.ndarray], np.ndarray],
    apply_t: Callable[[np.ndarray], np.ndarray],
    order: NormOrder,
    starts: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Best realized ratio ||A v||_p over power iterations from the caller's
    start rows `starts` (a 2-D block, one row per restart), each first
    scaled by its p-norm (`row_norms`; a zero row is left as it is).

    A enters only through its row maps: apply(V) = V A^T (each row v to
    A v) and apply_t(U) = U A (each row u to A^T u). One dual-norm power
    sweep per iteration, all restarts advanced as a block of rows: u = A v,
    then v <- psi_q(A^T psi_p(u)) normalized in lp, where
    psi_r(t) = sign(t) |t|^(r-1). Each map scales its rows by their max
    entry first, and that one |U| / max gives both the sweep's ratio and
    psi_p; norms within the loop are vectorized, with numpy's power for
    the root (`row_norms` takes libm's). Row maxima come from
    `core._row_max`; a block of fewer than `core._NARROW` (32) rows takes its
    per-row reduce. The iteration stops after two sweeps in a row that do
    not raise the best ratio by more than _BOYD_STALL_TOL of itself, a
    test that reads the same at every scale of A, or after _BOYD_MAX_ITER
    sweeps.

    The best row converges linearly: near a maximum its ratio error is
    quadratic in its vector error, so where the vector error falls by a
    rate sqrt(rho) a sweep, the ratio gains fall by rho. Where the row's
    last three gains give two rates rho that agree, the row's next
    iterate v_new is replaced by v_new + (sqrt(rho) / (1 - sqrt(rho)))
    (v_new - v), its Aitken limit, scaled to unit p-norm. The rates come
    from ratios the sweep computes anyway; `_ratio_rate` states the guards
    (the `_EXTRAPOLATE_*` bounds), and the last of them leaves the final
    sweeps plain. The extrapolated row is swept like any other, so its
    ratio is measured before it can be recorded, and no lower end is a
    prediction. A row mapped to 0 (the all-ones restart of a matrix with zero
    row sums, say) stays 0 rather than dividing by its zero norm; its ratio
    was recorded on the sweep before. Returns (ratio, witness), the ratio
    measured once more from the witness through `apply` and `row_norms`
    (`_ratio`), so it is reproducible to the last ulp.
    """
    p = order.p
    inv_p, dual_expo = 1.0 / p, 1.0 / (p - 1.0)
    # Below tiny^(1/e), x^e with e > 1 underflows, and libm's pow takes a
    # slow path there (ten times slower per entry); such entries are zeroed
    # first, which moves a row's p-th power sum (at least 1) by less than
    # n 2^-1022.
    floor_u = _TINY**dual_expo if p > 2.0 else 0.0  # for D = R^(p-1)
    floor_w = _TINY ** (p - 1.0) if p < 2.0 else 0.0  # for T^(1/(p-1))
    norms = row_norms(starts, order)
    V = starts / np.where(norms == 0.0, 1.0, norms)[:, None]
    best_ratio = -1.0
    best_witness = V[0].copy()
    stalled = 0
    last = []  # the ratios of up to three sweeps before this one
    plain = 0  # sweeps since the last extrapolation
    # entries near the float max can overflow a sweep's products to inf and
    # then nan; a nan ratio is never recorded as the best
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_BOYD_MAX_ITER):
            U = apply(V)
            R = np.abs(U)
            m = _row_max(R)
            R /= np.maximum(m, _TINY)[:, None]  # a zero row stays zero
            if floor_u:
                np.putmask(R, R < floor_u, 0.0)
            D = R ** (p - 1.0)  # |psi_p(u)| / max|u|^(p-1)
            ratios = m * np.vecdot(R, D) ** inv_p  # ||u||_p, since ||v||_p = 1
            j = int(ratios.argmax())
            if ratios[j] > best_ratio + _BOYD_STALL_TOL * best_ratio:
                best_ratio = float(ratios[j])
                best_witness = V[j].copy()
                stalled = 0
            else:
                stalled += 1
                if stalled >= 2:
                    break
            plain += 1
            rho = _ratio_rate(last, ratios, j) if plain >= _EXTRAPOLATE_SPAN else 0.0
            last = last[-2:] + [ratios]
            W = apply_t(np.copysign(D, U))
            T = np.abs(W)
            T /= np.maximum(_row_max(T), _TINY)[:, None]
            if floor_w:
                np.putmask(T, T < floor_w, 0.0)
            mag = T**dual_expo  # |psi_q(w)|, up to scale
            norms = np.vecdot(T, mag) ** inv_p  # |psi_q|^p = T^(q-1) T; 0 or >= 1
            v = V[j]
            V = np.copysign(mag, W) / np.maximum(norms, _TINY)[:, None]
            if rho:
                # Aitken: the vector error falls by sqrt(rho) a sweep, since
                # the ratio error is quadratic in it near a maximum
                step = math.sqrt(rho)
                x = V[j] + step / (1.0 - step) * (V[j] - v)
                size = row_norms(x[None], order)[0]
                if 0.0 < size < math.inf:
                    V[j] = x / size
                    plain = 0
    w = best_witness[None]
    return _ratio(apply(w), w, order), best_witness


def _ratio_rate(last: list, ratios: np.ndarray, j: int) -> float:
    """The rate rho at which row j's ratio gains shrink, from its ratios on
    the three sweeps before (`last`) and this one (`ratios`), where its
    three gains fall geometrically within the `_EXTRAPOLATE_*` bounds;
    0.0 where they do not, or where another row gains more than row j on
    this sweep and no less than on the sweep before. Such a row is leaving
    a saddle, perhaps for a higher maximum, and an extrapolated row j would
    stall the run before it arrives (on 1200 seeded dense matrices this
    guard took the lower ends that fell below the plain iteration's from
    4 to 1)."""
    r0, r1, r2, r3 = (float(r[j]) for r in (*last, ratios))
    g1, g2, g3 = r1 - r0, r2 - r1, r3 - r2
    if not (g1 > 0.0 and g2 > 0.0 and g3 > _EXTRAPOLATE_FLOOR * r3):
        return 0.0
    first, rho = g2 / g1, g3 / g2
    if not (rho < _EXTRAPOLATE_RATE and abs(rho - first) <= _EXTRAPOLATE_AGREE * first):
        return 0.0
    gains = ratios - last[-1]
    return 0.0 if ((gains > g3) & (gains >= last[-1] - last[-2])).any() else rho


def _dual_witness(apply, v: np.ndarray, r: float) -> np.ndarray:
    """z = psi_r(A v) for a witness v at order r < 2, as `_boyd_lower`'s
    sweep forms it: |A v| over its max entry, to the power r - 1, with the
    signs of A v; v itself where A v = 0. With q = r / (r - 1), Hoelder
    gives ||A v||_r^r = <v, A^T z> <= ||v||_r ||A^T z||_q and ||z||_q =
    ||A v||_r^(r-1) before the scaling, so for a symmetric A the ratio
    ||A z||_q / ||z||_q is at least ||A v||_r / ||v||_r."""
    u = apply(v[None])[0]
    mag = np.abs(u)
    top = float(mag.max())
    if top == 0.0:
        return v
    mag /= top
    return np.copysign(mag ** (r - 1.0), u)


def _power_bracket(
    apply, apply_t, n: int, order: NormOrder, one: float, two: float, inf: float,
    cap: float = math.inf, cap_name: str = "cap",
) -> NormEstimate:
    """The certified bracket of ||A||_p for a general order, A an operator on
    R^n seen through its row maps: `_bracket` with the lower end and
    witness of `_boyd_lower` from the rows `_restart_block(n)`."""
    lower, witness = _boyd_lower(apply, apply_t, order, _restart_block(n))
    return _bracket(order, one, two, inf, lower, witness, cap, cap_name)


def _bracket(
    order: NormOrder, one: float, two: float, inf: float, lower: float, witness: np.ndarray,
    cap: float = math.inf, cap_name: str = "cap",
) -> NormEstimate:
    """The certified bracket of ||A||_p for a general order, given upper ends
    (or the values) of ||A||_1, ||A||_2 and ||A||_inf and a ratio `lower`
    that `witness` realizes.

    The upper end is `_outward_upper`, or a known bound `cap` (named
    `cap_name`) where that is smaller; the lower end is `lower`, clamped to
    `cap`. An upper end below that realized ratio by rounding noise
    (relative 1e-9, at every scale) is lifted onto it, since a float ratio
    above a proved bound is itself above the norm; anything more raises
    OpNormError. Finite ends that agree to relative 1e-9 are marked exact
    and keep their outward upper end; an infinite upper end never is.
    `method` names the winning bound.
    """
    upper, bound = _outward_upper(one, two, inf, order)
    if cap < upper:
        upper, bound = cap, cap_name
    lower = min(lower, cap)
    if lower - upper > 1e-9 * upper:
        raise OpNormError(
            f"certified ratio {lower} exceeds upper bound {upper}",
            NormEstimate(0.0, upper, exact=False, method="inconsistent"),
        )
    upper = max(upper, lower)
    exact = upper < math.inf and upper - lower <= 1e-9 * upper
    method = f"power iteration + {bound}"
    return NormEstimate(lower, upper, exact, method, witness)


def opnorm_p_estimate(A, p: Union[NormOrder, float, str]) -> NormEstimate:
    """Certified bracket for ||A||_p.

    Canonical orders delegate to the exact routines. General p takes
    `_power_bracket`: the best ratio over _BOYD_RESTARTS fixed power
    iteration restarts below, and above the smaller of the interpolation and
    Riesz-Thorin bounds from ||A||_1, `_two_norm_upper` and ||A||_inf,
    rounded outward; `exact` is set when they agree to relative 1e-9.
    """
    order = NormOrder.of(p)
    arr = _as_matrix(A)
    if order.is_one:
        sums = _abs_sums(arr, 0)
        j = int(sums.argmax())
        val = float(sums[j])
        wit = np.zeros(arr.shape[1])
        wit[j] = 1.0
        return NormEstimate(val, val, exact=True, method="column sums", witness=wit)
    if order.is_infinity:
        sums = _abs_sums(arr, 1)
        i = int(sums.argmax())
        val = float(sums[i])
        wit = np.sign(arr[i])
        wit[wit == 0.0] = 1.0
        return NormEstimate(val, val, exact=True, method="row sums", witness=wit)
    if order.is_two:
        val, wit = _two_norm_witness(arr)
        return NormEstimate(val, val, exact=True, method="gram eigensolve", witness=wit)
    one, inf = _one_inf(arr)
    return _power_bracket(
        lambda V: V @ arr.T, lambda U: U @ arr, arr.shape[1], order, one, _two_norm_upper(arr), inf
    )
