import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlip.core import (
    _bits_float,
    _float_bits,
    _jacobian_times,
    _row_max,
    _scaled_logits,
    _secular_witness,
    _softmax_kernel,
    _softmax_rows,
    Logits,
    SimplexPoint,
    TOL_SIMPLEX_PER_ENTRY,
    Temperature,
    boundary_point,
    jacobian,
    log_sum_exp,
    m_of_s,
    softmax,
)

# Frozen oracle values. The log-sum-exp value is the direct unshifted
# summation log(e^3 + e^1 + e^0.2); the softmax probabilities come from a
# 60-digit mpmath evaluation of exp(0.7 x_i) / sum_j exp(0.7 x_j).
LSE_3_1_02 = 3.1791041747850026
SOFTMAX_2_M1_05_LAM07 = (0.6791659566259548, 0.08316823723943405, 0.2376658061346112)


def dyadic_logits(rng, n, scale=5.0):
    """Logits on a 2^-20 grid so that adding a constant is exact in float64."""
    grid = 2.0**-20
    k = int(scale / grid)
    return rng.integers(-k, k + 1, size=n) * grid


class TestLogSumExp:
    def test_symmetric_two_point(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_logits_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == 1000.0 + math.log(2.0)

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_logits_spanning_beyond_the_float_range(self, lam):
        # x - max x = -2e308 warned "overflow encountered in subtract"
        assert log_sum_exp([1e308, -1e308], lam) == 1e308

    def test_direct_summation_oracle(self):
        assert log_sum_exp([3.0, 1.0, 0.2]) == pytest.approx(LSE_3_1_02, abs=1e-13)

    def test_temperature_scaling(self):
        # (1/lam) log sum exp(lam x) at x = (0, 0) is ln(2)/lam
        assert log_sum_exp([0.0, 0.0], 2.0) == pytest.approx(math.log(2.0) / 2.0, abs=1e-15)

    def test_shift_property(self):
        # Exact up to the final addition's rounding when x + c introduces
        # no rounding itself; dyadic inputs guarantee that.
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = dyadic_logits(rng, int(rng.integers(2, 9)))
            c = float(rng.integers(-100 * 2**20, 100 * 2**20 + 1)) * 2.0**-20
            lhs = log_sum_exp(x + c)
            rhs = log_sum_exp(x) + c
            assert abs(lhs - rhs) <= 4.0 * np.finfo(float).eps * max(1.0, abs(rhs))


class TestSoftmax:
    def test_uniform(self):
        s = softmax([0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.probs, np.full(4, 0.25))
        assert not s.clamped

    def test_half_mass_point(self):
        # logits (ln 9, 0, ..., 0) in R^10 put exactly half the mass first
        x = np.zeros(10)
        x[0] = math.log(9.0)
        s = softmax(x)
        assert s.probs[0] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(s.probs[1:], 1.0 / 18.0, rtol=1e-14)

    def test_extended_precision_oracle(self):
        s = softmax([2.0, -1.0, 0.5], 0.7)
        np.testing.assert_allclose(s.probs, SOFTMAX_2_M1_05_LAM07, rtol=1e-14)

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = dyadic_logits(rng, int(rng.integers(2, 13)))
            c = float(rng.integers(-100 * 2**20, 100 * 2**20 + 1)) * 2.0**-20
            a = softmax(x).probs
            b = softmax(x + c).probs
            assert np.max(np.abs(a - b)) == 0.0

    def test_underflow_clamp_keeps_interior(self):
        s = softmax([0.0, -800.0])
        assert s.clamped
        assert s.probs.min() > 0.0
        assert abs(s.probs.sum() - 1.0) <= 2e-12

    def test_extreme_example_logits_stay_interior(self):
        x = np.full(10, -2000.0)
        x[0] = x[1] = 0.0
        s = softmax(x)
        assert s.clamped
        assert s.probs.min() > 0.0

    def test_overflowing_product_shifts_first(self):
        # lam * x overflows to inf; lam * (x - max x) does not
        s = softmax([1e308, 0.0], 10.0)
        np.testing.assert_array_equal(s.probs, [1.0, np.finfo(np.float64).tiny])
        assert s.clamped
        s = softmax([1e308, 1e308, 0.0], 10.0)
        assert s.probs[0] == s.probs[1] == 0.5

    # (logits, lam, clamped): ordinary, saturated (scale 400), overflow-scale
    # (lam * x overflows) and a subnormal entry exp(-742) that is not clamped
    KERNEL_POINTS = [
        (np.random.default_rng(21).standard_normal(16), 1.0, False),
        (400.0 * np.array([1.0, 0.0, -2.5, 0.3, -0.7]), 1.0, True),
        (1e300 * np.random.default_rng(22).standard_normal(8), 1.0, True),
        (np.array([0.0, -185.5]), 4.0, False),
    ]

    @pytest.mark.parametrize("x, lam, clamped", KERNEL_POINTS)
    def test_point_keeps_every_invariant(self, x, lam, clamped):
        # the point is built from the kernel's output without a second
        # validation; it must pass that validation all the same
        x = x.copy()
        s = softmax(x, lam)
        probs = s.probs
        assert s.clamped is clamped
        assert probs.dtype == np.float64 and probs.shape == x.shape
        assert not probs.flags.writeable
        assert not np.shares_memory(probs, x)
        assert np.all(np.isfinite(probs)) and probs.min() > 0.0 and probs.max() <= 1.0
        assert abs(float(probs.sum()) - 1.0) <= TOL_SIMPLEX_PER_ENTRY * probs.size
        # `==` on the dataclass compares arrays, so the fields are compared
        again = SimplexPoint(probs)
        assert again.probs.tobytes() == probs.tobytes() and not again.clamped
        assert SimplexPoint.of(s) is s
        before = probs.tobytes()
        x[:] = 0.0  # the caller's array is not the point's
        assert probs.tobytes() == before

    def test_subnormal_entry_is_kept(self):
        probs = softmax([0.0, -185.5], 4.0).probs
        assert 0.0 < probs[1] < np.finfo(np.float64).tiny

    def test_rejects_single_logit(self):
        with pytest.raises(ValueError):
            softmax([1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax([0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            Temperature(-1.0)


class TestRowMax:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [
        (31, 32), (32, 32), (32, 33), (2048, 8), (64, 1), (8, 2), (20, 4096),
    ])
    def test_each_row_is_the_reduce_of_that_row(self, shape, order):
        # both sides of the shape rule, and its edges at 32 rows and 32 entries
        a = np.array(np.random.default_rng(14).standard_normal(shape), order=order)
        a[0, -1] = np.nan
        a[-1] = -np.inf
        a[shape[0] // 2, 0] = np.inf
        for initial in (None, 5e-324):
            want = np.array([np.maximum.reduce(row, initial=initial) for row in a])
            assert _row_max(a, initial).tobytes() == want.tobytes()


class TestSoftmaxKernel:
    @staticmethod
    def one_vector(z):
        """The kernel's arithmetic on one vector, written out."""
        e = np.exp(z - z.max())
        s = e / e.sum()
        zero = s == 0.0
        if zero.any():
            s[zero] = np.finfo(np.float64).tiny
            s = s / s.sum()
        return s, bool(zero.any())

    def test_vector_matches_written_out_arithmetic(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 9, 64, 513):
            for scale in (0.1, 3.0, 900.0):
                z = scale * rng.standard_normal(n)
                want, want_clamped = self.one_vector(z)
                s, clamped = _softmax_kernel(z)
                assert s is z  # a vector is softmaxed in place
                np.testing.assert_array_equal(s, want)
                assert clamped.shape == () and bool(clamped) == want_clamped

    @pytest.mark.parametrize("shape", [(30, 17), (64, 4), (2048, 8)])
    def test_rows_match_vectors(self, shape):
        # the stacks of many narrow rows take their row maxima across a
        # transposed copy (`core._row_max`)
        rng = np.random.default_rng(12)
        z = rng.standard_normal(shape) * np.geomspace(0.1, 900.0, shape[0])[:, None]
        s, clamped = _softmax_kernel(z)
        assert clamped.shape == shape[:1]
        assert clamped.any() and not clamped.all()  # both branches are exercised
        for row, got, flag in zip(z, s, clamped):
            want, want_flag = self.one_vector(row)
            np.testing.assert_array_equal(got, want)
            assert flag == want_flag

    def test_overflowing_rows_match_vectors(self):
        v = np.array([[1e308, 0.0, -1e308], [1.0, -2.0, 0.5], [-1e308, 3e307, 0.0]])
        lam = 7.5
        z = _scaled_logits(v, lam)
        np.testing.assert_array_equal(z[1], lam * v[1])  # finite rows keep lam * v
        s, clamped = _softmax_kernel(z)
        for row, got, flag in zip(v, s, clamped):
            want = softmax(row, lam)
            np.testing.assert_array_equal(got, want.probs)
            assert flag == want.clamped

    @pytest.mark.parametrize("shape", [(4, 4), (64, 4), (2048, 8)])
    def test_nan_and_fully_clamped_rows_match_vectors(self, shape):
        # a NaN row stays NaN and unflagged; in the clamped row every entry
        # but the max underflows; the fourth row's max ties +0.0 with -0.0,
        # and z minus either zero has the same exponentials
        z = np.random.default_rng(13).standard_normal(shape)
        z[:4, :4] = [
            [0.5, -1.0, 2.0, 0.0],
            [0.0, np.nan, 1.0, -3.0],
            [0.0, -800.0, -900.0, -1e4],
            [-0.0, -1.0, 0.0, -2.0],
        ]
        z[2, 4:] = -1e4
        z[3, 4:] = -3.0
        s, clamped = _softmax_kernel(z)
        assert clamped[:4].tolist() == [False, False, True, False]
        assert np.isnan(s[1]).all()
        for row, got, flag in zip(z, s, clamped):
            want, want_flag = self.one_vector(row)
            assert got.tobytes() == want.tobytes()
            assert flag == want_flag
            alone, alone_flag = _softmax_kernel(row)
            assert alone.tobytes() == want.tobytes()
            assert alone_flag.shape == () and bool(alone_flag) == want_flag


class TestCallersArrays:
    """The softmaxes read their input and never write it, so a caller's
    array, read-only or not, is left as it was."""

    @staticmethod
    def read_only(rows):
        arr = np.array(rows, dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @pytest.mark.parametrize("rows", [
        [[0.5, -1.0, 2.0], [3.0, 3.0, -7.0]],
        [[0.0, -800.0, -900.0], [1e308, 0.0, -1e308]],  # clamps; an overflowing product
    ])
    def test_rows_are_left_alone(self, rows):
        v = self.read_only(rows)
        before = v.tobytes()
        for lam in (0.5, 10.0):
            _softmax_rows(v, lam)
            softmax(v[0], lam)
            softmax(v[1], lam)
        _softmax_kernel(2.0 * v[:1])  # the bounded dsfp step; the first row's span stays in range
        _softmax_kernel(v[:1])
        assert v.tobytes() == before


_EXTREME_LOGITS = st.one_of(
    st.floats(-1e308, 1e308),
    st.sampled_from([1e308, -1e308, 1e300, -1e300, 0.0]),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 6)),
    lam=st.floats(1e-3, 1e3),
    data=st.data(),
)
def test_softmax_rows_match_softmax_bitwise(shape, lam, data):
    size = shape[0] * shape[1]
    v = np.array(data.draw(st.lists(_EXTREME_LOGITS, min_size=size, max_size=size))).reshape(shape)
    s, clamped = _softmax_rows(v, lam)
    assert clamped.shape == (shape[0],)
    for row, got, flag in zip(v, s, clamped):
        want = softmax(row, lam)
        assert got.tobytes() == want.probs.tobytes()
        assert bool(flag) == want.clamped
    if math.isfinite(2.0 * lam * float(np.abs(v).max())):
        # the check-free path of a caller that bounded lam * v (the dsfp step)
        fast, fast_clamped = _softmax_kernel(lam * v)
        assert fast.tobytes() == s.tobytes()
        assert fast_clamped.tolist() == clamped.tolist()


class TestJacobian:
    def test_symmetric_two_point(self):
        j = jacobian(SimplexPoint(np.array([0.5, 0.5])), 1.0)
        np.testing.assert_array_equal(
            j.matrix, np.array([[0.25, -0.25], [-0.25, 0.25]])
        )

    def test_half_mass_diagonal_and_row_sum(self):
        x = np.zeros(10)
        x[0] = math.log(9.0)
        j = jacobian(softmax(x), 1.0)
        assert j.matrix[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert np.abs(j.matrix[0]).sum() == pytest.approx(0.5, abs=1e-15)

    def test_linear_in_temperature(self):
        s = softmax([0.3, -1.2, 0.8, 2.0])
        np.testing.assert_array_equal(jacobian(s, 2.0).matrix, 2.0 * jacobian(s, 1.0).matrix)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = softmax(rng.uniform(-5, 5, size=int(rng.integers(2, 13))))
            mat = jacobian(s, 1.0).matrix
            np.testing.assert_array_equal(mat, mat.T)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(30):
            n = int(rng.integers(2, 13))
            x = rng.uniform(-5, 5, size=n)
            for lam in (0.5, 1.0, 2.0):
                j = jacobian(softmax(x, lam), lam).matrix
                fd = np.empty((n, n))
                for k in range(n):
                    e = np.zeros(n)
                    e[k] = h
                    fd[:, k] = (softmax(x + e, lam).probs - softmax(x - e, lam).probs) / (2 * h)
                np.testing.assert_allclose(j, fd, atol=1e-6)

    def test_gradient_of_log_sum_exp_is_softmax(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(2, 10))
            x = rng.uniform(-4, 4, size=n)
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            grad = np.empty(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                grad[k] = (log_sum_exp(x + e, lam) - log_sum_exp(x - e, lam)) / (2 * h)
            np.testing.assert_allclose(grad, softmax(x, lam).probs, atol=1e-8)

    def test_zero_row_sums(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lam = float(rng.choice([0.25, 1.0, 4.0]))
            mat = jacobian(softmax(rng.uniform(-6, 6, size=8), lam), lam).matrix
            assert np.abs(mat.sum(axis=1)).max() <= 1e-14 * lam

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 16, 64):
            mat = jacobian(softmax(rng.uniform(-5, 5, size=n)), 1.0).matrix
            assert np.linalg.eigvalsh(mat).min() >= -1e-12


class TestMOfS:
    def test_one_hot_gives_zero(self):
        e = np.zeros(6)
        e[2] = 1.0
        np.testing.assert_array_equal(m_of_s(e), np.zeros((6, 6)))

    def test_two_point_boundary_block(self):
        s = np.zeros(5)
        s[0] = s[1] = 0.5
        mat = m_of_s(s)
        np.testing.assert_array_equal(mat[:2, :2], [[0.25, -0.25], [-0.25, 0.25]])
        np.testing.assert_array_equal(mat[2:, :], np.zeros((3, 5)))
        np.testing.assert_array_equal(mat[:, 2:], np.zeros((5, 3)))

    def test_uniform_three(self):
        expected = np.eye(3) / 3.0 - np.ones((3, 3)) / 9.0
        np.testing.assert_allclose(m_of_s(np.full(3, 1.0 / 3.0)), expected, atol=1e-16)

    def test_accepts_simplex_point(self):
        s = softmax([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m_of_s(s), m_of_s(s.probs))


def reference_secular_distance(probs):
    """|mu - o| by plain bisection over float bit patterns, as the secular
    solve did before it took model steps (its last bracket's lower end,
    else its upper end), with the origin o chosen the same way."""
    order = np.argsort(probs, kind="stable")
    i1 = order[-1]
    s1, s2 = float(probs[i1]), float(probs[order[-2]])
    rest = probs.copy()
    rest[i1] = 0.0
    diag = s1 * (rest.sum() if s1 > 0.5 else 1.0 - s1)  # 1 - s1 without cancellation

    def secular(origin, d):
        return (diag - origin - d) / (s1 - origin - d) - float(rest @ (rest / (probs - origin - d)))

    half = 0.5 * (s1 - s2)
    origin, sign = (s1, -1.0) if secular(s2, half) > 0.0 else (s2, 1.0)
    lo, hi = 0, _float_bits(half)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (secular(origin, sign * _bits_float(mid)) > 0.0) == (sign > 0.0):
            lo = mid
        else:
            hi = mid
    return origin, sign, _bits_float(lo or hi)


def secular_cases(rng):
    cases = []
    for n in (2, 3, 16, 64, 300):
        for scale in (1e-6, 0.1, 1.0, 4.0, 40.0, 400.0):
            for lam in (0.25, 1.0, 4.0):
                x = scale * rng.standard_normal(n)
                cases.append(softmax(x, lam).probs)
                x[1] = np.nextafter(x.max(), -np.inf)  # a near tie at the top
                cases.append(softmax(x, lam).probs)
    for x in ([0.0, -40.0], [0.0, -100.0, -100.5, -300.0], [0.0, -30.0, -30.0]):
        cases.append(softmax(x, 4.0).probs)
    return cases


class TestMatrixFreeJacobian:
    """`_jacobian_times` and `_secular_witness`: J without its n x n matrix."""

    @pytest.mark.parametrize("scale", [0.1, 1.0, 40.0, 400.0])
    def test_row_map_matches_the_dense_product(self, scale):
        rng = np.random.default_rng(int(10 * scale))
        for n in (2, 7, 64):
            probs = softmax(scale * rng.standard_normal(n), 2.0).probs
            W = rng.standard_normal((5, n))
            dense = W @ (2.0 * m_of_s(probs))
            got = _jacobian_times(probs, 2.0)(W)
            np.testing.assert_allclose(got, dense, rtol=1e-12, atol=64 * 2.0 * np.finfo(float).eps)

    def test_top_entry_keeps_relative_accuracy(self):
        # s_1 rounds to 1: w_1 - s.w would cancel to 0, the guard keeps w_1 (1 - s_1) - ...
        probs = softmax([0.0, -40.0, -45.0], 1.0).probs
        assert probs[0] == 1.0
        w = np.array([[1.0, -1.0, 0.5]])
        top = _jacobian_times(probs, 1.0)(w)[0, 0]
        assert top == pytest.approx(probs[0] * (-probs[1] * -1.0 - probs[2] * 0.5), rel=1e-15)
        assert top != 0.0

    def test_ends_on_the_bisection_bracket(self):
        # model steps reach the adjacent floats plain bisection ends on
        for probs in secular_cases(np.random.default_rng(77)):
            order = np.argsort(probs)
            if probs[order[-1]] == probs[order[-2]]:
                continue
            origin, sign, dist = reference_secular_distance(probs)
            wit = probs * (dist / ((probs - origin) - sign * dist))
            wit /= np.abs(wit).max()
            wit /= np.sqrt(np.vecdot(wit, wit))
            np.testing.assert_array_equal(np.abs(_secular_witness(probs)), np.abs(wit))

    def test_unit_top_eigenvector_with_positive_lead(self):
        for probs in secular_cases(np.random.default_rng(78)):
            if probs.size > 64:
                continue
            wit = _secular_witness(probs)
            assert np.sqrt(wit @ wit) == pytest.approx(1.0, rel=1e-15)
            assert wit[np.flatnonzero(wit)[0]] > 0.0
            vals, vecs = np.linalg.eigh(m_of_s(probs))
            if vals[-1] - vals[-2] > 1e-6 * vals[-1]:  # a well-separated top eigenvalue
                assert abs(wit @ vecs[:, -1]) == pytest.approx(1.0, abs=1e-9)

    def test_tied_top_is_exact(self):
        wit = _secular_witness(softmax([0.0, 2.0, 2.0, -1.0]).probs)
        np.testing.assert_array_equal(wit, [0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0])


class TestDomainTypes:
    def test_simplex_point_rejects_boundary(self):
        with pytest.raises(ValueError):
            SimplexPoint(np.array([1.0, 0.0]))

    def test_simplex_point_checks_the_closed_simplex_first(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            SimplexPoint(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="strictly positive"):
            SimplexPoint(np.array([1.0, 0.0]))

    def test_simplex_point_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint(np.array([0.6, 0.6]))

    def test_boundary_point_allows_zeros(self):
        b = boundary_point([0.5, 0.5, 0.0])
        assert b.sum() == 1.0

    def test_boundary_point_rejects_negative(self):
        with pytest.raises(ValueError):
            boundary_point([0.6, 0.5, -0.1])

    def test_logits_frozen(self):
        x = Logits(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            x.values[0] = 9.0
