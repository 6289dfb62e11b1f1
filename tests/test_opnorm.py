import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softlip.opnorm as opnorm
from softlip.core import _jacobian_times, m_of_s, softmax
from softlip.lipschitz import local_lipschitz
from softlip.opnorm import (
    NormEstimate,
    NormOrder,
    OpNormError,
    interpolation_bound,
    riesz_thorin_bound,
    opnorm_inf,
    opnorm_one,
    opnorm_p_estimate,
    opnorm_two,
    row_norms,
    vector_norm,
)

# 4x4 test matrix (entries U(-1,1), generator seed 417) and the best ratio
# found by maximizing ||A v||_1.5 over 2^20 scrambled Sobol directions
# followed by Nelder-Mead/Powell polish. Frozen as an independent oracle.
ORACLE_A = np.array([
    [0.9056179934044497, -0.13864250799456346, 0.6197680348561834, -0.20831242838852182],
    [0.2354683704601177, -0.8183239446132116, 0.9646151257721931, 0.5863736788374159],
    [-0.6695198714778716, -0.1291829863177021, -0.1601774730638983, 0.3869758614820058],
    [0.9863351757345002, 0.9349307998945624, -0.33512285079149273, -0.4278284491859925],
])
ORACLE_P15_LOWER = 1.8844279427493626

# General-p brackets. Each matrix is default_rng(data seed).uniform(-1, 1,
# shape), bracketed by opnorm_p_estimate(A, p). The lower ends were recorded
# before the power iteration moved onto `row_norms`, with the column-block
# iteration and its own vectorized p-norm (numpy's `**` for the root), some
# with other restart seeds; the one fixed restart block reproduces them to
# 1.8e-16 relative. The upper ends were re-recorded when the matrix bracket
# became `_power_bracket`'s: the smaller of the interpolation and
# Riesz-Thorin bounds, rounded outward, instead of the interpolation bound
# (the largest upper end fell from 37.23 to 14.29). Each logit vector is
# default_rng(data seed).normal(scale=2, size=n), bracketed by
# local_lipschitz(x, lam, p); those were re-recorded when the bracket
# stopped forming the dense Jacobian: the power iteration runs on the O(n)
# product (lower ends moved by at most 3.4e-13 relative) and the upper end
# is the Riesz-Thorin bound from ||J||_1 and ||J||_2 instead of the
# interpolation bound. Values are (lower, upper) as printed by repr.
FROZEN_MATRIX_BRACKETS = [  # (data seed, shape, p, lower, upper, method)
    (1, (4, 4), 1.5, 1.997671064650361, 2.0917705318192024, "power iteration + Riesz-Thorin"),
    (2, (8, 8), 3.0, 2.9318983747119103, 3.2607742423465447, "power iteration + Riesz-Thorin"),
    (3, (16, 16), 1.5, 4.441967194167301, 5.376817025739786, "power iteration + Riesz-Thorin"),
    (4, (33, 33), 3.0, 7.1369060234575095, 9.082154940462475, "power iteration + Riesz-Thorin"),
    (5, (64, 64), 1.5, 10.332527546518165, 14.294920915695156, "power iteration + Riesz-Thorin"),
    (6, (64, 64), 3.0, 10.150928260304228, 14.04475184012983, "power iteration + Riesz-Thorin"),
    (7, (5, 9), 1.5, 2.507591988806318, 2.8055612010932993, "power iteration + Riesz-Thorin"),
    (8, (9, 5), 3.0, 2.423058027443949, 2.6732670465666364, "power iteration + Riesz-Thorin"),
    (9, (12, 40), 3.0, 7.483654228303904, 8.565958020833868, "power iteration + Riesz-Thorin"),
    (10, (40, 12), 1.5, 7.082122180713425, 8.498950170278865, "power iteration + Riesz-Thorin"),
    (11, (64, 17), 3.0, 5.648529090529244, 7.633573818903809, "power iteration + Riesz-Thorin"),
    (12, (3, 64), 1.5, 3.4198249165761934, 4.165549828281154, "power iteration + Riesz-Thorin"),
]
FROZEN_JACOBIAN_BRACKETS = [  # (data seed, n, lam, p, lower, upper)
    (21, 5, 1.0, 1.5, 0.45862542963198477, 0.46995185191368144),
    (22, 5, 1.0, 3.0, 0.03938138173373709, 0.04271513444703522),
    (23, 16, 2.5, 1.5, 0.36781895683378996, 0.40543527912309124),
    (24, 16, 2.5, 3.0, 0.5058022130454162, 0.5329317089549559),
    (25, 40, 1.0, 1.5, 0.27580443817829803, 0.31328856817208645),
    (26, 40, 0.5, 3.0, 0.10407064338336391, 0.11915282359400914),
    (27, 64, 1.0, 1.5, 0.11581702302277204, 0.1341865078663714),
    (28, 64, 4.0, 3.0, 1.2163106974714084, 1.230730438292428),
]


def two_point_core():
    return m_of_s(np.array([0.5, 0.5]))


class TestNormOrder:
    def test_parsing(self):
        assert NormOrder.of("inf").is_infinity
        assert NormOrder.of(1).is_one
        assert NormOrder.of("2").is_two
        assert NormOrder.of(1.5).kind == "general"

    def test_labels(self):
        assert NormOrder.of("inf").label == "inf"
        assert NormOrder.of(3.0).label == "3"
        assert NormOrder.of(1.5).label == "1.5"

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            NormOrder(0.5)
        with pytest.raises(ValueError):
            NormOrder(float("nan"))

    def test_huge_p_coerced_to_infinity(self):
        with pytest.warns(UserWarning) as caught:
            order = NormOrder(1e7)
        assert order.is_infinity
        # the warning names this line, not the generated __init__ ("<string>")
        assert caught[0].filename == __file__


class TestVectorNorm:
    def test_pythagorean(self):
        assert vector_norm([3.0, 4.0], 2) == 5.0

    def test_max_entry(self):
        assert vector_norm([3.0, 4.0], "inf") == 4.0

    @pytest.mark.parametrize("p", [1, 1.5, 2, "inf"])
    def test_empty_vector(self, p):
        assert vector_norm([], p) == 0.0

    def test_cube_root(self):
        assert vector_norm([1.0, 1.0, 1.0], 3) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)

    def test_homogeneous(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=7)
        for p in (1, 1.7, 2, 4, "inf"):
            assert vector_norm(3.5 * v, p) == pytest.approx(3.5 * vector_norm(v, p), rel=1e-14)

    def test_one_norm_overflows_without_a_warning(self):
        # the absolute sum warned "overflow encountered in reduce"
        assert vector_norm([1e308, 1e308], 1) == math.inf
        assert list(row_norms(np.array([[1e308, -1e308], [1.0, -2.0]]), 1)) == [math.inf, 3.0]

    @pytest.mark.parametrize("p", [1.5, 3, 9e5])
    def test_general_norm_overflows_without_a_warning(self, p):
        # every root exceeds 1, so the last product m * s ** (1/p) overflows
        top = float(np.finfo(np.float64).max)
        assert vector_norm([top, top], p) == math.inf
        rows = np.ones((64, 4))
        rows[5] = top
        got = row_norms(rows, p)
        assert got[5] == math.inf and np.isfinite(np.delete(got, 5)).all()

    def test_large_order_is_stable(self):
        v = np.array([0.3, 0.9, 0.5])
        assert vector_norm(v, 9e5) == pytest.approx(0.9, rel=1e-4)

    def test_bits_of_one_vector_formula(self):
        # The max-scaled formula on one vector, with np.dot at p = 2 and the
        # final root in Python floats; the row kernel must not move a bit.
        def reference(v, p):
            a = np.abs(v)
            if p == "inf":
                return float(a.max())
            if p == 1:
                return float(a.sum())
            if p == 2:
                return float(np.sqrt(np.dot(a, a)))
            m = float(a.max())
            return 0.0 if m == 0.0 else m * float(((a / m) ** p).sum()) ** (1.0 / p)

        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 16, 129, 1000):
            for scale in (1e-3, 1.0, 1e3):
                v = scale * rng.standard_normal(n)
                for p in (1, 1.5, 2, 3, 7.25, 9e5, "inf"):
                    assert vector_norm(v, p) == reference(v, p)
        for p in (1, 1.5, 2, "inf"):
            assert vector_norm(np.zeros(4), p) == 0.0


    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160, 1e-200, 1e-300])
    def test_two_norm_at_the_ends_of_float64(self, scale):
        # the squares overflow to inf or underflow to 0 unless rescaled
        exact = pytest.approx(math.sqrt(2.0) * scale, rel=1e-15, abs=0.0)
        assert vector_norm([scale, scale], 2) == exact
        assert vector_norm([3.0 * scale, 4.0 * scale], 2) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_two_norm_of_subnormals_and_beyond_range(self):
        assert vector_norm([3e-320, 4e-320], 2) == pytest.approx(5e-320, rel=1e-3, abs=0.0)
        assert vector_norm([5e-324], 2) == 5e-324
        assert vector_norm([1.5e308, 1.5e308], 2) == math.inf

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 9e5, "inf"])
    def test_infinite_entry_gives_inf_and_nan_gives_nan(self, p):
        # at general p the max-scaled powers divided inf by inf: NaN and a warning
        assert vector_norm([1.0, math.inf], p) == math.inf
        assert vector_norm([-math.inf, 1e300, 0.0], p) == math.inf
        assert math.isnan(vector_norm([math.nan, math.inf], p))
        assert math.isnan(vector_norm([1.0, math.nan], p))


class TestRowNorms:
    def test_two_norm_rescales_only_extreme_rows(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(6, 9))
        rows[1] *= 1e200
        rows[3] *= 1e-170
        rows[4] = 0.0
        got = row_norms(rows, 2)
        for r in (0, 2, 4, 5):  # plain dot product, bit for bit
            assert got[r] == math.sqrt(np.dot(rows[r], rows[r]))
        for r, scale in ((1, 1e200), (3, 1e-170)):
            expected = scale * vector_norm(rows[r] / scale, 2)
            assert got[r] == pytest.approx(expected, rel=1e-15, abs=0.0)


    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7.25, 9e5, "inf"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(40, 33), (240, 16), (2048, 8), (8, 64), (3, 4096)])
    def test_each_row_equals_vector_norm(self, p, order, shape):
        # blocks of many narrow rows take their row maxima across a
        # transposed copy, the others and every vector along each row
        rows = np.array(np.random.default_rng(4).normal(size=shape), order=order)
        rows[0] = 0.0
        rows[1, shape[1] // 2] = -math.inf
        rows[-1, -1] = math.nan
        rows[shape[0] // 2] *= 1e-310  # its max is subnormal, unless it holds inf
        got = row_norms(rows, p)
        assert got.shape == (shape[0],)
        want = np.array([vector_norm(r, p) for r in rows])
        assert got.tobytes() == want.tobytes()  # bit for bit, the NaN row too

    @pytest.mark.parametrize("p", [1.5, 3, 7.25])
    def test_general_root_is_python_float_power(self, p):
        # under AVX-512 dispatch, numpy's vectorized power gave other last
        # bits on about one in 20 of these roots
        rows = np.abs(np.random.default_rng(9).normal(size=(2048, 8)))
        m = rows.max(axis=1)
        sums = ((rows / m[:, None]) ** p).sum(axis=1)
        want = [mi * si ** (1.0 / p) for mi, si in zip(m.tolist(), sums.tolist())]
        assert row_norms(rows, p).tolist() == want


class TestExactNorms:
    def test_column_sums(self):
        assert opnorm_one([[1.0, -2.0], [3.0, 4.0]]) == 6.0

    def test_row_sums(self):
        assert opnorm_inf([[1.0, -2.0], [3.0, 4.0]]) == 7.0

    def test_two_point_core_is_half(self):
        assert opnorm_one(two_point_core()) == 0.5
        assert opnorm_inf(two_point_core()) == 0.5

    def test_zero_matrix(self):
        assert opnorm_one(np.zeros((3, 3))) == 0.0

    def test_row_sum_closed_form(self):
        # the Jacobian core's inf-norm is max_i 2 s_i (1 - s_i)
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = softmax(rng.uniform(-4, 4, size=int(rng.integers(2, 10)))).probs
            assert opnorm_inf(m_of_s(s)) == pytest.approx(
                (2 * s * (1 - s)).max(), rel=1e-14
            )

    @pytest.mark.parametrize("p", [1, "inf"])
    def test_sums_beyond_the_float_max(self, p):
        # the bracket's column and row sums warned "overflow in reduce"
        a = np.full((2, 2), 1e308)
        est = opnorm_p_estimate(a, p)
        assert est.lower == est.upper == math.inf
        assert interpolation_bound(a, p) == math.inf

    def test_symmetric_one_equals_inf(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        assert opnorm_one(a) == opnorm_inf(a)


class TestTwoNorm:
    def test_diagonal(self):
        assert opnorm_two(np.diag([2.0, 3.0])) == pytest.approx(3.0, rel=1e-14)

    def test_two_point_core(self):
        assert opnorm_two(two_point_core()) == pytest.approx(0.5, rel=1e-14)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            a = rng.normal(size=(5, 5))
            assert opnorm_two(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-10)

    def test_rectangular(self):
        rng = np.random.default_rng(101)
        a = rng.normal(size=(3, 7))
        assert opnorm_two(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-10)

    def test_no_size_cap(self):
        # sides above 512 were refused, even with a 2 x 2 Gram matrix
        a = np.ones((513, 2))
        assert opnorm_two(a) == pytest.approx(opnorm_p_estimate(a, 2).upper, rel=1e-15, abs=0.0)
        assert opnorm_two(a) == pytest.approx(math.sqrt(1026.0), rel=1e-15, abs=0.0)
        assert opnorm_two(np.zeros((600, 600))) == 0.0


class TestInterpolationBound:
    def test_reduces_to_one_norm(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert interpolation_bound(a, 1) == opnorm_one(a)

    def test_reduces_to_inf_norm(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert interpolation_bound(a, "inf") == opnorm_inf(a)

    def test_jacobian_core_bound(self):
        # For M(s) the 1- and inf-norms agree, so the bound equals them
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = softmax(rng.uniform(-3, 3, size=6)).probs
            closed = (2 * s * (1 - s)).max()
            assert interpolation_bound(m_of_s(s), 2) == pytest.approx(closed, rel=1e-12)
            assert interpolation_bound(m_of_s(s), 2) <= 0.5 + 1e-15

    def test_zero_matrix(self):
        assert interpolation_bound(np.zeros((4, 4)), 1.7) == 0.0

    def test_sums_beyond_the_float_max(self):
        # both sums warned "overflow in reduce"; inf is still an upper bound
        assert interpolation_bound(np.full((2, 2), 1e308), 3) == math.inf


class TestRieszThorinBound:
    def test_reduces_to_the_given_norms(self):
        assert riesz_thorin_bound(3.0, 2.0, 5.0, 1) == 3.0
        assert riesz_thorin_bound(3.0, 2.0, 5.0, 2) == 2.0
        assert riesz_thorin_bound(3.0, 2.0, 5.0, "inf") == 5.0

    def test_exponents(self):
        # p = 4/3 gives theta = 1/2 against the 1-norm; p = 4 gives 1/2 against inf
        assert riesz_thorin_bound(9.0, 4.0, 100.0, 4.0 / 3.0) == pytest.approx(6.0, rel=1e-15)
        assert riesz_thorin_bound(100.0, 4.0, 9.0, 4.0) == pytest.approx(6.0, rel=1e-15)
        assert riesz_thorin_bound(0.0, 0.0, 0.0, 3) == 0.0

    @pytest.mark.parametrize("name", ["one", "two", "inf"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, "inf"])
    def test_rejects_negative_or_nan_bounds(self, name, bad, p):
        # (-1, 1, 1) at p = 1.5 gave the complex number (0.5+0.866j)
        bounds = {"one": 1.0, "two": 1.0, "inf": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            riesz_thorin_bound(p=p, **bounds)

    def test_infinite_bounds_are_allowed(self):
        assert riesz_thorin_bound(math.inf, 1.0, 1.0, 1.5) == math.inf
        assert riesz_thorin_bound(1.0, 1.0, math.inf, 2) == 1.0

    @pytest.mark.parametrize("one, two, inf, p", [
        (math.inf, 0.0, 1.0, 1.5), (1.0, 0.0, math.inf, 3), (0.0, math.inf, 1.0, 1.5),
    ])
    def test_a_zero_bound_beside_inf_gives_zero(self, one, two, inf, p):
        # inf**(1 - theta) * 0**theta was nan; a zero bound means a zero matrix
        assert riesz_thorin_bound(one, two, inf, p) == 0.0

    def test_bounds_the_power_iteration_ratio(self):
        rng = np.random.default_rng(2026)
        for shape in [(4, 4), (7, 3), (3, 9), (25, 25)]:
            a = rng.standard_normal(shape)
            one, two, inf = opnorm_one(a), opnorm_two(a), opnorm_inf(a)
            for p in (1.1, 1.5, 3.0, 10.0):
                bound = riesz_thorin_bound(one, two, inf, p)
                assert opnorm_p_estimate(a, p).lower <= bound

    def test_sharper_than_interpolation_on_a_random_square(self):
        a = np.random.default_rng(7).standard_normal((60, 60))
        bound = riesz_thorin_bound(opnorm_one(a), opnorm_two(a), opnorm_inf(a), 3)
        assert bound < 0.5 * interpolation_bound(a, 3)


class TestOutwardUpper:
    def test_names_the_smaller_bound(self):
        a = np.random.default_rng(9).standard_normal((20, 30))
        one, two, inf = opnorm_one(a), opnorm_two(a), opnorm_inf(a)
        outward = 1.0 + opnorm._UPPER_SLACK
        for p in (1.5, 3.0):
            order = NormOrder.of(p)
            assert opnorm._outward_upper(one, two, inf, order) == (
                outward * riesz_thorin_bound(one, two, inf, p), "Riesz-Thorin"
            )
            # a two-norm rounded far up leaves the interpolation bound
            assert opnorm._outward_upper(one, 1e6, inf, order) == (
                outward * interpolation_bound(a, p), "interpolation"
            )

    def test_bounds_the_power_iteration_ratio_on_tight_matrices(self):
        # rank one and constant: every bound is tight, so only the outward
        # rounding keeps the realized ratio below it
        for a in (np.full((6, 6), 3.1), np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0])):
            one, two, inf = opnorm_one(a), opnorm_two(a), opnorm_inf(a)
            for p in (1.25, 1.5, 3.0, 7.0):
                upper, _ = opnorm._outward_upper(one, two, inf, NormOrder.of(p))
                assert opnorm_p_estimate(a, p).lower <= upper


class TestPEstimate:
    def test_rows_mapped_to_zero_drop_out(self):
        # the e_2 restart maps to 0, and so does the all-ones one (zero row
        # sums); the iteration stays finite and its ratio stays realized
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        for p in (1.5, 3.0):
            est = opnorm_p_estimate(a, p)
            assert np.all(np.isfinite(est.witness))
            assert est.lower == vector_norm(a @ est.witness, p) / vector_norm(est.witness, p)
            assert est.lower == pytest.approx(2.0, rel=1e-12)
        assert opnorm_p_estimate(np.zeros((3, 3)), 3).lower == 0.0

    def test_two_point_core_p3(self):
        est = opnorm_p_estimate(two_point_core(), 3)
        assert est.lower >= 0.5 - 1e-9
        assert est.upper == pytest.approx(0.5, abs=1e-12)
        assert est.exact

    def test_diagonal_any_p_is_tight(self):
        a = np.diag([-4.0, 2.5])
        for p in (1.3, 2.7, 5.0):
            est = opnorm_p_estimate(a, p)
            assert est.exact
            assert est.lower == pytest.approx(4.0, rel=1e-12)

    def test_frozen_sampling_oracle(self):
        est = opnorm_p_estimate(ORACLE_A, 1.5)
        assert est.lower == pytest.approx(ORACLE_P15_LOWER, abs=1e-6)
        assert est.lower <= est.upper

    def test_witness_reproduces_lower(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            a = rng.uniform(-1, 1, size=(5, 5))
            for p in (1.2, 1.5, 3.0, 7.0):
                est = opnorm_p_estimate(a, p)
                ratio = vector_norm(a @ est.witness, p) / vector_norm(est.witness, p)
                assert abs(ratio - est.lower) <= 1e-12

    @pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9)])
    def test_two_norm_witness_owns_its_data(self, shape):
        # a view into the eigenvector matrix would keep all n x n of it alive
        a = np.random.default_rng(57).uniform(-1, 1, size=shape)
        assert opnorm_p_estimate(a, 2).witness.base is None

    @pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9)])
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_two_norm_witness_is_a_unit_vector(self, shape, scale):
        a = scale * np.random.default_rng(58).uniform(-1, 1, size=shape)
        w = opnorm_p_estimate(a, 2).witness
        assert w.shape == (shape[1],)
        assert vector_norm(w, 2) == pytest.approx(1.0, rel=1e-15)

    def test_exact_orders_carry_witnesses(self):
        rng = np.random.default_rng(56)
        a = rng.uniform(-1, 1, size=(6, 4))
        for p in (1, 2, "inf"):
            est = opnorm_p_estimate(a, p)
            ratio = vector_norm(a @ est.witness, p) / vector_norm(est.witness, p)
            assert abs(ratio - est.lower) <= 1e-12

    def test_interpolation_soundness_sweep(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.uniform(-1, 1, size=(n, n))
            for p in (1.2, 1.5, 2.0, 3.0, 7.0):
                est = opnorm_p_estimate(a, p)
                assert est.lower <= interpolation_bound(a, p) + 1e-12

    def test_duality_brackets_overlap(self):
        # ||A||_p = ||A^T||_q for conjugate orders: the brackets must intersect
        rng = np.random.default_rng(77)
        for _ in range(40):
            a = rng.uniform(-1, 1, size=(5, 5))
            p = NormOrder(float(rng.uniform(1.1, 6.0)))
            est = opnorm_p_estimate(a, p)
            dual = opnorm_p_estimate(a.T, p.p / (p.p - 1.0))
            assert est.lower <= dual.upper + 1e-12
            assert dual.lower <= est.upper + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(78)
        a = rng.uniform(-1, 1, size=(4, 4))
        for p in (1, 1.5, 2, "inf"):
            one = opnorm_p_estimate(a, p)
            scaled = opnorm_p_estimate(2.5 * a, p)
            assert scaled.lower == pytest.approx(2.5 * one.lower, rel=1e-14)
            assert scaled.upper == pytest.approx(2.5 * one.upper, rel=1e-14)

    def test_zero_matrix(self):
        est = opnorm_p_estimate(np.zeros((3, 3)), 1.5)
        assert est.lower == est.upper == 0.0
        assert est.exact


    @pytest.mark.parametrize("call", [
        lambda a: opnorm_p_estimate(a, 1),
        lambda a: opnorm_p_estimate(a, "inf"),
        lambda a: interpolation_bound(a, 3),
    ], ids=["p_estimate_one", "p_estimate_inf", "interpolation_bound"])
    def test_validates_once(self, call, monkeypatch):
        calls = []
        validate = opnorm._as_matrix
        monkeypatch.setattr(opnorm, "_as_matrix", lambda a: calls.append(a) or validate(a))
        call(ORACLE_A)
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    @pytest.mark.parametrize("call", [
        opnorm_one,
        opnorm_inf,
        opnorm_two,
        lambda a: interpolation_bound(a, 3),
        lambda a: opnorm_p_estimate(a, 1),
        lambda a: opnorm_p_estimate(a, 1.5),
        lambda a: opnorm_p_estimate(a, 2),
        lambda a: opnorm_p_estimate(a, "inf"),
    ], ids=["one", "inf", "two", "interpolation_bound", "p_estimate_one",
            "p_estimate_general", "p_estimate_two", "p_estimate_inf"])
    def test_rejects_empty_matrices(self, call, shape):
        with pytest.raises(ValueError, match="non-empty matrix"):
            call(np.zeros(shape))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_orders_match_the_closed_forms_bitwise(self, seed):
        a = np.random.default_rng(seed).normal(size=(7, 5)) * 10.0 ** seed
        for arr in (a, a.T, np.asfortranarray(a)):
            assert opnorm_p_estimate(arr, 1).lower == opnorm_one(arr)
            assert opnorm_p_estimate(arr, "inf").lower == opnorm_inf(arr)
            assert interpolation_bound(arr, 1) == opnorm_one(arr)
            assert interpolation_bound(arr, "inf") == opnorm_inf(arr)


class TestPowerBracketLift:
    """An upper end below the realized ratio is lifted onto it only by
    relative rounding noise, at every scale of the operator."""

    @staticmethod
    def bracket(scale, given):
        # A = scale I has every p-norm equal to scale; `given` scale is
        # passed as its 1-, 2- and inf-norm
        apply = lambda V: scale * V
        norm = given * scale
        return opnorm._power_bracket(apply, apply, 3, NormOrder(1.5), norm, norm, norm)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_rounding_noise_is_lifted(self, scale):
        est = self.bracket(scale, 1.0 - 1e-11)
        assert est.exact and est.lower == est.upper
        assert est.lower == pytest.approx(scale, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_exact_bracket_keeps_its_outward_upper_end(self, scale):
        # the ends agree to 1e-9, and the upper end is the outward bound, not
        # the witnessed ratio, which may sit a few ulp below the norm
        est = self.bracket(scale, 1.0)
        outward, _ = opnorm._outward_upper(scale, scale, scale, NormOrder(1.5))
        assert est.exact and est.upper == outward > est.lower

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_inconsistent_upper_ends_raise(self, scale):
        # a tiny operator's upper end half its realized ratio is no rounding
        with pytest.raises(OpNormError, match="exceeds upper bound"):
            self.bracket(scale, 0.5)


class TestInfiniteUpperEnd:
    def test_infinite_upper_is_never_exact(self):
        # ||A||_inf = 2e308 overflows, so both upper bounds are inf; the
        # finite realized ratio is no proof that the norm is that ratio
        a = np.array([[1e308, 1e308]])
        est = opnorm_p_estimate(a, 3)
        assert est.upper == math.inf
        assert not est.exact
        assert est.lower == vector_norm(a @ est.witness, 3) / vector_norm(est.witness, 3)
        assert est.lower == pytest.approx(2.0 ** (2.0 / 3.0) * 1e308, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_overflowing_sweeps_warn_nothing(self, p):
        # A^T u overflows to inf inside the power iteration, then inf / inf
        a = np.array([[1e308], [1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = opnorm_p_estimate(a, p)
        assert est.lower == pytest.approx(2.0 ** (1.0 / p) * 1e308, rel=1e-12)
        if p < 2.0:  # ||A||_1 = 2e308 overflows: inf upper end, not exact
            assert est.upper == math.inf and not est.exact


class TestFrozenBoydBrackets:
    """The row-block power iteration reproduces the recorded brackets.

    A `lower` may differ from the recorded one in its last bits (matrix
    products and the p-th root round differently), but it must stay a ratio
    its own witness realizes exactly.
    """

    @pytest.mark.parametrize("seed, shape, p, lower, upper, method", FROZEN_MATRIX_BRACKETS)
    def test_matrix(self, seed, shape, p, lower, upper, method):
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
        est = opnorm_p_estimate(a, p)
        assert est.lower == pytest.approx(lower, rel=1e-12, abs=0.0)
        assert est.upper == pytest.approx(upper, rel=1e-12, abs=0.0)
        assert est.method == method
        assert est.lower <= est.upper
        assert vector_norm(a @ est.witness, p) / vector_norm(est.witness, p) == est.lower

    @pytest.mark.parametrize("seed, n, lam, p, lower, upper", FROZEN_JACOBIAN_BRACKETS)
    def test_local_lipschitz(self, seed, n, lam, p, lower, upper):
        x = np.random.default_rng(seed).normal(scale=2.0, size=n)
        est = local_lipschitz(x, lam, p)
        assert est.lower == pytest.approx(lower, rel=1e-12, abs=0.0)
        assert est.upper == pytest.approx(upper, rel=1e-12, abs=0.0)
        assert est.lower <= est.upper
        assert est.method == "power iteration + Riesz-Thorin"
        # the witness realizes `lower` exactly through the O(n) product the
        # iteration ran on, and through the dense J up to rounding
        probs = softmax(x, lam).probs
        w = est.witness
        assert vector_norm(_jacobian_times(probs, lam)(w[None])[0], p) / vector_norm(w, p) == est.lower
        jac = lam * m_of_s(probs)
        assert vector_norm(jac @ w, p) / vector_norm(w, p) == pytest.approx(est.lower, rel=1e-14)
        # the dense power iteration finds no ratio above the upper end
        assert opnorm_p_estimate(jac, p).lower <= est.upper

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_restart_block_is_kept_read_only(self, n):
        block = opnorm._restart_block(n)
        assert opnorm._restart_block(n) is block and not block.flags.writeable
        fresh = opnorm._restart_block.__wrapped__(n)
        assert block.shape == (opnorm._BOYD_RESTARTS, n) and block.tobytes() == fresh.tobytes()
        # the rows' norms, kept per (n, p) in a bounded cache of
        # _BOYD_RESTARTS floats each, are those of a fresh block
        assert opnorm._restart_norms.cache_info().maxsize == opnorm._RESTART_NORMS_KEPT
        for p in (1.5, 3.0):
            norms = opnorm._restart_norms(n, p)
            assert opnorm._restart_norms(n, p) is norms and not norms.flags.writeable
            assert norms.shape == (opnorm._BOYD_RESTARTS,)
            assert norms.tobytes() == opnorm.row_norms(fresh, p).tobytes()


class TestMaxoutStrictness:
    def test_rows_below_max_by_squared_gap(self):
        """With an entry at 1/2 and support > 2, at least two rows sit
        strictly below the max row sum; a row at s_i = 1/2 - d trails by
        exactly 2 d^2 (row sums are 2 s (1 - s))."""
        for s in (
            np.array([0.5, 0.3, 0.2]),
            np.array([0.5, 0.25, 0.15, 0.1]),
            np.array([0.2, 0.5, 0.1, 0.1, 0.1]),
        ):
            mat = m_of_s(s)
            row_sums = np.abs(mat).sum(axis=1)
            top = row_sums.max()
            assert top == pytest.approx(0.5, abs=1e-15)
            below = np.flatnonzero(s < 0.5)
            assert below.size >= 2
            for i in below:
                d = 0.5 - s[i]
                margin = top - row_sums[i]
                assert margin > 0.0
                assert margin == pytest.approx(2.0 * d * d, abs=1e-12)


class TestNormEstimateType:
    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError):
            NormEstimate(2.0, 1.0, exact=False, method="x")

    def test_exact_ends_need_not_be_equal(self):
        # exact means the ends agree to relative 1e-9; the upper end stays outward
        est = NormEstimate(1.0, 1.0 + 1e-12, exact=True, method="x")
        assert est.upper > est.lower
        with pytest.raises(ValueError):
            NormEstimate(1.5, 1.0, exact=True, method="x")


class TestTwoNormFallback:
    def test_eigensolve_failure_carries_certified_bracket(self, monkeypatch):
        import softlip.opnorm as opnorm_module
        from softlip.opnorm import OpNormError

        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(opnorm_module.np.linalg, "eigvalsh", boom)
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5))
        with pytest.raises(OpNormError) as excinfo:
            opnorm_module.opnorm_two(a)
        bracket = excinfo.value.bracket
        true_norm = np.linalg.svd(a, compute_uv=False)[0]
        assert bracket.lower <= true_norm + 1e-12
        assert bracket.upper >= true_norm - 1e-12
        # the lower end is the ratio realized at the best basis vector
        best_col = np.sqrt((a * a).sum(axis=0).max())
        assert bracket.lower == pytest.approx(best_col, rel=1e-14)

    @pytest.mark.parametrize("shape", [(5, 5), (7, 4), (4, 7)])
    def test_p_estimate_fails_like_opnorm_two(self, shape, monkeypatch):
        from softlip.opnorm import OpNormError

        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        a = np.random.default_rng(10).normal(size=shape)
        with pytest.raises(OpNormError) as two:
            opnorm_two(a)
        with pytest.raises(OpNormError) as estimate:
            opnorm_p_estimate(a, 2)
        assert estimate.value.bracket == two.value.bracket
        assert isinstance(estimate.value.__cause__, np.linalg.LinAlgError)


def _fail_eigensolve(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


#: [[3, 1], [0, 2]] has A^T A = [[9, 3], [3, 5]], so ||A||_2 = sqrt(7 + sqrt(13)).
SMALL_TRIANGLE = np.array([[3.0, 1.0], [0.0, 2.0]])
SMALL_TRIANGLE_NORM = math.sqrt(7.0 + math.sqrt(13.0))


class TestTwoNormRange:
    """The dense 2-norm at the ends of float64, where A^T A overflows or
    underflows; each case once gave a wrong answer."""

    def test_huge_entries(self):
        # A^T A overflowed: the norm was NaN
        assert opnorm_two([[1e200, 0.0], [0.0, 1e200]]) == 1e200

    def test_tiny_entries(self):
        # A^T A underflowed to 0: the norm was 0
        assert opnorm_two([[1e-200, 0.0], [0.0, 2e-200]]) == 2e-200

    def test_subnormal_gram_bracket(self):
        # A^T A was subnormal: an "exact" 2.236e-170 came back
        a = 1e-170 * SMALL_TRIANGLE
        est = opnorm_p_estimate(a, 2)
        assert est.exact
        assert est.upper == pytest.approx(1e-170 * SMALL_TRIANGLE_NORM, rel=1e-14, abs=0.0)
        assert opnorm_two(a) == pytest.approx(est.upper, rel=1e-14, abs=0.0)
        realized = vector_norm(a @ est.witness, 2) / vector_norm(est.witness, 2)
        assert realized == est.lower

    def test_norm_beyond_the_float_range_raises(self):
        a = np.full((2, 2), 1e308)  # ||A||_2 = 2e308
        with pytest.raises(OverflowError, match="exceeds the float range"):
            opnorm_two(a)
        with pytest.raises(OverflowError, match="exceeds the float range"):
            opnorm_p_estimate(a, 2)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_fallback_bracket_at_the_ends(self, scale, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _fail_eigensolve)
        with pytest.raises(OpNormError) as excinfo:
            opnorm_two(scale * SMALL_TRIANGLE)
        bracket = excinfo.value.bracket
        # the best column two-norm, and sqrt(||A||_1 ||A||_inf) below Frobenius
        assert bracket.lower == pytest.approx(3.0 * scale, rel=1e-15, abs=0.0)
        assert bracket.upper == pytest.approx(math.sqrt(12.0) * scale, rel=1e-15, abs=0.0)


_SCALE_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(2.0**-20, 1.0, exclude_max=True),
    st.floats(-1.0, -(2.0**-20), exclude_min=True),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    top=st.floats(0.5, 1.0, exclude_max=True),
    ks=st.lists(st.integers(-990, 1000), min_size=1, max_size=16),
    data=st.data(),
)
def test_two_norm_scales_by_powers_of_two(shape, top, ks, data):
    # max|a_ij| lies in [1/2, 1) and no nonzero entry is below 2^-20, so
    # every ldexp(A, k) is exact and the Gram rescale gives back A's bits
    size = shape[0] * shape[1]
    a = np.array(data.draw(st.lists(_SCALE_ENTRIES, min_size=size, max_size=size))).reshape(shape)
    a.flat[data.draw(st.integers(0, size - 1))] = top
    two, upper = opnorm_two(a), opnorm_p_estimate(a, 2).upper
    for k in ks:
        scaled = np.ldexp(a, k)
        assert opnorm_two(scaled) == math.ldexp(two, k)
        assert opnorm_p_estimate(scaled, 2).upper == math.ldexp(upper, k)
