import math
import time
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softlip.core as core
import softlip.lipschitz as lipschitz
import softlip.opnorm as opnorm_module
from softlip.core import _jacobian_times, m_of_s, softmax
from softlip.fixtures import example_logits
from softlip.lipschitz import (
    ScsaParams,
    WitnessPair,
    closed_form_linf,
    cocoercivity_check,
    global_bound,
    local_lipschitz,
    scsa_bound,
    scsa_bound_unrefined,
    witness_attained,
    witness_example_pair,
    witness_limit_sequence,
)
from softlip.opnorm import (
    opnorm_inf,
    opnorm_p_estimate,
    opnorm_two,
    riesz_thorin_bound,
    vector_norm,
)

# Measured secant ratio of the near-attaining pair in R^10 with K = 20 and
# a 1e-4 step along the top Jacobian eigenvector; norm-independent.
EXAMPLE_RATIO = 0.49999999504472

# n = 2 variant at x = (0, 0): the exact ratio is tanh(a) / (2a) with
# a = eps / sqrt(2); frozen from a 60-digit mpmath evaluation at eps = 1e-4.
EXAMPLE_RATIO_N2 = 0.49999999916666665


class TestGlobalBound:
    def test_values(self):
        assert global_bound(1.0) == 0.5
        assert global_bound(2.0) == 1.0
        assert global_bound(0.5) == 0.25


class TestLocalLipschitz:
    def test_half_mass_point_p1_exact(self):
        x = np.zeros(10)
        x[0] = math.log(9.0)
        est = local_lipschitz(x, 1.0, 1)
        assert est.exact
        assert abs(est.upper - 0.5) <= 1e-14

    def test_uniform_inf_closed_form(self):
        for n in (2, 3, 7):
            est = local_lipschitz(np.zeros(n), 1.0, "inf")
            expected = 2.0 * (1.0 / n) * (1.0 - 1.0 / n)
            assert est.upper == pytest.approx(expected, rel=1e-14)
            # cross-check the closed form against the generic row-sum norm
            mat = m_of_s(softmax(np.zeros(n)).probs)
            assert est.upper == pytest.approx(opnorm_inf(mat), rel=1e-14)

    def test_linear_in_temperature_at_fixed_point(self):
        # The constant is lam * ||M(sig_lam(x))||, so pure lam-scaling holds
        # exactly where the softmax point does not move with lam; the
        # uniform point is such a point for every lam.
        x = np.zeros(6)
        one = local_lipschitz(x, 1.0, 2)
        three = local_lipschitz(x, 3.0, 2)
        assert three.upper == pytest.approx(3.0 * one.upper, rel=1e-12)

    def test_temperature_enters_through_point_and_scale(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, size=6)
        lam = 3.0
        est = local_lipschitz(x, lam, 2)
        assert est.upper == pytest.approx(
            lam * opnorm_two(m_of_s(softmax(x, lam).probs)), rel=1e-12
        )

    def test_general_p_bracket(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = rng.uniform(-4, 4, size=int(rng.integers(2, 12)))
            lam = float(rng.choice([0.25, 1.0, 4.0]))
            for p in (1.5, 3.0):
                est = local_lipschitz(x, lam, p)
                assert 0.0 <= est.lower <= est.upper
                assert est.upper <= lam / 2.0 + 1e-12

    def test_exact_orders_have_witnesses(self):
        x = np.array([0.2, -1.0, 0.7])
        for p in (1, "inf"):
            est = local_lipschitz(x, 2.0, p)
            j = 2.0 * m_of_s(softmax(x, 2.0).probs)
            ratio = vector_norm(j @ est.witness, p) / vector_norm(est.witness, p)
            assert abs(ratio - est.lower) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 40.0, 400.0, 2000.0])
    def test_inf_witness_is_the_dense_sign_row(self, scale):
        # large scales saturate the softmax, so some products s_i s_j underflow
        rng = np.random.default_rng(int(scale))
        for n in (2, 7, 64):
            x = scale * rng.standard_normal(n)
            est = local_lipschitz(x, 1.0, "inf")
            s = softmax(x, 1.0)
            m = m_of_s(s)
            i = int(np.diag(m).argmax())
            np.testing.assert_array_equal(est.witness, np.sign(m[i]))

    def test_two_norm_witness_owns_its_data(self):
        # a view would pin the solver's work arrays per estimate
        x = np.random.default_rng(8).standard_normal(64)
        assert local_lipschitz(x, 1.0, 2).witness.base is None

    def test_inf_witness_needs_no_square_matrix(self):
        n = 2048
        x = np.random.default_rng(5).standard_normal(n)
        local_lipschitz(x, 1.0, "inf")  # warm up imports and caches
        tracemalloc.start()
        try:
            local_lipschitz(x, 1.0, "inf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_p_upper_capped_at_lambda_half(self, p):
        # the interpolation bound rounds one or two ulps past lam/2 here;
        # Riesz-Thorin, from ||J||_2 = 0.5 - 1.4e-9, stays below it
        est = local_lipschitz(example_logits(10), 1.0, p)
        assert est.upper < 0.5
        assert est.method == "power iteration + Riesz-Thorin"
        assert not est.exact and est.lower < est.upper
        # at the uniform point of R^2 every norm of J is exactly lam/2, and
        # the bounds rounded outward pass it, so the cap wins
        for lam in (1.0, 3.0):
            est = local_lipschitz(np.zeros(2), lam, p)
            assert est.method == "power iteration + lam/2 cap"
            assert est.exact and est.upper == pytest.approx(lam / 2.0, rel=1e-15)

    def test_logits_or_their_softmax_point(self):
        # a seeded grid whose scale-400 points have clamped softmax entries;
        # the point path and the logits path give the same bracket, bit for bit
        rng = np.random.default_rng(12)
        clamped = 0
        for n in (2, 9, 64):
            for scale in (0.1, 1.0, 40.0, 400.0):
                x = scale * rng.standard_normal(n)
                for lam in (0.5, 2.5):
                    point = softmax(x, lam)
                    clamped += point.clamped
                    for p in (1, 1.5, 2, 3, "inf"):
                        by_logits = local_lipschitz(x, lam, p)
                        by_point = local_lipschitz(point, lam, p)
                        assert (by_point.lower, by_point.upper) == (by_logits.lower, by_logits.upper)
                        assert by_point.method == by_logits.method
                        assert by_point.witness.tobytes() == by_logits.witness.tobytes()
        assert clamped  # the grid holds clamped points


# perfbench's tolerance for exact norms: 1e-12 relative, or 64 ulp at the
# scale lam of the Jacobian's entries (saturated rows lose digits to 1 - s).
def close(a, b, lam):
    return abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 64 * np.finfo(np.float64).eps * lam)


def exact_core(mp, x, lam):
    """Diag(s) - s s^T of the exact softmax s of x at lam, in mpmath at the
    working precision, and that s."""
    e = [mp.exp(lam * mp.mpf(float(v))) for v in x]
    total = mp.fsum(e)
    s = [v / total for v in e]
    n = len(s)
    return mp.matrix([[(s[i] if i == j else 0) - s[i] * s[j] for j in range(n)]
                      for i in range(n)]), s


def mp_norm(mp, v, p):
    """The lp norm of an mpmath vector (mpmath's own `norm` rounds the
    order of its root down to an integer)."""
    return mp.fsum(abs(t) ** p for t in v) ** (1 / mp.mpf(p))


class TestSecularTwoNorm:
    """p = 2 from the secular equation, against the dense eigensolve."""

    @staticmethod
    def inputs(rng, n, scale):
        x = scale * rng.standard_normal(n)
        top = x.max() + 1.0
        tied2 = x.copy()
        tied2[:2] = top
        tied_all = x.copy()
        tied_all[: min(n, 3)] = top
        near = tied2.copy()
        near[1] = np.nextafter(top, -np.inf)
        return [x, tied2, tied_all, near]

    @pytest.mark.parametrize("n", [2, 3, 16, 64, 512])
    def test_agrees_with_dense_eigensolve(self, n):
        rng = np.random.default_rng(n)
        cases = [np.zeros(n)]  # every entry tied
        for scale in (0.0, 0.1, 1.0, 4.0, 40.0, 400.0, 2000.0):
            cases += self.inputs(rng, n, scale)
        for x in cases:
            for lam in (0.25, 1.0, 4.0):
                est = local_lipschitz(x, lam, 2)
                assert est.exact and est.lower == est.upper
                assert est.method == "secular equation"
                jac = lam * m_of_s(softmax(x, lam).probs)
                assert close(est.lower, float(np.linalg.eigvalsh(jac)[-1]), lam)
                realized = vector_norm(jac @ est.witness, 2) / vector_norm(est.witness, 2)
                assert close(realized, est.lower, lam)

    @pytest.mark.parametrize("x, lam", [
        ([0.0, -40.0], 1.0),
        ([0.0, -40.0], 4.0),
        ([0.0, -50.0, -60.0, -80.0], 1.0),
        ([0.0, -100.0, -100.5, -300.0], 1.0),
        ([0.0, -100.0, -100.5, -300.0], 4.0),  # every entry of J w is below 1e-154
        ([0.0, -10.0, -12.0], 4.0),
        ([0.0, -30.0, -30.0], 4.0),
    ])
    def test_saturated_rows_keep_relative_accuracy(self, x, lam):
        # s_1 rounds to 1 and the constant is tiny: computed directly, both
        # 1 - s_1^2 / (s_1 - mu) and w_1 - s.w would lose every digit. The
        # oracle is the Jacobian of the exact softmax at x, whose 1 - s_1
        # (down to 2e-174 here) needs hundreds of digits.
        mp = pytest.importorskip("mpmath")
        assert softmax(x, lam).probs[0] == 1.0
        with mp.workdps(400):
            m, _ = exact_core(mp, x, lam)
            exact = lam * float(max(mp.eigsy(m, eigvals_only=True)))
        assert local_lipschitz(x, lam, 2).lower == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_tied_top_is_exact(self):
        # (e_1 - e_2) / sqrt(2) is an eigenvector for the eigenvalue s_1
        x = np.array([2.0, 2.0, 0.5, -1.0])
        s = softmax(x).probs
        est = local_lipschitz(x, 1.0, 2)
        assert est.lower == pytest.approx(s[0], rel=1e-15)
        np.testing.assert_array_equal(np.abs(est.witness), [math.sqrt(0.5)] * 2 + [0.0] * 2)

    def test_needs_no_square_matrix_or_eigensolve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the p = 2 constant must not form or factor J")

        monkeypatch.setattr(lipschitz, "jacobian", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        n = 2048
        x = np.random.default_rng(5).standard_normal(n)
        local_lipschitz(x, 1.0, 2)  # warm up imports and caches
        tracemalloc.start()
        try:
            local_lipschitz(x, 1.0, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_vocabulary_sized_row(self):
        n, lam = 100_000, 2.0
        x = 4.0 * np.random.default_rng(9).standard_normal(n)
        start = time.perf_counter()
        est = local_lipschitz(x, lam, 2)
        assert time.perf_counter() - start < 1.0
        assert est.exact and 0.0 <= est.lower <= lam / 2.0
        # the top eigenvalue is at least the largest diagonal entry of J
        s = softmax(x, lam).probs
        assert est.lower >= lam * float((s * (1.0 - s)).max()) * (1.0 - 1e-12)


def no_dense_jacobian(monkeypatch):
    """Make every dense route to J or its eigenvectors raise."""
    def fail(*args, **kwargs):
        raise AssertionError("the softmax Jacobian must not be formed or factored")

    for module in (core, lipschitz):
        monkeypatch.setattr(module, "jacobian", fail)
    monkeypatch.setattr(core, "m_of_s", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


def count_jacobian_rows(monkeypatch):
    """Count the row maps `local_lipschitz` builds (`builds`) and the rows
    each application hands them (`rows`)."""
    builds, rows = [], []
    build = lipschitz._jacobian_times

    def counting(probs, lam=1.0, diagonal=None):
        builds.append(lam)
        times = build(probs, lam, diagonal)

        def counted(W):
            rows.append(W.shape[0])
            return times(W)

        return counted

    monkeypatch.setattr(lipschitz, "_jacobian_times", counting)
    return builds, rows


@pytest.mark.parametrize("p", [1, 1.2, 1.5, 2, 3, 7, "inf"])
def test_one_jacobian_diagonal_per_call(p, monkeypatch):
    """The closed form, the row map and the secular witness share the
    diagonal `local_lipschitz` takes once, from logits or from a point, at
    a tied top entry too."""
    calls = []
    diagonal = core._jacobian_diagonal

    def counting(probs):
        calls.append(probs.size)
        return diagonal(probs)

    monkeypatch.setattr(core, "_jacobian_diagonal", counting)
    monkeypatch.setattr(lipschitz, "_jacobian_diagonal", counting)
    x = np.random.default_rng(13).standard_normal(12)
    for point in (x, softmax(x, 2.0), np.array([1.0, 1.0, 0.0, -2.0])):
        calls.clear()
        local_lipschitz(point, 2.0, p)
        assert calls == [point.n if hasattr(point, "n") else point.size]


def assert_holds(ratio, est):
    """A ratio realized by the dense power iteration lies under the bracket's
    upper end, exact or not: an exact bracket keeps its outward upper end."""
    assert ratio <= est.upper


class TestMatrixFreeGeneralP:
    """1 < p < inf, p != 2: power iteration on the O(n) product, Riesz-Thorin above."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_needs_no_square_matrix(self, p, monkeypatch):
        no_dense_jacobian(monkeypatch)
        n = 2048
        x = np.random.default_rng(5).standard_normal(n)
        local_lipschitz(x, 1.0, p)  # warm up imports and caches
        tracemalloc.start()
        try:
            est = local_lipschitz(x, 1.0, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
        assert 0.0 < est.lower <= est.upper <= 0.5

    # Rows of J V applied at the n = 10^5 point below, when these bounds were
    # set; the bound is twice these, a count that no host's speed moves.
    VOCABULARY_ROWS = {1: 0, 1.2: 122, 1.5: 186, 2: 1, 3: 186, 7: 106, "inf": 1}

    @pytest.mark.parametrize("p", [1, 1.2, 1.5, 2, 3, 7, "inf"])
    def test_vocabulary_sized_row(self, p, monkeypatch):
        n, lam = 100_000, 2.0
        x = 4.0 * np.random.default_rng(9).standard_normal(n)
        builds, rows = count_jacobian_rows(monkeypatch)
        tracemalloc.start()
        try:
            est = local_lipschitz(x, lam, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < est.lower <= est.upper <= lam / 2.0
        assert sum(rows) <= 2 * self.VOCABULARY_ROWS[p]
        assert len(builds) == (0 if p == 1 else 1)  # one product per call
        assert peak < 256 * n * 8  # a few hundred n-vectors; J alone is n^2

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 512])
    def test_bracket_holds_the_dense_power_iteration(self, n):
        rng = np.random.default_rng(100 + n)
        for scale in (0.1, 1.0, 4.0, 40.0):
            x = scale * rng.standard_normal(n)
            for lam in (0.25, 1.0, 4.0):
                jac = lam * m_of_s(softmax(x, lam).probs)
                for p in (1.5, 3.0):
                    assert_holds(opnorm_p_estimate(jac, p).lower, local_lipschitz(x, lam, p))

    def test_riesz_thorin_end_is_the_scalar_bound(self):
        x = np.random.default_rng(14).standard_normal(30)
        lam = 1.5
        s = softmax(x, lam).probs
        one = lam * closed_form_linf(s)
        two = local_lipschitz(x, lam, 2).upper
        for p in (1.25, 1.5, 3.0, 7.0):
            est = local_lipschitz(x, lam, p)
            assert est.method == "power iteration + Riesz-Thorin"
            assert est.upper == (1.0 + opnorm_module._UPPER_SLACK) * riesz_thorin_bound(one, two, one, p)
            assert est.upper < min(one, lam / 2.0)


def test_ratio_rounded_above_the_cap():
    # at s = (1/2, 1/2) the realized ratio came out one ulp above lam/2
    lam = 3.966796875
    est = local_lipschitz(np.zeros(2), lam, 1.2)
    assert est.lower == est.upper == lam / 2.0


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@example(n=2, scale=10.0, lam=2.28125, p=1.2, seed=278138049)  # top s rounds near 1
@given(
    n=st.integers(2, 64),
    scale=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3]),
    lam=st.floats(0.25, 4.0),
    p=st.sampled_from([1.2, 1.5, 3.0, 7.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fuzzed_general_p_brackets(n, scale, lam, p, seed):
    x = scale * np.random.default_rng(seed).standard_normal(n)
    est = local_lipschitz(x, lam, p)
    assert 0.0 <= est.lower <= est.upper <= lam / 2.0
    jac = lam * m_of_s(softmax(x, lam).probs)
    w = est.witness
    assert close(vector_norm(jac @ w, p) / vector_norm(w, p), est.lower, lam)
    assert_holds(opnorm_p_estimate(jac, p).lower, est)


# Saturated points: the top softmax entry rounds to 1 (or near it) in float64.
SATURATED = [
    ([40.0, 0.0, 0.0, 0.0, 0.0], 1.0),
    ([0.0, -40.0], 1.0),
    ([0.0, -40.0], 4.0),
    ([0.0, -50.0, -60.0, -80.0], 1.0),
    ([0.0, -100.0, -100.5, -300.0], 4.0),
    ([0.0, -10.0, -12.0], 4.0),
    ([0.0, -30.0, -30.0], 4.0),
    ([10.0, 0.0], 2.28125),
]


class TestAgainstTheExactSoftmax:
    """Every form of J against the Jacobian of the exact softmax at x.

    The oracle takes s from x at 400 digits, so a top entry that rounds to 1
    in float64 keeps its 1 - s_1. The random points have no clamped or
    subnormal softmax entry: such an entry is off by more than a relative
    rounding before J is formed. What is left is the softmax's own rounding.
    """

    @staticmethod
    def points():
        rng = np.random.default_rng(2025)
        candidates = iter(SATURATED)
        points = []
        while len(points) < 160:
            x, lam = next(candidates, (None, None))
            if x is None:
                scale = 10.0 ** rng.uniform(-1.0, math.log10(400.0))
                lam = float(rng.choice([0.25, 1.0, 4.0]))
                x = scale * rng.standard_normal(int(rng.integers(2, 9)))
            s = softmax(x, lam)
            if not s.clamped and s.probs.min() >= np.finfo(np.float64).tiny:
                points.append((np.asarray(x), lam))
        return points

    def test_every_form_keeps_relative_accuracy(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        for x, lam in self.points():
            probs = softmax(x, lam).probs
            n = probs.size
            W = rng.standard_normal((3, n))
            with mp.workdps(400):
                m, s = exact_core(mp, x, lam)
                one = lam * max(2 * si * (1 - si) for si in s)
                two = lam * max(mp.eigsy(m, eigvals_only=True))
                assert abs(local_lipschitz(x, lam, 1).upper - one) <= 1e-12 * one
                assert abs(local_lipschitz(x, lam, 2).upper - two) <= 1e-12 * two
                got = m_of_s(probs)
                for i in range(n):
                    row = [m[i, j] for j in range(n)]
                    err = max(abs(got[i, j] - row[j]) for j in range(n))
                    assert err <= 1e-12 * max(abs(v) for v in row), (x, lam, i)
                got = _jacobian_times(probs, lam)(W)
                for r in range(3):
                    jw = [lam * mp.fsum(m[i, j] * float(W[r, j]) for j in range(n))
                          for i in range(n)]
                    err = max(abs(got[r, i] - jw[i]) for i in range(n))
                    assert err <= 1e-12 * max(abs(v) for v in jw), (x, lam, r)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_p_upper_ends_hold_their_witness(self, p):
        # the ratio a bracket's own witness realizes in exact arithmetic is
        # under its upper end, exact or not: an exact bracket keeps its
        # outward upper end
        mp = pytest.importorskip("mpmath")
        for x, lam in self.points():
            est = local_lipschitz(x, lam, p)
            w = est.witness
            with mp.workdps(400):
                m, _ = exact_core(mp, x, lam)
                jw = lam * (m * mp.matrix(w.tolist()))
                ratio = mp_norm(mp, jw, p) / mp_norm(mp, w.tolist(), p)
                assert ratio <= est.upper, (x, lam, est)

    def test_pinned_saturated_values(self):
        # x = (40, 0, 0, 0, 0): the top entry, 1 - 1.7e-17, rounds to 1
        x = [40.0, 0.0, 0.0, 0.0, 0.0]
        for p, value in ((1, 3.3986834042332710e-17), (2, 2.1241771276457944e-17)):
            est = local_lipschitz(x, 1.0, p)
            assert est.exact and abs(est.upper - value) <= 2 * math.ulp(value)

    @pytest.mark.parametrize("x, lam", SATURATED)
    def test_dense_core_has_zero_row_sums(self, x, lam):
        m = m_of_s(softmax(x, lam))
        np.testing.assert_array_less(np.abs(m.sum(axis=1)), 1e-15 * np.abs(m).sum(axis=1))


class TestWitnessAttained:
    def test_exact_half_for_all_small_n(self):
        for n in range(2, 13):
            for p in (1, "inf"):
                x, constant = witness_attained(n, p)
                assert abs(constant - 0.5) <= 1e-14
                assert abs(softmax(x).probs[0] - 0.5) <= 1e-14

    def test_n2_is_uniform_point(self):
        x, constant = witness_attained(2, 1)
        np.testing.assert_array_equal(x.values, np.zeros(2))
        assert constant == 0.5

    def test_n3_inf(self):
        x, constant = witness_attained(3, "inf")
        assert x.values[0] == pytest.approx(math.log(2.0))
        assert abs(constant - 0.5) <= 1e-14

    def test_rejects_intermediate_orders(self):
        with pytest.raises(ValueError):
            witness_attained(5, 2)
        with pytest.raises(ValueError):
            witness_attained(5, 1.5)


class TestWitnessLimitSequence:
    def test_identity_and_monotonicity(self):
        epsilons = [10.0**-k for k in range(1, 9)]
        for p in (1.5, 2.0, 3.0):
            steps = witness_limit_sequence(5, p, epsilons)
            ratios = [st.certified_ratio for st in steps]
            for st in steps:
                assert abs(st.certified_ratio - (0.5 - st.epsilon)) <= 1e-12
                assert abs(st.certified_ratio - st.closed_form) <= 1e-12
                assert 0.0 < st.delta < 0.5
                assert st.s.min() > 0.0
                assert st.s.sum() == pytest.approx(1.0, abs=1e-14)
            assert ratios == sorted(ratios)  # smaller eps => closer to 1/2

    def test_textbook_value(self):
        (step,) = witness_limit_sequence(5, 2, [0.1])
        assert step.certified_ratio == pytest.approx(0.4, abs=1e-15)

    def test_delta_solves_quadratic(self):
        (step,) = witness_limit_sequence(6, 2.5, [0.3])
        assert 2.0 * step.delta * (1.0 - step.delta) == pytest.approx(0.3, rel=1e-14)

    def test_near_collapse(self):
        (step,) = witness_limit_sequence(5, 2, [0.5 - 1e-15])
        assert step.certified_ratio == pytest.approx(0.0, abs=2e-15)

    def test_rejections(self):
        with pytest.raises(ValueError):
            witness_limit_sequence(5, 2, [0.5])
        with pytest.raises(ValueError):
            witness_limit_sequence(5, 2, [-0.1])
        with pytest.raises(ValueError):
            witness_limit_sequence(2, 2, [0.1])
        with pytest.raises(ValueError):
            witness_limit_sequence(5, 1, [0.1])
        with pytest.raises(ValueError):
            witness_limit_sequence(5, "inf", [0.1])


class TestWitnessExamplePair:
    def test_reference_ratio_all_orders(self):
        for p in (1, 1.5, 2, 3, "inf"):
            pair = witness_example_pair(10, 20.0, 1e-4, p)
            assert pair.ratio == pytest.approx(EXAMPLE_RATIO, abs=1e-9)

    def test_n2_matches_tanh_oracle(self):
        # Cancellation in sig(y) - sig(x) limits the float64 measurement to
        # ~1e-12 here; the Taylor gap being validated is ~8.3e-10.
        pair = witness_example_pair(2, 0.0, 1e-4, 2)
        assert pair.ratio == pytest.approx(EXAMPLE_RATIO_N2, abs=1e-11)

    def test_tiny_step_approaches_but_stays_below_half(self):
        pair = witness_example_pair(10, 20.0, 1e-8, 2)
        assert pair.ratio < 0.5
        assert 0.5 - pair.ratio <= 1e-7  # dominated by the gap of s_1 to 1/2

    def test_n2_tiny_step_exact_ratio_hugs_half_from_below(self):
        """At eps = 1e-8 the exact ratio is 1/2 - eps^2/12, within 1e-12 of
        1/2 and strictly below it. That is far beneath float64 measurement
        noise, so the strict claims are checked with a 50-digit oracle on
        the same constructed pair; the measured ratio only gets a noise
        envelope."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        pair = witness_example_pair(2, 0.0, 1e-8, 2)

        def mp_softmax(v):
            m = max(v)
            es = [mp.e ** (t - m) for t in v]
            total = sum(es)
            return [e / total for e in es]

        xs = [mp.mpf(float(t)) for t in pair.x.values]
        ys = [mp.mpf(float(t)) for t in pair.y.values]
        num = sum((b - a) ** 2 for a, b in zip(mp_softmax(xs), mp_softmax(ys))) ** mp.mpf("0.5")
        den = sum((b - a) ** 2 for a, b in zip(xs, ys)) ** mp.mpf("0.5")
        exact = num / den
        assert exact < mp.mpf("0.5")
        assert mp.mpf("0.5") - exact <= mp.mpf("1e-12")
        assert abs(pair.ratio - float(exact)) <= 5e-8

    def test_pair_is_reproducible(self):
        pair = witness_example_pair(6, 20.0, 1e-4, 3)
        assert abs(pair.recompute_ratio() - pair.ratio) == 0.0

    def test_ratio_is_evaluated_once(self, monkeypatch):
        # one softmax for the eigenvector, two and two norms for the ratio
        calls = {"softmax": 0, "vector_norm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(lipschitz, name, counted(name, getattr(lipschitz, name)))
        pair = witness_example_pair(10, 20.0, 1e-4, 2)
        assert calls == {"softmax": 3, "vector_norm": 2}
        assert pair.ratio == pytest.approx(EXAMPLE_RATIO, abs=1e-9)

    def test_omitted_ratio_is_measured(self):
        pair = witness_example_pair(5, 20.0, 1e-4, 3)
        assert WitnessPair(pair.x, pair.y, pair.p, pair.lam) == pair

    def test_type_rejects_inflated_ratio(self):
        pair = witness_example_pair(4, 20.0, 1e-4, 2)
        with pytest.raises(ValueError):
            WitnessPair(pair.x, pair.y, pair.p, pair.lam, 0.7)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            witness_example_pair(1, 20.0, 1e-4, 2)
        with pytest.raises(ValueError):
            witness_example_pair(5, -1.0, 1e-4, 2)
        with pytest.raises(ValueError):
            witness_example_pair(5, 20.0, 0.0, 2)


class TestUniversalBound:
    def test_brackets_and_secants_below_lambda_half(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 17))
            x = rng.uniform(-6, 6, size=n)
            lam = float(rng.choice([0.25, 1.0, 2.0, 4.0]))
            p = rng.choice([1.0, 1.5, 2.0, 3.0, np.inf])
            est = local_lipschitz(x, lam, float(p))
            assert est.upper <= lam / 2.0 + 1e-12
            y = x + rng.normal(size=n) * 10.0 ** rng.uniform(-6, 1)
            num = vector_norm(softmax(y, lam).probs - softmax(x, lam).probs, float(p))
            den = vector_norm(y - x, float(p))
            assert num / den <= lam / 2.0 + 1e-12


class TestNonAttainment:
    def test_interior_points_stay_strictly_below_half(self):
        rng = np.random.default_rng(123)
        for _ in range(400):
            n = int(rng.integers(3, 9))
            logits = rng.uniform(-4, 4, size=n)
            if rng.random() < 0.5:
                # concentrate near the attaining direction: one coordinate
                # close to log(n-1) puts s_1 near 1/2
                logits = np.zeros(n)
                logits[0] = math.log(n - 1.0) + rng.uniform(-0.1, 0.1)
                logits[1:] = rng.uniform(-0.05, 0.05, size=n - 1)
            s = softmax(logits).probs
            assert opnorm_two(m_of_s(s)) < 0.5

    def test_boundary_two_point_support_attains_half(self):
        rng = np.random.default_rng(124)
        for n in (3, 5, 8):
            s = np.zeros(n)
            idx = rng.choice(n, size=2, replace=False)
            s[idx] = 0.5
            for p in (1.5, 2.0, 4.0):
                c = 2.0 ** (-1.0 / p)
                v = np.zeros(n)
                v[idx[0]], v[idx[1]] = c, -c
                ratio = vector_norm(m_of_s(s) @ v, p) / vector_norm(v, p)
                assert ratio == pytest.approx(0.5, abs=1e-15)


class TestCocoercivity:
    def test_identical_points(self):
        x = np.array([0.3, -1.0, 2.0])
        lhs, rhs, holds = cocoercivity_check(x, x, 1.0)
        assert (lhs, rhs, holds) == (0.0, 0.0, True)

    def test_random_pairs(self):
        rng = np.random.default_rng(200)
        for _ in range(500):
            x = rng.normal(size=5) * 3
            y = rng.normal(size=5) * 3
            for lam in (1.0, 10.0):
                lhs, rhs, holds = cocoercivity_check(x, y, lam)
                assert holds
                assert lhs >= rhs - 1e-12

    def test_firmly_nonexpansive_for_small_lambda(self):
        rng = np.random.default_rng(201)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            x = rng.normal(size=n) * 4
            y = rng.normal(size=n) * 4
            for lam in (0.5, 1.0, 2.0):
                diff = softmax(x, lam).probs - softmax(y, lam).probs
                sq = float(diff @ diff)
                inner = float(diff @ (x - y))
                assert sq <= inner + 1e-12

    def test_contractive_regime(self):
        rng = np.random.default_rng(202)
        for lam in (0.5, 1.0, 1.9):
            for _ in range(200):
                x = rng.normal(size=4) * 5
                y = rng.normal(size=4) * 5
                num = vector_norm(softmax(x, lam).probs - softmax(y, lam).probs, 2)
                den = vector_norm(x - y, 2)
                assert num / den <= lam / 2.0 + 1e-12


class TestScsaBound:
    def test_unit_parameters(self):
        params = ScsaParams(n=1, nu=1.0, tau=1.0, eps=1.0, wq_norm=1.0, wk_norm=1.0, wv_norm=1.0)
        assert scsa_bound(params) == 4.0

    def test_hand_evaluated_instance(self):
        params = ScsaParams(n=2, nu=1.0, tau=2.0, eps=4.0, wq_norm=1.0, wk_norm=1.0, wv_norm=1.0)
        assert scsa_bound(params) == 8.0

    def test_homogeneous_in_nu(self):
        a = ScsaParams(n=3, nu=1.0, tau=0.7, eps=2.0, wq_norm=0.4, wk_norm=1.1, wv_norm=0.9)
        b = ScsaParams(n=3, nu=2.0, tau=0.7, eps=2.0, wq_norm=0.4, wk_norm=1.1, wv_norm=0.9)
        assert scsa_bound(b) == pytest.approx(2.0 * scsa_bound(a), rel=1e-15)

    def test_token_count_scaling(self):
        # doubling n multiplies the K-term by 4 and the Q- and V-terms by 2
        base = dict(nu=1.0, tau=1.0, eps=1.0)
        k_term = scsa_bound(ScsaParams(n=2, wq_norm=0, wk_norm=1, wv_norm=0, **base))
        assert k_term == 4.0 * scsa_bound(ScsaParams(n=1, wq_norm=0, wk_norm=1, wv_norm=0, **base))
        q_term = scsa_bound(ScsaParams(n=2, wq_norm=1, wk_norm=0, wv_norm=0, **base))
        assert q_term == 2.0 * scsa_bound(ScsaParams(n=1, wq_norm=1, wk_norm=0, wv_norm=0, **base))

    def test_unrefined_doubles_score_terms(self):
        params = ScsaParams(n=2, nu=1.0, tau=2.0, eps=4.0, wq_norm=1.0, wk_norm=1.0, wv_norm=1.0)
        assert scsa_bound_unrefined(params) == 14.0  # 2*(4 + 2) + 2

    @staticmethod
    def exact(params, score_factor):
        """The bound in exact rational arithmetic on the float inputs (and
        the float eps^(-1/2))."""
        n, nu, tau = Fraction(params.n), Fraction(params.nu), Fraction(params.tau)
        root = Fraction(params.eps**-0.5)
        return (
            score_factor * n**2 * nu * tau * root * Fraction(params.wk_norm)
            + score_factor * n * nu * tau * root * Fraction(params.wq_norm)
            + 2 * n * nu * root * Fraction(params.wv_norm)
        )

    @pytest.mark.parametrize("fields", [
        # nu * tau overflowed and met a zero weight: nan for a bound of 2e200
        dict(n=2, nu=1e200, tau=1e200, eps=1.0, wq_norm=1e-200, wk_norm=0.0, wv_norm=0.0),
        # 9 nu tau overflowed before the tiny weights: inf
        dict(n=3, nu=1e300, tau=1e10, eps=4.0, wq_norm=1e-250, wk_norm=1e-260, wv_norm=1e-100),
        # n^2 beyond the float range raised OverflowError
        dict(n=10**200, nu=1.0, tau=1.0, eps=1.0, wq_norm=0.0, wk_norm=1e-300, wv_norm=0.0),
        # eps^(-1/2) of a subnormal eps is 4.5e161
        dict(n=5, nu=1e150, tau=3.0, eps=5e-324, wq_norm=1e-200, wk_norm=2e-190, wv_norm=7e-300),
    ])
    def test_finite_bound_beyond_an_overflowing_intermediate(self, fields):
        params = ScsaParams(**fields)
        for bound, factor in ((scsa_bound, 1), (scsa_bound_unrefined, 2)):
            got, exact = bound(params), self.exact(params, factor)
            assert math.isfinite(got)
            assert abs(Fraction(got) - exact) <= exact * Fraction(1, 2**49)

    def test_bound_beyond_the_float_range_is_inf(self):
        params = ScsaParams(n=10**200, nu=1.0, tau=1.0, eps=1.0,
                            wq_norm=1.0, wk_norm=1.0, wv_norm=1.0)
        assert scsa_bound(params) == scsa_bound_unrefined(params) == math.inf
        zero = ScsaParams(n=10**200, nu=1e300, tau=1e300, eps=5e-324,
                          wq_norm=0.0, wk_norm=0.0, wv_norm=0.0)
        assert scsa_bound(zero) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScsaParams(n=0, nu=1, tau=1, eps=1, wq_norm=1, wk_norm=1, wv_norm=1)
        with pytest.raises(ValueError):
            ScsaParams(n=1, nu=-1, tau=1, eps=1, wq_norm=1, wk_norm=1, wv_norm=1)
        with pytest.raises(ValueError):
            ScsaParams(n=1, nu=1, tau=1, eps=1, wq_norm=-0.1, wk_norm=1, wv_norm=1)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 1.5, "n must be a whole number, got 1.5"),
        ("n", 0, "n must be at least 1, got 0"),
        ("nu", math.inf, "nu must be positive and finite"),
        ("eps", math.inf, "eps must be positive and finite"),
        ("wq_norm", math.nan, "wq_norm must be nonnegative and finite"),
        ("wv_norm", math.inf, "wv_norm must be nonnegative and finite"),
    ])
    def test_whole_and_finite_fields(self, field, value, message):
        # n = 1.5 gave a bound of 6.75, nu = inf gave inf, wq_norm = nan gave nan
        fields = dict(n=1, nu=1, tau=1, eps=1, wq_norm=1, wk_norm=1, wv_norm=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScsaParams(**{**fields, field: value})


@pytest.mark.parametrize("build, message", [
    (lambda: witness_attained(2.5, 1), "n must be a whole number, got 2.5"),
    (lambda: witness_limit_sequence(3.5, 2, [0.1]), "n must be a whole number, got 3.5"),
    (lambda: witness_example_pair(2.5), "n must be a whole number, got 2.5"),
    (lambda: witness_attained(1, 1), "n must be at least 2, got 1"),
    (lambda: witness_limit_sequence(2, 2, [0.1]), "n must be at least 3, got 2"),
    (lambda: witness_example_pair(1), "n must be at least 2, got 1"),
    (lambda: witness_example_pair(4, K=math.nan), "K must be nonnegative and finite"),
    (lambda: witness_example_pair(4, eps_pert=math.inf), "eps_pert must be positive and finite"),
], ids=["attained_n", "limit_sequence_n", "example_n", "attained_min", "limit_sequence_min",
        "example_min", "example_K", "example_eps_pert"])
def test_witnesses_reject_what_they_cannot_build(build, message):
    # a fractional n raised a numpy TypeError; a NaN K or an infinite step
    # blamed "logits must have finite entries"
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("s, message", [
    ([2.0, -1.0], "nonnegative"), ([0.5, 0.7], "beyond tolerance"),
])
def test_closed_form_rejects_a_non_probability_vector(s, message):
    # gave -4.0 and 0.7, where m_of_s rejects both
    with pytest.raises(ValueError, match=message):
        closed_form_linf(s)


def test_closed_form_matches_row_norm():
    rng = np.random.default_rng(33)
    for _ in range(30):
        s = softmax(rng.uniform(-5, 5, size=7)).probs
        assert closed_form_linf(s) == pytest.approx(opnorm_inf(m_of_s(s)), rel=1e-14)
