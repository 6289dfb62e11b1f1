import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

import softlip.games as games_module
import softlip.opnorm as opnorm_module
from softlip.core import softmax
from softlip.games import (
    TAU_LIMIT,
    TAU_MIN,
    DsfpConfig,
    DsfpError,
    MatrixGame,
    _upper_norms,
    contraction_factor,
    dsfp_map,
    dsfp_solve,
    regularized_value,
    shannon_entropy,
    tau_min,
)
from softlip.opnorm import (
    NormOrder,
    _MatrixNorms,
    interpolation_bound,
    opnorm_p_estimate,
    opnorm_two,
    vector_norm,
)

MATCHING_PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def random_game(seed=20250809, shape=(5, 5)):
    return MatrixGame(np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape))


def mp_dsfp_map(a, tau, y, mp):
    """Extended-precision composition oracle for one T(y) application."""

    def sm(v):
        m = max(v)
        es = [mp.e ** ((t - m) / mp.mpf(tau)) for t in v]
        total = sum(es)
        return [e / total for e in es]

    a_mp = [[mp.mpf(v) for v in row] for row in a]
    y_mp = [mp.mpf(v) for v in y]
    neg_ay = [-sum(row[j] * y_mp[j] for j in range(len(y_mp))) for row in a_mp]
    x = sm(neg_ay)
    aTx = [sum(a_mp[i][j] * x[i] for i in range(len(x))) for j in range(len(y_mp))]
    return sm(aTx)


class TestDsfpMap:
    def test_zero_payoff_maps_to_uniform(self):
        game = MatrixGame(np.zeros((3, 4)))
        out = dsfp_map(game, 1.0, np.array([0.7, 0.1, 0.1, 0.1]))
        np.testing.assert_array_equal(out.probs, np.full(4, 0.25))

    def test_matching_pennies_fixed_point(self):
        game = MatrixGame(MATCHING_PENNIES)
        out = dsfp_map(game, 1.0, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(out.probs, np.array([0.5, 0.5]))

    def test_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(77)
        a = rng.normal(size=(3, 4))
        y = np.full(4, 0.25)
        got = dsfp_map(MatrixGame(a), 2.0, y).probs
        want = [float(v) for v in mp_dsfp_map(a, 2.0, y, mp)]
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dsfp_map(MatrixGame(np.zeros((2, 3))), 1.0, np.array([0.5, 0.5]))

    def test_single_column_game(self):
        out = dsfp_map(MatrixGame(np.array([[1.0], [2.0]])), 1.0, np.array([1.0]))
        np.testing.assert_array_equal(out.probs, np.array([1.0]))


class TestTauMin:
    def test_matching_pennies_inf(self):
        assert tau_min(MatrixGame(MATCHING_PENNIES), "inf") == 1.0

    def test_identity_two_norm(self):
        assert tau_min(MatrixGame(np.eye(3)), 2) == pytest.approx(0.5, rel=1e-12)

    def test_general_p_gives_contractive_solve(self):
        game = random_game()
        threshold = tau_min(game, 1.5)
        res = dsfp_solve(game, DsfpConfig(tau=1.05 * threshold, p=1.5, tol=1e-11))
        assert res.converged
        disps = [d for _, d in res.trace if d > 0]
        late = [disps[i + 1] / disps[i] for i in range(max(0, len(disps) - 4), len(disps) - 1)]
        assert all(r < 1.0 for r in late)


class TestContractionFactor:
    def test_identity(self):
        nominal, safe = contraction_factor(MatrixGame(np.eye(2)), 1.0, 2)
        assert nominal == pytest.approx(0.25, rel=1e-12)
        assert safe == pytest.approx(0.25, rel=1e-12)

    def test_tau_equal_norm(self):
        game = random_game(3)
        tau = opnorm_two(game.a)
        nominal, _ = contraction_factor(game, tau, 2)
        assert nominal == pytest.approx(0.25, rel=1e-12)

    def test_boundary_tau(self):
        # the factor reads ||A||_2 raised by 2^-40, so at tau = ||A||_2 / 2
        # it lies in [1, (1 + 2^-40)^2], up to rounding
        game = random_game(4)
        tau = opnorm_two(game.a) / 2.0
        nominal, _ = contraction_factor(game, tau, 2)
        outward = 1.0 + opnorm_module._UPPER_SLACK
        assert 1.0 <= nominal <= outward * outward * (1.0 + 1e-15)

    def test_norm_whose_square_overflows(self):
        # ||A||_2 = 2e200: ||A||^2 overflowed, so the factor read inf
        # although (2e200 / 2e150)^2 = 1e100 is a float; at p = 2 and general
        # p alike the factor reads an upper end raised by 2^-40
        game = MatrixGame(np.array([[1e200, -1e200], [-1e200, 1e200]]))
        for p in (2, 3):
            nominal, safe = contraction_factor(game, 1e150, p)
            assert 1e100 <= nominal == safe <= 1e100 * (1.0 + 1e-10)

    def test_safe_vs_nominal_for_general_p(self):
        # ||A^T||_p differs from ||A||_p away from p = 2, so the factors split
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nominal, safe = contraction_factor(MatrixGame(a), 1.0, 1.5)
        assert safe != pytest.approx(nominal, rel=1e-3)


class TestRegularizedValue:
    def test_zero_game_uniform(self):
        game = MatrixGame(np.zeros((2, 2)))
        u = np.array([0.5, 0.5])
        assert regularized_value(game, 1.0, u, u) == 0.0

    def test_matching_pennies_symmetric(self):
        game = MatrixGame(MATCHING_PENNIES)
        u = np.array([0.5, 0.5])
        assert regularized_value(game, 1.0, u, u) == 0.0

    def test_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 2))
        x = np.array([0.2, 0.3, 0.5])
        y = np.array([0.6, 0.4])
        got = regularized_value(MatrixGame(a), 0.7, x, y)
        a_mp = [[mp.mpf(v) for v in row] for row in a]
        ent = lambda u: -sum(mp.mpf(t) * mp.log(mp.mpf(t)) for t in u)
        bilinear = sum(
            mp.mpf(x[i]) * a_mp[i][j] * mp.mpf(y[j]) for i in range(3) for j in range(2)
        )
        want = float(bilinear + mp.mpf("0.7") * (ent(x) - ent(y)))
        assert got == pytest.approx(want, abs=1e-13)

    def test_entropy_conventions(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-15)


class TestDsfpSolve:
    def test_matching_pennies(self):
        res = dsfp_solve(MatrixGame(MATCHING_PENNIES), DsfpConfig(tau=1.0, tol=1e-12))
        np.testing.assert_allclose(res.y_star, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(res.x_star, [0.5, 0.5], atol=1e-12)
        assert res.residual < 1e-12
        assert res.converged

    def test_zero_game(self):
        res = dsfp_solve(MatrixGame(np.zeros((3, 3))), DsfpConfig(tau=1.0))
        np.testing.assert_allclose(res.y_star, np.full(3, 1 / 3), atol=1e-15)
        assert res.converged
        assert res.iterations <= 2

    def test_contractive_random_game(self):
        game = random_game()
        tau = opnorm_two(game.a)
        res = dsfp_solve(game, DsfpConfig(tau=tau, alpha=1.0, tol=1e-11))
        assert res.converged
        assert res.iterations <= 60
        assert res.residual < 1e-10
        assert res.contraction_nominal == pytest.approx(0.25, rel=1e-12)
        assert res.certified
        # late-stage displacement ratios obey the certified factor
        disps = [d for _, d in res.trace if d > 0]
        for i in range(1, len(disps) - 1):
            assert disps[i + 1] / disps[i] <= res.contraction_safe + 1e-9

    def test_fixed_point_residual_bound(self):
        game = random_game(11, (4, 6))
        res = dsfp_solve(game, DsfpConfig(tau=2.0, tol=1e-10))
        assert res.converged
        assert res.residual <= 10 * res.config.tol
        # x recovery is exactly the softmax response at y*
        recovered = dsfp_map(game, 2.0, res.y_star)
        np.testing.assert_allclose(
            res.x_star,
            np.exp(-(game.a @ res.y_star) / 2.0)
            / np.exp(-(game.a @ res.y_star) / 2.0).sum(),
            atol=1e-14,
        )
        assert vector_norm(recovered.probs - res.y_star, 2) <= 10 * res.config.tol

    def test_uniqueness_across_initializations(self):
        game = random_game(13)
        tau = 1.05 * tau_min(game, 2)
        base = DsfpConfig(tau=tau, tol=1e-11)
        res_a = dsfp_solve(game, base)
        y0 = np.array([0.05, 0.05, 0.5, 0.2, 0.2])
        res_b = dsfp_solve(game, DsfpConfig(tau=tau, tol=1e-11, y0=y0))
        assert vector_norm(res_a.y_star - res_b.y_star, 2) <= 100 * base.tol

    def test_damped_iteration_converges(self):
        game = random_game(17)
        tau = 1.1 * tau_min(game, 2)
        res = dsfp_solve(game, DsfpConfig(tau=tau, alpha=0.3, tol=1e-10))
        assert res.converged
        # damped factor: (1 - alpha) + alpha * safe
        damped = 0.7 + 0.3 * res.contraction_safe
        disps = [d for _, d in res.trace if d > 0]
        for i in range(1, len(disps) - 1):
            assert disps[i + 1] / disps[i] <= damped + 1e-9

    def test_payoff_shift_leaves_equilibrium(self):
        game = random_game(19)
        tau = 1.2 * tau_min(game, 2)
        res_a = dsfp_solve(game, DsfpConfig(tau=tau, tol=1e-11))
        shifted = MatrixGame(game.a + 3.7)
        res_b = dsfp_solve(shifted, DsfpConfig(tau=tau, tol=1e-11))
        assert vector_norm(res_a.y_star - res_b.y_star, 2) <= 10 * 1e-11

    def test_x_recovery_tracks_y_with_lipschitz_rate(self):
        game = random_game(23)
        tau = opnorm_two(game.a)
        config = DsfpConfig(tau=tau, tol=1e-12)
        res = dsfp_solve(game, config)
        a_norm = opnorm_two(game.a)
        # re-run the iteration to collect iterates
        y = np.full(game.m, 1.0 / game.m)
        for _ in range(res.iterations):
            x_k = np.exp(-(game.a @ y) / tau)
            x_k /= x_k.sum()
            bound = (a_norm / (2 * tau)) * vector_norm(y - res.y_star, 2) * (1 + 1e-6)
            assert vector_norm(x_k - res.x_star, 2) <= bound + 1e-13
            y = dsfp_map(game, tau, y).probs

    def test_uncertified_run_is_flagged_not_fatal(self):
        game = random_game(29)
        res = dsfp_solve(game, DsfpConfig(tau=0.05, tol=1e-8, max_iter=5000))
        assert not res.certified
        assert res.contraction_safe >= 1.0

    def test_max_iter_exhaustion_returns_unconverged(self):
        game = random_game(31)
        res = dsfp_solve(game, DsfpConfig(tau=0.5, tol=1e-15, max_iter=3))
        assert not res.converged
        assert res.iterations == 3

    def test_trace_matches_iteration_count(self):
        game = random_game(37)
        res = dsfp_solve(game, DsfpConfig(tau=1.0, tol=1e-10))
        assert len(res.trace) == res.iterations
        assert [k for k, _ in res.trace] == list(range(1, res.iterations + 1))

    def test_trace_thinning_bounds_memory(self, monkeypatch):
        import softlip.games as games_module

        monkeypatch.setattr(games_module, "_TRACE_CAP", 64)
        # an uncertified low-tau run that oscillates instead of converging
        game = MatrixGame(np.array([[1.0, -1.0], [-0.5, 2.0]]))
        res = dsfp_solve(game, DsfpConfig(tau=0.1, tol=1e-15, max_iter=1000))
        assert not res.converged
        assert len(res.trace) <= 64
        ks = [k for k, _ in res.trace]
        assert ks == sorted(ks)
        assert ks[-1] > 900  # late steps survive the thinning


class TestValidation:
    def test_game_rejects_nan(self):
        with pytest.raises(ValueError):
            MatrixGame(np.array([[1.0, np.nan]]))

    def test_game_rejects_empty(self):
        with pytest.raises(ValueError):
            MatrixGame(np.zeros((0, 2)))

    def test_config_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            DsfpConfig(tau=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            DsfpConfig(tau=1.0, alpha=1.5)

    def test_config_whole_and_finite_fields(self):
        # max_iter = 2.5 was accepted, then failed inside dsfp_solve; tol = inf
        # reported a 5 x 5 game converged after one step at residual 3e-3
        with pytest.raises(ValueError, match="max_iter must be a whole number, got 2.5"):
            DsfpConfig(tau=1.0, max_iter=2.5)
        assert DsfpConfig(tau=1.0, max_iter=np.int64(7)).max_iter == 7
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            DsfpConfig(tau=1.0, tol=math.inf)

    def test_config_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            DsfpConfig(tau=0.0)

    def test_solve_rejects_bad_strategy(self):
        game = MatrixGame(MATCHING_PENNIES)
        with pytest.raises(ValueError):
            dsfp_solve(game, DsfpConfig(tau=1.0, y0=np.array([0.9, 0.9])))
        with pytest.raises(ValueError):
            dsfp_map(game, 1.0, np.array([-0.5, 1.5]))


def seeded_payoffs():
    """Square and non-square payoffs from 1e-3 to 1e3, signed and nonnegative,
    plus constant and rank-one ones on which a bound is tight."""
    rng = np.random.default_rng(20261018)
    out = []
    for shape in [(5, 5), (8, 3), (3, 9), (40, 40), (30, 70)]:
        for scale in (1e-3, 1.0, 1e3):
            a = scale * rng.standard_normal(shape)
            out += [a, np.abs(a)]
    out += [np.full((6, 6), 3.1), np.ones((1, 6)), np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0])]
    return out


class TestUpperNorms:
    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 7.0])
    def test_between_realized_ratio_and_interpolation(self, p):
        order = NormOrder.of(p)
        outward = 1.0 + opnorm_module._UPPER_SLACK
        for a in seeded_payoffs():
            ends = _upper_norms(_MatrixNorms(a), order)
            for mat, upper in zip((a, a.T), ends):
                assert opnorm_p_estimate(mat, order).lower <= upper
                assert upper <= outward * interpolation_bound(mat, order)

    def test_riesz_thorin_wins_on_random_payoffs(self):
        a = np.random.default_rng(5).standard_normal((60, 90))
        for mat, upper in zip((a, a.T), _upper_norms(_MatrixNorms(a), NormOrder.of(3))):
            assert upper < 0.5 * interpolation_bound(mat, 3)

    def test_general_p_end_is_the_p_estimate_upper_end(self):
        # one bracket rule: the game's end is opnorm_p_estimate's upper end
        rng = np.random.default_rng(12)
        for shape in [(4, 4), (6, 9), (9, 6), (1, 5), (30, 30)]:
            a = rng.standard_normal(shape)
            for p in (1.25, 1.5, 3.0, 7.0):
                est = opnorm_p_estimate(a, p)
                assert _upper_norms(_MatrixNorms(a), NormOrder.of(p))[0] == est.upper

    def test_never_above_interpolation(self, monkeypatch):
        # an eigensolve that rounds ||A||_2 far up still leaves the old bound
        monkeypatch.setattr(opnorm_module, "_two_norm_upper", lambda a: 1e6)
        a = np.random.default_rng(8).standard_normal((6, 9))
        outward = 1.0 + opnorm_module._UPPER_SLACK
        for p in (1.5, 3.0):
            for mat, upper in zip((a, a.T), _upper_norms(_MatrixNorms(a), NormOrder.of(p))):
                assert upper == outward * interpolation_bound(mat, p)

    @pytest.mark.parametrize("p", [1, "inf"])
    def test_canonical_ends_are_exact_sums(self, p):
        a = np.random.default_rng(6).standard_normal((7, 4))
        order = NormOrder.of(p)
        ends = _upper_norms(_MatrixNorms(a), order)
        assert ends == (opnorm_p_estimate(a, order).upper, opnorm_p_estimate(a.T, order).upper)

    def test_tau_min_two_is_the_eigensolve_value(self):
        outward = 1.0 + opnorm_module._UPPER_SLACK
        for shape in [(5, 5), (6, 12), (12, 6)]:
            game = random_game(41, shape)
            assert tau_min(game, 2) == opnorm_two(game.a) * outward / 2.0

    def test_two_norm_end_is_at_least_the_true_norm(self):
        # the ratio an eigh eigenvector realizes, the end this once read,
        # fell below the 40-digit ||A||_2 on 22 of these 60 payoffs
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(20261018)
        for _ in range(20):
            u, v = rng.standard_normal(12), rng.standard_normal(12)
            rank_one = np.outer(u, v)
            near = rank_one + 1e-8 * rng.standard_normal((12, 12))
            for a in (rng.standard_normal((12, 12)), near, rank_one):
                true = max(mp.svd_r(mp.matrix(a.tolist()), compute_uv=False))
                game = MatrixGame(a)
                assert mp.mpf(2.0 * tau_min(game, 2)) >= true
                for factor in contraction_factor(game, 0.5, 2):
                    assert mp.mpf(factor) >= true * true

    def test_large_payoff_two_norm_is_the_eigensolve(self, monkeypatch):
        # a side above 512 takes the eigenvalue solve at every p outside
        # {1, inf}; general p once took the fallback bracket there
        def fail(*args, **kwargs):
            raise AssertionError("fallback bracket used")

        monkeypatch.setattr(opnorm_module, "_two_norm_fallback_bracket", fail)
        game = MatrixGame(np.random.default_rng(83).standard_normal((600, 600)))
        two = opnorm_module._two_norm(game.a)
        outward = 1.0 + opnorm_module._UPPER_SLACK
        threshold = tau_min(game, 2)
        assert threshold == two * outward / 2.0
        assert np.linalg.norm(game.a, 2) <= 2.0 * threshold
        one, inf = opnorm_module.opnorm_one(game.a), opnorm_module.opnorm_inf(game.a)
        upper, _ = opnorm_module._outward_upper(one, two, inf, NormOrder.of(3))
        assert tau_min(game, 3) == upper / 2.0

    def test_safe_equals_nominal_at_p_two(self):
        game = random_game(43, (6, 12))
        nominal, safe = contraction_factor(game, 0.7, 2)
        assert safe == nominal

    @pytest.mark.parametrize("p", [2, 3])
    def test_failed_eigensolve_answers_at_every_p(self, p, monkeypatch):
        # the certified fallback bracket stands in for ||A||_2 at p = 2 as
        # at general p; p = 2 raised OpNormError instead
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        a = np.random.default_rng(47).standard_normal((40, 30))
        fallback = opnorm_module._two_norm_fallback_bracket(a).upper
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        game = MatrixGame(a)
        threshold = tau_min(game, p)
        outward = 1.0 + opnorm_module._UPPER_SLACK
        assert vector_norm(a[:, 0], p) < 2.0 * threshold  # the ratio at e_0
        assert 2.0 * threshold <= outward * interpolation_bound(a, p)
        if p == 2:
            assert 2.0 * threshold == outward * fallback
            assert np.linalg.svd(a, compute_uv=False)[0] < 2.0 * threshold
        nominal, safe = contraction_factor(game, 1.01 * threshold, p)
        assert nominal < 1.0 and math.isfinite(safe)

    def test_tiny_payoff_general_p(self):
        # the subnormal Gram matrix once gave ||A||_2 = 0 and tau_min = 0
        a = np.array([[3e-170, 1e-170], [0.0, 2e-170]])
        threshold = tau_min(MatrixGame(a), 3)
        assert vector_norm(a[:, 0], 3) < 2.0 * threshold  # the ratio at e_0
        want = 1e-170 * tau_min(MatrixGame(1e170 * a), 3)
        assert threshold == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [1, 2, 3, "inf"])
    def test_norm_beyond_the_float_range(self, p):
        # ||A||_p = 2e308 for every p: opnorm_two raised OverflowError at
        # p = 3 while p = 1 answered; inf is still a certified upper end
        game = MatrixGame(np.full((2, 2), 1e308))
        assert tau_min(game, p) == math.inf
        assert contraction_factor(game, 1.0, p) == (math.inf, math.inf)

    def test_failed_eigensolve_falls_back(self, monkeypatch):
        game = random_game(53, (6, 9))
        order = NormOrder.of(3)
        before = _upper_norms(_MatrixNorms(game.a), order)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        after = _upper_norms(_MatrixNorms(game.a), order)
        for mat, old, new in zip((game.a, game.a.T), before, after):
            assert old <= new <= (1.0 + opnorm_module._UPPER_SLACK) * interpolation_bound(mat, order)


def reference_solve(game, config):
    """The solver loop on the public, validated dsfp_map and vector_norm."""
    y = np.full(game.m, 1.0 / game.m) if isinstance(config.y0, str) else config.y0.copy()
    trace, clamps, iterations = [], 0, 0
    for k in range(1, config.max_iter + 1):
        mapped = dsfp_map(game, config.tau, y)
        clamps += int(mapped.clamped)
        y_next = (1.0 - config.alpha) * y + config.alpha * mapped.probs
        disp = vector_norm(y_next - y, config.p)
        trace.append((k, disp))
        y, iterations = y_next, k
        if disp <= config.tol * config.alpha:
            break
    final = dsfp_map(game, config.tau, y)
    clamps += int(final.clamped)
    return y, tuple(trace), iterations, vector_norm(final.probs - y, config.p), clamps


class TestSolverLoop:
    @pytest.mark.parametrize("case, alpha, p", [
        *((case, alpha, p) for case in ("random", "nonsquare", "saturated")
          for alpha in (1.0, 0.3) for p in (2, 3)),
        # one-strategy games: the softmax of a length-1 row, x or T(y)
        ("1x4", 1.0, 2), ("1x4", 0.3, 3), ("4x1", 1.0, 2), ("4x1", 0.3, 3),
        # hundreds of damped steps, each swapping the solver's iterate buffers
        ("damped", 0.05, 2), ("damped", 0.05, 3),
    ])
    def test_same_bits_as_the_public_map(self, case, alpha, p):
        if case == "saturated":
            # softmax entries underflow, so clamps fire on every step
            game = MatrixGame(800.0 * random_game(59).a)
            config = DsfpConfig(tau=1.0, alpha=alpha, p=p, tol=1e-12, max_iter=40)
        else:
            shapes = {"random": (5, 5), "nonsquare": (4, 7), "1x4": (1, 4), "4x1": (4, 1), "damped": (12, 30)}
            game = random_game(61, shapes[case])
            config = DsfpConfig(tau=1.01 * tau_min(game, p), alpha=alpha, p=p, tol=1e-12)
        res = dsfp_solve(game, config)
        y, trace, iterations, residual, clamps = reference_solve(game, config)
        assert res.y_star.tobytes() == y.tobytes()
        assert res.trace == trace
        assert res.iterations == iterations
        assert res.residual == residual
        assert res.clamp_events == clamps
        if case == "saturated":
            assert clamps > 0
        if case == "damped":
            assert iterations > 200

    def test_bounded_reads_the_most_negative_entry(self):
        # max|a_ij| = 1e300 is the most negative entry, so 4 lam max|a_ij|
        # overflows and every step takes the overflow-checked softmaxes; a
        # bound read from the largest entry, 2, would scale -lam (A y) = 5e309
        # itself and overflow
        game = MatrixGame(np.array([[1.0, -1e300], [0.5, 2.0]]))
        config = DsfpConfig(tau=1e-10, max_iter=20)
        res = dsfp_solve(game, config)
        y, trace, iterations, residual, clamps = reference_solve(game, config)
        assert res.y_star.tobytes() == y.tobytes()
        assert (res.trace, res.iterations, res.residual, res.clamp_events) == (trace, iterations, residual, clamps)

    def test_step_whose_squares_underflow(self):
        # equal rows make T constant, sig(0, -500) = (1, 7.1e-218): the first
        # step's sum of squares, 5e-435, is below 2^-968, so its norm needs
        # the rescaled row norm, not the square root of the dot product
        game = MatrixGame(np.array([[0.0, -500.0], [0.0, -500.0]]))
        config = DsfpConfig(tau=1.0, y0=(1.0, 0.0), max_iter=5)
        res = dsfp_solve(game, config)
        y, trace, iterations, residual, clamps = reference_solve(game, config)
        assert res.trace == trace == ((1, math.exp(-500.0)),)
        assert (res.iterations, res.residual) == (iterations, residual) == (1, 0.0)

    def test_non_finite_iterate_raises(self, monkeypatch):
        # the step's softmaxes give no NaN on a finite payoff, so a step
        # that returns one is patched in to reach the guard; at p = 3 every
        # step's displacement takes row_norms, and an inf iterate gives inf
        for value, p in ((math.nan, 2.0), (math.inf, 3.0)):
            def bad_step(a, lam, y, x, t_y, bounded=False):
                x.fill(value)
                t_y.fill(value)
                return False

            monkeypatch.setattr(games_module, "_dsfp_step", bad_step)
            with pytest.raises(DsfpError, match="step 1"):
                dsfp_solve(MatrixGame(MATCHING_PENNIES), DsfpConfig(tau=1.0, p=p))

    def test_overflowing_logits_solve(self):
        # lam * (-(A y)) = 1e310 overflowed, so the first softmax was NaN and
        # the solve raised at step 1; the softmaxes now shift first
        game = MatrixGame(np.full((2, 2), -1e300))
        res = dsfp_solve(game, DsfpConfig(tau=1e-10))
        assert res.y_star.tolist() == res.x_star.tolist() == [0.5, 0.5]
        assert res.converged
        assert res.contraction_nominal == res.contraction_safe == math.inf
        assert not res.certified

    def test_start_off_the_simplex_at_the_float_max(self):
        # y0 sums to 1 + 1e-12, inside the simplex tolerance, so |A y0| exceeds
        # max|a_ij| and the logit span lam * (A y0) overflows although
        # 2 lam max|a_ij| is finite; a solve must neither warn nor fail
        big = 1e300
        lam = np.nextafter(np.finfo(np.float64).max / (2.0 * big), 0.0)
        game = MatrixGame(np.array([[big, big], [-big, -big]]))
        config = DsfpConfig(tau=1.0 / lam, y0=(0.5 + 5e-13, 0.5 + 5e-13), max_iter=5)
        res = dsfp_solve(game, config)
        assert np.all(np.isfinite(res.y_star)) and np.all(np.isfinite(res.x_star))

    def test_x_star_is_the_final_steps_response(self):
        game = random_game(71, (4, 6))
        res = dsfp_solve(game, DsfpConfig(tau=0.8, alpha=0.5))
        want = softmax(-(game.a @ res.y_star), 1.0 / 0.8).probs
        assert res.x_star.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p, eigh, eigvalsh", [
        (2, 0, 1), (3, 0, 1), (1.5, 0, 1), (1, 0, 0), ("inf", 0, 0),
    ])
    def test_diagnostic_solves_per_call(self, p, eigh, eigvalsh, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0, "power": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(opnorm_module, "_boyd_lower", counting("power", opnorm_module._boyd_lower))
        game = random_game(67, (6, 9))
        dsfp_solve(game, DsfpConfig(tau=2.0, p=p))
        assert counts == {"eigh": eigh, "eigvalsh": eigvalsh, "power": 0}
        tau_min(game, p)  # the game's norms: no second eigensolve
        assert counts == {"eigh": eigh, "eigvalsh": eigvalsh, "power": 0}


def frozen_case(name):
    """The (game, config) of a FROZEN_DSFP row."""
    if name == "random":
        game = random_game(61, (5, 5))
        return game, DsfpConfig(tau=1.01 * tau_min(game, 2), tol=1e-12)
    if name == "nonsquare":
        game = random_game(61, (4, 7))
        return game, DsfpConfig(tau=1.01 * tau_min(game, 3), alpha=0.3, p=3, tol=1e-12)
    if name == "damped":
        game = random_game(43, (50, 50))
        return game, DsfpConfig(tau=1.01 * tau_min(game, 2), alpha=0.05)
    if name == "damped-p3":
        game = random_game(47, (12, 30))
        return game, DsfpConfig(tau=1.01 * tau_min(game, 3), alpha=0.05, p=3)
    if name == "saturated":
        game = MatrixGame(800.0 * random_game(59).a)
        return game, DsfpConfig(tau=1.0, alpha=0.3, tol=1e-12, max_iter=40)
    if name == "unbounded":
        return MatrixGame(np.full((2, 2), -1e300)), DsfpConfig(tau=1e-10)
    if name == "unbounded-random":
        return MatrixGame(1e300 * random_game(73, (3, 4)).a), DsfpConfig(tau=1e-10, max_iter=50)
    if name == "y0":
        game = random_game(67, (6, 9))
        return game, DsfpConfig(tau=2.0, p=1.5, y0=np.arange(1.0, 10.0) / 45.0)
    raise KeyError(name)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# Solver results recorded before the step and its softmax kernel were made
# to work in place, damped-p3 before the solve ran on one workspace: (case,
# y_star digest, x_star digest, iterations, residual, clamp events, trace
# digest). TestSolverLoop compares the loop with `dsfp_map`, which runs the
# same kernel, so only fixed bits can show a kernel that changes them.
FROZEN_DSFP = [
    ("random", "723678a440b108d9", "fbf7badd55cde190", 11, "0x1.9fc6d4afe713fp-47", 0, "1371cd8d86ff98b6"),
    ("nonsquare", "ad42f8afa50e7007", "7f64b400a3b50722", 70, "0x1.2b9dde4b3e6e2p-41", 0, "af8ab4f2eea84682"),
    ("damped", "0aae869df527ceca", "38861fdf86ec3a95", 337, "0x1.9f0561ca31fd5p-34", 0, "5a5c33cb08929eb0"),
    ("damped-p3", "1f6aca3691a85cd3", "b2741c4fc179bf2f", 348, "0x1.9bb4cd48eb9b9p-34", 0, "35975b206b7c830b"),
    ("saturated", "c9f78e80572c5eda", "140b38418367b7ea", 40, "0x1.4a5fdb35579c4p-1", 11, "16d2ac9bc742154b"),
    ("unbounded", "606e5166986dd9f1", "606e5166986dd9f1", 1, "0x0.0p+0", 0, "3682badd440ffd3f"),
    ("unbounded-random", "7dfcfb2b0ac0a371", "12367c562ac614da", 50, "0x1.6a09e667f3bcdp+0", 51, "2c725791b3885023"),
    ("y0", "f5d22853b36e4f1d", "d327e6a71f83ec5c", 6, "0x1.2650f87ab1b5fp-39", 0, "294d23168e536a55"),
]

FROZEN_DSFP_MAP = [  # (case, tau, y, T(y) digest, clamped)
    ("random", 0.7, (0.1, 0.2, 0.3, 0.15, 0.25), "d536a0aa18263589", False),
    ("saturated", 1.0, (0.0, 0.0, 0.5, 0.5, 0.0), "8a4735b6bb88d96d", True),
]


class TestFrozenDsfp:
    @pytest.mark.parametrize("name, y_star, x_star, iterations, residual, clamps, trace", FROZEN_DSFP,
                             ids=[row[0] for row in FROZEN_DSFP])
    def test_solve_keeps_its_bits(self, name, y_star, x_star, iterations, residual, clamps, trace):
        res = dsfp_solve(*frozen_case(name))
        assert digest(res.y_star.tobytes()) == y_star
        assert digest(res.x_star.tobytes()) == x_star
        assert res.iterations == iterations
        assert res.residual.hex() == residual
        assert res.clamp_events == clamps
        assert digest(";".join(f"{k}:{d.hex()}" for k, d in res.trace).encode()) == trace

    @pytest.mark.parametrize("name, tau, y, probs, clamped", FROZEN_DSFP_MAP,
                             ids=[row[0] for row in FROZEN_DSFP_MAP])
    def test_map_keeps_its_bits(self, name, tau, y, probs, clamped):
        game, _ = frozen_case(name)
        s = dsfp_map(game, tau, y)
        assert digest(s.probs.tobytes()) == probs
        assert s.clamped is clamped

    def test_map_leaves_a_read_only_point_alone(self):
        game, _ = frozen_case("saturated")
        y = np.array([0.0, 0.0, 0.5, 0.5, 0.0])
        y.flags.writeable = False
        assert dsfp_map(game, 1.0, y).clamped
        assert y.tolist() == [0.0, 0.0, 0.5, 0.5, 0.0]

    @pytest.mark.parametrize("name", ["y0", "unbounded", "random", "damped"])
    def test_results_own_their_arrays(self, name):
        # the loop writes into its workspace: each result owns its memory
        # and shares none with the other or with the start point, and a
        # solve leaves y0 as it was
        game, config = frozen_case(name)
        start = None if isinstance(config.y0, str) else config.y0.tobytes()
        res = dsfp_solve(game, config)
        assert res.y_star.flags.owndata and res.x_star.flags.owndata
        assert not np.shares_memory(res.y_star, res.x_star)
        if start is not None:
            assert config.y0.tobytes() == start
            assert not np.shares_memory(res.y_star, config.y0)


class TestTauRange:
    def test_constants_are_the_normal_float_edges(self):
        tiny = np.finfo(np.float64).tiny
        for tau in (TAU_MIN, np.nextafter(TAU_MIN, 0.0), np.nextafter(TAU_LIMIT, 0.0), TAU_LIMIT):
            tau = float(tau)
            normal = all(
                math.isfinite(v) and v >= tiny for v in (1.0 / tau, 4.0 * tau * tau)
            )
            assert normal == (TAU_MIN <= tau < TAU_LIMIT)
        DsfpConfig(tau=TAU_MIN)
        DsfpConfig(tau=float(np.nextafter(TAU_LIMIT, 0.0)))

    @pytest.mark.parametrize("tau", [
        0.0, -1.0, math.nan, math.inf, 1e-310, 1e-200, float(np.nextafter(TAU_MIN, 0.0)),
        TAU_LIMIT, 1e300,
    ])
    def test_rejected_everywhere_with_the_minimum(self, tau):
        game = MatrixGame(MATCHING_PENNIES)
        match = r"2\^-512 <= tau < 2\^511 \(minimum 7\.458"
        with pytest.raises(ValueError, match=match):
            DsfpConfig(tau=tau)
        with pytest.raises(ValueError, match=match):
            dsfp_map(game, tau, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=match):
            contraction_factor(game, tau, 2)

    @pytest.mark.parametrize("tau", [math.inf, 1e-320])
    def test_regularized_value_rejects_tau(self, tau):
        # these once gave nan and 0.0 where every other entry point raised
        game = MatrixGame(MATCHING_PENNIES)
        u = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match=r"2\^-512 <= tau < 2\^511"):
            regularized_value(game, tau, u, u)

    def test_smallest_tau_solves(self):
        # 1/tau and 4 tau^2 are normal, so the solve and both factors answer
        game = MatrixGame(np.array([[1e-150, 0.0], [0.0, 1e-150]]))
        res = dsfp_solve(game, DsfpConfig(tau=TAU_MIN))
        assert res.converged
        assert math.isfinite(res.contraction_safe)


def counting(monkeypatch, module, name):
    """Wrap module.name so each call adds one to the returned list's entry."""
    calls = [0]
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


ORDERS = [1, 1.5, 2, 3, "inf"]


class TestGameNorms:
    """A MatrixGame computes its norms once, on first use, at any order."""

    def test_one_eigensolve_per_game(self, monkeypatch):
        calls = counting(monkeypatch, np.linalg, "eigvalsh")
        game = random_game(91, (6, 9))
        for p in (2, 3, 1.5):
            tau = 1.01 * tau_min(game, p)
            dsfp_solve(game, DsfpConfig(tau=tau, p=p))
        assert calls == [1]
        game = random_game(91, (6, 9))
        for p in (1, "inf"):
            dsfp_solve(game, DsfpConfig(tau=1.01 * tau_min(game, p), p=p))
        assert calls == [1]

    @pytest.mark.parametrize("shape", [(5, 5), (6, 9)])
    def test_same_bits_as_a_fresh_game(self, shape):
        a = np.random.default_rng(92).standard_normal(shape)
        warm = MatrixGame(a)
        for p in reversed(ORDERS):  # every order finds the norms already there
            tau_min(warm, p)
        for p in ORDERS:
            threshold = tau_min(warm, p)
            assert threshold == tau_min(MatrixGame(a), p)
            assert contraction_factor(warm, 0.7, p) == contraction_factor(MatrixGame(a), 0.7, p)
            config = DsfpConfig(tau=1.01 * threshold, p=p)
            got, want = dsfp_solve(warm, config), dsfp_solve(MatrixGame(a), config)
            assert got.y_star.tobytes() == want.y_star.tobytes()
            assert got.x_star.tobytes() == want.x_star.tobytes()
            for name in ("iterations", "residual", "contraction_nominal", "contraction_safe",
                         "regularized_value", "trace", "clamp_events", "certified"):
                assert getattr(got, name) == getattr(want, name), name

    def test_fallback_bracket_computed_once(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        calls = counting(monkeypatch, opnorm_module, "_two_norm_fallback_bracket")
        game = random_game(93, (6, 9))
        first = tau_min(game, 2)
        for p in (3, 1.5, 2):
            tau_min(game, p)
            contraction_factor(game, 1.0, p)
        assert calls == [1]
        assert tau_min(game, 2) == first

    def test_overflowed_end_computed_once(self, monkeypatch):
        calls = counting(monkeypatch, np.linalg, "eigvalsh")
        game = MatrixGame(np.full((2, 2), 1e308))
        for p in (2, 3, 1.5):
            assert tau_min(game, p) == math.inf
            assert contraction_factor(game, 1.0, p) == (math.inf, math.inf)
        assert calls == [1]

    def test_norms_hidden_from_equality_repr_replace_and_pickle(self):
        a = np.random.default_rng(94).standard_normal((3, 4))
        game = MatrixGame(a)
        tau_min(game, 2)
        assert [f.name for f in dataclasses.fields(game) if f.compare or f.repr] == ["a"]
        assert repr(game) == f"MatrixGame(a={game.a!r})"
        assert game == game
        assert MatrixGame([[2.0]]) == MatrixGame([[2.0]]) != MatrixGame([[3.0]])
        # a replaced payoff gets its own norms, never the old game's
        scaled = dataclasses.replace(game, a=2.0 * a)
        assert tau_min(scaled, 2) == tau_min(MatrixGame(2.0 * a), 2)
        # a pickled game carries its payoff alone; the copy is read-only again
        assert pickle.dumps(game) == pickle.dumps(MatrixGame(a))
        loaded = pickle.loads(pickle.dumps(game))
        assert loaded.a.tobytes() == game.a.tobytes() and not loaded.a.flags.writeable
        assert tau_min(loaded, 3) == tau_min(game, 3)
