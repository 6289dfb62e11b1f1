import concurrent.futures
import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest

import softlip.estimator as estimator
from softlip.core import Logits, softmax
from softlip.estimator import (
    MODE_RANDOM,
    MODE_TOP_EIGENVECTOR,
    PerturbationSpec,
    empirical_lp,
    epsilon_sweep,
    order_sweep,
    sample_perturbation,
    subseed,
)
from softlip.lipschitz import witness_example_pair
from softlip.opnorm import NormOrder, vector_norm

EXAMPLE_RATIO = 0.49999999504472


def example_input(n=10, big_k=20.0):
    x = np.full(n, -big_k)
    x[0] = x[1] = 0.0
    return x


def spec(p=2, eps=1e-4, trials=10, mode=MODE_RANDOM, seed=0, aggregate="max"):
    return PerturbationSpec(
        p=p, epsilon=eps, trials_per_input=trials, mode=mode, seed=seed, aggregate=aggregate
    )


class TestSamplePerturbation:
    def test_exact_norm(self):
        rng = np.random.default_rng(1)
        for p in (1, 1.5, 2, 8, "inf"):
            for eps in (1e-4, 0.3, 10.0):
                d = sample_perturbation(6, spec(p=p, eps=eps), rng)
                assert vector_norm(d, p) == pytest.approx(eps, rel=1e-15)

    def test_deterministic_for_fixed_seed(self):
        s = spec(p=2, eps=1e-4, seed=42)
        a = sample_perturbation(4, s, np.random.default_rng(subseed(42, 0, 0, 0)))
        b = sample_perturbation(4, s, np.random.default_rng(subseed(42, 0, 0, 0)))
        np.testing.assert_array_equal(a, b)

    def test_top_eigenvector_matches_witness_direction(self):
        x = example_input()
        d = sample_perturbation(10, spec(mode=MODE_TOP_EIGENVECTOR), np.random.default_rng(0), base=x)
        pair = witness_example_pair(10, 20.0, 1e-4, 2)
        np.testing.assert_allclose(d, pair.y.values - pair.x.values, atol=1e-18)
        # on the l2 sphere whatever the spec's norm, so not on the l1.5 one
        d = sample_perturbation(5, spec(p=1.5, eps=0.01, mode=MODE_TOP_EIGENVECTOR),
                                base=np.array([0.3, -1.0, 2.0, 0.5, 0.0]))
        assert vector_norm(d, 2) == pytest.approx(0.01, rel=1e-15)
        assert vector_norm(d, 1.5) == pytest.approx(0.01168, rel=1e-3)

    def test_top_eigenvector_needs_base(self):
        with pytest.raises(ValueError):
            sample_perturbation(4, spec(mode=MODE_TOP_EIGENVECTOR), np.random.default_rng(0))


class TestSubseed:
    def test_distinct_across_indices(self):
        seen = {subseed(0, i, t, e) for i in range(8) for t in range(8) for e in range(4)}
        assert len(seen) == 8 * 8 * 4

    def test_pure_function_of_indices(self):
        assert subseed(7, 3, 1, 2) == subseed(7, 3, 1, 2)
        assert subseed(7, 3, 1, 2) != subseed(8, 3, 1, 2)


def reference_subseed(seed, *indices):
    """`subseed` with Python integers, as docs/schema.md states it."""
    mask = (1 << 64) - 1

    def mix64(z):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    h = seed & mask
    for v in indices:
        h = mix64(h ^ mix64(v & mask))
    return h


class ZeroFirst:
    """A generator whose first draw comes out all zero; the stream still
    advances past it. The estimator fills rows in place (`out=`),
    `sample_perturbation` draws by size."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, size=None, out=None):
        self.draws += 1
        g = self.rng.standard_normal(size, out=out)
        if self.draws == 1:
            g[...] = 0.0
        return g


class TestSeeding:
    """The batched seeding against `np.random.default_rng(subseed(...))`."""

    SEEDS = [0, 41, -1, -(2**63), 2**63, 2**64 - 1, 2**70 + 3]

    @staticmethod
    def triples(count, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 5000, count), rng.integers(0, 300, count)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subseed_values(self, seed):
        inputs, trials = self.triples(300)
        for j in (0, 2):
            batch = estimator._subseeds(seed, inputs, trials, j)
            pairs = list(zip(inputs.tolist(), trials.tolist()))
            expected = [reference_subseed(seed, i, t, j) for i, t in pairs]
            assert batch.dtype == np.uint64
            assert batch.tolist() == expected
            assert [subseed(seed, i, t, j) for i, t in pairs] == expected
        for i, t, j in [(-1, 0, 0), (2**63, -5, 7), (2**64 + 9, 3, -(2**40))]:
            assert subseed(seed, i, t, j) == reference_subseed(seed, i, t, j)

    def test_states_over_thousands_of_triples(self):
        inputs, trials = self.triples(3000, seed=1)
        states = estimator._seed_states(estimator._subseeds(97, inputs, trials, 1))
        for i, t, state in zip(inputs.tolist(), trials.tolist(), states):
            expected = np.random.SeedSequence(subseed(97, i, t, 1)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(state, expected)

    def test_draws_over_thousands_of_rows(self):
        # 3000 rows, their seeds hashed in one call
        count, trials = 3000, 7
        rngs = list(estimator._generators(97, count, trials, (1,), 0, count))
        assert len(rngs) == count
        for row, rng in enumerate(rngs):
            expected = np.random.default_rng(subseed(97, row // trials, row % trials, 1))
            np.testing.assert_array_equal(rng.standard_normal(16), expected.standard_normal(16))

    def test_edge_entropies(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        states = estimator._seed_states(np.array(edges, dtype=np.uint64))
        for entropy, state in zip(edges, states):
            np.testing.assert_array_equal(
                state, np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generators_for_any_seed(self, seed):
        for row, rng in enumerate(estimator._generators(seed, 40, 6, (3,), 0, 40)):
            expected = np.random.default_rng(subseed(seed, row // 6, row % 6, 3))
            np.testing.assert_array_equal(rng.standard_normal(7), expected.standard_normal(7))
            np.testing.assert_array_equal(rng.standard_normal(3), expected.standard_normal(3))

    @pytest.mark.parametrize("n", [16, 5000])  # at n = 5000 each block holds one row
    @pytest.mark.parametrize("seed", [0, -3, 2**64 - 1])
    def test_estimator_matches_default_rng_oracle(self, seed, n):
        rng = np.random.default_rng(60)
        inputs = [rng.normal(size=n) for _ in range(6)]
        s = spec(p=2, eps=1e-2, trials=7, seed=seed)
        assert_matches_oracle(empirical_lp(inputs, 1.0, s, epsilon_index=1), inputs, 1.0, s, 1)

    def test_zero_draw_is_redrawn_from_the_same_stream(self, monkeypatch):
        wrapped = []
        batched = estimator._generators

        def zero_first(*args):
            for rng in batched(*args):
                wrapped.append(ZeroFirst(rng))
                yield wrapped[-1]

        monkeypatch.setattr(estimator, "_generators", zero_first)
        rng = np.random.default_rng(61)
        inputs = [rng.normal(size=5) for _ in range(3)]
        s = spec(p=1.5, eps=1e-2, trials=4, seed=8)
        report = empirical_lp(inputs, 1.0, s)
        assert [w.draws for w in wrapped] == [2] * 12
        expected = oracle(
            inputs, 1.0, s, rng_of=lambda entropy: ZeroFirst(np.random.default_rng(entropy))
        )
        assert (report.empirical_lp, (report.argmax_input_index, report.argmax_trial)) == expected[:2]
        assert report.empirical_lp != oracle(inputs, 1.0, s)[0]


class TestEmpiricalLp:
    def test_example_input_top_eigenvector(self):
        report = empirical_lp([example_input()], 1.0, spec(mode=MODE_TOP_EIGENVECTOR, trials=1))
        assert report.empirical_lp == pytest.approx(EXAMPLE_RATIO, abs=1e-9)
        assert report.argmax_input_index == 0
        assert not report.bound_exceeded

    def test_lambda_scaling_regime(self):
        # n = 2 at the uniform point with lam = 4, p = 8: the constant
        # lam/2 = 2 is approached to ~5e-8
        report = empirical_lp([np.zeros(2)], 4.0, spec(p=8, mode=MODE_TOP_EIGENVECTOR, trials=1))
        assert 1.999 <= report.empirical_lp <= 2.0 + 1e-9

    def test_random_mode_approaches_bound_for_n2(self):
        report = empirical_lp([np.zeros(2)], 4.0, spec(p=8, trials=2000, seed=7))
        assert 1.99 < report.empirical_lp <= 2.0 + 1e-9

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(50)
        for lam in (0.5, 1.0, 2.0, 4.0):
            inputs = [rng.uniform(-5, 5, size=6) for _ in range(20)]
            for p in (1, 2, 8, "inf"):
                report = empirical_lp(inputs, lam, spec(p=p, trials=10, seed=3))
                assert report.empirical_lp <= lam / 2.0 + 1e-9
                assert not report.bound_exceeded

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(51)
        inputs = [rng.normal(size=5) for _ in range(7)]
        a = empirical_lp(inputs, 1.0, spec(trials=20, seed=9))
        b = empirical_lp(inputs, 1.0, spec(trials=20, seed=9))
        assert a == b

    def test_argmax_ratio_is_reproducible(self):
        rng = np.random.default_rng(52)
        inputs = [rng.normal(size=4) * 2 for _ in range(9)]
        s = spec(p=1.5, eps=1e-3, trials=25, seed=13)
        report = empirical_lp(inputs, 2.0, s)
        i, trial = report.argmax_input_index, report.argmax_trial
        rng2 = np.random.default_rng(subseed(13, i, trial, 0))
        delta = sample_perturbation(4, s, rng2)
        x = inputs[i]
        ratio = vector_norm(
            softmax(x + delta, 2.0).probs - softmax(x, 2.0).probs, 1.5
        ) / vector_norm(delta, 1.5)
        assert ratio == pytest.approx(report.empirical_lp, rel=1e-15)

    def test_top_eigenvector_dominates_random_trials(self):
        x = example_input()
        best_random = empirical_lp([x], 1.0, spec(trials=100, seed=21)).empirical_lp
        directed = empirical_lp([x], 1.0, spec(mode=MODE_TOP_EIGENVECTOR, trials=1)).empirical_lp
        assert best_random < directed

    def test_mean_aggregate_below_max(self):
        rng = np.random.default_rng(53)
        inputs = [rng.normal(size=5) for _ in range(5)]
        mean = empirical_lp(inputs, 1.0, spec(trials=30, seed=2, aggregate="mean"))
        top = empirical_lp(inputs, 1.0, spec(trials=30, seed=2))
        assert mean.empirical_lp <= top.empirical_lp

    def test_clamp_events_counted(self):
        x = np.full(6, -900.0)
        x[0] = 0.0
        report = empirical_lp([x], 1.0, spec(trials=3, seed=1))
        assert report.clamp_events >= 4  # base softmax + each perturbed one

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            empirical_lp([np.zeros(3), np.zeros(4)], 1.0, spec())

    @pytest.mark.parametrize("mode, logit", [
        (MODE_RANDOM, 0.0), (MODE_RANDOM, 1e308), (MODE_TOP_EIGENVECTOR, 1.5e308),
    ])
    def test_huge_magnitudes_fail_without_a_warning(self, mode, logit):
        # scaling a draw onto the 1e308 sphere, or adding the perturbation
        # to the logits, overflowed with a RuntimeWarning before the
        # finiteness check
        with pytest.raises(ValueError, match="logits must have finite entries"):
            empirical_lp([[logit, logit]], 1.0, spec(p=2, eps=1e308, trials=3, mode=mode))

    def test_huge_epsilon_fails_after_the_rows_before_it(self):
        with pytest.raises(ValueError, match="logits must have finite entries"):
            epsilon_sweep([[1e308, 1e308]], 1.0, spec(p=2, trials=3), [1e-3, 1e308])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_lp([], 1.0, spec())


class TestRowwise:
    def test_zero_matrix_reduces_to_uniform_rows(self):
        s = spec(trials=12, seed=5)
        a = empirical_lp(np.zeros((2, 2)), 1.0, s)
        b = empirical_lp([np.zeros(2), np.zeros(2)], 1.0, s)
        assert a == b

    def test_sharp_rows_give_tiny_ratios(self):
        # diag 50 makes every row's softmax nearly one-hot: 2s(1-s) ~ 4e-22
        scores = np.zeros((8, 8))
        np.fill_diagonal(scores, 50.0)
        report = empirical_lp(scores, 1.0, spec(trials=5, seed=11))
        assert report.empirical_lp < 1e-10

    def test_example_rows_match_witness(self):
        scores = np.vstack([example_input(), example_input()])
        report = empirical_lp(scores, 1.0, spec(mode=MODE_TOP_EIGENVECTOR, trials=1))
        assert report.empirical_lp == pytest.approx(EXAMPLE_RATIO, abs=1e-9)

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            empirical_lp(np.zeros((4, 1)), 1.0, spec())

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            empirical_lp(np.zeros(4), 1.0, spec())

    def test_matrix_equals_its_rows(self):
        scores = np.random.default_rng(3).normal(size=(5, 7))
        s = spec(p=1.5, trials=4, seed=6)
        whole = empirical_lp(scores, 1.0, s)
        assert empirical_lp(list(scores), 1.0, s) == whole
        assert empirical_lp([Logits(r) for r in scores], 1.0, s) == whole
        assert empirical_lp(scores.tolist(), 1.0, s) == whole
        # a list or tuple converts in one call, the rest row by row
        assert empirical_lp(tuple(scores), 1.0, s) == whole
        assert empirical_lp([Logits(scores[0]), *scores[1:]], 1.0, s) == whole
        assert empirical_lp((r for r in scores), 1.0, s) == whole
        assert empirical_lp([r.astype(np.float32) for r in scores], 1.0, s) == \
            empirical_lp(scores.astype(np.float32), 1.0, s)

    @pytest.mark.parametrize("inputs,message", [
        (np.zeros((0, 3)), "need at least one input vector"),
        ([], "need at least one input vector"),
        ([np.zeros(3), np.zeros((1, 3))], "same length"),
        ([[1.0, 2.0], [3.0]], "same length"),
        ([[1.0, 2.0], Logits(np.zeros(3))], "same length"),
        ([1.0, 2.0], r"2-D array of input rows, got shape \(2,\)"),
        (["ab", "cd"], "could not convert string to float: 'ab'"),
        (np.zeros((3, 1)), "at least 2 entries"),
        ([[0.0, np.inf]], "finite entries"),
        (np.zeros((2, 2, 2)), "2-D"),
    ])
    def test_validation_messages(self, inputs, message):
        with pytest.raises(ValueError, match=message):
            empirical_lp(inputs, 1.0, spec())


class TestEpsilonSweep:
    def test_singleton_consistent_with_direct_call(self):
        rng = np.random.default_rng(60)
        inputs = [rng.normal(size=4) for _ in range(3)]
        s = spec(trials=8, seed=17)
        swept = epsilon_sweep(inputs, 1.0, s, [s.epsilon])
        direct = empirical_lp(inputs, 1.0, s)
        assert swept.per_epsilon_table == direct.per_epsilon_table
        assert swept.empirical_lp == direct.empirical_lp

    def test_rows_individually_reproducible(self):
        rng = np.random.default_rng(61)
        inputs = [rng.normal(size=5) for _ in range(4)]
        s = spec(trials=10, seed=23)
        epsilons = [1e-1, 1e-2, 1e-3]
        swept = epsilon_sweep(inputs, 1.0, s, epsilons)
        assert len(swept.per_epsilon_table) == 3
        for j, (eps, value) in enumerate(swept.per_epsilon_table):
            from dataclasses import replace

            row = empirical_lp(inputs, 1.0, replace(s, epsilon=eps), epsilon_index=j)
            assert row.empirical_lp == value

    def test_all_rows_below_bound(self):
        rng = np.random.default_rng(62)
        inputs = [rng.normal(size=6) for _ in range(10)]
        swept = epsilon_sweep(inputs, 1.0, spec(trials=10, seed=29), [1e-1, 1e-2, 1e-3])
        for _, value in swept.per_epsilon_table:
            assert value < 0.5

    def test_large_epsilon_flattens_ratios(self):
        # secants through distant points fall well below the local slope
        rng = np.random.default_rng(63)
        inputs = [rng.normal(size=5) for _ in range(100)]
        swept = epsilon_sweep(inputs, 1.0, spec(trials=5, seed=31), [1e-2, 10.0, 100.0])
        small, big, huge = (v for _, v in swept.per_epsilon_table)
        assert big < small
        assert huge < big
        assert huge < 0.1

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            epsilon_sweep([np.zeros(3)], 1.0, spec(), [])
        with pytest.raises(ValueError):
            epsilon_sweep([np.zeros(3)], 1.0, spec(), [0.1, -0.5])


class TestSpecValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            spec(eps=0.0)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan"), -1.0])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        # an infinite epsilon in top-eigenvector mode gave a NaN perturbation,
        # warning "invalid value encountered in multiply"
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            sample_perturbation(
                4, spec(p=2, eps=eps, trials=1, mode=MODE_TOP_EIGENVECTOR), base=np.zeros(4)
            )

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            spec(trials=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            PerturbationSpec(p=2, epsilon=1e-4, trials_per_input=1, mode="uniform-sphere")

    def test_counts_are_whole_numbers(self):
        # 2.5 was accepted, then empirical_lp raised a numpy TypeError; a
        # numpy integer seed overflowed in the sub-seed fold
        with pytest.raises(ValueError, match="trials_per_input must be a whole number"):
            spec(trials=2.5)
        with pytest.raises(ValueError, match="seed must be a whole number"):
            spec(seed=1.5)
        inputs = [example_input(4)]
        want = empirical_lp(inputs, 1.0, spec(trials=2, seed=-3))
        assert empirical_lp(inputs, 1.0, spec(trials=np.int64(2), seed=np.int64(-3))) == want

    def test_other_counts_are_whole_numbers(self):
        # epsilon_index=1.5 raised a numpy TypeError from the sub-seed fold
        # and -1 returned a ratio for a sweep row that does not exist
        inputs = [example_input(4)]
        with pytest.raises(ValueError, match="epsilon_index must be a whole number, got 1.5"):
            empirical_lp(inputs, 1.0, spec(trials=2), epsilon_index=1.5)
        with pytest.raises(ValueError, match="epsilon_index must be at least 0, got -1"):
            empirical_lp(inputs, 1.0, spec(trials=2), epsilon_index=-1)
        want = empirical_lp(inputs, 1.0, spec(trials=2), epsilon_index=1)
        assert empirical_lp(inputs, 1.0, spec(trials=2), epsilon_index=np.int64(1)) == want
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n must be at least 2, got 1"):
            sample_perturbation(1, spec(trials=1), rng)
        with pytest.raises(ValueError, match="n must be a whole number, got 2.5"):
            sample_perturbation(2.5, spec(trials=1), rng)

    def test_bad_aggregate(self):
        with pytest.raises(ValueError):
            spec(aggregate="median")


def oracle(inputs, lam, s, epsilon_index=0, rng_of=np.random.default_rng):
    """The estimator as one validated call per (input, trial) pair, each
    drawing from `rng_of(subseed(...))`.

    Returns (value, (input, trial) argmax, clamp events), with ties going
    to the first pair in (input, trial) order and the mean added left to
    right.
    """
    best, best_at, total, clamps = -1.0, (0, 0), 0.0, 0
    for i, x in enumerate(inputs):
        sx = softmax(x, lam)
        clamps += int(sx.clamped)
        for trial in range(s.trials_per_input):
            if s.mode == MODE_TOP_EIGENVECTOR:
                delta = sample_perturbation(x.size, s, base=x)
            else:
                rng = rng_of(subseed(s.seed, i, trial, epsilon_index))
                delta = sample_perturbation(x.size, s, rng)
            sy = softmax(x + delta, lam)
            clamps += int(sy.clamped)
            ratio = vector_norm(sy.probs - sx.probs, s.p) / vector_norm(delta, s.p)
            total += ratio
            if ratio > best:
                best, best_at = ratio, (i, trial)
    value = best if s.aggregate == "max" else total / (len(inputs) * s.trials_per_input)
    return value, best_at, clamps


def assert_matches_oracle(report, inputs, lam, s, epsilon_index=0):
    value, at, clamps = oracle(inputs, lam, s, epsilon_index)
    assert report.empirical_lp == value  # bit for bit, not approx
    assert (report.argmax_input_index, report.argmax_trial) == at
    assert report.clamp_events == clamps


class TestBatchedEquivalence:
    """The batched estimator against the per-pair oracle, bit for bit."""

    @pytest.mark.parametrize("n", [2, 16, 129])
    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, "inf"])
    def test_empirical_lp(self, p, aggregate, mode, n):
        rng = np.random.default_rng(1000 + n)
        inputs = [rng.normal(size=n) * scale for scale in (0.5, 2.0, 6.0)]
        s = spec(p=p, eps=1e-2, trials=4, mode=mode, seed=37, aggregate=aggregate)
        assert_matches_oracle(empirical_lp(inputs, 1.5, s, epsilon_index=2), inputs, 1.5, s, 2)

    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, "inf"])
    def test_epsilon_sweep(self, p, aggregate, mode):
        rng = np.random.default_rng(77)
        inputs = [rng.normal(size=16) * 3.0 for _ in range(4)]
        s = spec(p=p, trials=5, mode=mode, seed=5, aggregate=aggregate)
        epsilons = [1e-1, 1e-2, 1e-3]
        swept = epsilon_sweep(inputs, 1.0, s, epsilons)
        rows = [oracle(inputs, 1.0, replace(s, epsilon=e), j) for j, e in enumerate(epsilons)]
        assert swept.per_epsilon_table == tuple((e, r[0]) for e, r in zip(epsilons, rows))
        j = swept.argmax_epsilon_index
        assert swept.empirical_lp == rows[j][0]
        assert (swept.argmax_input_index, swept.argmax_trial) == rows[j][1]
        assert swept.clamp_events == sum(r[2] for r in rows)

    def test_saturated_head_counts_clamps(self):
        rng = np.random.default_rng(88)
        inputs = list(400.0 * rng.standard_normal((8, 16)))
        s = spec(p=2, eps=1e-1, trials=10, seed=41)
        report = empirical_lp(inputs, 1.0, s)
        assert report.clamp_events > 0
        assert_matches_oracle(report, inputs, 1.0, s)

    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("p", [1.5, 2, "inf"])
    def test_fortran_ordered_matrix(self, p, mode):
        scores = np.asfortranarray(np.random.default_rng(89).normal(size=(6, 9)))
        assert not scores.flags.c_contiguous
        s = spec(p=p, trials=3, mode=mode, seed=2, aggregate="mean")
        report = empirical_lp(scores, 2.5, s)
        assert_matches_oracle(report, [np.array(r) for r in scores], 2.5, s)

    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_all_zero_inputs_tie_at_first_pair(self, aggregate):
        inputs = [np.zeros(5) for _ in range(4)]
        s = spec(p=3, trials=3, mode=MODE_TOP_EIGENVECTOR, aggregate=aggregate)
        report = empirical_lp(inputs, 1.0, s)
        assert (report.argmax_input_index, report.argmax_trial) == (0, 0)
        assert_matches_oracle(report, inputs, 1.0, s)

    @pytest.mark.parametrize("block", [1, 7, 40, 100])
    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_small_blocks_equal_one_block(self, block, mode, aggregate, monkeypatch):
        # With n = 6, blocks of 1..16 rows end inside an input's trials.
        rng = np.random.default_rng(90)
        inputs = [rng.normal(size=6) * 4.0 for _ in range(5)]
        s = spec(p=1.5, trials=7, mode=mode, seed=8, aggregate=aggregate)
        whole = empirical_lp(inputs, 1.0, s)
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        assert empirical_lp(inputs, 1.0, s) == whole
        assert_matches_oracle(whole, inputs, 1.0, s)

    def test_overflowing_logits_match_oracle(self):
        # lam * x overflows on the first row; its softmax is still defined
        inputs = [np.array([1e308, 0.0, -5.0]), np.array([1.0, 2.0, 3.0])]
        s = spec(p=2, eps=1e-2, trials=3, seed=6)
        report = empirical_lp(inputs, 10.0, s)
        assert report.clamp_events > 0
        assert_matches_oracle(report, inputs, 10.0, s)

    def test_zero_perturbation_rejected(self):
        # eps / ||g|| rounds to 0 at the smallest subnormal; a per-pair loop
        # would divide 0.0 by 0.0 here.
        with pytest.raises(ValueError, match="epsilon is too small"):
            empirical_lp([np.zeros(4)], 1.0, spec(eps=5e-324))

    def test_rows_beyond_int64_rejected(self):
        # np.arange over the row indices raised OverflowError
        inputs = [np.zeros(3), np.ones(3)]
        s = spec(trials=2**62)
        with pytest.raises(ValueError, match="^trials_per_input is too large: 2 inputs x"):
            epsilon_sweep(inputs, 1.0, s, [1e-2])
        with pytest.raises(ValueError, match="^trials_per_input is too large: 1 inputs x"):
            empirical_lp(inputs[:1], 1.0, replace(s, trials_per_input=2**63))
        with pytest.raises(ValueError, match="finite entries"):  # the inputs are checked first
            empirical_lp([[0.0, np.inf]], 1.0, replace(s, trials_per_input=2**63))


def one_epsilon_at_a_time(inputs, lam, s, epsilons):
    """The sweep as one `empirical_lp` call per epsilon, in order: its
    reports, or the ValueError the first failing call raises."""
    try:
        return [
            empirical_lp(inputs, lam, replace(s, epsilon=float(e)), epsilon_index=j)
            for j, e in enumerate(epsilons)
        ]
    except ValueError as exc:
        return exc


def assert_sweep_matches(swept, inputs, lam, s, epsilons):
    """The one-pass sweep against per-epsilon `empirical_lp` and the
    per-pair oracle, bit for bit; ties across epsilons go to the first."""
    rows = [oracle(inputs, lam, replace(s, epsilon=e), j) for j, e in enumerate(epsilons)]
    singles = one_epsilon_at_a_time(inputs, lam, s, epsilons)
    for single, (value, at, clamps) in zip(singles, rows):
        assert single.empirical_lp == value
        assert (single.argmax_input_index, single.argmax_trial) == at
        assert single.clamp_events == clamps
    values = [r[0] for r in rows]
    j = values.index(max(values))
    assert swept.per_epsilon_table == tuple(zip(epsilons, values))
    assert swept.argmax_epsilon_index == j
    assert swept.empirical_lp == values[j]
    assert (swept.argmax_input_index, swept.argmax_trial) == rows[j][1]
    assert swept.clamp_events == sum(r[2] for r in rows)
    assert swept.bound_exceeded == any(v > lam / 2.0 + 1e-9 for v in values)


class TestSweepKernel:
    """`epsilon_sweep` evaluates every (epsilon, input, trial) row in one pass."""

    EPSILONS = [1e-1, 1e-2, 1e-3]

    # 5 inputs x 7 trials = 35 rows per epsilon at n = 6: blocks of 1, 8 and
    # 50 rows end inside epsilons, blocks of 35 rows end exactly on them, 105
    # rows fill one block exactly, and 4096 or 16384 entries take all 105
    # rows in one block with room to spare
    @pytest.mark.parametrize("block", [1, 6, 48, 210, 300, 630, 4096, 1 << 14])
    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_blocks_straddle_epsilons(self, block, mode, aggregate, monkeypatch):
        rng = np.random.default_rng(91)
        inputs = [rng.normal(size=6) * 4.0 for _ in range(5)]
        s = spec(p=1.5, trials=7, mode=mode, seed=8, aggregate=aggregate)
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        swept = epsilon_sweep(inputs, 1.0, s, self.EPSILONS)
        assert_sweep_matches(swept, inputs, 1.0, s, self.EPSILONS)

    @pytest.mark.parametrize("p", [1, 2, 3, "inf"])
    def test_saturated_head(self, p, monkeypatch):
        rng = np.random.default_rng(92)
        inputs = list(400.0 * rng.standard_normal((8, 16)))
        s = spec(p=p, trials=10, seed=41)
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 16 * 30)
        swept = epsilon_sweep(inputs, 1.0, s, self.EPSILONS)
        assert swept.clamp_events > 0
        assert_sweep_matches(swept, inputs, 1.0, s, self.EPSILONS)

    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    def test_fortran_ordered_matrix(self, mode, monkeypatch):
        scores = np.asfortranarray(np.random.default_rng(93).normal(size=(6, 9)))
        s = spec(p=2, trials=3, mode=mode, seed=2, aggregate="mean")
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 9 * 7)
        swept = epsilon_sweep(scores, 2.5, s, self.EPSILONS)
        assert_sweep_matches(swept, [np.array(r) for r in scores], 2.5, s, self.EPSILONS)

    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_ties_across_epsilons_go_to_the_first(self, aggregate):
        # top-eigenvector mode draws nothing, so a repeated epsilon repeats
        # its row, and zero inputs tie every pair within a row too
        inputs = [np.zeros(5) for _ in range(4)]
        s = spec(p=3, trials=3, mode=MODE_TOP_EIGENVECTOR, aggregate=aggregate)
        epsilons = [1e-2, 1e-1, 1e-1, 1e-2]
        swept = epsilon_sweep(inputs, 1.0, s, epsilons)
        table = swept.per_epsilon_table
        assert table[1] == table[2] > table[0] == table[3]
        assert (swept.argmax_epsilon_index, swept.argmax_input_index, swept.argmax_trial) == (1, 0, 0)
        assert_sweep_matches(swept, inputs, 1.0, s, epsilons)

    def test_zero_draws_are_redrawn_from_their_own_streams(self, monkeypatch):
        wrapped = []
        batched = estimator._generators

        def zero_first(*args):
            for rng in batched(*args):
                wrapped.append(ZeroFirst(rng))
                yield wrapped[-1]

        monkeypatch.setattr(estimator, "_generators", zero_first)
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 4 * 5)  # 5-row blocks, 12-row epsilons
        rng = np.random.default_rng(94)
        inputs = [rng.normal(size=4) for _ in range(3)]
        s = spec(p=2, trials=4, seed=3)
        swept = epsilon_sweep(inputs, 1.0, s, self.EPSILONS)
        assert [w.draws for w in wrapped] == [2] * 36
        rows = [
            oracle(inputs, 1.0, replace(s, epsilon=e), j,
                   rng_of=lambda entropy: ZeroFirst(np.random.default_rng(entropy)))
            for j, e in enumerate(self.EPSILONS)
        ]
        assert swept.per_epsilon_table == tuple((e, r[0]) for e, r in zip(self.EPSILONS, rows))

    # every ordered pair: NaN and inf fail their spec, 5e-324 rounds to a
    # zero random perturbation, 1e308 overflows the second input's logits,
    # and 1e-300 and 1e-2 pass
    EXTREMES = [float("nan"), float("inf"), 5e-324, 1e-300, 1e-2, 1e308]

    @pytest.mark.parametrize("epsilons", list(itertools.product(EXTREMES, repeat=2)))
    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("block", [4, 4096])  # blocks of one row, one block
    def test_errors_are_those_of_one_epsilon_at_a_time(self, epsilons, mode, block, monkeypatch):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        inputs = [np.zeros(4), np.full(4, 1.5e308)]
        s = spec(trials=3, mode=mode)
        singles = one_epsilon_at_a_time(inputs, 1.0, s, epsilons)
        if isinstance(singles, ValueError):
            with pytest.raises(ValueError) as raised:
                epsilon_sweep(inputs, 1.0, s, epsilons)
            assert str(raised.value) == str(singles)
        else:
            table = epsilon_sweep(inputs, 1.0, s, epsilons).per_epsilon_table
            assert table == tuple((e, single.empirical_lp) for e, single in zip(epsilons, singles))

    def test_infinite_epsilon_in_top_eigenvector_mode(self):
        # inf times the unit witness's zero entries warned "invalid value
        # encountered in multiply", raised here in place of the ValueError
        s = spec(p=2, eps=1e-2, trials=3, mode=MODE_TOP_EIGENVECTOR)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            epsilon_sweep([np.zeros(4)], 1.0, s, [1e-2, float("inf")])

    @pytest.mark.parametrize("epsilons, message", [
        ([float("nan")], "epsilon must be positive"),  # its spec fails first
        ([1e-2, float("nan")], "finite entries"),  # the inputs fail first
    ])
    def test_nan_epsilon_after_bad_inputs(self, epsilons, message):
        with pytest.raises(ValueError, match=message):
            epsilon_sweep([[0.0, np.inf]], 1.0, spec(), epsilons)



def one_order_at_a_time(inputs, lam, s, epsilons, orders):
    """`order_sweep` as one `epsilon_sweep` per order, in list order: its
    reports, or the error the first failing sweep raises."""
    try:
        return tuple(epsilon_sweep(inputs, lam, replace(s, p=order), epsilons) for order in orders)
    except ValueError as exc:
        return exc


def assert_same_outcome(inputs, lam, s, epsilons, orders):
    expected = one_order_at_a_time(inputs, lam, s, epsilons, orders)
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as raised:
            order_sweep(inputs, lam, s, epsilons, orders)
        assert str(raised.value) == str(expected)
    else:
        assert order_sweep(inputs, lam, s, epsilons, orders) == expected
    return expected


class TestOrderSweep:
    """`order_sweep` serves every norm order from one pass: one generator
    and one draw per (input, trial, epsilon) row, and the reports and
    errors of one `epsilon_sweep` per order."""

    EPSILONS = [1e-1, 1e-2, 1e-3]
    ORDERS = (1, 2, 2, 1.5, "inf")  # 2 repeated

    @pytest.mark.parametrize("block", [4, 4096])  # blocks of one row, one block
    @pytest.mark.parametrize("saturated", [False, True])
    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_reports_are_those_of_one_order_at_a_time(
        self, block, saturated, mode, aggregate, monkeypatch
    ):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(95)
        inputs = rng.normal(size=(5, 4)) * (400.0 if saturated else 3.0)
        s = spec(p=3, trials=6, mode=mode, seed=12, aggregate=aggregate)
        reports = assert_same_outcome(inputs, 1.0, s, self.EPSILONS, self.ORDERS)
        assert [r.p for r in reports] == [NormOrder.of(p) for p in self.ORDERS]
        assert reports[1] == reports[2]
        assert all(r.clamp_events > 0 for r in reports) == saturated

    @pytest.mark.parametrize("epsilons", list(itertools.product(TestSweepKernel.EXTREMES, repeat=2)))
    @pytest.mark.parametrize("orders", [(1, "inf"), ("inf", 1), (1.5, 2)])
    @pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_TOP_EIGENVECTOR])
    @pytest.mark.parametrize("block", [4, 4096])
    def test_errors_are_those_of_one_order_at_a_time(
        self, epsilons, orders, mode, block, monkeypatch
    ):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        inputs = [np.zeros(4), np.full(4, 1.5e308)]
        assert_same_outcome(inputs, 1.0, spec(trials=3, mode=mode), epsilons, orders)

    @pytest.mark.parametrize("block", [4, 4096])
    @pytest.mark.parametrize("orders, message", [
        ((1, 2), "epsilon is too small: a perturbation rounds to zero"),
        ((2, 1), "logits must have finite entries"),
    ])
    def test_the_first_order_to_fail_names_the_error(self, block, orders, message, monkeypatch):
        # p = 2 fails at epsilon 5e307 (the second input overflows) and p = 1
        # only at 5e-324 (a draw on the l1 sphere rounds to zero), so the
        # pass meets p = 2's failure first, and p = 1 must still run on
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        inputs = [np.zeros(4), np.full(4, 1.5e308)]
        s = spec(trials=3)
        assert str(assert_same_outcome(inputs, 1.0, s, [5e307, 5e-324], orders)) == message

    def test_a_bad_order_fails_after_the_orders_before_it(self):
        inputs = [np.zeros(4), np.ones(4)]
        with pytest.raises(ValueError, match="cannot parse 'abc'"):
            order_sweep(inputs, 1.0, spec(), [1e-2], [2, "abc"])
        with pytest.raises(ValueError, match="epsilon is too small"):
            order_sweep(inputs, 1.0, spec(), [1e-2, 5e-324], [1, "abc"])
        with pytest.raises(ValueError, match="cannot parse 'abc'"):
            order_sweep(inputs, 1.0, spec(), [], ["abc", 1])
        with pytest.raises(ValueError, match="need at least one norm order"):
            order_sweep(inputs, 1.0, spec(), [1e-2], [])
        with pytest.raises(ValueError, match="need at least one epsilon"):
            order_sweep(inputs, 1.0, spec(), [], [1, 2])

    @pytest.mark.parametrize("block", [4, 4096])
    def test_one_generator_per_row_for_all_orders(self, block, monkeypatch):
        built = []
        batched = estimator._generators

        def counted(*args):
            for rng in batched(*args):
                built.append(rng)
                yield rng

        monkeypatch.setattr(estimator, "_generators", counted)
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        inputs = np.random.default_rng(96).normal(size=(3, 4))
        order_sweep(inputs, 1.0, spec(trials=5), self.EPSILONS, (1, 2, 3, "inf"))
        assert len(built) == 3 * 5 * len(self.EPSILONS)


def count_generators(monkeypatch):
    """Count the generators `_estimate` builds from here on, through the one
    place that builds them."""
    built = []
    batched = estimator._generators

    def counted(*args):
        for rng in batched(*args):
            built.append(rng)
            yield rng

    monkeypatch.setattr(estimator, "_generators", counted)
    return built


def sweep_keys(seed, count, trials, epsilon_indices, n):
    """The memo keys of a random-mode sweep's blocks, in order."""
    step = max(1, estimator._BLOCK_ELEMENTS // n)
    total = count * len(epsilon_indices)
    return [(seed, count, trials, epsilon_indices, n, start, min(start + step, total))
            for start in range(0, total, step)]


def count_row_norms(monkeypatch):
    """Count the p-norm calls `_estimate` makes from here on: three per
    block and order that rescales its draws, one per block and order that
    takes its held row scales and realized norms."""
    calls = []
    row_norms = estimator.row_norms

    def counted(rows, p):
        calls.append(len(rows))
        return row_norms(rows, p)

    monkeypatch.setattr(estimator, "row_norms", counted)
    return calls


def held_scale_entries():
    """The scale memo's entries, as (key, (scales, realized)) pairs."""
    with estimator._held_scales._lock:
        return list(estimator._held_scales._entries.items())


class TestDrawMemo:
    """A random-mode block drawn before in this process comes from the
    draw memo: no seed is hashed, no generator is built and no bit moves."""

    EPSILONS = [1e-1, 1e-2, 1e-3]

    def heads(self, count, rows=8, n=16, seed=97):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(rows, n)) * scale for scale in np.geomspace(0.5, 4.0, count)]

    def test_a_repeated_sweep_builds_no_generator(self, monkeypatch):
        # heads of one shape at one seed draw the same 8 x 10 x 3 rows
        built = count_generators(monkeypatch)
        first, second = self.heads(2)
        s = spec(p=2, eps=1e-1, trials=10, seed=41)
        cold = epsilon_sweep(first, 1.0, s, self.EPSILONS)
        assert len(built) == 240
        assert epsilon_sweep(first, 1.0, s, self.EPSILONS) == cold
        other = epsilon_sweep(list(second), 1.0, s, self.EPSILONS)
        orders = order_sweep(second, 1.0, s, self.EPSILONS, (1, 3, "inf"))
        assert len(built) == 240
        assert_sweep_matches(other, list(second), 1.0, s, self.EPSILONS)
        for order, report in zip((1, 3, "inf"), orders):
            assert report == one_order_at_a_time(second, 1.0, s, self.EPSILONS, [order])[0]

    @pytest.mark.parametrize("n", [2, 16, 129, 197, 2048])
    @pytest.mark.parametrize("block", [4, 24, 4096, 1 << 14])
    def test_cold_and_warm_are_bit_identical(self, block, n, monkeypatch):
        # 15 rows per epsilon: blocks of 1, 2, 8, 12, 20 or 31 rows end inside
        # epsilons; a row wider than a block is not held, and neither is a
        # sweep of more blocks than the memo holds (n = 2048 in 4096-entry
        # blocks: 45 rows in 23 blocks)
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        built = count_generators(monkeypatch)
        rng = np.random.default_rng(98)
        inputs = [rng.normal(size=n) * 3.0 for _ in range(3)]
        s = spec(p=1.5, trials=5, seed=9, aggregate="mean")
        cold = order_sweep(inputs, 1.0, s, self.EPSILONS, (1.5, 2))
        assert len(built) == 45
        warm = order_sweep(inputs, 1.0, s, self.EPSILONS, (1.5, 2))
        held = n <= block and 45 <= (block // n) * estimator._HELD_BLOCKS
        assert len(built) == (45 if held else 90)
        assert warm == cold
        for report in cold:
            table = [oracle(inputs, 1.0, replace(s, p=report.p, epsilon=e), j)[0]
                     for j, e in enumerate(self.EPSILONS)]
            assert report.per_epsilon_table == tuple(zip(self.EPSILONS, table))

    def test_held_blocks_are_read_only_and_never_written(self, monkeypatch):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 16 * 30)  # 8 blocks
        head = self.heads(1)[0]
        s = spec(p=2, trials=10, seed=5)
        epsilon_sweep(head, 1.0, s, self.EPSILONS)
        keys = sweep_keys(5, 80, 10, (0, 1, 2), 16)
        held = [estimator._held_draws(*key) for key in keys]
        info = estimator._held_draws.cache_info()
        assert (len(keys), info.misses, info.hits) == (8, 8, 8)
        copies = [block.copy() for block in held]
        for p in (1, 2, 3, "inf"):  # every order rescales the same held draws
            epsilon_sweep(400.0 * head, 1.0, replace(s, p=p), self.EPSILONS)
        with pytest.raises(ValueError, match="finite entries"):
            epsilon_sweep(np.full((8, 16), 1.5e308), 1.0, s, [1e308])
        for key, block, copy in zip(keys, held, copies):
            assert estimator._held_draws(*key) is block
            assert not block.flags.writeable
            np.testing.assert_array_equal(block, copy)
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0

    def test_held_scales_are_read_only_and_never_written(self, monkeypatch):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 16 * 30)  # 8 blocks
        head = self.heads(1)[0]
        s = spec(p=3, trials=10, seed=5)
        epsilon_sweep(head, 1.0, s, self.EPSILONS)
        keys = [key + (3.0, tuple(self.EPSILONS)) for key in sweep_keys(5, 80, 10, (0, 1, 2), 16)]
        held = [estimator._held_scales.get(key) for key in keys]
        assert [key for key, _ in held_scale_entries()] == keys
        copies = [(c.copy(), r.copy()) for c, r in held]
        for scale in (0.5, 400.0):  # other heads rescale nothing
            epsilon_sweep(scale * head, 1.0, s, self.EPSILONS)
        with pytest.raises(ValueError, match="finite entries"):
            epsilon_sweep(np.full((8, 16), 1.5e308), 1.0, s, [1e308])
        for key, entry, (c, r) in zip(keys, held, copies):
            assert estimator._held_scales.get(key) is entry
            for array, copy in zip(entry, (c, r)):
                assert not array.flags.writeable
                np.testing.assert_array_equal(array, copy)
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("block", [4, 24, 4096, 1 << 14])
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_held_scales_are_bit_identical(self, block, n, aggregate, monkeypatch):
        # 15 rows per epsilon: 24-entry blocks hold 12 rows at n = 2 and 4
        # at n = 5, and some end inside epsilons
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        built = count_generators(monkeypatch)
        calls = count_row_norms(monkeypatch)
        rng = np.random.default_rng(103)
        inputs = [rng.normal(size=n) * 3.0 for _ in range(3)]
        orders = (1, 1.5, 2, 3, "inf")
        s = spec(p=1, trials=5, seed=9, aggregate=aggregate)
        cold = order_sweep(inputs, 1.0, s, self.EPSILONS, orders)
        blocks = len(sweep_keys(9, 15, 5, (0, 1, 2), n))
        assert (len(built), len(calls)) == (45, 3 * blocks * len(orders))
        warm = order_sweep(inputs, 1.0, s, self.EPSILONS, orders)
        held = n <= block and blocks <= estimator._HELD_BLOCKS
        assert len(built) == (45 if held else 90)
        assert len(calls) == (4 if held else 6) * blocks * len(orders)
        assert estimator._held_scales.info() == ((blocks * len(orders), 2 * 45 * len(orders))
                                                 if held else (0, 0))
        assert warm == cold
        for report in cold:
            table = [oracle(inputs, 1.0, replace(s, p=report.p, epsilon=e), j)[0]
                     for j, e in enumerate(self.EPSILONS)]
            assert report.per_epsilon_table == tuple(zip(self.EPSILONS, table))

    def test_other_epsilons_take_the_draws_but_not_the_scales(self, monkeypatch):
        built = count_generators(monkeypatch)
        calls = count_row_norms(monkeypatch)
        head = self.heads(1)[0]
        s = spec(p=3, trials=10, seed=41)
        epsilon_sweep(head, 1.0, s, self.EPSILONS)
        other = [2e-1, 3e-2, 1e-3]  # the same epsilon indices, one value kept
        swept = epsilon_sweep(head, 1.0, s, other)
        assert (len(built), len(calls)) == (240, 6)
        assert estimator._held_scales.info() == (2, 2 * 2 * 240)
        assert_sweep_matches(swept, list(head), 1.0, s, other)

    def test_spellings_of_one_order_share_one_entry(self, monkeypatch):
        calls = count_row_norms(monkeypatch)
        head = self.heads(1)[0]
        s = spec(p=3, trials=10, seed=41)
        reports = [epsilon_sweep(head, 1.0, replace(s, p=p), self.EPSILONS)
                   for p in (3, 3.0, NormOrder(3), "3")]
        reports += order_sweep(head, 1.0, s, self.EPSILONS, (3.0, NormOrder(3)))
        assert len(calls) == 3 + 5
        assert estimator._held_scales.info() == (1, 2 * 240)
        assert all(report == reports[0] for report in reports)

    @pytest.mark.parametrize("sweep_first", [False, True])
    def test_empirical_lp_is_a_row_of_the_held_sweep(self, sweep_first):
        head = self.heads(1, seed=104)[0]
        s = spec(p=1.5, trials=10, seed=41, aggregate="mean")
        if sweep_first:
            swept = epsilon_sweep(head, 1.0, s, self.EPSILONS)
        singles = [empirical_lp(head, 1.0, replace(s, epsilon=e), epsilon_index=j)
                   for j, e in enumerate(self.EPSILONS)]
        if not sweep_first:
            swept = epsilon_sweep(head, 1.0, s, self.EPSILONS)
        assert swept.per_epsilon_table == tuple((e, r.empirical_lp) for e, r in zip(self.EPSILONS, singles))
        for j, single in enumerate(singles):
            assert single == empirical_lp(head, 1.0, replace(s, epsilon=self.EPSILONS[j]), epsilon_index=j)
            assert_matches_oracle(single, list(head), 1.0, replace(s, epsilon=self.EPSILONS[j]), j)

    # NaN fails its spec, 5e-324 rounds to a zero perturbation and 1e308
    # overflows the second input's logits, each in the second epsilon
    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "epsilon must be positive and finite"),
        (5e-324, "epsilon is too small"),
        (1e308, "finite entries"),
    ])
    @pytest.mark.parametrize("block", [4, 4096])  # blocks of one row, one block
    def test_a_failing_sweep_holds_no_scale_of_its_failing_block(self, bad, message, block, monkeypatch):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        failing = [np.zeros(4), np.full(4, 1.5e308)]
        s = spec(p=3, trials=3)
        epsilons = [1e-2, bad]
        errors = []
        for _ in range(2):  # cold and warm
            with pytest.raises(ValueError) as raised:
                order_sweep(failing, 1.0, s, epsilons, (3, 1))
            errors.append(str(raised.value))
        assert errors[0] == errors[1] and message in errors[0]
        for _, (c, realized) in held_scale_entries():
            assert np.isfinite(c).all() and np.isfinite(realized).all() and realized.all()
        if block == 4096:  # one block for all rows: only an order that passed it holds it
            passed = [3.0] if bad == 5e-324 else []  # the l1 sphere alone rounds to zero
            assert [key[-2] for key, _ in held_scale_entries()] == passed
        valid = [np.zeros(4), np.ones(4)]  # the same key, where 1e308 passes
        for _ in range(2):
            expected = one_order_at_a_time(valid, 1.0, s, epsilons, (3, 1))
            if isinstance(expected, ValueError):
                with pytest.raises(ValueError, match=str(expected)):
                    order_sweep(valid, 1.0, s, epsilons, (3, 1))
            else:
                assert order_sweep(valid, 1.0, s, epsilons, (3, 1)) == expected
                assert_sweep_matches(expected[0], valid, 1.0, s, epsilons)

    def test_a_change_of_key_misses(self, monkeypatch):
        built = count_generators(monkeypatch)
        rng = np.random.default_rng(99)
        s = spec(p=2, trials=4, seed=3)
        epsilon_sweep(rng.normal(size=(5, 6)), 1.0, s, self.EPSILONS)
        assert len(built) == 60
        for inputs, changed, rows in [
            (rng.normal(size=(5, 6)), replace(s, seed=4), 60),
            (rng.normal(size=(5, 6)), replace(s, trials_per_input=3), 45),
            (rng.normal(size=(4, 6)), s, 48),  # fewer rows
            (rng.normal(size=(5, 7)), s, 60),  # another n
        ]:
            del built[:]
            epsilon_sweep(inputs, 1.0, changed, self.EPSILONS)
            assert len(built) == rows
        del built[:]
        empirical_lp(rng.normal(size=(5, 6)), 1.0, s, epsilon_index=1)  # one epsilon of three
        assert len(built) == 20

    def test_held_blocks_stay_bounded(self, monkeypatch):
        built = count_generators(monkeypatch)
        assert estimator._HELD_BLOCKS * estimator._BLOCK_ELEMENTS == 1 << 18
        for seed in range(1000):
            g = estimator._held_draws(seed, 1, 1, (0,), 300, 0, 1)
        info = estimator._held_draws.cache_info()
        assert info.currsize == info.maxsize == estimator._HELD_BLOCKS
        assert len(built) == 1000
        for seed in range(1000 - estimator._HELD_BLOCKS, 1000):  # the latest are held
            estimator._held_draws(seed, 1, 1, (0,), 300, 0, 1)
        assert len(built) == 1000
        estimator._held_draws(0, 1, 1, (0,), 300, 0, 1)  # the oldest went first
        assert len(built) == 1001
        np.testing.assert_array_equal(g[0], np.random.default_rng(subseed(999, 0, 0, 0)).standard_normal(300))

    def test_held_scales_stay_bounded(self):
        memo = estimator._held_scales
        assert memo.floats == estimator._HELD_FLOATS == 1 << 18
        entries = memo.floats // 2000  # of 1000 rows each
        for seed in range(1000):
            memo.put(seed, np.full(1000, float(seed)), np.ones(1000))
        assert memo.info() == (entries, 2000 * entries)
        for seed in range(1000 - entries, 1000):  # the latest are held
            c, realized = memo.get(seed)
            assert c[0] == seed and not c.flags.writeable and not realized.flags.writeable
        assert memo.get(1000 - entries - 1) is None  # the oldest went first
        memo.put(1000, np.zeros(1000), np.ones(1000))
        assert memo.get(1000 - entries) is None  # and so did the least recently used
        assert memo.info() == (entries, 2000 * entries)

    def test_a_sweep_whose_scales_do_not_fit_is_not_held(self, monkeypatch):
        # 8 inputs x 682 trials x 3 epsilons fill the draw memo's 16 blocks;
        # their row scales and realized norms fit at 8 orders (2 x 16368 x 8
        # floats), not at 9
        built = count_generators(monkeypatch)
        small, big = self.heads(2)
        s = spec(p=2, trials=10, seed=41)
        epsilon_sweep(small, 1.0, s, self.EPSILONS)
        assert len(built) == 240 and estimator._held_scales.info() == (1, 480)
        over = replace(s, trials_per_input=682)
        orders = (1, 1.5, 2, 2.5, 3, 4, 5, 6, "inf")
        first = order_sweep(big, 1.0, over, self.EPSILONS, orders)
        assert order_sweep(big, 1.0, over, self.EPSILONS, orders) == first
        assert len(built) == 240 + 2 * 16368
        assert estimator._held_scales.info() == (1, 480)  # it evicted nothing
        epsilon_sweep(small, 1.0, s, self.EPSILONS)  # and its draws are still held
        assert len(built) == 240 + 2 * 16368
        del built[:]
        warm = order_sweep(big, 1.0, over, self.EPSILONS, orders[:8])
        assert order_sweep(big, 1.0, over, self.EPSILONS, orders[:8]) == warm == first[:8]
        assert len(built) == 16368
        # a sweep that fits is held whole, the small head's entry going first
        assert estimator._held_scales.info() == (16 * 8, 2 * 16368 * 8)

    def test_a_sweep_the_memo_cannot_hold_whole_is_drawn_afresh(self, monkeypatch):
        # at n = 16 a block holds 1024 rows, so 8 inputs x 682 trials x 3
        # epsilons fill the 16 held blocks and 683 trials need a 17th
        built = count_generators(monkeypatch)
        small, big = self.heads(2)
        s = spec(p=2, trials=10, seed=41)
        epsilon_sweep(small, 1.0, s, self.EPSILONS)
        assert len(built) == 240
        over = replace(s, trials_per_input=683)
        first = epsilon_sweep(big, 1.0, over, self.EPSILONS)
        assert epsilon_sweep(big, 1.0, over, self.EPSILONS) == first
        assert len(built) == 240 + 2 * 8 * 683 * 3
        epsilon_sweep(small, 1.0, s, self.EPSILONS)  # still held: the big sweep evicted nothing
        assert len(built) == 240 + 2 * 8 * 683 * 3
        del built[:]
        fits = replace(s, trials_per_input=682)
        first = epsilon_sweep(big, 1.0, fits, self.EPSILONS)
        assert epsilon_sweep(big, 1.0, fits, self.EPSILONS) == first
        assert len(built) == 8 * 682 * 3
        del built[:]
        for n, drawn in [(estimator._BLOCK_ELEMENTS, 6), (estimator._BLOCK_ELEMENTS + 1, 12)]:
            wide = np.random.default_rng(100).normal(size=(3, n))  # one row a block
            for _ in range(2):
                empirical_lp(wide, 1.0, replace(s, trials_per_input=2))
            assert len(built) == drawn
            del built[:]
        # the documented boundary: at 100 trials and 3 epsilons a 29 x 29
        # head's sweep fits the memo's 2^18 floats, and a 30 x 30 head's not
        for n, drawn in [(29, 29 * 100 * 3), (30, 2 * 30 * 100 * 3)]:
            head = np.random.default_rng(102).normal(size=(n, n))
            for _ in range(2):
                epsilon_sweep(head, 1.0, replace(s, trials_per_input=100), self.EPSILONS)
            assert len(built) == drawn
            del built[:]

    def test_threads_share_the_memo(self):
        # more threads than cores, switching often, over keys that evict each
        # other: a lost update would break a sweep or a held block
        heads = self.heads(6)
        specs = [spec(p=p, trials=10, seed=seed) for p in (1, "inf") for seed in (1, 2)]
        jobs = [(head, s) for head in heads for s in specs]
        serial = [epsilon_sweep(head, 1.0, s, self.EPSILONS) for head, s in jobs]
        keys = [(seed, 1, 1, (0,), 3000, 0, 1) for seed in range(400)]
        estimator._held_draws.cache_clear()
        estimator._held_scales.clear()

        def put_and_get(seed):  # entries of 2 x 3000 floats: 43 fit
            estimator._held_scales.put(("put", seed), np.full(3000, float(seed)), np.ones(3000))
            return estimator._held_scales.get(("put", seed - 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                sweeps = [pool.submit(epsilon_sweep, head, 1.0, s, self.EPSILONS) for head, s in jobs]
                draws = [pool.submit(estimator._held_draws, *key) for key in keys]
                scales = [pool.submit(put_and_get, seed) for seed in range(400)]
                threaded = [f.result(timeout=60) for f in sweeps]
                drawn = [f.result(timeout=60) for f in draws]
                got = [f.result(timeout=60) for f in scales]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert estimator._held_draws.cache_info().currsize <= estimator._HELD_BLOCKS
        entries, floats = estimator._held_scales.info()
        held = held_scale_entries()
        assert entries == len(held) and floats == sum(2 * c.size for _, (c, _) in held)
        assert floats <= estimator._HELD_FLOATS
        for seed, entry in enumerate(got):
            assert entry is None or entry[0][0] == seed - 1
        for key, g in zip(keys, drawn):
            reference = np.random.default_rng(subseed(key[0], 0, 0, 0)).standard_normal(3000)
            np.testing.assert_array_equal(g[0], reference)

    def test_threads_give_the_serial_results(self, monkeypatch):
        # wide rows draw one row a block, and each block hashes its own
        # row's seed, so sweeps running at once in four threads share no
        # seed state and give the results they give alone
        hashed = []
        batched = estimator._seed_states

        def counted(entropy):
            hashed.append(len(entropy))
            return batched(entropy)

        monkeypatch.setattr(estimator, "_seed_states", counted)
        wide = np.random.default_rng(101).normal(size=(3, estimator._BLOCK_ELEMENTS + 1))
        specs = [spec(p=2, trials=10, seed=seed) for seed in range(4)]
        serial = [epsilon_sweep(wide, 1.0, s, self.EPSILONS) for s in specs]
        assert hashed == [1] * 360
        del hashed[:]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(epsilon_sweep, wide, 1.0, s, self.EPSILONS) for s in specs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert hashed == [1] * 360
