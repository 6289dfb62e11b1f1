"""Empirical Lipschitz estimation of the softmax from sampled secant ratios.

The estimate over a dataset x_1..x_M is

    max over inputs i and trials of  ||sig(x_i + d) - sig(x_i)||_p / ||d||_p

with perturbations d of prescribed p-norm epsilon. Attention score matrices
are handled row-wise, matching how softmax is applied inside attention.

Reproducibility contract: every (input, trial, epsilon) triple draws from
its own generator seeded by `subseed`, so results are bit-identical no
matter how the work is partitioned or ordered. Ties in the maximum break
toward the lowest input index, then the lowest trial index.

An epsilon sweep runs as one pass over rows in (epsilon, input, trial)
order: the inputs are validated and their softmax taken once, and blocks
of rows may span epsilons. Each epsilon keeps its own maximum, ties and
mean, so row j of a sweep's table is `empirical_lp` with epsilon_index=j,
the one-epsilon case of the same pass.

Each triple's stream is exactly `np.random.default_rng(subseed(...))`,
that is `PCG64(SeedSequence(subseed))`. The estimator computes the
subseeds and their SeedSequence states for a batch of rows at once, across
epsilons, and hands each state to PCG64's own seeding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from softlip.core import (
    Logits,
    Temperature,
    _secular_witness,
    _softmax_rows,
    jacobian,  # not called here; perfbench/spans.py wraps this name
    softmax,
)
from softlip.opnorm import NormOrder, row_norms, vector_norm

MODE_RANDOM = "random-gaussian-normalized"
MODE_TOP_EIGENVECTOR = "top-eigenvector"

_MASK64 = (1 << 64) - 1

#: Most float64 entries one block of (input, trial) rows holds; bounds the
#: estimator's working memory whatever the number of inputs and trials.
_BLOCK_ELEMENTS = 1 << 12

#: Rows whose generator seeds are computed together, so wide rows (blocks
#: of one row) share the fixed cost of a batch too.
_SEED_ROWS = 1 << 10


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, a fixed 64-bit bijective mix, in place on a
    uint64 array (numpy array arithmetic wraps modulo 2^64 unchecked)."""
    z += 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _subseeds(
    seed: int,
    input_index: np.ndarray,
    trial_index: np.ndarray,
    epsilon_index: Union[int, np.ndarray],
) -> np.ndarray:
    """`subseed(seed, input_index[r], trial_index[r], epsilon_index[r])` of
    every row r, as a uint64 array, for an epsilon index per row (uint64) or
    one for all; negative indices wrap modulo 2^64, as there."""
    mixed = np.empty((3, len(input_index)), dtype=np.uint64)
    mixed[0], mixed[1], mixed[2] = input_index, trial_index, epsilon_index & _MASK64
    _mix64(mixed)
    h = np.uint64(seed & _MASK64)
    for v in mixed:
        h = _mix64(h ^ v)
    return h


def subseed(seed: int, input_index: int, trial_index: int, epsilon_index: int) -> int:
    """Per-trial seed: fold the indices into the base seed with splitmix64.

    h = seed & (2^64 - 1); then for v in (input_index, trial_index,
    epsilon_index): h = mix64(h ^ mix64(v)), where mix64 is the splitmix64
    finalizer above. The result feeds numpy's default generator directly.
    """
    rows = (np.array([v & _MASK64]) for v in (input_index, trial_index))
    return int(_subseeds(seed, *rows, epsilon_index)[0])


def _hash_chain(hash_const: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants that `calls` consecutive `hashmix` calls of numpy's
    SeedSequence (NEP 19) xor in and multiply by, as (calls, 1) uint32
    columns; they do not depend on the data hashed."""
    xor, times = [], []
    for _ in range(calls):
        xor.append(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        times.append(hash_const)
    return np.array(xor, np.uint32)[:, None], np.array(times, np.uint32)[:, None]


# SeedSequence with pool size 4 hashes an entropy of two words with 16
# calls of one chain (4 to fill the pool, 12 to mix it) and draws 8 output
# words with another.
_POOL_CHAIN = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_CHAIN = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: For each pool word, the other three, in the order the mixing visits them.
_OTHER_WORDS = tuple(np.array([d for d in range(4) if d != src]) for src in range(4))


def _hashmix(values: np.ndarray, chain: tuple, first: int, calls: int) -> np.ndarray:
    """Calls `first` to `first + calls - 1` of a hash chain, call first + k
    on row k of `values` (broadcast), in uint32 arithmetic that wraps as
    numpy's C code does."""
    xor, times = chain
    values = (values ^ xor[first:first + calls]) * times[first:first + calls]
    return values ^ (values >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(e).generate_state(4, np.uint64)` for every uint64 e, one
    row each.

    The entropy enters as its two 32-bit words, low word first; an entropy
    below 2^32 is one word, which hashes the same as a zero high word. Each
    step runs for all entropies at once, and so do the calls within a step
    that read no result of each other.
    """
    pool = np.zeros((4, entropy.size), dtype=np.uint32)
    pool[:2] = entropy.astype("<u8").reshape(-1, 1).view("<u4").T
    pool = _hashmix(pool, _POOL_CHAIN, 0, 4)
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[src], _POOL_CHAIN, 4 + 3 * src, 3)
        mixed = _MIX_MULT_L * pool.take(dst, axis=0) - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(np.concatenate((pool, pool)), _OUTPUT_CHAIN, 0, 8)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _fixed_seed_type() -> type:
    """A seed sequence that hands PCG64 one precomputed state, whatever it
    asks for: PCG64 seeds itself from `generate_state(4, np.uint64)` alone.
    Built on first use, so importing softlip does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeed


def _generators(seed: int, count: int, trials_per_input: int, *epsilon_indices: int):
    """Yield `np.random.default_rng(subseed(seed, i, t, j))` for the rows of
    `_estimate` in order, bit for bit: for each j of `epsilon_indices` in
    turn, the rows 0 to count - 1, each (i, t) = divmod(row, trials_per_input).
    Each is `PCG64(SeedSequence(subseed))`, with the subseeds and their seed
    states computed _SEED_ROWS rows at a time, across epsilon boundaries and
    however few rows a block holds."""
    fixed = _fixed_seed_type()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    epsilons = np.array([j & _MASK64 for j in epsilon_indices], dtype=np.uint64)
    total = count * len(epsilon_indices)
    for start in range(0, total, _SEED_ROWS):
        epsilon_of, pairs = np.divmod(np.arange(start, min(start + _SEED_ROWS, total)), count)
        inputs_of, trials_of = np.divmod(pairs, trials_per_input)
        for state in _seed_states(_subseeds(seed, inputs_of, trials_of, epsilons[epsilon_of])):
            yield generator(pcg64(fixed(state)))


@dataclass(frozen=True)
class PerturbationSpec:
    """How to perturb each input: norm order, magnitude, trials, law, seed."""

    p: NormOrder
    epsilon: float
    trials_per_input: int
    mode: str = MODE_RANDOM
    seed: int = 0
    aggregate: str = "max"

    def __post_init__(self):
        object.__setattr__(self, "p", NormOrder.of(self.p))
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("perturbation magnitude epsilon must be positive and finite")
        if self.trials_per_input < 1:
            raise ValueError("need at least one trial per input")
        if self.mode not in (MODE_RANDOM, MODE_TOP_EIGENVECTOR):
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if self.aggregate not in ("max", "mean"):
            raise ValueError(f"aggregate must be 'max' or 'mean', got {self.aggregate!r}")


@dataclass(frozen=True)
class EstimateReport:
    """Result of an empirical Lipschitz run.

    `empirical_lp` is the aggregated ratio (max by default). The argmax
    provenance always points at the largest recorded ratio, so the value is
    reproducible by re-perturbing that single (input, trial) pair.
    `bound_exceeded` flags empirical_lp > lam/2 + 1e-9, which would
    contradict the global bound; it is a sanity flag, never an error.
    """

    empirical_lp: float
    argmax_input_index: int
    argmax_trial: int
    argmax_epsilon_index: int
    per_epsilon_table: tuple
    lam: float
    p: NormOrder
    inputs_count: int
    trials_per_input: int
    mode: str
    seed: int
    aggregate: str
    clamp_events: int
    bound_exceeded: bool


def sample_perturbation(
    n: int,
    spec: PerturbationSpec,
    rng: Optional[np.random.Generator] = None,
    base: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw one perturbation of exact p-norm epsilon.

    Random mode draws a standard normal direction from `rng` and rescales
    it onto the epsilon sphere of the spec's norm (redrawing the
    measure-zero all-zero sample). Top-eigenvector mode draws nothing, so
    `rng` may be None there; it returns epsilon times the unit top
    eigenvector of the unit-temperature Jacobian at `base` (from its
    secular equation, in O(n), first nonzero entry positive), matching the
    near-attaining example construction.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if spec.mode == MODE_TOP_EIGENVECTOR:
        if base is None:
            raise ValueError("top-eigenvector mode needs the base input")
        return spec.epsilon * _secular_witness(softmax(base).probs)
    g = _draw(rng, n)
    return g * (spec.epsilon / vector_norm(g, spec.p))


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """A standard normal direction, redrawing the measure-zero zero vector."""
    g = rng.standard_normal(n)
    while not g.any():
        g = rng.standard_normal(n)
    return g


def _as_inputs(inputs) -> np.ndarray:
    """The inputs as the rows of one C-ordered float64 array, validated once;
    C order keeps each row's reductions bit-identical to the row on its own."""
    if not isinstance(inputs, np.ndarray):
        rows = [np.asarray(x.values if isinstance(x, Logits) else x, dtype=np.float64)
                for x in inputs]
        if len({r.shape for r in rows}) > 1:
            raise ValueError("all input vectors must have the same length")
        inputs = np.stack(rows) if rows else np.empty((0, 0))
    if inputs.ndim != 2:
        raise ValueError(f"expected a 2-D array of input rows, got shape {inputs.shape}")
    if inputs.shape[0] == 0:
        raise ValueError("need at least one input vector")
    if inputs.shape[1] < 2:
        raise ValueError(f"logits need at least 2 entries, got {inputs.shape[1]}")
    data = np.ascontiguousarray(inputs, dtype=np.float64)
    if not np.isfinite(data).all():
        raise ValueError("logits must have finite entries")
    return data


def _estimate(
    inputs, t, spec: PerturbationSpec, epsilons: Sequence[float], epsilon_indices: Sequence[int]
) -> EstimateReport:
    """The report of `spec` run at each of `epsilons`, epsilon j drawing
    with epsilon index `epsilon_indices[j]`: the kernel of `empirical_lp`
    and `epsilon_sweep`.

    The inputs and the temperature are validated, and the base softmax
    taken, once. The (epsilon, input, trial) rows are evaluated in that
    order, in blocks of at most _BLOCK_ELEMENTS entries that may straddle
    epsilons. Each row has the bits of a per-pair evaluation with
    `sample_perturbation`, `softmax` and `vector_norm`; each epsilon keeps
    its own maximum (first occurrence) and mean (added left to right), so
    no table entry depends on the block size or on the other epsilons. The
    headline value and provenance are those of the first epsilon with the
    largest aggregate, and clamps are summed over the epsilons. An error
    is the one the epsilons raise one at a time, in order: an epsilon's
    rows fail in one way only, too small (tiny epsilon) or not finite
    (huge epsilon).
    """
    lam = Temperature.of(t).lam
    data = _as_inputs(inputs)
    count, n = data.shape[0] * spec.trials_per_input, data.shape[1]
    total = count * len(epsilons)
    scales = np.array(epsilons, dtype=np.float64)
    base, clamped = _softmax_rows(data, lam)
    clamps = int(clamped.sum()) * len(epsilons)
    best = [-1.0] * len(epsilons)
    best_row = [0] * len(epsilons)
    sums = [0.0] * len(epsilons)
    if spec.mode == MODE_TOP_EIGENVECTOR:
        # the unit-temperature witness of each input, scaled per epsilon
        units = np.stack([_secular_witness(s) for s in _softmax_rows(data, 1.0)[0]])
    else:
        rngs = _generators(spec.seed, count, spec.trials_per_input, *epsilon_indices)
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, total, step):
        stop = min(start + step, total)
        epsilon_of, pairs = np.divmod(np.arange(start, stop), count)
        inputs_of = pairs // spec.trials_per_input
        scale = scales[epsilon_of]
        if spec.mode == MODE_TOP_EIGENVECTOR:
            delta = scale[:, None] * units[inputs_of]
        else:
            delta = np.empty((stop - start, n))
            block_rngs = list(itertools.islice(rngs, stop - start))
            for rng, row in zip(block_rngs, delta):
                rng.standard_normal(out=row)
            for r in np.flatnonzero(~delta.any(axis=1)):  # the measure-zero zero draw
                while not delta[r].any():
                    block_rngs[r].standard_normal(out=delta[r])
            with np.errstate(over="ignore", invalid="ignore"):  # rejected below
                delta *= (scale / row_norms(delta, spec.p))[:, None]
        z = data[inputs_of]
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            z += delta
        if not np.isfinite(z).all():
            # an earlier epsilon in the block may be too small; it fails first
            bad = int(np.isfinite(z).all(axis=1).argmin())
            _check_realized(row_norms(delta[:max(0, bad - int(pairs[bad]))], spec.p))
            raise ValueError("logits must have finite entries")
        realized = row_norms(delta, spec.p)
        _check_realized(realized)
        probs, clamped = _softmax_rows(z, lam)
        clamps += int(clamped.sum())
        probs -= base[inputs_of]
        ratio = row_norms(probs, spec.p) / realized
        for j in range(int(epsilon_of[0]), int(epsilon_of[-1]) + 1):
            lo, hi = max(j * count, start) - start, min((j + 1) * count, stop) - start
            k = lo + int(ratio[lo:hi].argmax())
            if ratio[k] > best[j]:
                best[j] = float(ratio[k])
                best_row[j] = int(pairs[k])
            if spec.aggregate == "mean":
                for value in ratio[lo:hi].tolist():
                    sums[j] += value
    values = best if spec.aggregate == "max" else [value / count for value in sums]
    top = values.index(max(values))
    best_at = divmod(best_row[top], spec.trials_per_input)
    return EstimateReport(
        empirical_lp=values[top],
        argmax_input_index=best_at[0],
        argmax_trial=best_at[1],
        argmax_epsilon_index=epsilon_indices[top],
        per_epsilon_table=tuple(zip(map(float, epsilons), values)),
        lam=lam,
        p=spec.p,
        inputs_count=data.shape[0],
        trials_per_input=spec.trials_per_input,
        mode=spec.mode,
        seed=spec.seed,
        aggregate=spec.aggregate,
        clamp_events=clamps,
        bound_exceeded=values[top] > lam / 2.0 + 1e-9,
    )


def _check_realized(realized: np.ndarray) -> None:
    """Reject perturbations whose realized norm rounds to zero."""
    if not realized.all():
        raise ValueError("epsilon is too small: a perturbation rounds to zero")


def empirical_lp(
    inputs: Union[np.ndarray, Sequence],
    t: Union[Temperature, float],
    spec: PerturbationSpec,
    epsilon_index: int = 0,
) -> EstimateReport:
    """Empirical Lipschitz constant over a dataset of input vectors.

    `inputs` is a 2-D array whose rows are the inputs (attention score
    rows, say) or a sequence of equal-length vectors. Every (input,
    trial) pair perturbs independently from its subseed and contributes
    the secant ratio with the realized ||d||_p in the denominator. Pass
    `epsilon_index` to reproduce a single row of an epsilon sweep: this is
    the one-epsilon case of the sweep's kernel, `_estimate`.
    """
    return _estimate(inputs, t, spec, [spec.epsilon], [epsilon_index])


def epsilon_sweep(
    inputs: Union[np.ndarray, Sequence],
    t: Union[Temperature, float],
    base_spec: PerturbationSpec,
    epsilons: Sequence[float],
) -> EstimateReport:
    """Run the estimator at several magnitudes and tabulate the results.

    Row j of the table equals empirical_lp with epsilon_index=j, so every
    row is individually reproducible; all rows are evaluated in one pass.
    The report's headline value and provenance come from the row with the
    largest aggregate.
    """
    if not len(epsilons):
        raise ValueError("need at least one epsilon")
    if any(e <= 0.0 for e in epsilons):
        raise ValueError("epsilons must be positive")
    finite = list(itertools.takewhile(math.isfinite, map(float, epsilons)))
    if len(finite) < len(epsilons):
        # a NaN or inf raises its spec's error, after the epsilons before it
        if finite:
            _estimate(inputs, t, base_spec, finite, range(len(finite)))
        replace(base_spec, epsilon=float(epsilons[len(finite)]))  # raises
    return _estimate(inputs, t, base_spec, epsilons, range(len(epsilons)))
