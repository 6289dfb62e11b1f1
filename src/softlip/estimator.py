"""Empirical Lipschitz estimation of the softmax from sampled secant ratios.

The estimate over a dataset x_1..x_M is

    max over inputs i and trials of  ||sig(x_i + d) - sig(x_i)||_p / ||d||_p

with perturbations d of magnitude epsilon: of p-norm epsilon in random
mode, and of 2-norm epsilon in top-eigenvector mode, where d is epsilon
times a unit eigenvector. Each ratio divides by the realized ||d||_p.
Attention score matrices are handled row-wise, matching how softmax is
applied inside attention.

Reproducibility contract: every (input, trial, epsilon) triple draws from
its own generator seeded by `subseed`, so results are bit-identical no
matter how the work is partitioned or ordered. Ties in the maximum break
toward the lowest input index, then the lowest trial index.

An epsilon sweep runs as one pass over rows in (epsilon, input, trial)
order: the inputs are validated and their softmax taken once, and blocks
of rows may span epsilons. Each epsilon keeps its own maximum, ties and
mean, so row j of a sweep's table is `empirical_lp` with epsilon_index=j,
the one-epsilon case of the same pass.

A row's draw does not depend on the norm order, so `order_sweep` serves
several orders from that one pass: each row builds its generator and
draws its normal vector once, and each order rescales the draw onto its
own sphere and keeps its own maxima, ties, means and clamps per epsilon.
Report k is the `epsilon_sweep` of order k alone, bit for bit, and
`epsilon_sweep` is the one-order case.

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
    _count,
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
        trials = _count(self.trials_per_input, "trials_per_input", 1)
        object.__setattr__(self, "trials_per_input", trials)
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
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
    """Draw one perturbation of magnitude epsilon.

    Random mode draws a standard normal direction from `rng` and rescales
    it onto the epsilon sphere of the spec's norm (redrawing the
    measure-zero all-zero sample). Top-eigenvector mode draws nothing, so
    `rng` may be None there; it returns epsilon times the unit top
    eigenvector of the unit-temperature Jacobian at `base` (from its
    secular equation, in O(n), first nonzero entry positive), matching the
    near-attaining example construction. That perturbation has 2-norm
    epsilon, whatever the spec's norm.
    """
    n = _count(n, "n", 2)
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


class _Tally:
    """One norm order's running state in a pass: per epsilon, the largest
    ratio (first occurrence), its row and the left-to-right sum of ratios;
    and the clamps."""

    def __init__(self, spec: PerturbationSpec, epsilons: int, clamps: int):
        self.spec = spec
        self.best = [-1.0] * epsilons
        self.best_row = [0] * epsilons
        self.sums = [0.0] * epsilons
        self.clamps = clamps

    def add(self, ratio: np.ndarray, clamps: int, segments, pairs: np.ndarray) -> None:
        """Take one block's ratios; `segments` holds (epsilon j, lo, hi) for
        each run of the block's rows that belongs to epsilon j."""
        self.clamps += clamps
        for j, lo, hi in segments:
            k = lo + int(ratio[lo:hi].argmax())
            if ratio[k] > self.best[j]:
                self.best[j] = float(ratio[k])
                self.best_row[j] = int(pairs[k])
            if self.spec.aggregate == "mean":
                for value in ratio[lo:hi].tolist():
                    self.sums[j] += value


def _row_error(spec: PerturbationSpec, epsilon: float, realized: float) -> ValueError:
    """The error of a failing row, which is the one its epsilon raises alone:
    a NaN or inf epsilon's spec error, else too small (its perturbation
    rounds to zero) or not finite (the perturbed logits overflow)."""
    try:
        replace(spec, epsilon=epsilon)
    except ValueError as exc:
        return exc
    if not realized:
        return ValueError("epsilon is too small: a perturbation rounds to zero")
    return ValueError("logits must have finite entries")


def _estimate(
    inputs,
    t,
    specs: Sequence[PerturbationSpec],
    epsilons: Sequence[float],
    epsilon_indices: Sequence[int],
) -> tuple[EstimateReport, ...]:
    """The report of each of `specs`, which differ in p alone, run at each
    of `epsilons`, epsilon j drawing with epsilon index `epsilon_indices[j]`:
    the kernel of `empirical_lp`, `epsilon_sweep` and `order_sweep`.

    The inputs and the temperature are validated, and the base softmax
    taken, once. The (epsilon, input, trial) rows are evaluated in that
    order, in blocks of at most _BLOCK_ELEMENTS entries that may straddle
    epsilons. A row's draw does not depend on p, so each row builds its
    generator and draws once for every order, and each order rescales that
    draw onto its own sphere; in top-eigenvector mode the perturbed softmax
    is shared as well. Each row has the bits of a per-pair evaluation with
    `sample_perturbation`, `softmax` and `vector_norm`; each order keeps,
    per epsilon, its own maximum (first occurrence) and mean (added left to
    right), so no table entry depends on the block size, on the other
    epsilons or on the other orders. A report's headline value and
    provenance are those of its first epsilon with the largest aggregate,
    and its clamps are summed over the epsilons.

    An order's error is the one its first failing row raises, which is the
    one its epsilon raises alone; an order stops at that row and so do the
    orders after it, and the first order that fails names the error.
    """
    spec = specs[0]
    lam = Temperature.of(t).lam
    data = _as_inputs(inputs)
    count, n = data.shape[0] * spec.trials_per_input, data.shape[1]
    total = count * len(epsilons)
    if total >= 1 << 63:  # the row indices are int64
        raise ValueError(
            f"trials_per_input is too large: {data.shape[0]} inputs x {spec.trials_per_input}"
            f" trials x {len(epsilons)} epsilons is at least 2^63 rows"
        )
    scales = np.array(epsilons, dtype=np.float64)
    base, clamped = _softmax_rows(data, lam)
    tallies = [_Tally(s, len(epsilons), int(clamped.sum()) * len(epsilons)) for s in specs]
    live, failure = list(tallies), None
    random = spec.mode == MODE_RANDOM
    if random:
        rngs = _generators(spec.seed, count, spec.trials_per_input, *epsilon_indices)
    else:
        # the unit-temperature witness of each input, scaled per epsilon
        units = np.stack([_secular_witness(s) for s in _softmax_rows(data, 1.0)[0]])
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, total, step):
        stop = min(start + step, total)
        epsilon_of, pairs = np.divmod(np.arange(start, stop), count)
        inputs_of = pairs // spec.trials_per_input
        scale = scales[epsilon_of]
        segments = [
            (j, max(j * count, start) - start, min((j + 1) * count, stop) - start)
            for j in range(int(epsilon_of[0]), int(epsilon_of[-1]) + 1)
        ]
        if random:
            g = np.empty((stop - start, n))
            block_rngs = list(itertools.islice(rngs, stop - start))
            for rng, row in zip(block_rngs, g):
                rng.standard_normal(out=row)
            for r in np.flatnonzero(~g.any(axis=1)):  # the measure-zero zero draw
                while not g[r].any():
                    block_rngs[r].standard_normal(out=g[r])
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                delta = scale[:, None] * units[inputs_of]
                z = data[inputs_of]
                z += delta
            probs = None
        for k, tally in enumerate(live):
            p = tally.spec.p
            with np.errstate(over="ignore", invalid="ignore"):  # failures are raised below
                if random:
                    delta = g * (scale / row_norms(g, p))[:, None]
                    z = data[inputs_of]
                    z += delta
                realized = row_norms(delta, p)
            if not (np.isfinite(z).all() and realized.all()):
                r = int((~np.isfinite(z).all(axis=1) | (realized == 0.0)).argmax())
                failure = _row_error(tally.spec, float(scale[r]), realized[r])
                del live[k:]  # an order after this one can no longer name the error
                break
            if random or probs is None:
                probs, clamped = _softmax_rows(z, lam)
                probs -= base[inputs_of]
                block_clamps = int(clamped.sum())
            tally.add(row_norms(probs, p) / realized, block_clamps, segments, pairs)
        if not live:
            break
    if failure is not None:
        raise failure
    reports = []
    for tally in tallies:
        values = tally.best if spec.aggregate == "max" else [s / count for s in tally.sums]
        top = values.index(max(values))
        best_at = divmod(tally.best_row[top], spec.trials_per_input)
        reports.append(EstimateReport(
            empirical_lp=values[top],
            argmax_input_index=best_at[0],
            argmax_trial=best_at[1],
            argmax_epsilon_index=epsilon_indices[top],
            per_epsilon_table=tuple(zip(map(float, epsilons), values)),
            lam=lam,
            p=tally.spec.p,
            inputs_count=data.shape[0],
            trials_per_input=spec.trials_per_input,
            mode=spec.mode,
            seed=spec.seed,
            aggregate=spec.aggregate,
            clamp_events=tally.clamps,
            bound_exceeded=values[top] > lam / 2.0 + 1e-9,
        ))
    return tuple(reports)


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
    the one-epsilon, one-order case of the sweep's kernel, `_estimate`.
    """
    index = _count(epsilon_index, "epsilon_index", 0)
    return _estimate(inputs, t, [spec], [spec.epsilon], [index])[0]


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
    largest aggregate. A failing sweep raises the error of its first
    failing row, which is the error of the epsilons run one at a time.
    This is the one-order case of `order_sweep`, whose one pass builds each
    row's generator and draws once for all of its orders; so a sweep at
    order p has the bits of that order's report in a multi-order call.
    """
    return order_sweep(inputs, t, base_spec, epsilons, [base_spec.p])[0]


def order_sweep(
    inputs: Union[np.ndarray, Sequence],
    t: Union[Temperature, float],
    base_spec: PerturbationSpec,
    epsilons: Sequence[float],
    orders: Sequence[Union[NormOrder, float, str]],
) -> tuple[EstimateReport, ...]:
    """`epsilon_sweep` at each of several norm orders, in one pass.

    Report k equals `epsilon_sweep(inputs, t, replace(base_spec,
    p=orders[k]), epsilons)` bit for bit. A row's draw depends on the seed,
    input, trial and epsilon index but not on p, so each (input, trial,
    epsilon) row builds one generator and draws once for all the orders.
    A failing call raises the error that those sweeps, run in list order,
    raise first: that of the first order that fails, whether by its own
    norm order or by a row. An empty `orders` is an error.
    """
    specs, bad_order = [], None
    for order in orders:
        try:
            specs.append(replace(base_spec, p=order))
        except (TypeError, ValueError) as exc:
            if not specs:
                raise
            bad_order = exc  # raised after the orders before it, as those sweeps would
            break
    if not specs:
        raise ValueError("need at least one norm order")
    if not len(epsilons):
        raise ValueError("need at least one epsilon")
    if any(e <= 0.0 for e in epsilons):
        raise ValueError("epsilons must be positive")
    replace(base_spec, epsilon=float(epsilons[0]))  # run alone, it fails its spec before the inputs
    reports = _estimate(inputs, t, specs, epsilons, range(len(epsilons)))
    if bad_order is not None:
        raise bad_order
    return reports
