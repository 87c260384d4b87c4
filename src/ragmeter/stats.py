"""Seeded bootstrap engine over pre-computed metric values.

Resampling is with replacement; every resample draws from its own
sub-seeded generator so runs are deterministic and parallelizable. The
reported variance is the B-1-normalized variance of the resample means,
i.e. the squared standard error of the mean under the bootstrap
distribution.

Resample `s` depends only on (seed, s, n, size), so value arrays of one
length share their index draws: :func:`shared_resample_means` draws each
index row once and takes every array's mean from it. Rows are drawn in
chunks of about `CHUNK_ENTRIES` indices, which bounds the draw and gather
buffers near 336 KiB whatever n, size and the resample count are. The PCG64
state `SeedSequence((seed, s))` gives resample `s` is computed directly,
`SEED_BLOCK_ROWS` resamples at a time, and loaded into one generator per
call, so no numpy seeding objects are built per resample.

The indices are what `Generator.integers(0, n, size)` draws from that
state: for n <= 2**32 that is Lemire's bounded-integer method on PCG64's
32-bit stream, which :func:`resample_indices` applies to the raw 64-bit
words of a whole chunk at once. The rare row holding a word the method
rejects is redrawn by `Generator.integers` itself, as is every row when
n > 2**32; the tests check the draw against numpy bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from numbers import Integral
from typing import Iterable, Iterator, Sequence

import numpy as np

RECOMMENDED_MIN_N = 30
RECOMMENDED_MIN_B = 1000
CONVERGED_RELATIVE_CHANGE = 0.01
# indices per chunk of resample rows, rows = max(1, CHUNK_ENTRIES // size): the
# 64-bit index block and the float64 values gathered by it take 128 KiB each, the
# raw PCG64 words 64 KiB and the rejection mask 16 KiB
CHUNK_ENTRIES = 16384
# resample seed states computed per block: 2048 rows of 4 uint64 take 64 KiB
SEED_BLOCK_ROWS = 2048

# SeedSequence's hash constants and PCG64's multiplier (numpy/random), fixed by NEP 19
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


class BootstrapGuidanceWarning(UserWarning):
    """The sample or resample count is below the recommended minimum."""


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling parameters. `resample_size` defaults to the sample size."""

    B: int = 1000
    resample_size: int | None = None
    seed: int = 0
    ci_level: float = 0.95

    def __post_init__(self):
        # the seed-state mixer splits integers into 32-bit words
        for name in ("B", "resample_size", "seed"):
            value = getattr(self, name)
            if value is None and name == "resample_size":
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.resample_size is not None and self.resample_size < 1:
            raise ValueError(f"resample_size must be >= 1, got {self.resample_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")


@dataclass(frozen=True)
class BootstrapSummary:
    """Bootstrap mean, variance and percentile CI for one value list.

    Carries every parameter needed to reproduce it; the resample means
    themselves come from :func:`resample_means`.
    """

    empirical_mean: float
    boot_mean: float
    boot_variance: float
    ci_low: float
    ci_high: float
    B: int
    n: int
    resample_size: int
    seed: int
    ci_level: float


@dataclass(frozen=True)
class ConvergencePoint:
    B: int
    std_error: float


@dataclass(frozen=True)
class ConvergenceTrace:
    points: tuple[ConvergencePoint, ...]
    final_relative_change: float
    converged: bool


@dataclass(frozen=True)
class UnbiasednessReport:
    empirical_mean: float
    boot_mean: float
    delta: float
    tolerance: float
    passed: bool


def _uint32_words(x: int) -> list[int]:
    """Little-endian 32-bit words of `x` >= 0, and [0] for 0, as SeedSequence splits entropy."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> 16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _generate_state(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's mix_entropy then generate_state(4, np.uint64), for many entropies at once.

    Entropy word i of every row is `entropy[i]`, a uint32 array of shape
    (rows,), or (1,) when all rows share it; the result has shape (rows, 4).
    """
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, hash_const = _hashmix(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32), hash_const)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                word, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(extra, hash_const)
            pool[i_dst] = _mix(pool[i_dst], word)
    rows = max(word.size for word in entropy)
    state = np.empty((rows, 4), np.uint64)
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        word, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        halves.append(word.astype(np.uint64))
    for k in range(4):
        state[:, k] = halves[2 * k] | (halves[2 * k + 1] << 32)
    return state


def seed_states(seed: int, start: int, stop: int) -> np.ndarray:
    """`SeedSequence((seed, s)).generate_state(4, np.uint64)` for each s in [start, stop).

    Computed in bulk with uint32 array arithmetic that mirrors numpy's
    SeedSequence, whose output NEP 19 keeps stable across versions. Rows
    whose s share the words above the lowest differ only in that word, so
    the range is split at multiples of 2**32 and each part is one
    vectorised pass. Returns a (stop - start, 4) uint64 array.
    """
    seed_words = [np.full(1, w, np.uint32) for w in _uint32_words(int(seed))]
    parts = []
    lo = int(start)
    while lo < stop:
        hi = min(stop, ((lo >> 32) + 1) << 32)
        low = np.arange(lo & _MASK32, (lo & _MASK32) + (hi - lo), dtype=np.uint32)
        high = [np.full(1, w, np.uint32) for w in _uint32_words(lo >> 32)] if lo >> 32 else []
        parts.append(_generate_state(seed_words + [low] + high))
        lo = hi
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def pcg64_state(words: np.ndarray) -> dict:
    """The `PCG64.state` that seeding from one row of :func:`seed_states` leaves.

    Mirrors PCG64's 128-bit srandom step: the first two words are the
    initial state, the last two the stream selector, high word first.
    """
    s_high, s_low, i_high, i_low = words.tolist()
    inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
    state = ((inc + (s_high << 64 | s_low)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _seeded_rows(seed: int, count: int) -> Iterator[np.ndarray]:
    """Rows of :func:`seed_states` for s in [0, count), computed `SEED_BLOCK_ROWS` at a time."""
    for start in range(0, count, SEED_BLOCK_ROWS):
        yield from seed_states(seed, start, min(start + SEED_BLOCK_ROWS, count))


def resample_rng(seed: int, s: int) -> np.random.Generator:
    """The generator driving resample `s` of a run seeded with `seed`.

    Seed-splitting rule: resample `s` draws from the PCG64 that
    `SeedSequence((seed, s))` seeds; its state is computed directly.
    """
    bit_generator = np.random.PCG64(0)
    bit_generator.state = pcg64_state(seed_states(seed, s, s + 1)[0])
    return np.random.Generator(bit_generator)


def resample(values: Sequence[float] | np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` uniform draws with replacement, deterministic given `rng`."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot resample an empty value list")
    indices = rng.integers(0, arr.size, size=size)
    return arr[indices]


def percentile(values: Sequence[float] | np.ndarray, p: float) -> float:
    """Linear-interpolation quantile at rank p * (n - 1) over sorted values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty value list")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return float(np.quantile(arr, p))


def _check_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must all be finite")
    return arr


def _require_finite(what: str, **statistics: float) -> None:
    """Raise ValueError naming each of `statistics` that is NaN or infinite, as overflowing values give."""
    bad = ", ".join(f"{name}={value}" for name, value in statistics.items() if not np.isfinite(value))
    if bad:
        raise ValueError(f"{what} is not finite: {bad}")


def _warn_guidance(n: int, B: int) -> None:
    if n < RECOMMENDED_MIN_N:
        warnings.warn(
            f"sample size n={n} is below the recommended minimum of {RECOMMENDED_MIN_N}; "
            "standard-error and CI estimates may be unstable",
            BootstrapGuidanceWarning,
            stacklevel=3,
        )
    if B < RECOMMENDED_MIN_B:
        warnings.warn(
            f"bootstrap size B={B} is below the recommended minimum of {RECOMMENDED_MIN_B}; "
            "monitor convergence before trusting the statistics",
            BootstrapGuidanceWarning,
            stacklevel=3,
        )


def resample_indices(states: Iterable[np.ndarray], n: int, size: int) -> Iterator[np.ndarray]:
    """Index rows `Generator.integers(0, n, size)` draws from the PCG64 each state row seeds.

    `states` holds rows of :func:`seed_states`. Yields int64 blocks of up to
    `max(1, CHUNK_ENTRIES // size)` rows, one per state row in order; every
    block reuses the buffer of the one before. For n <= 2**32 numpy draws
    Lemire's method on PCG64's 32-bit stream, the low half of each 64-bit
    word first: index `(w * n) >> 32` from word `w`, which is rejected when
    `(w * n) mod 2**32 < (2**32 - n) % n`. All rows take that from their
    raw words at once; a row with a rejected word among its first `size`,
    and every row when n > 2**32, is redrawn with `Generator.integers`.
    """
    rows = max(1, CHUNK_ENTRIES // size)
    half = -(-size // 2)
    # local to the call, so concurrent calls share no generator state
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    raw = np.empty((rows, half), "<u8")
    words = raw.view("<u4")[:, :size]
    index = np.empty((rows, size), "<u8")
    leftover = index.view("<u4")[:, ::2]
    rejected = np.empty((rows, size), bool)
    threshold = (2**32 - n) % n if n <= 2**32 else None
    states = iter(states)
    while chunk := list(islice(states, rows)):
        k = len(chunk)
        if threshold is None:  # numpy's 64-bit method
            redraw = range(k)
        else:
            for i, state in enumerate(chunk):
                bit_generator.state = pcg64_state(state)
                raw[i] = bit_generator.random_raw(half)
            np.multiply(words[:k], np.uint64(n), out=index[:k])
            redraw = ()
            if threshold and np.less(leftover[:k], threshold, out=rejected[:k]).any():
                redraw = np.flatnonzero(rejected[:k].any(axis=1))
            np.right_shift(index[:k], 32, out=index[:k])
        for i in redraw:
            bit_generator.state = pcg64_state(chunk[i])
            index[i] = rng.integers(0, n, size=size)
        yield index[:k].view("<i8")


def shared_resample_means(
    value_arrays: Sequence[Sequence[float] | np.ndarray], cfg: BootstrapConfig, count: int | None = None
) -> tuple[np.ndarray, ...]:
    """The first `count` resample means (default `cfg.B`) of each array, from one draw.

    Every array must have the same length n. Resample `s` takes the indices
    `resample_rng(cfg.seed, s).integers(0, n, size)` gives, drawn by
    :func:`resample_indices`, and depends only on (seed, s, n, size), so
    each index row is drawn once and serves every array; the means equal
    per-array :func:`resample_means` bit for bit. Rows are drawn in chunks
    of `max(1, CHUNK_ENTRIES // size)`. The arrays returned are read-only.
    """
    arrays = [_check_values(values) for values in value_arrays]
    if not arrays:
        raise ValueError("need at least one value array")
    n = arrays[0].size
    if any(arr.size != n for arr in arrays):
        raise ValueError("value arrays must all have the same length")
    size = cfg.resample_size if cfg.resample_size is not None else n
    count = cfg.B if count is None else count
    means = tuple(np.empty(count) for _ in arrays)
    start = 0
    for block in resample_indices(_seeded_rows(cfg.seed, count), n, size):
        stop = start + len(block)
        for arr, out in zip(arrays, means):
            out[start:stop] = arr[block].mean(axis=1)
        start = stop
    for out in means:
        out.flags.writeable = False
    return means


def resample_means(
    values: Sequence[float] | np.ndarray, cfg: BootstrapConfig, count: int | None = None
) -> np.ndarray:
    """The means of the first `count` resamples (default `cfg.B`), read-only.

    Resample `s` depends only on (seed, s), so a longer draw extends a
    shorter one: `resample_means(v, cfg, B + k)[:B]` equals
    `resample_means(v, cfg)`. Every statistic below is a function of this
    one array.
    """
    return shared_resample_means([values], cfg, count)[0]


def bootstrap_summary(
    values: Sequence[float] | np.ndarray,
    cfg: BootstrapConfig,
    means: np.ndarray | None = None,
) -> BootstrapSummary:
    """Bootstrap mean, variance of resample means, and percentile CI.

    Summarises the first `cfg.B` of `means`, which must come from
    :func:`resample_means` for the same values and config; they are drawn
    here when not given. B must be at least 2 (the B-1 variance
    denominator is undefined otherwise). Raises ValueError when a statistic
    is not finite, as values too large to average give. Emits
    :class:`BootstrapGuidanceWarning` for small n or B.
    """
    arr = _check_values(values)
    if cfg.B < 2:
        raise ValueError("B=1 leaves the B-1 variance denominator undefined; use B >= 2")
    n = arr.size
    size = cfg.resample_size if cfg.resample_size is not None else n
    _warn_guidance(n, cfg.B)
    means = (resample_means(arr, cfg) if means is None else means)[: cfg.B]
    if means.size != cfg.B:
        raise ValueError(f"need {cfg.B} resample means, got {means.size}")
    if np.all(means == means[0]):
        # the mean of identical resample means is that value exactly; avoids
        # summation noise making a degenerate distribution look non-degenerate
        boot_mean, boot_variance = float(means[0]), 0.0
    else:
        boot_mean, boot_variance = float(means.mean()), float(means.var(ddof=1))
    alpha = (1.0 - cfg.ci_level) / 2.0
    statistics = {
        "empirical_mean": float(arr.mean()),
        "boot_mean": boot_mean,
        "boot_variance": boot_variance,
        "ci_low": percentile(means, alpha),
        "ci_high": percentile(means, 1.0 - alpha),
    }
    _require_finite("bootstrap summary", **statistics)
    return BootstrapSummary(
        **statistics,
        B=cfg.B,
        n=n,
        resample_size=size,
        seed=cfg.seed,
        ci_level=cfg.ci_level,
    )


def convergence_trace(means: np.ndarray, checkpoints: Sequence[int]) -> ConvergenceTrace:
    """Standard error of the resample means at increasing bootstrap sizes.

    Each point is a prefix of `means`, the output of :func:`resample_means`.
    Converged means the relative change between the final two checkpoints
    is below 1%. Raises ValueError when a mean, standard error or that
    change is not finite, which includes a change from a zero standard error.
    """
    if len(checkpoints) < 2:
        raise ValueError("need at least 2 checkpoints to monitor convergence")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    if checkpoints[-1] > len(means):
        raise ValueError(f"checkpoint {checkpoints[-1]} exceeds the {len(means)} resample means drawn")
    if not np.all(np.isfinite(means[: checkpoints[-1]])):
        raise ValueError("resample means must all be finite")

    def prefix_std(b: int) -> float:
        prefix = means[:b]
        if np.all(prefix == prefix[0]):
            return 0.0
        return float(prefix.std(ddof=1))

    points = tuple(ConvergencePoint(B=b, std_error=prefix_std(b)) for b in checkpoints)
    last, prev = points[-1].std_error, points[-2].std_error
    if prev == 0.0:
        change = 0.0 if last == 0.0 else float("inf")
    else:
        change = abs(last - prev) / prev
    _require_finite("convergence trace", **{f"std_error(B={p.B})": p.std_error for p in points},
                    final_relative_change=change)
    return ConvergenceTrace(
        points=points,
        final_relative_change=change,
        converged=change < CONVERGED_RELATIVE_CHANGE,
    )


def unbiasedness_check(
    values: Sequence[float] | np.ndarray,
    summary: BootstrapSummary,
    tolerance: float | None = None,
) -> UnbiasednessReport:
    """Check that the bootstrap grand mean of `summary` tracks the empirical mean.

    `summary` is the bootstrap summary of `values`. Requires size-n
    resamples, which is what makes the resample mean an unbiased estimator
    of the empirical mean. The default tolerance is
    3 * (sd / sqrt(n)) / sqrt(B), the 3-sigma band of the grand mean.
    Raises ValueError when the delta or the tolerance is not finite.
    """
    arr = _check_values(values)
    n = arr.size
    if summary.n != n:
        raise ValueError(f"summary is of {summary.n} values, got {n}")
    if summary.resample_size != n:
        raise ValueError(
            f"unbiasedness check requires resample_size == n ({n}), got {summary.resample_size}; "
            "the unbiasedness argument assumes size-n resamples"
        )
    if tolerance is None:
        sd = float(arr.std(ddof=1)) if n > 1 else 0.0
        tolerance = float(3.0 * (sd / np.sqrt(n)) / np.sqrt(summary.B))
    delta = abs(summary.boot_mean - summary.empirical_mean)
    _require_finite("unbiasedness check", delta=delta, tolerance=tolerance)
    return UnbiasednessReport(
        empirical_mean=summary.empirical_mean,
        boot_mean=summary.boot_mean,
        delta=delta,
        tolerance=float(tolerance),
        passed=bool(delta <= tolerance),
    )
