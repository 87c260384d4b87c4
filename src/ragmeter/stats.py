"""Seeded bootstrap engine over pre-computed metric values.

Resampling is with replacement; every resample draws from its own
sub-seeded generator so runs are deterministic and parallelizable. The
reported variance is the B-1-normalized variance of the resample means,
i.e. the squared standard error of the mean under the bootstrap
distribution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

RECOMMENDED_MIN_N = 30
RECOMMENDED_MIN_B = 1000
CONVERGED_RELATIVE_CHANGE = 0.01


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
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.resample_size is not None and self.resample_size < 1:
            raise ValueError(f"resample_size must be >= 1, got {self.resample_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")

    def to_dict(self) -> dict:
        return {
            "B": self.B,
            "resample_size": self.resample_size,
            "seed": self.seed,
            "ci_level": self.ci_level,
        }


@dataclass(frozen=True)
class BootstrapSummary:
    """Bootstrap mean, variance and percentile CI for one value list.

    Carries every parameter needed to reproduce it, plus the retained
    resample means.
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
    resample_means: tuple[float, ...] | None = None

    def to_dict(self, *, include_means: bool = False) -> dict:
        doc = {
            "empirical_mean": self.empirical_mean,
            "boot_mean": self.boot_mean,
            "boot_variance": self.boot_variance,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "B": self.B,
            "n": self.n,
            "resample_size": self.resample_size,
            "seed": self.seed,
            "ci_level": self.ci_level,
        }
        if include_means and self.resample_means is not None:
            doc["resample_means"] = list(self.resample_means)
        return doc


@dataclass(frozen=True)
class ConvergencePoint:
    B: int
    std_error: float


@dataclass(frozen=True)
class ConvergenceTrace:
    points: tuple[ConvergencePoint, ...]
    final_relative_change: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "points": [{"B": p.B, "std_error": p.std_error} for p in self.points],
            "final_relative_change": self.final_relative_change,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class UnbiasednessReport:
    empirical_mean: float
    boot_mean: float
    delta: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "empirical_mean": self.empirical_mean,
            "boot_mean": self.boot_mean,
            "delta": self.delta,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def resample_rng(seed: int, s: int) -> np.random.Generator:
    """The generator driving resample `s` of a run seeded with `seed`.

    Seed-splitting rule: resample `s` mixes (seed, s) through SeedSequence.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, s)))


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


def resample_means(
    values: Sequence[float] | np.ndarray, cfg: BootstrapConfig, count: int | None = None
) -> np.ndarray:
    """The means of the first `count` resamples (default `cfg.B`), read-only.

    Resample `s` depends only on (seed, s), so a longer draw extends a
    shorter one: `resample_means(v, cfg, B + k)[:B]` equals
    `resample_means(v, cfg)`. Every statistic below is a function of this
    one array.
    """
    arr = _check_values(values)
    size = cfg.resample_size if cfg.resample_size is not None else arr.size
    means = np.empty(cfg.B if count is None else count)
    for s in range(means.size):
        means[s] = resample(arr, size, resample_rng(cfg.seed, s)).mean()
    means.flags.writeable = False
    return means


def bootstrap_summary(
    values: Sequence[float] | np.ndarray,
    cfg: BootstrapConfig,
    means: np.ndarray | None = None,
) -> BootstrapSummary:
    """Bootstrap mean, variance of resample means, and percentile CI.

    Summarises the first `cfg.B` of `means`, which must come from
    :func:`resample_means` for the same values and config; they are drawn
    here when not given. B must be at least 2 (the B-1 variance
    denominator is undefined otherwise). Emits
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
    return BootstrapSummary(
        empirical_mean=float(arr.mean()),
        boot_mean=boot_mean,
        boot_variance=boot_variance,
        ci_low=percentile(means, alpha),
        ci_high=percentile(means, 1.0 - alpha),
        B=cfg.B,
        n=n,
        resample_size=size,
        seed=cfg.seed,
        ci_level=cfg.ci_level,
        resample_means=tuple(means.tolist()),
    )


def convergence_trace(means: np.ndarray, checkpoints: Sequence[int]) -> ConvergenceTrace:
    """Standard error of the resample means at increasing bootstrap sizes.

    Each point is a prefix of `means`, the output of :func:`resample_means`.
    Converged means the relative change between the final two checkpoints
    is below 1%.
    """
    if len(checkpoints) < 2:
        raise ValueError("need at least 2 checkpoints to monitor convergence")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    if checkpoints[-1] > len(means):
        raise ValueError(f"checkpoint {checkpoints[-1]} exceeds the {len(means)} resample means drawn")

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
    return UnbiasednessReport(
        empirical_mean=summary.empirical_mean,
        boot_mean=summary.boot_mean,
        delta=delta,
        tolerance=float(tolerance),
        passed=bool(delta <= tolerance),
    )
