"""Tests for the seeded bootstrap engine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import enumerate_size2_resample_means, oracle_resample_stats
from ragmeter.stats import (
    BootstrapConfig,
    BootstrapGuidanceWarning,
    bootstrap_summary,
    convergence_trace,
    percentile,
    resample,
    resample_means,
    resample_rng,
    unbiasedness_check,
)


def beta_fixture(n: int = 50, seed: int = 2024) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence((seed, 0))).beta(2.0, 5.0, size=n)


def quiet_summary(values, cfg, means=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        return bootstrap_summary(values, cfg, means=means)


class TestResample:
    def test_single_element_support(self):
        sample = resample([0.7], 5, resample_rng(0, 0))
        assert np.array_equal(sample, np.full(5, 0.7))

    def test_deterministic_for_seed(self):
        first = resample([1.0, 2.0, 3.0], 10, resample_rng(9, 4))
        second = resample([1.0, 2.0, 3.0], 10, resample_rng(9, 4))
        assert np.array_equal(first, second)

    def test_binary_proportion_near_half(self):
        sample = resample([0.0, 1.0], 10_000, resample_rng(5, 0))
        assert 0.45 <= sample.mean() <= 0.55

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            resample([], 3, resample_rng(0, 0))


class TestPercentile:
    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestBootstrapSummary:
    def test_constant_values_degenerate(self):
        summary = bootstrap_summary([0.7] * 50, BootstrapConfig(B=2000, seed=1))
        assert summary.boot_mean == pytest.approx(0.7, abs=1e-12)
        assert summary.boot_variance == 0.0
        assert summary.ci_low == summary.ci_high == summary.boot_mean
        assert summary.boot_mean == summary.empirical_mean

    def test_b_of_one_rejected(self):
        with pytest.raises(ValueError, match="B-1"):
            bootstrap_summary([1.0, 2.0], BootstrapConfig(B=1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            quiet_summary([1.0, float("nan")], BootstrapConfig(B=10))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_summary([], BootstrapConfig(B=10))

    def test_matches_independent_oracle(self):
        values = beta_fixture()
        cfg = BootstrapConfig(B=1200, seed=123)
        summary = bootstrap_summary(values, cfg)
        mean, variance, (ci_low, ci_high) = oracle_resample_stats(values, cfg)
        assert abs(summary.boot_mean - mean) < 1e-12
        assert abs(summary.boot_variance - variance) < 1e-12
        assert abs(summary.ci_low - ci_low) < 1e-12
        assert abs(summary.ci_high - ci_high) < 1e-12

    def test_exhaustive_size2_enumeration(self):
        enumerated = enumerate_size2_resample_means([0.0, 1.0])
        assert sorted(enumerated) == [0.0, 0.5, 0.5, 1.0]
        assert sum(enumerated) / len(enumerated) == 0.5
        population_variance = float(np.var(enumerated))
        assert population_variance == 0.125

    def test_variance_estimator_converges_to_enumerated_variance(self):
        # boot_variance -> population variance / resample_size as B grows
        cfg = BootstrapConfig(B=100_000, resample_size=2, seed=11)
        summary = quiet_summary([0.0, 1.0], cfg)
        assert abs(summary.boot_mean - 0.5) < 0.01
        assert abs(summary.boot_variance - 0.125) < 0.0125

    def test_bit_deterministic(self):
        values = beta_fixture()
        cfg = BootstrapConfig(B=1500, seed=77)
        assert bootstrap_summary(values, cfg) == bootstrap_summary(values, cfg)

    def test_resample_size_default_and_override(self):
        values = beta_fixture()
        default = bootstrap_summary(values, BootstrapConfig(B=1100, seed=3))
        assert default.resample_size == 50
        smaller = bootstrap_summary(values, BootstrapConfig(B=1100, resample_size=10, seed=3))
        assert smaller.resample_size == 10
        assert smaller.boot_variance > default.boot_variance

    def test_ci_endpoints_are_consistent_with_resample_means(self):
        values = beta_fixture()
        summary = bootstrap_summary(values, BootstrapConfig(B=2000, seed=5))
        means = np.asarray(summary.resample_means)
        assert means.shape == (2000,)
        assert means.min() <= summary.ci_low <= summary.ci_high <= means.max()
        assert summary.ci_low <= percentile(means, 0.5) <= summary.ci_high
        assert summary.ci_low <= summary.boot_mean <= summary.ci_high

    def test_scale_equivariance_exact_on_dyadic_fixture(self):
        # dyadic values and power-of-two scale make every operation exact
        rng = np.random.default_rng(8)
        values = rng.integers(0, 65, size=32) / 64.0
        cfg = BootstrapConfig(B=64, seed=21)
        base = quiet_summary(values, cfg)
        scaled = quiet_summary(2.0 * values + 0.75, cfg)
        assert scaled.empirical_mean == 2.0 * base.empirical_mean + 0.75
        assert scaled.boot_mean == 2.0 * base.boot_mean + 0.75
        assert scaled.boot_variance == 4.0 * base.boot_variance

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=0.5, max_value=3.0),
        b=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_scale_equivariance_approximate_in_general(self, a, b):
        values = beta_fixture(n=40)
        cfg = BootstrapConfig(B=200, seed=13)
        base = quiet_summary(values, cfg)
        scaled = quiet_summary(a * values + b, cfg)
        assert scaled.boot_mean == pytest.approx(a * base.boot_mean + b, rel=1e-12, abs=1e-12)
        assert scaled.boot_variance == pytest.approx(a * a * base.boot_variance, rel=1e-9, abs=1e-15)


class TestGuidanceWarnings:
    def _collect(self, n, B):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_summary([0.5] * n, BootstrapConfig(B=B, seed=0))
        return [w for w in caught if issubclass(w.category, BootstrapGuidanceWarning)]

    def test_small_n_fires_below_30(self):
        assert len(self._collect(29, 1000)) == 1

    def test_small_b_fires_below_1000(self):
        assert len(self._collect(30, 999)) == 1

    def test_no_warning_at_thresholds(self):
        assert self._collect(30, 1000) == []

    def test_both_fire_together(self):
        assert len(self._collect(29, 999)) == 2


class TestResampleMeans:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30),
        seed=st.integers(min_value=0, max_value=2**32),
        B=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=0, max_value=20),
        resample_size=st.none() | st.integers(min_value=1, max_value=12),
    )
    def test_one_draw_serves_every_statistic(self, values, seed, B, k, resample_size):
        cfg = BootstrapConfig(B=B, resample_size=resample_size, seed=seed)
        longer = resample_means(values, cfg, B + k)
        assert longer.shape == (B + k,)
        assert longer[:B].tobytes() == resample_means(values, cfg).tobytes()
        assert quiet_summary(values, cfg) == quiet_summary(values, cfg, longer)
        with pytest.raises(ValueError):
            longer[0] = 0.0
        with pytest.raises(ValueError):
            convergence_trace(longer, [2, B + k + 1])
        with pytest.raises(ValueError):
            quiet_summary(values, cfg, longer[: B - 1])


class TestConvergenceTrace:
    def test_constant_values_converged(self):
        trace = convergence_trace(resample_means([0.4] * 40, BootstrapConfig(seed=0), 200), [100, 200])
        assert all(point.std_error == 0.0 for point in trace.points)
        assert trace.converged
        assert trace.final_relative_change == 0.0

    def test_single_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            convergence_trace(resample_means([0.4] * 40, BootstrapConfig(seed=0), 1000), [1000])

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            convergence_trace(resample_means([0.4] * 40, BootstrapConfig(seed=0), 200), [200, 100])

    def test_beta_fixture_converges_within_five_percent(self):
        means = resample_means(beta_fixture(), BootstrapConfig(seed=40), 4000)
        trace = convergence_trace(means, [500, 1000, 2000, 4000])
        assert trace.final_relative_change < 0.05
        assert [p.B for p in trace.points] == [500, 1000, 2000, 4000]
        assert all(p.std_error > 0 for p in trace.points)

    def test_prefix_consistency_with_summary(self):
        values = beta_fixture()
        trace = convergence_trace(resample_means(values, BootstrapConfig(seed=9), 128), [64, 128])
        summary = quiet_summary(values, BootstrapConfig(B=128, seed=9))
        assert trace.points[-1].std_error == pytest.approx(
            float(np.std(summary.resample_means, ddof=1)), abs=0.0
        )


class TestUnbiasednessCheck:
    def test_constant_values_pass(self):
        values = [0.3] * 50
        report = unbiasedness_check(values, bootstrap_summary(values, BootstrapConfig(B=1000, seed=2)))
        assert report.delta == 0.0
        assert report.passed

    def test_requires_size_n_resamples(self):
        values = [0.3] * 50
        summary = bootstrap_summary(values, BootstrapConfig(B=1000, resample_size=10, seed=2))
        with pytest.raises(ValueError, match="resample_size == n"):
            unbiasedness_check(values, summary)

    def test_zero_tolerance_fails_on_noise(self):
        values = beta_fixture()
        summary = bootstrap_summary(values, BootstrapConfig(B=2000, seed=2))
        report = unbiasedness_check(values, summary, tolerance=0.0)
        assert not report.passed

    def test_beta_fixture_passes_default_tolerance(self):
        values = beta_fixture()
        report = unbiasedness_check(values, bootstrap_summary(values, BootstrapConfig(B=5000, seed=17)))
        assert report.passed
        assert report.delta <= 0.01
