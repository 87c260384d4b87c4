"""Tests for the seeded bootstrap engine."""

import dataclasses
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import refuse_large_arrays, resample
from oracle import enumerate_size2_resample_means, oracle_resample_means, oracle_resample_stats
from ragmeter import stats
from ragmeter.stats import (
    CHUNK_ENTRIES,
    SEED_BLOCK_ROWS,
    BootstrapConfig,
    BootstrapGuidanceWarning,
    bootstrap_summaries,
    bootstrap_summary,
    convergence_trace,
    percentile,
    resample_indices,
    resample_means,
    resample_rng,
    seed_states,
    shared_resample_means,
    unbiasedness_check,
)


# seeds and resample indices of one, two and three 32-bit words
SEEDS = st.just(0) | st.integers(1, 2**32 - 1) | st.integers(2**32, 2**64 - 1) | st.integers(2**64, 2**96)
RESAMPLES = (
    st.integers(0, 3 * SEED_BLOCK_ROWS)
    | st.sampled_from([SEED_BLOCK_ROWS - 1, SEED_BLOCK_ROWS, 2 * SEED_BLOCK_ROWS - 1, 2**32 - 1])
    | st.integers(2**32, 2**64 - 1)
    | st.integers(2**64, 2**96)
)


def beta_fixture(n: int = 50, seed: int = 2024) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence((seed, 0))).beta(2.0, 5.0, size=n)


def quiet_summary(values, cfg, means=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        return bootstrap_summary(values, cfg, means=means)


class TestSeedStates:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, s=RESAMPLES, rows=st.integers(min_value=1, max_value=4))
    # runs that cross 2**32 and 2**64, where s gains a word
    @example(seed=2**32, s=2**32 - 2, rows=4)
    @example(seed=0, s=2**64 - 1, rows=2)
    def test_mirror_equals_numpy_seeding(self, seed, s, rows):
        states = seed_states(seed, s, s + rows)
        assert states.shape == (rows, 4) and states.dtype == np.uint64
        for j, words in enumerate(states):
            sequence = np.random.SeedSequence((seed, s + j))
            assert words.tobytes() == sequence.generate_state(4, np.uint64).tobytes()
            assert stats._seeded_pcg64(words).state == np.random.PCG64(sequence).state

    @pytest.mark.parametrize("args, message", [
        ((-1, 0, 2), "seed must be >= 0, got -1"),
        ((0, -1, 1), "start must be >= 0, got -1"),
        # a non-integer was read as `int(seed)`, and a fractional range gave a row too many
        ((1.5, 0, 1), "seed must be an integer, got 1.5"),
        ((1, 0.5, 2), "start must be an integer, got 0.5"),
    ])
    def test_refuses_a_negative_seed_or_start(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            seed_states(*args)

    @pytest.mark.parametrize("start, stop", [(5, 5), (0, 0), (2**32, 2**32)])
    def test_empty_range_gives_no_rows(self, start, stop):
        states = seed_states(1, start, stop)
        assert states.shape == (0, 4) and states.dtype == np.uint64

    def test_resample_rng_draws_like_numpy_seeding(self):
        mirrored = resample_rng(2**64 + 3, 2**32 + 1).integers(0, 1000, size=64)
        seeded = np.random.default_rng(np.random.SeedSequence((2**64 + 3, 2**32 + 1))).integers(0, 1000, size=64)
        assert mirrored.tobytes() == seeded.tobytes()


# small ranges, ranges where Lemire's method rejects up to half of all 32-bit
# words (just above 2**31), few (just below 2**32), and numpy's 64-bit method
RANGES = (
    st.integers(1, 64)
    | st.integers(2**31 - 2, 2**31 + 64)
    | st.integers(2**32 - 64, 2**32)
    | st.integers(2**32 + 1, 2**40)
)


class TestResampleIndices:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        s=RESAMPLES,
        rows=st.integers(min_value=1, max_value=6),
        n=RANGES,
        size=st.integers(min_value=1, max_value=40),
        chunk=st.just(CHUNK_ENTRIES) | st.integers(min_value=1, max_value=64),
    )
    # at n = 2**31 + 1 almost every row of 64 words holds a rejected word; two chunks
    @example(seed=11, s=0, rows=300, n=2**31 + 1, size=64, chunk=CHUNK_ENTRIES)
    @example(seed=0, s=0, rows=6, n=2**31 + 1, size=33, chunk=40)
    @example(seed=3, s=2**32 - 2, rows=4, n=2**32 - 1, size=7, chunk=CHUNK_ENTRIES)
    @example(seed=1, s=5, rows=3, n=1, size=5, chunk=CHUNK_ENTRIES)
    def test_equals_generator_integers_bitwise(self, seed, s, rows, n, size, chunk):
        with mock.patch.object(stats, "CHUNK_ENTRIES", chunk):
            blocks = resample_indices(seed_states(seed, s, s + rows), n, size)
            drawn = np.concatenate([block.copy() for block in blocks])  # each block reuses one buffer
        expected = np.stack([resample_rng(seed, s + j).integers(0, n, size=size) for j in range(rows)])
        assert drawn.dtype == expected.dtype
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1000, 2**31 + 1])  # rows drawn from raw words, and rows redrawn
    def test_rows_of_a_fortran_ordered_state_array_draw_alike(self, n):
        states = np.asfortranarray(seed_states(7, 0, 5))  # each row a strided view
        drawn = np.concatenate([block.copy() for block in resample_indices(states, n, 16)])
        expected = np.stack([resample_rng(7, s).integers(0, n, size=16) for s in range(5)])
        assert drawn.tobytes() == expected.tobytes()

    def test_shared_means_match_the_oracle_where_rows_are_redrawn(self, monkeypatch):
        # (2**32 - n) % n = 954414, so about 1 row of 1000 words in 5 is redrawn
        n, B, size, seed = 1_000_003, 40, 1000, 2024
        values = np.random.default_rng(3).integers(0, 2**20, size=n) / 1024
        seeded = []

        def counting_pcg64(words, real=stats._seeded_pcg64):
            seeded.append(words)
            return real(words)

        monkeypatch.setattr(stats, "_seeded_pcg64", counting_pcg64)
        (means,) = shared_resample_means([values], BootstrapConfig(B=B, resample_size=size, seed=seed))
        assert len(seeded) > B  # some rows took the redraw
        assert means.tobytes() == np.asarray(oracle_resample_means(values, B, size, seed)).tobytes()


class TestBootstrapConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("B", 10.0), ("B", True), ("seed", 2.9), ("seed", True), ("resample_size", 5.0), ("resample_size", False)],
    )
    def test_non_integers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            BootstrapConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = BootstrapConfig(B=np.int64(20), resample_size=np.int32(4), seed=np.uint64(2**63 + 5))
        means = resample_means([1.0, 2.0, 3.0], cfg)
        assert means.tobytes() == np.asarray(oracle_resample_means([1.0, 2.0, 3.0], 20, 4, 2**63 + 5)).tobytes()


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

    @pytest.mark.parametrize("p, message", [
        (True, "p must be a number, got True"),
        (2, "p must be in [0, 1], got 2"),
        (-0.5, "p must be in [0, 1], got -0.5"),
    ])
    def test_p_is_refused_by_its_declared_bound(self, p, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            percentile([1.0, 2.0], p)


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
        assert resample_means(values, cfg).tobytes() == resample_means(values, cfg).tobytes()

    def test_resample_size_default_and_override(self):
        values = beta_fixture()
        default = bootstrap_summary(values, BootstrapConfig(B=1100, seed=3))
        assert default.resample_size == 50
        smaller = bootstrap_summary(values, BootstrapConfig(B=1100, resample_size=10, seed=3))
        assert smaller.resample_size == 10
        assert smaller.boot_variance > default.boot_variance

    def test_ci_endpoints_are_consistent_with_resample_means(self):
        values = beta_fixture()
        cfg = BootstrapConfig(B=2000, seed=5)
        summary = bootstrap_summary(values, cfg)
        means = resample_means(values, cfg)
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


class TestBootstrapSummaries:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([1, 2, 3, 5]), max_size=7),
        data=st.data(),
        B=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**40),
        resample_size=st.none() | st.integers(min_value=1, max_value=6),
    )
    def test_one_draw_per_distinct_length_gives_each_list_its_own_summary(self, lengths, data, B, seed,
                                                                          resample_size):
        value = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
        lists = [data.draw(st.lists(value, min_size=n, max_size=n)) for n in lengths]
        cfg = BootstrapConfig(B=B, resample_size=resample_size, seed=seed)
        expected = tuple(quiet_summary(values, cfg) for values in lists)
        draw = mock.Mock(wraps=shared_resample_means)
        with mock.patch("ragmeter.stats.shared_resample_means", draw), warnings.catch_warnings():
            warnings.simplefilter("error", BootstrapGuidanceWarning)
            assert bootstrap_summaries(lists, cfg) == expected
        assert draw.call_count == len(set(lengths))
        assert sorted(len(arrays[0]) for (arrays, _), _ in draw.call_args_list) == sorted(set(lengths))

    def test_one_resample_rejected_before_any_draw(self):
        draw = mock.Mock(wraps=shared_resample_means)
        with mock.patch("ragmeter.stats.shared_resample_means", draw), pytest.raises(ValueError, match="B-1"):
            bootstrap_summaries([[0.1, 0.2], [0.3]], BootstrapConfig(B=1))
        draw.assert_not_called()

    def test_a_bad_list_rejected_before_any_draw(self):
        draw = mock.Mock(wraps=shared_resample_means)
        with mock.patch("ragmeter.stats.shared_resample_means", draw), pytest.raises(ValueError, match="finite"):
            bootstrap_summaries([[0.1, 0.2], [0.3, float("nan")]], BootstrapConfig(B=10))
        draw.assert_not_called()


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


class TestSharedResampleMeans:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        arrays=st.integers(min_value=1, max_value=4),
        value_seed=st.integers(min_value=0, max_value=2**32),
        seed=SEEDS,
        resample_size=st.none() | st.integers(min_value=1, max_value=80),
        count=st.integers(min_value=0, max_value=60),
        chunk=st.just(CHUNK_ENTRIES) | st.integers(min_value=1, max_value=64),
        seed_block=st.just(SEED_BLOCK_ROWS) | st.integers(min_value=1, max_value=16),
    )
    # the shipped chunk: one resample per chunk, then 40 + 40 + 15 rows
    @example(n=3, arrays=2, value_seed=0, seed=5, resample_size=CHUNK_ENTRIES + 1, count=3,
             chunk=CHUNK_ENTRIES, seed_block=SEED_BLOCK_ROWS)
    @example(n=400, arrays=3, value_seed=1, seed=6, resample_size=None, count=95, chunk=CHUNK_ENTRIES,
             seed_block=SEED_BLOCK_ROWS)
    # the shipped seed block: two full blocks, then one row
    @example(n=3, arrays=1, value_seed=2, seed=2**40, resample_size=4, count=2 * SEED_BLOCK_ROWS + 1,
             chunk=CHUNK_ENTRIES, seed_block=SEED_BLOCK_ROWS)
    def test_every_array_equals_the_oracle_bitwise(
        self, n, arrays, value_seed, seed, resample_size, count, chunk, seed_block
    ):
        # multiples of 2**-10 below 2**10 sum exactly in any order, so equal
        # bits mean equal indices, whatever the summation order
        values = np.random.default_rng(value_seed).integers(0, 2**20, size=(arrays, n)) / 1024
        cfg = BootstrapConfig(B=2, resample_size=resample_size, seed=seed)
        with mock.patch.object(stats, "CHUNK_ENTRIES", chunk), mock.patch.object(stats, "SEED_BLOCK_ROWS", seed_block):
            shared = shared_resample_means(values, cfg, count)
        size = n if resample_size is None else resample_size
        assert len(shared) == arrays
        for arr, means in zip(values, shared):
            assert means.tobytes() == np.asarray(oracle_resample_means(arr, count, size, seed)).tobytes()
            assert not means.flags.writeable

    @pytest.mark.parametrize(
        "n, B, resample_size",
        [(48, 1000, None), (1000, 2000, None), (7, 5000, None), (333, 1500, None),
         (5, 60, 200_000), (1, 10, None)],
    )
    def test_matches_the_per_resample_loop(self, n, B, resample_size):
        values = beta_fixture(n)
        cfg = BootstrapConfig(B=B, resample_size=resample_size, seed=n)
        size = n if resample_size is None else resample_size
        loop = [resample(values, size, resample_rng(cfg.seed, s)).mean() for s in range(B)]
        first, second = shared_resample_means([values, values[::-1]], cfg)
        assert first.tobytes() == np.asarray(loop).tobytes()
        assert second.tobytes() == resample_means(values[::-1], cfg).tobytes()

    def test_concurrent_calls_are_byte_identical(self):
        values = [beta_fixture(300), beta_fixture(300, seed=1)]
        cfg = BootstrapConfig(B=4000, seed=4)
        serial = [means.tobytes() for means in shared_resample_means(values, cfg)]
        workers = 4
        start = threading.Barrier(workers, timeout=60)
        results: list = [None] * workers

        def work(i):
            start.wait()
            results[i] = [means.tobytes() for means in shared_resample_means(values, cfg)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * workers

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            shared_resample_means([[0.1, 0.2], [0.3]], BootstrapConfig(B=10))
        with pytest.raises(ValueError):
            shared_resample_means([], BootstrapConfig(B=10))


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

    def test_non_integer_checkpoint_rejected(self):
        with pytest.raises(ValueError, match=r"^checkpoints\[1\] must be an integer, got 4\.0$"):
            convergence_trace(resample_means([0.4] * 40, BootstrapConfig(seed=0), 4), [2, 4.0])

    def test_numpy_integer_checkpoints_accepted(self):
        means = resample_means(beta_fixture(), BootstrapConfig(seed=9), 128)
        assert convergence_trace(means, np.array([64, 128])) == convergence_trace(means, [64, 128])

    def test_beta_fixture_converges_within_five_percent(self):
        means = resample_means(beta_fixture(), BootstrapConfig(seed=40), 4000)
        trace = convergence_trace(means, [500, 1000, 2000, 4000])
        assert trace.final_relative_change < 0.05
        assert [p.B for p in trace.points] == [500, 1000, 2000, 4000]
        assert all(p.std_error > 0 for p in trace.points)

    def test_prefix_consistency_with_summary(self):
        values = beta_fixture()
        trace = convergence_trace(resample_means(values, BootstrapConfig(seed=9), 128), [64, 128])
        assert trace.points[-1].std_error == pytest.approx(
            float(np.std(resample_means(values, BootstrapConfig(B=128, seed=9)), ddof=1)), abs=0.0
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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestNonFiniteStatistics:
    def test_overflowing_values_refused(self):
        with pytest.raises(ValueError, match="bootstrap summary is not finite: empirical_mean=inf"):
            quiet_summary([1e308, 1e308, 1.7e308, 1e308], BootstrapConfig(B=100))

    def test_overflowing_variance_refused(self):
        # the means stay finite, their squared deviations do not
        with pytest.raises(ValueError, match="boot_variance=inf"):
            quiet_summary([1e200, -1e200] * 20, BootstrapConfig(B=100))

    def test_trace_refuses_non_finite_means_and_changes(self):
        with pytest.raises(ValueError, match="resample means must all be finite"):
            convergence_trace(np.array([0.5, np.inf, 0.5, 0.5]), [2, 4])
        with pytest.raises(ValueError, match=re.escape("std_error(B=4)=inf")):
            convergence_trace(np.array([1e200, -1e200, 1e200, -1e200]), [2, 4])
        # a standard error that rises from 0 is an infinite relative change
        with pytest.raises(ValueError, match="final_relative_change=inf"):
            convergence_trace(np.array([0.5, 0.5, 0.5, 0.5, 0.1, 0.9]), [4, 6])

    def test_unbiasedness_refuses_non_finite_numbers(self):
        values = beta_fixture()
        summary = bootstrap_summary(values, BootstrapConfig(B=1000, seed=2))
        with pytest.raises(ValueError, match="tolerance=inf"):
            unbiasedness_check(values, summary, tolerance=float("inf"))
        with pytest.raises(ValueError, match="tolerance=nan"):
            unbiasedness_check(values, summary, tolerance=float("nan"))
        with pytest.raises(ValueError, match="delta=inf"):
            unbiasedness_check(values, dataclasses.replace(summary, boot_mean=float("inf")))


def test_overflow_is_reported_by_value_error_alone():
    """Values too large to average raise no numpy RuntimeWarning before the ValueError."""
    wide = np.array([1e200, -1e200] * 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        with pytest.raises(ValueError, match="bootstrap summary is not finite: empirical_mean=inf"):
            bootstrap_summary([1e308, 1e308, 1.7e308, 1e308], BootstrapConfig(B=100))
        with pytest.raises(ValueError, match="boot_variance=inf"):
            bootstrap_summary(wide, BootstrapConfig(B=100))
        with pytest.raises(ValueError, match=re.escape("std_error(B=4)=inf")):
            convergence_trace(wide[:4], [2, 4])
        summary = bootstrap_summary(np.zeros(40), BootstrapConfig(B=100))
        with pytest.raises(ValueError, match="tolerance=inf"):
            unbiasedness_check(wide, summary)


@pytest.mark.parametrize("count, size", [(10**12, None), (10, 10**12)], ids=["means", "index-buffers"])
def test_unallocatable_buffers_raise_value_error(monkeypatch, count, size):
    refuse_large_arrays(monkeypatch)
    cfg = BootstrapConfig(B=10, resample_size=size)
    message = f"the means of {count} resamples of size {size or 4} do not fit in memory"
    with pytest.raises(ValueError, match=message):
        shared_resample_means([[0.1, 0.2, 0.3, 0.4]], cfg, count)


# Population draws and true means for the coverage pin: one continuous, one a proportion.
POPULATIONS = {
    "beta(2,5)": (lambda rng, n: rng.beta(2.0, 5.0, n), 2.0 / 7.0),
    "bernoulli(0.8)": (lambda rng, n: (rng.random(n) < 0.8).astype(float), 0.8),
}
COVERAGE_TRIALS = 300


@pytest.mark.parametrize(
    "population, n, measured",
    [("beta(2,5)", 8, 0.88), ("beta(2,5)", 32, 0.93), ("bernoulli(0.8)", 8, 0.837), ("bernoulli(0.8)", 32, 0.90)],
)
def test_percentile_ci_coverage_at_small_n(population, n, measured):
    # how often a nominal 95% interval at B = 1000 holds the true mean; the
    # band is 3 standard errors of a 300-trial share, so a change to the draw
    # contract or the percentile rule that moves coverage fails here. Each
    # trial has its own seed, as lists of equal n would share their indices.
    draw, mean = POPULATIONS[population]
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        for trial in range(COVERAGE_TRIALS):
            values = draw(np.random.default_rng((n, trial)), n).tolist()
            summary = bootstrap_summary(values, BootstrapConfig(B=1000, seed=trial))
            hits += summary.ci_low <= mean <= summary.ci_high
    band = 3 * (measured * (1 - measured) / COVERAGE_TRIALS) ** 0.5
    assert abs(hits / COVERAGE_TRIALS - measured) <= band
