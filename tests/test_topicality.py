"""Tests for contrastive query-set analysis."""

import warnings
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import engineered_query_set
from ragmeter.metrics import METRICS, MetricResult, MetricVector, SetEvaluation
from ragmeter.providers import HashEmbedder, ProviderBundle, ScriptedGenerator
from ragmeter.stats import BootstrapConfig, BootstrapGuidanceWarning, BootstrapSummary, bootstrap_summary
from ragmeter.topicality import (
    TopicalityError,
    compare_summaries,
    format_table,
    run_topicality,
    summarize_set_metrics,
)


def test_format_table_left_aligns_every_column():
    assert format_table([["id", "value"], ["long-id", "1"]]) == "id       value\nlong-id  1    \n"


def summary(mean: float, ci_low: float, ci_high: float, ci_level: float = 0.95) -> BootstrapSummary:
    return BootstrapSummary(
        empirical_mean=mean,
        boot_mean=mean,
        boot_variance=0.001,
        ci_low=ci_low,
        ci_high=ci_high,
        B=500,
        n=50,
        resample_size=50,
        seed=0,
        ci_level=ci_level,
    )


class TestCompareSummaries:
    def test_disjoint_cis_and_large_delta_separate(self):
        comparison = compare_summaries(summary(0.7, 0.6, 0.8), summary(0.2, 0.1, 0.3), 0.1)
        assert comparison.separated
        assert not comparison.ci_overlap
        assert comparison.delta == pytest.approx(0.5)

    def test_overlapping_cis_do_not_separate(self):
        comparison = compare_summaries(summary(0.5, 0.4, 0.6), summary(0.6, 0.5, 0.7), 0.1)
        assert comparison.ci_overlap
        assert not comparison.separated

    def test_small_delta_below_min_effect(self):
        comparison = compare_summaries(summary(0.50, 0.49, 0.51), summary(0.45, 0.43, 0.47), 0.1)
        assert not comparison.ci_overlap
        assert abs(comparison.delta) < 0.1
        assert not comparison.separated

    def test_antisymmetric(self):
        a, b = summary(0.7, 0.6, 0.8), summary(0.2, 0.1, 0.3)
        forward = compare_summaries(a, b, 0.1)
        backward = compare_summaries(b, a, 0.1)
        assert forward.delta == -backward.delta
        assert forward.separated == backward.separated
        assert forward.ci_overlap == backward.ci_overlap

    def test_mismatched_ci_level_rejected(self):
        with pytest.raises(ValueError, match="ci_level"):
            compare_summaries(summary(0.5, 0.4, 0.6), summary(0.5, 0.4, 0.6, ci_level=0.9), 0.1)

    @pytest.mark.parametrize("min_effect", [-0.1, -1e-12, float("nan")])
    def test_negative_min_effect_rejected(self, min_effect):
        # "separated" would then mean no more than disjoint CIs
        with pytest.raises(ValueError, match="min_effect must be at least 0"):
            compare_summaries(summary(0.7, 0.6, 0.8), summary(0.2, 0.1, 0.3), min_effect)

    def test_faithfulness_flagged_non_discriminative(self):
        comparison = compare_summaries(
            summary(0.9, 0.8, 1.0), summary(0.9, 0.8, 1.0), 0.1, metric="faithfulness"
        )
        assert "non-discriminative" in comparison.note


def providers_for(*script_dicts) -> ProviderBundle:
    merged: dict = {}
    for scripts in script_dicts:
        merged.update(scripts)
    return ProviderBundle(ScriptedGenerator(merged), HashEmbedder(1024))


BOOT = BootstrapConfig(B=300, seed=7)


def quiet_run(*args, **kwargs):
    with pytest.warns(BootstrapGuidanceWarning):
        return run_topicality(*args, **kwargs)


class TestRunTopicality:
    def test_positive_vs_random_separates_on_relevance(self):
        positive, pos_scripts = engineered_query_set("pos", 12, "positive")
        random_set, rand_scripts = engineered_query_set("rand", 12, "random")
        report = quiet_run(
            [positive, random_set], providers_for(pos_scripts, rand_scripts), boot_cfg=BOOT
        )
        comparison = report.comparison("pos", "rand", "answer_relevance")
        assert comparison.separated
        assert comparison.delta > 0.3

    def test_identical_sets_not_separated(self):
        set_a, scripts_a = engineered_query_set("twin", 10, "positive")
        set_b = type(set_a)(label="twinb", records=tuple(
            type(r)(id=f"b-{r.id}", query=r.query, answer=r.answer, contexts=r.contexts)
            for r in set_a.records
        ))
        report = quiet_run([set_a, set_b], providers_for(scripts_a), boot_cfg=BOOT)
        for metric in METRICS:
            comparison = report.comparison("twin", "twinb", metric)
            assert comparison.delta == 0.0
            assert comparison.ci_overlap
            assert not comparison.separated

    def test_comparison_count_is_pairs_times_metrics(self):
        sets_and_scripts = [
            engineered_query_set(label, 8, tier)
            for label, tier in (("p", "positive"), ("a", "adjacent"), ("r", "random"))
        ]
        report = quiet_run(
            [s for s, _ in sets_and_scripts],
            providers_for(*(scripts for _, scripts in sets_and_scripts)),
            boot_cfg=BOOT,
        )
        assert len(report.comparisons) == 3 * len(METRICS)  # C(3,2) pairs x 4 metrics

    def test_single_record_set_warns_and_proceeds(self):
        tiny, scripts = engineered_query_set("tiny", 1, "positive")
        other, other_scripts = engineered_query_set("other", 1, "random")
        with pytest.warns(BootstrapGuidanceWarning):
            report = run_topicality(
                [tiny, other], providers_for(scripts, other_scripts), boot_cfg=BOOT
            )
        assert len(report.set_results) == 2

    def test_fully_failing_set_names_it(self):
        healthy, scripts = engineered_query_set("ok", 4, "positive")
        doomed, _ = engineered_query_set("doomed", 4, "random")  # scripts withheld
        with pytest.raises(TopicalityError, match="doomed"):
            with pytest.warns(BootstrapGuidanceWarning):
                run_topicality([healthy, doomed], providers_for(scripts), boot_cfg=BOOT)

    def test_needs_two_sets(self):
        only, scripts = engineered_query_set("solo", 4, "positive")
        with pytest.raises(ValueError, match="at least 2"):
            run_topicality([only], providers_for(scripts), boot_cfg=BOOT)

    def test_negative_min_effect_rejected_before_any_provider_call(self):
        positive, _ = engineered_query_set("pos", 4, "positive")
        random_set, _ = engineered_query_set("rand", 4, "random")
        providers = ProviderBundle(mock.Mock(spec=ScriptedGenerator), mock.Mock(spec=HashEmbedder))
        with pytest.raises(ValueError, match="min_effect must be at least 0, got -0.2"):
            run_topicality([positive, random_set], providers, min_effect=-0.2)
        assert providers.generator.mock_calls == providers.embedder.mock_calls == []

    def test_report_renders_mean_plus_minus_error_cells(self):
        positive, pos_scripts = engineered_query_set("pos", 10, "positive")
        random_set, rand_scripts = engineered_query_set("rand", 10, "random")
        report = quiet_run(
            [positive, random_set], providers_for(pos_scripts, rand_scripts), boot_cfg=BOOT
        )
        table = report.render_table()
        assert "±" in table
        assert "pos" in table and "rand" in table
        assert "separated" in table

    def test_deterministic_report(self):
        def build():
            positive, pos_scripts = engineered_query_set("pos", 8, "positive")
            random_set, rand_scripts = engineered_query_set("rand", 8, "random")
            return quiet_run(
                [positive, random_set], providers_for(pos_scripts, rand_scripts), boot_cfg=BOOT
            )

        assert build().to_dict() == build().to_dict()


class TestSummarizeSetMetrics:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.none() | st.floats(min_value=0.0, max_value=1.0)] * len(METRICS)),
            min_size=1,
            max_size=40,
        ),
        B=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
        resample_size=st.none() | st.integers(min_value=1, max_value=12),
    )
    # recall failed on one record: its n is 2, the other metrics share n = 3
    @example(rows=[(0.5, 0.25, 1.0, 0.0), (1.0, 0.5, None, 0.5), (0.0, 0.75, 0.5, 1.0)],
             B=50, seed=3, resample_size=None)
    def test_equals_independent_summaries(self, rows, B, seed, resample_size):
        """None marks a failed metric; a metric with failures has a smaller n."""
        assume(all(any(row[i] is not None for row in rows) for i in range(len(METRICS))))
        vectors = tuple(
            MetricVector(f"r{k}", *(
                MetricResult.failed(RuntimeError("judge down")) if v is None else MetricResult(v, "ok")
                for v in row
            ))
            for k, row in enumerate(rows)
        )
        evaluation = SetEvaluation("s", vectors, means={}, failure_counts={})
        cfg = BootstrapConfig(B=B, resample_size=resample_size, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BootstrapGuidanceWarning)
            result = summarize_set_metrics(evaluation, cfg)
            for i, metric in enumerate(METRICS):
                values = [row[i] for row in rows if row[i] is not None]
                assert result.values[metric] == tuple(values)
                assert result.summaries[metric] == bootstrap_summary(values, cfg)
