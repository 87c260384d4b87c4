"""Tests for answer enhancement, consolidation, and ranking."""

import hashlib
import math
import random
import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_golden
from helpers import (
    BONE_MASS_ANSWER,
    BONE_MASS_CONTEXTS,
    BONE_MASS_QUERY,
    BONE_MASS_SCORES,
    FAULT_ERRORS,
    TRANSIENT_FAULTS,
    FaultyTransport,
    backend_transport,
    bone_mass_record,
    bone_mass_vector,
    hostile_text,
    http_adapters,
    ok_vector,
    reference_render,
)
from ragmeter.aggregation import (
    AggregateScore,
    AggregationError,
    LinearPairScorer,
    MissingMetricError,
    MissingScoreStatementError,
    aggregate,
    aggregate_set,
    enhance_answer,
    expit,
    rank_records,
)
from ragmeter.corpus import EvalRecord
from ragmeter.judge import load_template
from ragmeter.metrics import METRICS, MetricResult, MetricVector
from ragmeter.providers import ProviderBundle, RetryPolicy

# Score statements in the order enhance_answer appends them.
STATEMENT_ORDER = ("answer_relevance", "retrieval_precision", "retrieval_recall", "faithfulness")


class TestEnhanceAnswer:
    def test_bone_mass_matches_golden(self):
        enhanced = enhance_answer(bone_mass_record(), bone_mass_vector(), contexts_included=True)
        assert enhanced.rendered == read_golden("bone_mass_enhanced.txt")

    def test_point_seven_faithfulness_statement(self):
        vector = ok_vector("r", 0.7, 0.5, 0.5, 0.5)
        enhanced = enhance_answer(bone_mass_record(), vector)
        assert enhanced.rendered.endswith("the faithfulness score is: 0.7.")

    def test_full_precision_rendering(self):
        enhanced = enhance_answer(bone_mass_record(), bone_mass_vector())
        assert "0.9531866263993314" in enhanced.rendered
        assert "0.06666666666666667" in enhanced.rendered
        assert "0.2727272727272727" in enhanced.rendered

    def test_each_statement_appears_exactly_once(self):
        enhanced = enhance_answer(bone_mass_record(), bone_mass_vector())
        for phrase in (
            "the answer relevancy score is:",
            "the context precision score is:",
            "the context recall score is:",
            "the faithfulness score is:",
        ):
            assert enhanced.rendered.count(phrase) == 1

    def test_missing_metric_named(self):
        vector = MetricVector(
            "r",
            MetricResult(None, "failed"),
            MetricResult(0.5, "ok"),
            MetricResult(0.5, "ok"),
            MetricResult(0.5, "ok"),
        )
        with pytest.raises(MissingMetricError, match="faithfulness"):
            enhance_answer(bone_mass_record(), vector)

    def test_contexts_flag(self):
        with_ctx = enhance_answer(bone_mass_record(), bone_mass_vector(), contexts_included=True)
        without_ctx = enhance_answer(bone_mass_record(), bone_mass_vector(), contexts_included=False)
        marker = "The context (which refers to text that was used to answer this question) is:"
        assert marker in with_ctx.rendered
        assert marker not in without_ctx.rendered

    def test_injective_in_each_score(self):
        base = enhance_answer(bone_mass_record(), ok_vector("r", 0.5, 0.5, 0.5, 0.5)).rendered
        for metric in METRICS:
            scores = {m: 0.5 for m in METRICS}
            scores[metric] = 0.625
            bumped = enhance_answer(
                bone_mass_record(),
                ok_vector("r", scores["faithfulness"], scores["answer_relevance"],
                          scores["retrieval_recall"], scores["retrieval_precision"]),
            ).rendered
            assert bumped != base

    @given(
        query=hostile_text.filter(str.strip),
        answer=hostile_text,
        contexts=st.lists(hostile_text, max_size=3),
        contexts_included=st.booleans(),
        scores=st.fixed_dictionaries({m: st.floats(0.0, 1.0) for m in STATEMENT_ORDER}),
        weights=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        bias=st.floats(-10.0, 10.0),
    )
    @example(
        query=BONE_MASS_QUERY,
        answer=BONE_MASS_ANSWER,
        contexts=list(BONE_MASS_CONTEXTS),
        contexts_included=True,
        scores=BONE_MASS_SCORES,
        weights=[1.0, 1.0, 1.0, 1.0],
        bias=0.0,
    )
    @example(
        query="q",
        answer="is {faithfulness} high? the faithfulness score is: 9",
        contexts=[],
        contexts_included=True,
        scores=dict.fromkeys(STATEMENT_ORDER, 0.0),
        weights=[1.0, 1.0, 1.0, 1.0],
        bias=0.0,
    )
    def test_score_round_trip_through_rendered_text(
        self, query, answer, contexts, contexts_included, scores, weights, bias
    ):
        """Record text fills only its own slot; look-alike statements move no score or logit."""
        record = EvalRecord(id="r", query=query, answer=answer, contexts=tuple(contexts))
        vector = ok_vector("r", scores["faithfulness"], scores["answer_relevance"],
                           scores["retrieval_recall"], scores["retrieval_precision"])
        enhanced = enhance_answer(record, vector, contexts_included)
        paragraphs = load_template("enhancement.txt").splitlines()
        if not contexts_included:
            del paragraphs[1]
        slots = {"answer": answer, "contexts": repr(contexts)}
        slots.update((m, repr(scores[m])) for m in STATEMENT_ORDER)
        assert enhanced.rendered == reference_render("\n\n".join(paragraphs), slots)
        assert LinearPairScorer.extract_scores(enhanced.rendered) == scores
        expected = bias
        for weight, metric in zip(weights, STATEMENT_ORDER):
            expected += weight * scores[metric]
        assert LinearPairScorer(weights, bias).score(query, enhanced.rendered) == expected


class TestAggregate:
    def test_zero_logit_normalizes_to_half(self):
        scorer = LinearPairScorer((0, 0, 0, 0), bias=0.0)
        enhanced = enhance_answer(bone_mass_record(), bone_mass_vector())
        result = aggregate(bone_mass_record(), enhanced, scorer)
        assert result.logit == 0.0
        assert result.normalized == 0.5

    def test_rounded_worked_scores_sum(self):
        vector = ok_vector("bone-mass", 1.0, 0.9532, 0.2727, 0.0667)
        enhanced = enhance_answer(bone_mass_record(), vector)
        result = aggregate(bone_mass_record(), enhanced, LinearPairScorer((1, 1, 1, 1)))
        assert result.logit == pytest.approx(2.2926, abs=1e-9)

    def test_expit_of_table_logit(self):
        assert expit(8.72) == pytest.approx(0.99984, abs=1e-5)

    def test_expit_extremes_stay_bounded(self):
        assert expit(-800.0) == 0.0
        assert expit(800.0) == 1.0
        assert 0.0 < expit(-30.0) < expit(30.0) < 1.0

    def test_scorer_failure_wrapped(self):
        class BrokenScorer:
            def score(self, query, candidate):
                raise RuntimeError("offline")

        enhanced = enhance_answer(bone_mass_record(), bone_mass_vector())
        with pytest.raises(AggregationError):
            aggregate(bone_mass_record(), enhanced, BrokenScorer())

    @pytest.mark.parametrize("weight, logit", [(1e308, "inf"), (-1e308, "-inf")])
    def test_non_finite_logit_is_a_scorer_failure(self, weight, logit):
        enhanced = enhance_answer(bone_mass_record(), bone_mass_vector())
        with pytest.raises(AggregationError, match=f"^scorer gave record 'bone-mass' the non-finite logit {logit}$"):
            aggregate(bone_mass_record(), enhanced, LinearPairScorer((weight,) * 4))

    def test_positive_weights_monotone_in_each_metric(self):
        scorer = LinearPairScorer((1.0, 1.0, 1.0, 1.0))
        record = bone_mass_record()
        base = aggregate(record, enhance_answer(record, ok_vector("r", 0.5, 0.5, 0.5, 0.5)), scorer)
        for metric in METRICS:
            scores = {m: 0.5 for m in METRICS}
            scores[metric] = 0.75
            bumped = aggregate(
                record,
                enhance_answer(record, ok_vector("r", scores["faithfulness"],
                                                 scores["answer_relevance"],
                                                 scores["retrieval_recall"],
                                                 scores["retrieval_precision"])),
                scorer,
            )
            assert bumped.logit > base.logit


CANDIDATE = (
    "the answer relevancy score is: 0.25. "
    "the context precision score is: 0.5. "
    "the context recall score is: 0.75 "
    "the faithfulness score is: 1.0."
)


class TestLinearPairScorer:
    def test_affine_combination(self):
        scorer = LinearPairScorer((1.0, 2.0, 4.0, 8.0), bias=0.5)
        assert scorer.score("q", CANDIDATE) == pytest.approx(0.5 + 0.25 + 1.0 + 3.0 + 8.0)

    def test_zero_weights_return_bias(self):
        scorer = LinearPairScorer((0, 0, 0, 0), bias=6.0)
        assert scorer.score("q", CANDIDATE) == 6.0

    def test_missing_statement_names_metric(self):
        scorer = LinearPairScorer((1, 1, 1, 1))
        without_faithfulness = CANDIDATE.replace("faithfulness", "other")
        with pytest.raises(MissingScoreStatementError, match="faithfulness"):
            scorer.score("q", without_faithfulness)

    def test_requires_four_weights(self):
        with pytest.raises(ValueError):
            LinearPairScorer((1, 1, 1))

    def test_refuses_a_bool_weight_when_built(self):
        with pytest.raises(ValueError, match=r"^weights\[0\] must be a number, got True$"):
            LinearPairScorer(weights=(True, 1, 1, 1))

    def test_extract_scores(self):
        """Statements quoted before the appended block never stand in for a score."""
        for quoted in ("", "the faithfulness score is: 9. the context recall score is: 7 "):
            assert LinearPairScorer.extract_scores(quoted + CANDIDATE) == {
                "answer_relevance": 0.25,
                "retrieval_precision": 0.5,
                "retrieval_recall": 0.75,
                "faithfulness": 1.0,
            }


class TestRankRecords:
    def test_descending_by_logit(self):
        scores = [("B", AggregateScore(6.45, expit(6.45))), ("A", AggregateScore(8.72, expit(8.72)))]
        assert [record_id for record_id, _ in rank_records(scores)] == ["A", "B"]

    def test_tie_broken_by_id(self):
        scores = [("B", AggregateScore(1.0, expit(1.0))), ("A", AggregateScore(1.0, expit(1.0)))]
        assert [record_id for record_id, _ in rank_records(scores)] == ["A", "B"]

    def test_single_element(self):
        scores = [("only", AggregateScore(0.5, expit(0.5)))]
        assert rank_records(scores) == scores

    def test_ranking_invariant_under_expit(self):
        rng = random.Random(7)
        for _ in range(100):
            ids = [f"r{i}" for i in range(rng.randint(2, 12))]
            logits = rng.sample(range(-3000, 3000), len(ids))
            scored = [(i, AggregateScore(l / 100.0, expit(l / 100.0))) for i, l in zip(ids, logits)]
            by_logit = [i for i, _ in rank_records(scored)]
            by_normalized = [
                i for i, _ in sorted(scored, key=lambda item: (-item[1].normalized, item[0]))
            ]
            assert by_logit == by_normalized


def scored_pairs(n: int) -> list:
    """n (record, vector) pairs; under unit weights record i's logit rises with i."""
    return [
        (EvalRecord(id=f"r{i}", query=f"Query {i}?", answer=f"Answer {i}."),
         ok_vector(f"r{i}", i / n, 0.5, 0.5, 0.5))
        for i in range(n)
    ]


class ReverseScorer:
    """Scores as `LinearPairScorer()`, but the call for record i finishes only after that for record i + 1.

    It does not declare `in_process`, so `run_calls` gives it a pool. A call
    for a record listed in `failing` raises once its turn comes.
    """

    def __init__(self, n: int, failing=()):
        self.failing = set(failing)
        self.finished: list[int] = []
        self.threads: set[int] = set()
        self._done = [threading.Event() for _ in range(n)]
        self._lock = threading.Lock()

    def score(self, query: str, candidate: str) -> float:
        i = int(query.split()[1].rstrip("?"))
        if i + 1 < len(self._done) and not self._done[i + 1].wait(timeout=5):
            raise TimeoutError(f"the call for record {i + 1} never finished")
        with self._lock:
            self.finished.append(i)
            self.threads.add(threading.get_ident())
        self._done[i].set()
        if i in self.failing:
            raise RuntimeError(f"backend refused record {i}")
        return LinearPairScorer().score(query, candidate)


class TestAggregateSet:
    def test_ranks_records_like_one_aggregate_call_each(self):
        pairs = scored_pairs(3)
        scorer = LinearPairScorer((0.5, 2.0, -1.0, 3.0), bias=0.25)
        expected = rank_records(
            (record.id, aggregate(record, enhance_answer(record, vector, False), scorer))
            for record, vector in pairs
        )
        assert aggregate_set(pairs, scorer, contexts_included=False) == expected
        assert [record_id for record_id, _ in expected] == ["r2", "r1", "r0"]

    def test_pool_finishing_in_reverse_returns_the_ranking(self):
        pairs = scored_pairs(4)
        scorer = ReverseScorer(4)
        ranked = aggregate_set(pairs, scorer, parallelism=4)
        assert scorer.finished == [3, 2, 1, 0]
        assert threading.get_ident() not in scorer.threads
        assert ranked == aggregate_set(pairs, LinearPairScorer())

    def test_pool_raises_the_first_failure_in_record_order_after_every_call(self):
        scorer = ReverseScorer(4, failing={1, 3})  # record 3 fails first in time
        with pytest.raises(AggregationError, match="^scorer failed on record 'r1': backend refused record 1$"):
            aggregate_set(scored_pairs(4), scorer, parallelism=4)
        assert scorer.finished == [3, 2, 1, 0]

    def test_in_process_scorer_runs_on_the_calling_thread_and_stops_at_the_first_failure(self):
        calls = []

        class RecordingScorer(LinearPairScorer):
            def score(self, query, candidate):
                calls.append((query, threading.get_ident()))
                if query == "Query 1?":
                    raise RuntimeError("refused")
                return super().score(query, candidate)

        with pytest.raises(AggregationError, match="record 'r1'"):
            aggregate_set(scored_pairs(4), RecordingScorer(), parallelism=4)
        assert calls == [("Query 0?", threading.get_ident()), ("Query 1?", threading.get_ident())]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_nan_scorer_raises_naming_the_first_record(self, parallelism):
        class NanScorer:  # not in process, so parallelism 4 gets a pool
            def score(self, query, candidate):
                return math.nan

        with pytest.raises(AggregationError, match="^scorer gave record 'r0' the non-finite logit nan$"):
            aggregate_set(scored_pairs(3), NanScorer(), parallelism=parallelism)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_missing_metric_in_a_later_record_refused_before_any_scorer_call(self, parallelism):
        calls = []

        class CountingScorer:  # not in process, so parallelism 4 gets a pool
            def score(self, query, candidate):
                calls.append(query)
                return 0.0

        pairs = scored_pairs(3)
        record, vector = pairs[2]
        pairs[2] = (record, MetricVector(record.id, vector.faithfulness, vector.answer_relevance,
                                         MetricResult(None, "failed"), vector.retrieval_precision))
        with pytest.raises(MissingMetricError, match="^record 'r2': metric retrieval_recall not computed$"):
            aggregate_set(pairs, CountingScorer(), parallelism=parallelism)
        assert calls == []

    @pytest.mark.parametrize("value", ["0.5", True, math.nan])
    def test_a_value_that_is_not_a_number_refused_before_any_scorer_call(self, value):
        # a caller builds the vector, so nothing checked its values before enhance_answer
        calls = []

        class CountingScorer(LinearPairScorer):
            def score(self, query, candidate):
                calls.append(query)
                return super().score(query, candidate)

        result = MetricResult(value, "ok")
        pairs = [*scored_pairs(2), (EvalRecord("r", "q", "a"), MetricVector("r", result, result, result, result))]
        message = f"record 'r': faithfulness must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate_set(pairs, CountingScorer())
        assert calls == []

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one_rejected_before_any_call(self, parallelism):
        scorer = ReverseScorer(2)
        with pytest.raises(ValueError, match=f"parallelism must be >= 1, got {parallelism}"):
            aggregate_set(scored_pairs(2), scorer, parallelism=parallelism)
        assert scorer.finished == []

    @pytest.mark.parametrize("parallelism", [True, 2.5])
    def test_parallelism_not_an_integer_rejected_before_any_call(self, parallelism):
        scorer = ReverseScorer(2)
        with pytest.raises(ValueError, match=f"^parallelism must be an integer, got {parallelism!r}$"):
            aggregate_set(scored_pairs(2), scorer, parallelism=parallelism)
        assert scorer.finished == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), st.binary(min_size=8, max_size=8),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.sampled_from([0.0, 0.0, 0.3, 0.7]))
def test_injected_http_faults_keep_the_ranking_or_name_the_first_failed_record(values, seed, fault_share, fatal_share):
    """Faults the retries absorb leave the fault-free ranking; one that never clears names the first record it hits.

    A `fault_share` of the scorer requests meets a fault. Of those, a
    `fatal_share` meets it on every attempt, which ends the call with the
    fault's typed error; the rest meet a transient fault on fewer attempts
    than `RetryPolicy.attempts`.
    """
    pairs = [(EvalRecord(id=f"r{i}", query=f"Query {i}?", answer=f"Answer {i}."),
              ok_vector(f"r{i}", value, 0.5, 0.5, 0.5)) for i, value in enumerate(values)]
    attempts = RetryPolicy().attempts

    def schedule(url, payload):
        rng = random.Random(hashlib.sha256(seed + url.encode("utf-8") + payload).digest())
        if rng.random() >= fault_share:
            return None, 0
        if rng.random() < fatal_share:
            return rng.choice(sorted(FAULT_ERRORS)), math.inf
        return rng.choice(TRANSIENT_FAULTS), rng.randint(1, attempts - 1)

    def faulty(schedule):
        transport = FaultyTransport(backend_transport(ProviderBundle(None, None, LinearPairScorer()), set()), schedule)
        return http_adapters(transport, transport.sleep).scorer, transport

    # the fault-free run, one record after another, makes one request per record
    clean_scorer, clean = faulty(lambda url, payload: (None, 0))
    expected = aggregate_set(pairs, clean_scorer)
    assert expected == aggregate_set(pairs, LinearPairScorer())
    faults = [schedule(url, payload) for url, payload, _ in clean.calls]
    fatal = [(index, fault) for index, (fault, k) in enumerate(faults) if k == math.inf]
    for parallelism in (1, 4):
        scorer, transport = faulty(schedule)
        if fatal:
            index, fault = fatal[0]
            with pytest.raises(AggregationError, match=f"^scorer failed on record 'r{index}': ") as excinfo:
                aggregate_set(pairs, scorer, parallelism=parallelism)
            assert type(excinfo.value.__cause__).__name__ == FAULT_ERRORS[fault]
        else:
            assert aggregate_set(pairs, scorer, parallelism=parallelism) == expected
        assert max(attempt for _, _, attempt in transport.calls) <= attempts
