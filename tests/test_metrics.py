"""Tests for per-record scoring and set evaluation."""

import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    FAITH_MARK,
    PRECISION_MARK,
    QGEN_MARK,
    RECALL_MARK,
    DictEmbedder,
    TIDES_CONTEXT,
    TIDES_QUESTION,
    http_bundle,
    precision_transcript,
    reference_cosine,
    scripts_for_record,
)
from ragmeter.aggregation import aggregate_set
from ragmeter.corpus import EvalRecord, RecordSet
from ragmeter.judge import (
    FaithfulnessVerdicts,
    GeneratedQuestions,
    PrecisionExtraction,
    RecallClassification,
    parse_precision_extraction,
    recall_source_text,
    segment_sentences,
)
from ragmeter.metrics import (
    METRICS,
    MetricResult,
    NonFiniteEmbeddingError,
    SetEvaluationError,
    SimilarityConfig,
    answer_relevance_score,
    cosine,
    evaluate_record,
    evaluate_set,
    faithfulness_score,
    precision_score,
    recall_score,
)
from ragmeter.providers import (
    EndpointConfig,
    HashEmbedder,
    HttpPairScorer,
    LinearPairScorer,
    ProviderBundle,
    ProviderTimeoutError,
    ScriptedGenerator,
)


def verdicts(*flags):
    return FaithfulnessVerdicts(tuple("" for _ in flags), tuple(flags), "raw")


def classification(*flags):
    return RecallClassification(tuple("" for _ in flags), tuple(flags), "raw")


class TestScoreRatios:
    def test_faithfulness_examples(self):
        assert faithfulness_score(verdicts(False, True, False, True, True)) == 0.6
        assert faithfulness_score(verdicts(True, True, True)) == 1.0
        assert faithfulness_score(verdicts(False)) == 0.0

    def test_recall_examples(self):
        assert recall_score(classification(True, True, False)) == pytest.approx(2 / 3)
        assert recall_score(classification(True, True, True)) == 1.0
        assert recall_score(classification(False, False)) == 0.0

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_ratios_match_counting_oracle(self, flags):
        expected = sum(1 for f in flags if f) / len(flags)
        assert faithfulness_score(verdicts(*flags)) == expected
        assert recall_score(classification(*flags)) == expected


class TestCosine:
    def test_identity(self):
        assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
        # the norm ratio of [1, 1] with itself rounds to 1 - 2**-52
        assert cosine([1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_vector(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_opposed(self):
        assert cosine([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0, abs=1e-12)
        assert cosine([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) >= -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])

    @given(st.data())
    def test_matches_norm_reference_bit_for_bit(self, data):
        size = data.draw(st.integers(1, 8), label="size")
        element = st.one_of(
            st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([math.inf, -math.inf])
        )
        vector = st.lists(element, min_size=size, max_size=size)
        u = data.draw(vector, label="u")
        relation = data.draw(
            st.sampled_from(["free", "equal", "equal with inf", "tiny equal", "opposed", "scaled", "zero"])
        )
        if relation == "free":
            v = data.draw(vector, label="v")
        elif relation == "equal":
            v = list(u)
        elif relation == "equal with inf":
            u[data.draw(st.integers(0, size - 1), label="inf at")] = data.draw(
                st.sampled_from([math.inf, -math.inf]), label="inf"
            )
            v = list(u)
        elif relation == "tiny equal":
            # squares near or below the least normal double
            u = [x * 1e-160 for x in u]
            v = list(u)
        elif relation == "opposed":
            v = [-x for x in u]
        elif relation == "scaled":
            v = [x * data.draw(st.floats(0.5, 4.0), label="scale") for x in u]
        else:
            v = [0.0] * size
        expected = reference_cosine(u, v)
        assert cosine(u, v) == expected
        assert cosine(np.asarray(u), np.asarray(v)) == expected
        assert -1.0 <= expected <= 1.0
        if relation == "equal with inf":
            assert expected == 1.0


class TestPrecisionScore:
    CFG = SimilarityConfig(precision_match_threshold=0.8)

    def test_insufficient_is_zero(self):
        extraction = PrecisionExtraction((), True, "raw")
        assert precision_score(extraction, [TIDES_CONTEXT], HashEmbedder(64), self.CFG) == 0.0

    def test_every_sentence_extracted_verbatim_is_one(self):
        sentences = segment_sentences(TIDES_CONTEXT)
        extraction = PrecisionExtraction(tuple(sentences), False, "raw")
        # the dict embedder knows nothing: only the exact-match shortcut fires
        embedder = DictEmbedder({}, 4)
        assert precision_score(extraction, [TIDES_CONTEXT], embedder, self.CFG) == 1.0

    def test_tides_two_of_three(self):
        sentences = segment_sentences(TIDES_CONTEXT)
        extraction = parse_precision_extraction(precision_transcript(sentences[:2]))
        score = precision_score(extraction, [TIDES_CONTEXT], HashEmbedder(256), self.CFG)
        assert score == pytest.approx(2 / 3)

    def test_empty_contexts_degenerate(self):
        extraction = PrecisionExtraction(("anything",), False, "raw")
        assert precision_score(extraction, [], HashEmbedder(64), self.CFG) == 0.0

    @given(st.data())
    def test_monotone_in_extracted_sentences(self, data):
        words = ["cloud", "sales", "court", "engine", "river", "stone"]
        make_sentence = st.lists(st.sampled_from(words), min_size=2, max_size=5).map(
            lambda ws: " ".join(ws).capitalize() + "."
        )
        contexts = [" ".join(data.draw(st.lists(make_sentence, min_size=1, max_size=4)))]
        candidates = data.draw(st.lists(make_sentence, min_size=1, max_size=4))
        extra = data.draw(make_sentence)
        embedder = HashEmbedder(64)
        smaller = PrecisionExtraction(tuple(candidates), False, "raw")
        larger = PrecisionExtraction(tuple(candidates + [extra]), False, "raw")
        assert precision_score(larger, contexts, embedder, self.CFG) >= precision_score(
            smaller, contexts, embedder, self.CFG
        )


class TestAnswerRelevance:
    def test_identical_questions_score_one(self):
        embedder = HashEmbedder(64)
        questions = GeneratedQuestions(("same question",) * 3, ("t",) * 3)
        assert answer_relevance_score("same question", questions, embedder) == 1.0

    def test_engineered_cosines_mean(self):
        embedder = DictEmbedder(
            {
                "orig": [1.0, 0.0],
                "q-full": [1.0, 0.0],
                "q-half": [0.5, math.sqrt(0.75)],
                "q-zero": [0.0, 1.0],
            },
            2,
        )
        questions = GeneratedQuestions(("q-full", "q-half", "q-zero"), ("t",) * 3)
        assert answer_relevance_score("orig", questions, embedder) == 0.5

    def test_huge_finite_vectors_are_not_refused(self):
        # the squared norms overflow, but every component is finite
        embedder = DictEmbedder({"orig": [1e200, 1e200], "q": [1e200, 1e200]}, 2)
        questions = GeneratedQuestions(("q",), ("t",))
        assert answer_relevance_score("orig", questions, embedder) == 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_embedding_refused(self, bad):
        embedder = DictEmbedder({"orig": [1.0, 0.0], "q": [bad, 1.0]}, 2)
        questions = GeneratedQuestions(("q",), ("t",))
        with pytest.raises(NonFiniteEmbeddingError):
            answer_relevance_score("orig", questions, embedder)

    def test_orthogonal_single_question_clamps_to_zero(self):
        embedder = DictEmbedder({"orig": [1.0, 0.0], "q": [-1.0, 0.0]}, 2)
        questions = GeneratedQuestions(("q",), ("t",))
        assert answer_relevance_score("orig", questions, embedder) == 0.0

    def test_permutation_invariant(self):
        embedder = HashEmbedder(64)
        names = ("alpha beta", "beta gamma", "gamma delta", "delta alpha")
        forward = GeneratedQuestions(names, ("t",) * 4)
        backward = GeneratedQuestions(tuple(reversed(names)), ("t",) * 4)
        assert answer_relevance_score("alpha gamma", forward, embedder) == answer_relevance_score(
            "alpha gamma", backward, embedder
        )


# The full-pipeline fixture: scripted judge plus a dict embedder engineered to
# reproduce the four worked-example scores (faithfulness 1.0, relevance
# 0.9531866263993314, recall 3/11, precision 1/15).
FULL_QUERY = "At what age do adults start to lose bone mass?"
FULL_ANSWER = "Adults lose bone mass from age forty. The cited evidence supports this."
FULL_GROUND_TRUTH = " ".join(f"Ground point {i} holds." for i in range(1, 12))
FULL_CONTEXTS = tuple(
    " ".join(f"Chunk {j} sentence {k} text." for k in range(1, 4)) for j in range(1, 6)
)
FULL_GENERATED_Q = "When does bone loss begin for adults?"
RELEVANCE_TARGET = 0.9531866263993314


def full_record() -> EvalRecord:
    return EvalRecord(
        id="full",
        query=FULL_QUERY,
        answer=FULL_ANSWER,
        contexts=FULL_CONTEXTS,
        ground_truth=FULL_GROUND_TRUTH,
    )


def full_providers() -> ProviderBundle:
    record = full_record()
    scripts = scripts_for_record(
        record,
        faith=[True, True],
        recall=[True, False, False, True, False, False, False, True, False, False, False],
        precision=["Chunk 1 sentence 1 text."],
        questions=[FULL_GENERATED_Q] * 3,
    )
    embedder = DictEmbedder(
        {
            FULL_QUERY: [1.0, 0.0],
            FULL_GENERATED_Q: [RELEVANCE_TARGET, math.sqrt(1.0 - RELEVANCE_TARGET**2)],
        },
        2,
    )
    return ProviderBundle(ScriptedGenerator(scripts), embedder)


class TestEvaluateRecord:
    def test_full_scripted_fixture_reproduces_worked_scores(self):
        vector = evaluate_record(full_record(), full_providers())
        scores = vector.scores()
        assert scores["faithfulness"] == 1.0
        assert abs(scores["answer_relevance"] - RELEVANCE_TARGET) < 1e-12
        assert scores["retrieval_recall"] == pytest.approx(3 / 11)
        assert scores["retrieval_precision"] == pytest.approx(1 / 15)
        assert (
            round(scores["faithfulness"], 4),
            round(scores["answer_relevance"], 4),
            round(scores["retrieval_recall"], 4),
            round(scores["retrieval_precision"], 4),
        ) == (1.0, 0.9532, 0.2727, 0.0667)

    def test_diagnostics_retain_transcripts(self):
        vector = evaluate_record(full_record(), full_providers())
        assert "Final verdict" in vector.faithfulness.diagnostics["transcript"]
        assert len(vector.answer_relevance.diagnostics["transcripts"]) == 3
        assert vector.retrieval_precision.diagnostics["candidates"] == ["Chunk 1 sentence 1 text."]

    def test_empty_contexts_degenerate_but_others_computed(self):
        record = EvalRecord(id="no-ctx", query="q?", answer="One sentence only.")
        scripts = scripts_for_record(record, faith=[True], questions=["q?"])
        providers = ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(64))
        with pytest.warns(UserWarning):
            vector = evaluate_record(record, providers)
        assert vector.retrieval_recall.status == "degenerate"
        assert vector.retrieval_recall.value == 0.0
        assert vector.retrieval_precision.status == "degenerate"
        assert vector.retrieval_precision.value == 0.0
        assert vector.faithfulness.status == "ok"
        assert vector.answer_relevance.status == "ok"

    def test_generator_outage_isolates_metric(self):
        record = full_record()
        scripts = scripts_for_record(
            record,
            faith=[True, True],
            recall=None,  # no recall script: that call misses and fails
            precision=["Chunk 1 sentence 1 text."],
            questions=[FULL_GENERATED_Q] * 3,
        )
        providers = ProviderBundle(ScriptedGenerator(scripts), full_providers().embedder)
        vector = evaluate_record(record, providers)
        assert vector.retrieval_recall.status == "failed"
        assert vector.retrieval_recall.value is None
        assert vector.faithfulness.status == "ok"
        assert vector.retrieval_precision.status == "ok"
        assert vector.answer_relevance.status == "ok"

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_embedding_fails_only_embedding_metrics(self, bad):
        class NonFiniteEmbedder(HashEmbedder):
            def embed(self, text):
                vec = super().embed(text)
                vec[0] = bad
                return vec

        providers = ProviderBundle(full_providers().generator, NonFiniteEmbedder(64))
        vector = evaluate_record(full_record(), providers)
        assert vector.faithfulness.status == "ok"
        assert vector.retrieval_recall.status == "ok"
        for result in (vector.retrieval_precision, vector.answer_relevance):
            assert result.status == "failed"
            assert result.value is None
            assert result.diagnostics["error"].startswith("NonFiniteEmbeddingError: ")

    @pytest.mark.parametrize(
        "metric, mark",
        [
            ("faithfulness", FAITH_MARK),
            ("retrieval_recall", RECALL_MARK),
            ("retrieval_precision", PRECISION_MARK),
            ("answer_relevance", QGEN_MARK),
        ],
    )
    def test_judge_failure_fails_only_its_metric(self, metric, mark):
        healthy = evaluate_record(full_record(), full_providers())
        backend = full_providers()

        class OutageOnOnePrompt:
            def complete(self, prompt, params=None):
                if mark in prompt:
                    raise ProviderTimeoutError("backend down")
                return backend.generator.complete(prompt, params)

        providers = ProviderBundle(OutageOnOnePrompt(), backend.embedder)
        vector = evaluate_record(full_record(), providers)
        assert vector.result(metric) == MetricResult(
            None, "failed", {"error": "ProviderTimeoutError: backend down"}
        )
        for other in METRICS:
            if other != metric:
                assert vector.result(other) == healthy.result(other)

    def test_bit_deterministic(self):
        first = evaluate_record(full_record(), full_providers())
        second = evaluate_record(full_record(), full_providers())
        assert first.scores() == second.scores()
        assert first.faithfulness.diagnostics == second.faithfulness.diagnostics

    def test_empty_answer_rejected(self):
        record = EvalRecord(id="r", query="q", answer="  ")
        with pytest.raises(ValueError, match="empty answer"):
            evaluate_record(record, full_providers())


def two_record_set(generator_type=ScriptedGenerator, embedder_type=HashEmbedder):
    r1 = EvalRecord(id="a", query="First query?", answer="Alpha one. Alpha two. Alpha three. Alpha four. Alpha five.")
    r2 = EvalRecord(id="b", query="Second query?", answer="Beta one. Beta two. Beta three. Beta four. Beta five.")
    scripts = {}
    scripts.update(scripts_for_record(r1, faith=[True, True, False, False, False], questions=["First query?"]))
    scripts.update(scripts_for_record(r2, faith=[True, True, True, False, False], questions=["Second query?"]))
    providers = ProviderBundle(generator_type(scripts), embedder_type(64))
    return RecordSet(label="pair", records=(r1, r2)), providers


class TestEvaluateSet:
    def test_means_over_records(self):
        record_set, providers = two_record_set()
        evaluation = evaluate_set(record_set, providers)
        assert evaluation.means["faithfulness"] == pytest.approx(0.5)  # (0.4 + 0.6) / 2
        assert evaluation.failure_counts["faithfulness"] == 0

    def test_failed_record_excluded_from_mean(self):
        r1 = EvalRecord(id="a", query="Query one?", answer="Gamma stands. Gamma holds.")
        r2 = EvalRecord(id="b", query="Query two?", answer="Delta stands. Delta holds.")
        r3 = EvalRecord(id="c", query="Query three?", answer="Epsilon stands. Epsilon holds.")
        scripts = {}
        scripts.update(scripts_for_record(r1, faith=[True, True], questions=["Query one?"]))
        scripts.update(scripts_for_record(r2, faith=[True, False], questions=["Query two?"]))
        # r3 has no scripts at all: every generator call misses
        providers = ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(64))
        record_set = RecordSet(label="trio", records=(r1, r2, r3))
        evaluation = evaluate_set(record_set, providers)
        assert evaluation.means["faithfulness"] == pytest.approx(0.75)
        assert evaluation.failure_counts["faithfulness"] == 1

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one_rejected_before_any_call(self, parallelism):
        calls = []

        class RecordingGenerator(ScriptedGenerator):
            def complete(self, prompt, params=None):
                calls.append(prompt)
                return super().complete(prompt, params)

        record_set, providers = two_record_set(RecordingGenerator)
        with pytest.raises(ValueError, match="parallelism"):
            evaluate_set(record_set, providers, parallelism=parallelism)
        assert calls == []

    def test_empty_set_is_error(self):
        record_set, providers = two_record_set()
        with pytest.raises(SetEvaluationError):
            evaluate_set(RecordSet(label="empty", records=()), providers)

    def test_all_failed_is_error(self):
        record = EvalRecord(id="a", query="q?", answer="One line.", contexts=("some context.",))
        providers = ProviderBundle(ScriptedGenerator({}), HashEmbedder(64))
        with pytest.raises(SetEvaluationError):
            evaluate_set(RecordSet(label="doomed", records=(record,)), providers)

    def test_all_failed_names_the_first_failure_in_record_order(self):
        records = tuple(
            EvalRecord(id=record_id, query="q?", answer=f"Answer {record_id}.", contexts=("some context.",))
            for record_id in ("b", "a")
        )
        providers = ProviderBundle(ScriptedGenerator({}), HashEmbedder(64))
        with pytest.raises(SetEvaluationError) as excinfo:
            evaluate_set(RecordSet(label="doomed", records=records), providers, parallelism=2)
        assert str(excinfo.value).startswith(
            "every record in set 'doomed' failed; first failure: record 'b' faithfulness: "
            "ScriptMissError: no script matches prompt starting "
        )

    def test_parallel_matches_serial(self):
        record_set, providers_serial = two_record_set()
        _, providers_parallel = two_record_set()
        serial = evaluate_set(record_set, providers_serial, parallelism=1)
        parallel = evaluate_set(record_set, providers_parallel, parallelism=4)
        assert [v.scores() for v in serial.vectors] == [v.scores() for v in parallel.vectors]
        assert serial.means == parallel.means

    def test_in_process_bundle_runs_on_calling_thread(self):
        threads = set()

        class RecordingGenerator(ScriptedGenerator):
            def complete(self, prompt, params=None):
                threads.add(threading.get_ident())
                return super().complete(prompt, params)

        class RecordingEmbedder(HashEmbedder):
            def embed(self, text):
                threads.add(threading.get_ident())
                return super().embed(text)

        record_set, providers = two_record_set(RecordingGenerator, RecordingEmbedder)
        evaluation = evaluate_set(record_set, providers, parallelism=4)
        assert evaluation.failure_counts["faithfulness"] == 0
        assert threads == {threading.get_ident()}

    def test_remote_scorer_leaves_an_in_process_bundle_on_the_calling_thread(self):
        threads, posts = set(), []

        class RecordingGenerator(ScriptedGenerator):
            def complete(self, prompt, params=None):
                threads.add(threading.get_ident())
                return super().complete(prompt, params)

        def transport(url, payload, headers, timeout):
            posts.append(url)
            return 200, b'{"score": 0.0}'

        record_set, providers = two_record_set(RecordingGenerator)
        scorer = HttpPairScorer(EndpointConfig(url="http://scorer.test/score"), transport=transport)
        bundled = ProviderBundle(providers.generator, providers.embedder, scorer)
        evaluation = evaluate_set(record_set, bundled, parallelism=4)
        assert threads == {threading.get_ident()}
        assert posts == []
        assert evaluation == evaluate_set(record_set, two_record_set()[1], parallelism=1)

    def test_http_parallel_matches_serial(self):
        record_set, backend_serial = two_record_set()
        _, backend_parallel = two_record_set()
        serial_threads, parallel_threads = set(), set()
        serial = evaluate_set(record_set, http_bundle(backend_serial, serial_threads), parallelism=1)
        parallel = evaluate_set(
            record_set, http_bundle(backend_parallel, parallel_threads), parallelism=4
        )
        assert serial_threads == {threading.get_ident()}
        assert parallel_threads and threading.get_ident() not in parallel_threads
        assert [v.scores() for v in serial.vectors] == [v.scores() for v in parallel.vectors]
        assert serial.means == parallel.means
        stub = evaluate_set(record_set, two_record_set()[1])
        assert [v.scores() for v in serial.vectors] == [v.scores() for v in stub.vectors]


_WORDS = ("tide", "moon", "sun", "pull", "bone", "mass", "age", "coral", "reef", "newton")
_sentence = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(lambda ws: " ".join(ws).capitalize())


@st.composite
def scripted_record_set(draw):
    """(RecordSet, scripts): records whose judge calls the scripts mostly answer.

    A record may lack one of its scripts, or get verdicts or classifications
    of the wrong length, so failed and degenerate metrics occur too.
    """
    records, scripts = [], {}
    for i in range(draw(st.integers(1, 4))):
        contexts = draw(st.lists(st.lists(_sentence, min_size=1, max_size=3).map(". ".join), max_size=2))
        record = EvalRecord(
            id=f"r{i}",
            query=draw(_sentence) + "?",
            answer=". ".join(draw(st.lists(_sentence, min_size=1, max_size=3))) + ".",
            contexts=tuple(contexts),
            ground_truth=draw(st.none() | _sentence),
        )
        statements = segment_sentences(record.answer)
        source = segment_sentences(recall_source_text(record))
        context_sentences = [s for c in contexts for s in segment_sentences(c)]
        extra = draw(st.sampled_from([0, 0, 0, -1, 1]))  # now and then one verdict too few or too many
        record_scripts = scripts_for_record(
            record,
            faith=draw(st.lists(st.booleans(), min_size=max(1, len(statements) + extra),
                                max_size=max(1, len(statements) + extra))),
            recall=draw(st.lists(st.booleans(), min_size=len(source), max_size=len(source))),
            precision=draw(st.lists(st.sampled_from(context_sentences), min_size=1, max_size=3) | st.none())
            if context_sentences else "skip",
            questions=draw(st.lists(_sentence.map(lambda q: q + "?"), min_size=1, max_size=3)),
        )
        dropped = draw(st.none() | st.sampled_from(list(record_scripts)))
        scripts.update((key, value) for key, value in record_scripts.items() if key != dropped)
        records.append(record)
    return RecordSet(label="generated", records=tuple(records)), scripts


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripted_record_set(), st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       st.floats(-10.0, 10.0), st.booleans())
def test_http_adapters_match_the_stubs(generated, weights, bias, contexts_included):
    """Differential oracle: the HTTP adapters over a stub backend give the stub run's metrics and ranking."""
    record_set, scripts = generated

    def stub_bundle():
        return ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(64), LinearPairScorer(weights, bias))

    def cells(evaluation):
        return [[(vector.result(m).value, vector.result(m).status) for m in METRICS]
                for vector in evaluation.vectors]

    try:
        stub = evaluate_set(record_set, stub_bundle())
    except SetEvaluationError:  # every metric of every record failed
        with pytest.raises(SetEvaluationError):
            evaluate_set(record_set, http_bundle(stub_bundle(), set()))
        return
    http = evaluate_set(record_set, http_bundle(stub_bundle(), set()))
    assert cells(http) == cells(stub)

    pairs = [(record, vector) for record, vector in zip(record_set.records, stub.vectors)
             if all(vector.result(m).value is not None for m in METRICS)]
    expected = aggregate_set(pairs, LinearPairScorer(weights, bias), contexts_included=contexts_included)
    for parallelism in (1, 4):
        scorer = http_bundle(stub_bundle(), set()).scorer
        assert aggregate_set(pairs, scorer, contexts_included=contexts_included,
                             parallelism=parallelism) == expected


@given(st.lists(st.booleans(), min_size=1, max_size=20), st.lists(st.booleans(), min_size=1, max_size=20))
def test_scores_always_in_unit_interval(faith_flags, recall_flags):
    assert 0.0 <= faithfulness_score(verdicts(*faith_flags)) <= 1.0
    assert 0.0 <= recall_score(classification(*recall_flags)) <= 1.0
