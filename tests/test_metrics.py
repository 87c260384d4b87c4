"""Tests for per-record scoring and set evaluation."""

import hashlib
import json
import math
import random
import re
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    FAULT_ERRORS,
    FAITH_MARK,
    PRECISION_MARK,
    QGEN_MARK,
    RECALL_MARK,
    TRANSIENT_FAULTS,
    DictEmbedder,
    FaultyTransport,
    RecordingEmbedder,
    TIDES_CONTEXT,
    TIDES_QUESTION,
    backend_transport,
    http_adapters,
    http_bundle,
    precision_transcript,
    reference_cosine,
    reference_precision,
    scripts_for_record,
)
from ragmeter.aggregation import LinearPairScorer, aggregate_set
from ragmeter.corpus import EvalRecord, RecordSet, SyntheticSpec
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
from ragmeter.metrics import _precision_details
from ragmeter.providers import (
    EndpointConfig,
    GenerationParams,
    HashEmbedder,
    HttpEmbedder,
    HttpPairScorer,
    ProviderBundle,
    ProviderTimeoutError,
    RetryPolicy,
    ScriptedGenerator,
)
from ragmeter.stats import BootstrapConfig
from ragmeter.topicality import run_topicality


def verdicts(*flags):
    return FaithfulnessVerdicts(tuple(flags))


def classification(*flags):
    return RecallClassification(tuple(flags))


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

    @pytest.mark.parametrize(
        "u, v, shapes",
        [(np.eye(2), np.eye(2), r"\(2, 2\) and \(2, 2\)"),
         ([[1.0, 2.0]], [[3.0, 4.0]], r"\(1, 2\) and \(1, 2\)"),
         (2.0, 2.0, r"\(\) and \(\)"),
         ([1.0, 2.0], [[1.0, 2.0]], r"\(2,\) and \(1, 2\)")],
        ids=["2x2", "1x2", "0-d", "1-d with 2-d"],
    )
    def test_input_that_is_not_1d_is_refused_naming_its_shape(self, u, v, shapes):
        with pytest.raises(ValueError, match=rf"^cosine takes 1-d vectors, got shapes {shapes}$"):
            cosine(u, v)

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
        extraction = PrecisionExtraction(())
        assert precision_score(extraction, [TIDES_CONTEXT], HashEmbedder(64), self.CFG) == 0.0

    def test_every_sentence_extracted_verbatim_is_one(self):
        sentences = segment_sentences(TIDES_CONTEXT)
        extraction = PrecisionExtraction(tuple(sentences))
        # the dict embedder knows nothing: only the exact-match shortcut fires
        embedder = DictEmbedder({}, 4)
        assert precision_score(extraction, [TIDES_CONTEXT], embedder, self.CFG) == 1.0

    def test_tides_two_of_three(self):
        sentences = segment_sentences(TIDES_CONTEXT)
        extraction = parse_precision_extraction(precision_transcript(sentences[:2]))
        score = precision_score(extraction, [TIDES_CONTEXT], HashEmbedder(256), self.CFG)
        assert score == pytest.approx(2 / 3)

    def test_empty_contexts_degenerate(self):
        extraction = PrecisionExtraction(("anything",))
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
        smaller = PrecisionExtraction(tuple(candidates))
        larger = PrecisionExtraction(tuple(candidates + [extra]))
        assert precision_score(larger, contexts, embedder, self.CFG) >= precision_score(
            smaller, contexts, embedder, self.CFG
        )


class BatchDictEmbedder(DictEmbedder):
    """A `DictEmbedder` that also answers a batch in one `embed_many` call."""

    def __init__(self, mapping, dimension):
        super().__init__(mapping, dimension)
        self.batches: list[list[str]] = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return np.array([self.embed(t) for t in texts]).reshape(len(texts), self.dimension)


KERNEL_VOCAB = ["alpha", "beta", "gamma", "delta", "tide", "moon", "sea", "x", "9"]


class TestSimilarityKernel:
    """Precision matching against the per-pair `cosine` loop it replaced."""

    @staticmethod
    def draw_case(data, element):
        size = data.draw(st.integers(1, 8), label="size")
        vector = st.lists(element, min_size=size, max_size=size)
        candidates = data.draw(st.lists(vector, min_size=1, max_size=4), label="candidates")
        sentences = []
        for i in range(data.draw(st.integers(1, 5), label="sentences")):
            relation = data.draw(st.sampled_from(["free", "equal", "scaled", "opposed", "zero"]))
            base = candidates[data.draw(st.integers(0, len(candidates) - 1), label=f"base {i}")]
            if relation == "free":
                sentences.append(data.draw(vector, label=f"sentence {i}"))
            elif relation == "equal":
                sentences.append(list(base))
            elif relation == "scaled":
                sentences.append([2.0 * x for x in base])
            elif relation == "opposed":
                sentences.append([-x for x in base])
            else:
                sentences.append([0.0] * size)
        return size, candidates, sentences

    @staticmethod
    def run_both(candidates, sentences, size, threshold, batched):
        names = [f"Candidate {j}." for j in range(len(candidates))]
        contexts = [f"Sentence {i} text." for i in range(len(sentences))]
        mapping = dict(zip(names, candidates)) | dict(zip(contexts, sentences))
        extraction = PrecisionExtraction(tuple(names))
        embedder = (BatchDictEmbedder if batched else DictEmbedder)(mapping, size)
        _, details = _precision_details(
            extraction, contexts, embedder, SimilarityConfig(precision_match_threshold=threshold)
        )
        expected = reference_precision(extraction, contexts, DictEmbedder(mapping, size), threshold)
        return details, expected

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # `reference_cosine`
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_decisions_and_values_on_integer_vectors(self, data):
        # small integers keep every dot and squared norm exact, so both
        # implementations round the same sqrt, product and quotient
        scale = data.draw(st.sampled_from([1.0, 1e200, 1e-170]), label="scale")
        size, candidates, sentences = self.draw_case(data, st.integers(-8, 8).map(float))
        candidates = [[x * scale for x in v] for v in candidates]
        sentences = [[x * scale for x in v] for v in sentences]
        threshold = data.draw(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), label="threshold"
        )
        batched = data.draw(st.booleans(), label="batched")
        details, (similarities, matched) = self.run_both(candidates, sentences, size, threshold, batched)
        assert details["matched_sentences"] == matched
        if scale == 1.0:
            assert details["similarities"] == similarities
        for sentence, similarity in zip(sentences, details["similarities"]):
            assert -1.0 <= similarity <= 1.0
            # at 1e-170 every squared norm underflows to 0, which gives 0 before equality gives 1
            zero_norm = scale == 1e-170 or not any(sentence)
            if zero_norm:
                assert similarity == 0.0
            elif any(sentence == c for c in candidates):
                assert similarity == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_values_within_tolerance_on_real_vectors(self, data):
        magnitude = st.floats(1e-3, 1e3)
        element = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
        size, candidates, sentences = self.draw_case(data, element)
        details, (similarities, _) = self.run_both(candidates, sentences, size, 0.8, data.draw(st.booleans()))
        for got, want, sentence in zip(details["similarities"], similarities, sentences):
            # every pair's dot is the same `u.dot(v)`, so the tolerance is 0
            assert got == want
            if any(sentence == c for c in candidates) and any(sentence):
                assert got == want == 1.0
            if not any(sentence):
                assert got == want == 0.0

    def test_equal_tiny_and_huge_vectors_give_one(self):
        for scale in (1e-160, 1e200):
            candidates = [[scale, scale, 0.0], [scale, 0.0, scale]]
            details, (similarities, _) = self.run_both(candidates, [[scale, 0.0, scale]], 3, 1.0, True)
            assert details["similarities"] == similarities == [1.0]
            assert details["matched_sentences"] == ["Sentence 0 text."]

    @pytest.mark.parametrize("batched", [False, True])
    def test_norm_underflowing_to_zero_gives_zero(self, batched):
        # the sentence's squared norm underflows to 0 while its dot with the
        # opposed candidate is -1e-20, so the quotient is -inf before the zero-norm rule
        details, (similarities, matched) = self.run_both([[-1e150]], [[1e-170]], 1, 0.0, batched)
        assert details["similarities"] == similarities == [0.0]
        assert details["matched_sentences"] == matched == ["Sentence 0 text."]

    def test_batched_path_asks_one_batch_with_the_candidates_first(self):
        embedder = BatchDictEmbedder({"A.": [1.0, 0.0], "B.": [0.0, 1.0], "C.": [1.0, 1.0]}, 2)
        extraction = PrecisionExtraction(("A.", "B."))
        score, details = _precision_details(extraction, ["A. C. D."], embedder, SimilarityConfig(0.7))
        assert embedder.batches == [["A.", "B.", "C.", "D."]]
        assert details["matched_sentences"] == ["A.", "C."]
        assert score == pytest.approx(2 / 3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hash_embedder_similarities_match_the_pair_matrix_bit_for_bit(self, data):
        # the kernel reads deduplicated rows through an index; the reference
        # embeds each (sentence, candidate) pair apart and scores it with
        # `reference_cosine`, which calls nothing in `metrics`. Sentences
        # repeat across chunks, candidates repeat, and blocks run up to 60
        # sentences of up to 1024 dimensions.
        words = st.lists(st.sampled_from(KERNEL_VOCAB), min_size=1, max_size=8)
        sentence = words.map(lambda ws: " ".join(ws).capitalize() + ".")
        pool = data.draw(st.lists(sentence, min_size=1, max_size=12, unique=True), label="pool")
        candidates = data.draw(
            st.lists(st.one_of(st.sampled_from(pool), sentence), min_size=1, max_size=4), label="candidates"
        )
        chunks = data.draw(
            st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=12).map(" ".join),
                     min_size=1, max_size=5),
            label="chunks",
        )
        dimension = data.draw(st.sampled_from([4, 64, 1024]), label="dimension")
        batched = data.draw(st.booleans(), label="batched")
        embedder = HashEmbedder(dimension) if batched else RecordingEmbedder(HashEmbedder(dimension))
        extraction = PrecisionExtraction(tuple(candidates))
        _, details = _precision_details(extraction, chunks, embedder, SimilarityConfig())
        similarities, _ = reference_precision(extraction, chunks, HashEmbedder(dimension), 0.8)
        assert details["similarities"] == similarities

    @pytest.mark.parametrize("batched", [False, True])
    def test_the_last_bit_decides_a_match_at_the_threshold(self, batched):
        # `cosine` gives 0.8000000000000002 here, and the raw dot of the two
        # unit vectors 0.7999999999999999, which would miss the match
        embedder = HashEmbedder(1024) if batched else RecordingEmbedder(HashEmbedder(1024))
        extraction = PrecisionExtraction(("Alpha alpha beta.",))
        _, details = _precision_details(extraction, ["Alpha beta beta."], embedder, SimilarityConfig(0.8))
        assert details["similarities"] == [0.8000000000000002]
        assert details["matched_sentences"] == ["Alpha beta beta."]

    @pytest.mark.parametrize("batched", [False, True])
    def test_every_similarity_is_the_norm_reference_of_its_pair(self, batched):
        # a matrix-vector product per candidate gave 0.3585685828003181 for
        # the second sentence on some BLAS kernels, one bit below the
        # 0.35856858280031817 of `u.dot(v)` over the norms
        candidate = "Delta 9 moon gamma sea moon tide x."
        context = ("Alpha tide 9 tide 9 x alpha. Alpha x sea beta sea. "
                   "X alpha alpha tide alpha tide. Delta 9 9 moon sea.")
        embedder = HashEmbedder(1024) if batched else RecordingEmbedder(HashEmbedder(1024))
        extraction = PrecisionExtraction((candidate,))
        _, details = _precision_details(extraction, [context], embedder, SimilarityConfig())
        reference = HashEmbedder(1024)
        assert details["similarities"] == [
            reference_cosine(reference.embed(sentence), reference.embed(candidate))
            for sentence in segment_sentences(context)
        ]

    def test_batched_non_finite_vector_refused(self):
        embedder = BatchDictEmbedder({"B.": [math.nan, 1.0]}, 2)
        extraction = PrecisionExtraction(("A.",))
        with pytest.raises(NonFiniteEmbeddingError):
            precision_score(extraction, ["B."], embedder, SimilarityConfig())

    def test_huge_finite_batch_is_not_refused(self):
        embedder = BatchDictEmbedder({"A.": [1e200, 1e200], "B.": [1e200, -1e200]}, 2)
        extraction = PrecisionExtraction(("A.",))
        assert precision_score(extraction, ["B."], embedder, SimilarityConfig(0.0)) == 0.0


texts_with_repeats = st.lists(
    st.sampled_from(["Tides rise.", "Moons pull.", "Seas fall.", "Tides rise. Seas fall."]),
    min_size=1, max_size=5,
)


class TestEmbeddingRequests:
    """An embedder without `embed_many` sees the texts the per-pair loop asked for, in its order."""

    @given(texts_with_repeats, texts_with_repeats)
    def test_precision_requests_match_the_loop(self, candidates, chunks):
        extraction = PrecisionExtraction(tuple(candidates))
        cfg = SimilarityConfig()
        recorded, reference = RecordingEmbedder(HashEmbedder(64)), RecordingEmbedder(HashEmbedder(64))
        _, details = _precision_details(extraction, chunks, recorded, cfg)
        similarities, matched = reference_precision(extraction, chunks, reference, cfg.precision_match_threshold)
        assert recorded.texts == reference.texts
        assert details["matched_sentences"] == matched

    @given(st.text(min_size=1), st.lists(st.text(min_size=1), min_size=1, max_size=4))
    def test_relevance_requests_query_then_questions(self, query, questions):
        recorded = RecordingEmbedder(HashEmbedder(64))
        generated = GeneratedQuestions(tuple(questions))
        score = answer_relevance_score(query, generated, recorded)
        assert recorded.texts == [query, *questions]
        reference = HashEmbedder(64)
        cosines = [min(max(reference_cosine(reference.embed(query), reference.embed(q)), 0.0), 1.0)
                   for q in questions]
        assert score == math.fsum(cosines) / len(cosines)

    def test_http_embedder_posts_in_loop_order(self):
        assert not hasattr(HttpEmbedder, "embed_many")
        backend = RecordingEmbedder(HashEmbedder(64))
        embedder = HttpEmbedder(
            EndpointConfig(url="http://backend.test/embed"),
            transport=backend_transport(ProviderBundle(None, backend), set()),
            sleep=lambda _: None,
        )
        extraction = PrecisionExtraction(("Tides rise.", "Moons pull."))
        precision_score(extraction, ["Seas fall. Tides rise. Winds blow."], embedder, SimilarityConfig())
        assert backend.texts == ["Tides rise.", "Moons pull."] + ["Seas fall."] * 2 + ["Winds blow."] * 2

    def test_loop_stops_at_the_first_non_finite_vector(self):
        recorded = RecordingEmbedder(DictEmbedder({"B.": [math.inf, 1.0]}, 2))
        extraction = PrecisionExtraction(("A.", "B.", "C."))
        with pytest.raises(NonFiniteEmbeddingError):
            precision_score(extraction, ["D."], recorded, SimilarityConfig())
        assert recorded.texts == ["A.", "B."]

    # the `embed` loop only: one `embed_many` batch is one 2-d array, which
    # cannot mix shapes, and `test_batch_of_another_shape_is_refused` covers
    # its refusal
    @pytest.mark.parametrize("batched", [False])
    def test_dimension_mismatch_names_both_shapes(self, batched):
        class Uneven:
            def embed(self, text):
                return np.ones(3) if text.startswith("S") else np.ones(2)

        embedder = RecordingEmbedder(Uneven())
        extraction = PrecisionExtraction(("Candidate.",))
        # the vector that differs, then the shape of the first
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(3,\) vs \(2,\)$"):
            precision_score(extraction, ["Sentence."], embedder, SimilarityConfig())
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(3,\) vs \(2,\)$"):
            answer_relevance_score("query", GeneratedQuestions(("Some question?",)), embedder)

    def test_an_embed_answering_a_matrix_is_refused(self):
        class Flat:
            def embed(self, text):
                return np.ones((1, 3))

        with pytest.raises(ValueError, match=r"^embedder returned shape \(1, 3\), not a 1-d vector$"):
            precision_score(PrecisionExtraction(("Candidate.",)), ["Sentence."], Flat(), SimilarityConfig())
        with pytest.raises(ValueError, match=r"^embedder returned shape \(1, 3\), not a 1-d vector$"):
            answer_relevance_score("query", GeneratedQuestions(("Some question?",)), Flat())

    @pytest.mark.parametrize(
        "answer, shape",
        [(lambda texts: np.ones((len(texts) + 1, 2)), r"\(3, 2\) for 2 texts"),
         (lambda texts: np.ones(2 * len(texts)), r"\(4,\) for 2 texts")],
        ids=["rows", "1-d"],
    )
    def test_batch_of_another_shape_is_refused(self, answer, shape):
        class Misshapen(DictEmbedder):
            def embed_many(self, texts):
                return answer(texts)

        embedder = Misshapen({}, 2)
        extraction = PrecisionExtraction(("Candidate.",))
        with pytest.raises(ValueError, match=rf"^embed_many gave shape {shape}$"):
            precision_score(extraction, ["Sentence."], embedder, SimilarityConfig())
        with pytest.raises(ValueError, match=rf"^embed_many gave shape {shape}$"):
            answer_relevance_score("query", GeneratedQuestions(("Some question?",)), embedder)

    def test_an_embed_loop_answering_repeats_differently_keeps_one_row_per_text(self):
        class Drifting:
            """Turns its answer further on every call, whatever the text."""

            def __init__(self):
                self.texts = []

            def embed(self, text):
                self.texts.append(text)
                return np.array([1.0, float(len(self.texts))])

        embedder = Drifting()
        extraction = PrecisionExtraction(("A.", "B."))
        _, details = _precision_details(extraction, ["S. T. S."], embedder, SimilarityConfig())
        # the requests the per-pair loop makes, repeats included
        reference = RecordingEmbedder(HashEmbedder(8))
        reference_precision(extraction, ["S. T. S."], reference, 0.8)
        assert embedder.texts == reference.texts == ["A.", "B.", "S.", "S.", "T.", "T.", "S.", "S."]
        # each text's row holds its last answer: "S." the 8th, "T." the 6th,
        # so both occurrences of "S." get one similarity
        a, b = [1.0, 1.0], [1.0, 2.0]
        s, t = (max(reference_cosine([1.0, k], a), reference_cosine([1.0, k], b)) for k in (8.0, 6.0))
        assert details["similarities"] == [s, t, s]


class TestAnswerRelevance:
    def test_identical_questions_score_one(self):
        embedder = HashEmbedder(64)
        questions = GeneratedQuestions(("same question",) * 3)
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
        questions = GeneratedQuestions(("q-full", "q-half", "q-zero"))
        assert answer_relevance_score("orig", questions, embedder) == 0.5

    def test_huge_finite_vectors_are_not_refused(self):
        # the squared norms overflow, but every component is finite
        embedder = DictEmbedder({"orig": [1e200, 1e200], "q": [1e200, 1e200]}, 2)
        questions = GeneratedQuestions(("q",))
        assert answer_relevance_score("orig", questions, embedder) == 1.0

    @pytest.mark.parametrize("batched", [False, True])
    def test_huge_finite_vectors_warn_nothing(self, batched):
        # the squared norms overflow and one dot is inf - inf; the scores come
        # from the inf and NaN that gives, as before, with no warning printed
        mapping = {"orig": [1e200, 1e200], "q": [1e200, 1e200], "r": [1e200, -1e200]}
        embedder = (BatchDictEmbedder if batched else DictEmbedder)(mapping, 2)
        questions = GeneratedQuestions(("q", "r"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert answer_relevance_score("orig", questions, embedder) == 0.5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_embedding_refused(self, bad):
        embedder = DictEmbedder({"orig": [1.0, 0.0], "q": [bad, 1.0]}, 2)
        questions = GeneratedQuestions(("q",))
        with pytest.raises(NonFiniteEmbeddingError):
            answer_relevance_score("orig", questions, embedder)

    def test_orthogonal_single_question_clamps_to_zero(self):
        embedder = DictEmbedder({"orig": [1.0, 0.0], "q": [-1.0, 0.0]}, 2)
        questions = GeneratedQuestions(("q",))
        assert answer_relevance_score("orig", questions, embedder) == 0.0

    def test_permutation_invariant(self):
        embedder = HashEmbedder(64)
        names = ("alpha beta", "beta gamma", "gamma delta", "delta alpha")
        forward = GeneratedQuestions(names)
        backward = GeneratedQuestions(tuple(reversed(names)))
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
            def embed_many(self, texts):
                matrix = super().embed_many(texts)
                matrix[:, 0] = bad
                return matrix

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


@pytest.mark.parametrize("run", [
    lambda record, providers: evaluate_record(record, providers, recall_source="bogus"),
    lambda record, providers: evaluate_set(RecordSet("s", (record,)), providers, recall_source="bogus"),
    lambda record, providers: run_topicality(
        [RecordSet("a", (record,)), RecordSet("b", (record,))], providers, recall_source="bogus"),
], ids=["evaluate_record", "evaluate_set", "run_topicality"])
def test_unknown_recall_source_refused_before_any_provider_call(run):
    providers = ProviderBundle(mock.Mock(spec=ScriptedGenerator), mock.Mock(spec=HashEmbedder))
    message = "unknown recall source 'bogus'; expected one of ('auto', 'ground_truth', 'answer')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(full_record(), providers)
    assert providers.generator.mock_calls == providers.embedder.mock_calls == []


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

    @pytest.mark.parametrize("parallelism", [0, -3, True, 2.5])
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

    def test_empty_answer_fails_every_metric_of_its_record_only(self):
        record_set, providers = two_record_set()
        alone = evaluate_set(record_set, providers)
        blank = EvalRecord(id="blank", query="Blank query?", answer=" ")
        first, second = record_set.records
        _, providers = two_record_set()
        evaluation = evaluate_set(RecordSet(label="pair", records=(first, blank, second)), providers)
        failed = MetricResult(None, "failed", {"error": "ValueError: record 'blank' has an empty answer"})
        assert [evaluation.vectors[1].result(m) for m in METRICS] == [failed] * len(METRICS)
        assert [evaluation.vectors[0], evaluation.vectors[2]] == list(alone.vectors)
        assert evaluation.means == alone.means
        assert evaluation.failure_counts == {m: 1 for m in METRICS}

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
        threads, embedder_threads = set(), set()

        class RecordingGenerator(ScriptedGenerator):
            def complete(self, prompt, params=None):
                threads.add(threading.get_ident())
                return super().complete(prompt, params)

        class RecordingEmbedder(HashEmbedder):
            def embed_many(self, texts):
                embedder_threads.add(threading.get_ident())
                return super().embed_many(texts)

        record_set, providers = two_record_set(RecordingGenerator, RecordingEmbedder)
        evaluation = evaluate_set(record_set, providers, parallelism=4)
        assert evaluation.failure_counts["faithfulness"] == 0
        assert threads == embedder_threads == {threading.get_ident()}

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
def scripted_record_set(draw, max_questions=3):
    """(RecordSet, scripts): records whose judge calls the scripts mostly answer.

    A record may lack one of its scripts, or get verdicts or classifications
    of the wrong length, so failed and degenerate metrics occur too. Each
    record's question script holds up to `max_questions` questions.
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
            questions=draw(st.lists(_sentence.map(lambda q: q + "?"), min_size=1, max_size=max_questions)),
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


_MARKED_METRICS = (
    (FAITH_MARK, "faithfulness"),
    (RECALL_MARK, "retrieval_recall"),
    (PRECISION_MARK, "retrieval_precision"),
    (QGEN_MARK, "answer_relevance"),
)


# one scripted question per record: records whose question prompts match one
# script entry share its round-robin cursor, so with several questions which
# record got which would depend on the thread interleaving at parallelism 4
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripted_record_set(max_questions=1), st.binary(min_size=8, max_size=8),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.sampled_from([0.0, 0.0, 0.2, 0.6]))
def test_injected_http_faults_fail_exactly_the_metrics_they_hit(generated, seed, fault_share, fatal_share):
    """Faults the retries absorb change nothing; the rest fail exactly the metrics whose calls they hit.

    A `fault_share` of the requests meets a fault. Of those, a `fatal_share`
    meets it on every attempt, which ends the call with the fault's typed
    error; the rest meet a transient fault on fewer attempts than
    `RetryPolicy.attempts`.
    """
    record_set, scripts = generated
    attempts = RetryPolicy().attempts

    def schedule(url, payload):
        rng = random.Random(hashlib.sha256(seed + url.encode("utf-8") + payload).digest())
        if rng.random() >= fault_share:
            return None, 0
        if rng.random() < fatal_share:
            return rng.choice(sorted(FAULT_ERRORS)), math.inf
        return rng.choice(TRANSIENT_FAULTS), rng.randint(1, attempts - 1)

    def faulty(schedule):
        backend = ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(64))
        transport = FaultyTransport(backend_transport(backend, set()), schedule)
        return http_adapters(transport, transport.sleep), transport

    # the fault-free run, one record after another, gives each metric's
    # requests: a record starts with its faithfulness prompt, and each embed
    # request belongs to the metric of the prompt before it
    clean_bundle, clean = faulty(lambda url, payload: (None, 0))
    clean_vectors = [evaluate_record(record, clean_bundle) for record in record_set.records]
    requests = {}
    record = -1
    for url, payload, _ in clean.calls:
        if url.endswith("/generate"):
            prompt = json.loads(payload)["prompt"]
            metric = next(m for mark, m in _MARKED_METRICS if mark in prompt)
            record += metric == "faithfulness"
        requests.setdefault((record, metric), []).append((url, payload))

    def expected_error(record, metric):
        for url, payload in requests.get((record, metric), ()):
            fault, k = schedule(url, payload)
            if k == math.inf:
                return FAULT_ERRORS[fault]
        return None

    errors = [[expected_error(i, m) for m in METRICS] for i in range(len(record_set.records))]
    every_metric_fails = all(
        error is not None or not vector.result(metric).computed
        for vector, row in zip(clean_vectors, errors) for metric, error in zip(METRICS, row)
    )
    results = []
    for parallelism in (1, 4):
        bundle, transport = faulty(schedule)
        if every_metric_fails:
            with pytest.raises(SetEvaluationError):
                evaluate_set(record_set, bundle, parallelism=parallelism)
        else:
            evaluation = evaluate_set(record_set, bundle, parallelism=parallelism)
            for vector, clean_vector, row in zip(evaluation.vectors, clean_vectors, errors):
                for metric, error in zip(METRICS, row):
                    result = vector.result(metric)
                    if error is None:
                        assert result == clean_vector.result(metric)
                    else:
                        assert result.status == "failed" and result.value is None
                        assert result.diagnostics["error"].startswith(f"{error}: ")
            results.append(evaluation)
        assert max(attempt for _, _, attempt in transport.calls) <= attempts
    assert all(evaluation == results[0] for evaluation in results)


@given(st.lists(st.booleans(), min_size=1, max_size=20), st.lists(st.booleans(), min_size=1, max_size=20))
def test_scores_always_in_unit_interval(faith_flags, recall_flags):
    assert 0.0 <= faithfulness_score(verdicts(*faith_flags)) <= 1.0
    assert 0.0 <= recall_score(classification(*recall_flags)) <= 1.0


@pytest.mark.parametrize(
    "setting, value, message",
    [
        (RetryPolicy, {"attempts": 0}, "attempts must be >= 1, got 0"),
        (RetryPolicy, {"attempts": 2.0}, "attempts must be an integer, got 2.0"),
        (RetryPolicy, {"attempts": True}, "attempts must be an integer, got True"),
        (RetryPolicy, {"base_delay": -1}, "base_delay must be >= 0, got -1"),
        (RetryPolicy, {"base_delay": math.inf}, "base_delay must be a number, got inf"),
        (RetryPolicy, {"base_delay": math.nan}, "base_delay must be a number, got nan"),
        (SimilarityConfig, {"n_generated_questions": 2.5}, "n_generated_questions must be an integer, got 2.5"),
        (SimilarityConfig, {"n_generated_questions": True}, "n_generated_questions must be an integer, got True"),
        (SimilarityConfig, {"n_generated_questions": 0}, "n_generated_questions must be >= 1, got 0"),
        # refused by the config table too; built in code, a non-finite temperature
        # was posted as `Infinity`, which is not JSON, and a bool dimension failed
        # every embed with an untyped TypeError
        (GenerationParams, {"temperature": math.nan}, "temperature must be a number, got nan"),
        (GenerationParams, {"temperature": math.inf}, "temperature must be a number, got inf"),
        (GenerationParams, {"temperature": -math.inf}, "temperature must be a number, got -inf"),
        (GenerationParams, {"max_tokens": 2.5}, "max_tokens must be an integer, got 2.5"),
        (GenerationParams, {"max_tokens": True}, "max_tokens must be an integer, got True"),
        (GenerationParams, {"seed": True}, "seed must be an integer or null, got True"),
        (GenerationParams, {"seed": 2.5}, "seed must be an integer or null, got 2.5"),
        (HashEmbedder, {"dimension": True}, "dimension must be an integer, got True"),
        (HashEmbedder, {"dimension": 2.5}, "dimension must be an integer, got 2.5"),
        # one edge per bound declared in a hint, in its one wording
        (GenerationParams, {"temperature": -0.5}, "temperature must be >= 0, got -0.5"),
        (GenerationParams, {"top_p": 0}, "top_p must be in (0, 1], got 0"),
        (GenerationParams, {"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
        (SimilarityConfig, {"precision_match_threshold": 1.5}, "precision_match_threshold must be in [0, 1], got 1.5"),
        (BootstrapConfig, {"B": 0}, "B must be >= 1, got 0"),
        (BootstrapConfig, {"resample_size": 0}, "resample_size must be >= 1, got 0"),
        (BootstrapConfig, {"seed": -1}, "seed must be >= 0, got -1"),
        (BootstrapConfig, {"ci_level": 1}, "ci_level must be in (0, 1), got 1"),
        (SyntheticSpec, {"topic_label": "t", "prompt_template": "a passage and a question", "count": 0},
         "count must be >= 1, got 0"),
        (HashEmbedder, {"dimension": 0}, "dimension must be >= 1, got 0"),
    ],
)
def test_settings_that_would_fail_every_call_are_refused(setting, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        setting(**value)


def test_smallest_accepted_settings():
    assert RetryPolicy(attempts=np.int64(1), base_delay=0).attempts == 1
    assert SimilarityConfig(n_generated_questions=np.int64(1)).n_generated_questions == 1
    params = GenerationParams(max_tokens=np.int64(1), seed=np.int64(-2))
    assert (params.max_tokens, params.seed) == (1, -2)
    assert HashEmbedder(np.int64(1)).embed("a b").tolist() == [1.0]
