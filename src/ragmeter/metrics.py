"""Per-record scoring: the four judged quality metrics and set-level means.

Each record yields faithfulness, answer relevance, retrieval recall and
retrieval precision in [0, 1]. Sub-metric failures are isolated: a failed
metric is marked as such and excluded from set means rather than imputed
as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Annotated, Mapping, Sequence

import numpy as np

from ragmeter.corpus import EvalRecord, RecordSet
from ragmeter.judge import (
    FaithfulnessVerdicts,
    GeneratedQuestions,
    PrecisionExtraction,
    RecallClassification,
    build_faithfulness_prompt,
    build_precision_prompt,
    build_question_gen_prompt,
    build_recall_prompt,
    check_recall_source,
    parse_faithfulness_verdicts,
    parse_generated_question,
    parse_precision_extraction,
    parse_recall_classification,
    recall_source_text,
    segment_sentences,
)
from ragmeter.providers import Embedder, GenerationParams, ProviderBundle, row_dots, run_calls
from ragmeter.schema import Range, check_fields

METRICS = ("faithfulness", "answer_relevance", "retrieval_recall", "retrieval_precision")

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_FAILED = "failed"


class SetEvaluationError(RuntimeError):
    """A record set could not be evaluated at all."""


class NonFiniteEmbeddingError(ValueError):
    """An embedder returned a vector with a NaN or infinite component."""


@dataclass(frozen=True)
class SimilarityConfig:
    """Knobs for the embedding-based metric steps."""

    precision_match_threshold: Annotated[float, Range(0, 1)] = 0.8
    n_generated_questions: Annotated[int, Range(1)] = 3

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class MetricResult:
    """One metric's score, status and diagnostic payload."""

    value: float | None
    status: str
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    @property
    def computed(self) -> bool:
        return self.status != STATUS_FAILED

    @staticmethod
    def failed(error: BaseException) -> MetricResult:
        return MetricResult(
            None, STATUS_FAILED, {"error": f"{type(error).__name__}: {error}"}
        )


@dataclass(frozen=True)
class MetricVector:
    """The four per-record scores plus diagnostics."""

    record_id: str
    faithfulness: MetricResult
    answer_relevance: MetricResult
    retrieval_recall: MetricResult
    retrieval_precision: MetricResult

    def result(self, metric: str) -> MetricResult:
        if metric not in METRICS:
            raise KeyError(metric)
        return getattr(self, metric)

    def scores(self) -> dict[str, float | None]:
        return {metric: self.result(metric).value for metric in METRICS}


@dataclass(frozen=True)
class SetEvaluation:
    """Per-record vectors; their per-metric values, means and failure counts are read from them."""

    label: str
    vectors: tuple[MetricVector, ...]

    def values(self, metric: str) -> tuple[float, ...]:
        """The metric's successful values, in record order."""
        return tuple(float(v.result(metric).value) for v in self.vectors if v.result(metric).computed)

    @cached_property
    def means(self) -> dict[str, float | None]:
        """Each metric's mean over its successful values; None when it has none."""
        values = {metric: self.values(metric) for metric in METRICS}
        return {metric: math.fsum(v) / len(v) if v else None for metric, v in values.items()}

    @cached_property
    def failure_counts(self) -> dict[str, int]:
        """Each metric's number of records whose metric failed."""
        return {metric: len(self.vectors) - len(self.values(metric)) for metric in METRICS}


def faithfulness_score(verdicts: FaithfulnessVerdicts) -> float:
    """Fraction of statements judged supported."""
    return sum(verdicts.verdicts) / len(verdicts.verdicts)


def recall_score(classification: RecallClassification) -> float:
    """Fraction of sentences classified as supported by the context."""
    return sum(classification.supported) / len(classification.supported)


_BELOW_ONE = 1.0 - 1e-6
_TINY_NORMS = 2.0**-1000


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity of two 1-d vectors: the one-pair form of `_best_similarities`.

    0 when either vector has zero norm, exactly 1 for equal vectors, clamped
    to [-1, 1]. Raises ValueError for input that is not 1-d and for vectors
    of different lengths.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError(f"cosine takes 1-d vectors, got shapes {u.shape} and {v.shape}")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    matrix = np.stack([u, v])
    return float(_best_similarities(matrix, row_dots(matrix, matrix), [1], [0])[0])


def _embeddings(
    embedder: Embedder, texts: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """`(matrix, squares, index)`: one embedding row per distinct text, their squared norms, and each text's row.

    `matrix[index[i]]` is the embedding of `texts[i]`, and the rows follow
    the texts' first occurrences. An embedder with `embed_many` answers in
    one call that asks for each distinct text once, in that order.
    Otherwise `embed` is called once per text, repeats included, in order,
    and each reply is tested as it arrives, so a bad vector stops the
    requests; a repeated text's row holds its last reply. Raises
    NonFiniteEmbeddingError for a NaN or infinite component and ValueError
    for vectors of different shapes.
    """
    rows: dict[str, int] = {}
    index = [rows.setdefault(text, len(rows)) for text in texts]
    embed_many = getattr(embedder, "embed_many", None)
    if embed_many is not None:
        matrix = np.asarray(embed_many(list(rows)), dtype=float)
        if matrix.ndim != 2 or len(matrix) != len(rows):
            raise ValueError(f"embed_many gave shape {matrix.shape} for {len(rows)} texts")
    else:
        matrix = None
        for text, row in zip(texts, index):
            vec = np.asarray(embedder.embed(text), dtype=float)
            if not np.isfinite(vec).all():
                raise NonFiniteEmbeddingError("embedder returned a vector with a NaN or infinite component")
            if matrix is None:
                if vec.ndim != 1:
                    raise ValueError(f"embedder returned shape {vec.shape}, not a 1-d vector")
                matrix = np.empty((len(rows), len(vec)))
            elif vec.shape != matrix.shape[1:]:
                raise ValueError(f"dimension mismatch: {vec.shape} vs {matrix.shape[1:]}")
            matrix[row] = vec
    squares = row_dots(matrix, matrix)
    # finite squared norms prove every component finite; only an overflow
    # needs the elementwise test over the matrix
    if not np.isfinite(squares).all() and not np.isfinite(matrix).all():
        raise NonFiniteEmbeddingError("embedder returned a vector with a NaN or infinite component")
    return matrix, squares, index


def _best_similarities(
    matrix: np.ndarray, squares: np.ndarray, candidate_rows: Sequence[int], sentence_rows: Sequence[int]
) -> np.ndarray:
    """Each sentence's best cosine against the candidates: the one similarity computation.

    `candidate_rows` and `sentence_rows` give the rows of `matrix`, and of
    `squares`, their squared norms, one per candidate and one per sentence.
    Each pair's dot comes from `row_dots`, so it has the bits of
    `np.einsum("j,j->", u, v)`. A zero norm gives 0, equal vectors give
    exactly 1, a NaN gives -1, and each sentence's max over the candidates
    is clamped to [-1, 1].
    """
    norms = np.sqrt(squares)
    candidate_norms = norms[candidate_rows]
    sentence_norms = norms[sentence_rows]
    block = matrix[sentence_rows]
    candidates = matrix[candidate_rows]
    dots = row_dots(block[:, None, :], candidates[None, :, :])
    with np.errstate(all="ignore"):
        products = sentence_norms[:, None] * candidate_norms
        ratios = dots / products
    # only a ratio near 1, a NaN or a product of norms outside the normal
    # range (0 or NaN with a zero norm) can hide a zero norm or an equal pair;
    # elsewhere the O(d) equality test cannot answer 1 and is skipped
    unsure = ~((ratios < _BELOW_ONE) & (products > _TINY_NORMS) & (products < math.inf))
    if unsure.any():
        for s, c in zip(*np.nonzero(unsure)):
            if sentence_norms[s] == 0.0 or candidate_norms[c] == 0.0:
                ratios[s, c] = 0.0
            elif np.array_equal(block[s], candidates[c]):
                ratios[s, c] = 1.0
            elif math.isnan(ratios[s, c]):
                ratios[s, c] = -1.0
    return np.minimum(np.maximum(ratios.max(axis=1), -1.0), 1.0)


def _precision_details(
    extraction: PrecisionExtraction,
    contexts: Sequence[str],
    embedder: Embedder,
    cfg: SimilarityConfig,
) -> tuple[float, dict]:
    if extraction.insufficient:
        return 0.0, {"degenerate": "insufficient_extraction"}
    context_sentences = [s for chunk in contexts for s in segment_sentences(chunk)]
    if not context_sentences:
        return 0.0, {"degenerate": "no_context_sentences"}
    candidates = list(extraction.candidate_sentences)
    exact = {c.strip() for c in candidates}
    others = [s for s in context_sentences if s.strip() not in exact]
    best = iter(())
    if others:
        # the candidates, then each other sentence once per candidate, as an
        # `embed` loop asks for them
        texts = candidates + [s for s in others for _ in candidates]
        matrix, squares, index = _embeddings(embedder, texts)
        count = len(candidates)
        best = iter(_best_similarities(matrix, squares, index[:count], index[count::count]).tolist())
    similarities = [1.0 if s.strip() in exact else next(best) for s in context_sentences]
    relevant = [
        s for s, similarity in zip(context_sentences, similarities)
        if similarity >= cfg.precision_match_threshold
    ]
    score = len(relevant) / len(context_sentences)
    return score, {
        "context_sentences": context_sentences,
        "matched_sentences": relevant,
        "similarities": similarities,
        "threshold": cfg.precision_match_threshold,
    }


def precision_score(
    extraction: PrecisionExtraction,
    contexts: Sequence[str],
    embedder: Embedder,
    cfg: SimilarityConfig,
) -> float:
    """Fraction of context sentences matched by an extracted candidate.

    A context sentence counts as relevant when it equals a candidate
    verbatim or its best cosine similarity against any candidate reaches
    the configured threshold. Insufficient extractions and sentence-free
    contexts score 0.
    """
    score, _ = _precision_details(extraction, contexts, embedder, cfg)
    return score


def _relevance_details(
    original_query: str, questions: GeneratedQuestions, embedder: Embedder
) -> tuple[float, dict]:
    # the query is the one candidate and each question a sentence
    matrix, squares, index = _embeddings(embedder, [original_query, *questions.questions])
    raw = _best_similarities(matrix, squares, index[:1], index[1:]).tolist()
    clamped = [min(max(c, 0.0), 1.0) for c in raw]
    score = math.fsum(clamped) / len(clamped)
    return score, {"generated_questions": list(questions.questions), "cosines": raw}


def answer_relevance_score(
    original_query: str, questions: GeneratedQuestions, embedder: Embedder
) -> float:
    """Mean cosine similarity between the query and regenerated questions.

    Each cosine is clamped to [0, 1] before averaging so the score range
    holds even for opposed embeddings.
    """
    score, _ = _relevance_details(original_query, questions, embedder)
    return score


def evaluate_record(
    record: EvalRecord,
    providers: ProviderBundle,
    cfg: SimilarityConfig | None = None,
    *,
    params: GenerationParams | None = None,
    recall_source: str = "auto",
) -> MetricVector:
    """Run all four metrics for one record; failures stay isolated per metric.

    Raw judge transcripts are retained in each metric's diagnostics. Records
    with empty contexts get degenerate 0.0 recall and precision without any
    judge calls; faithfulness and relevance are still computed. An empty
    answer and an unknown `recall_source` raise ValueError before any call.
    """
    if not record.answer.strip():
        raise ValueError(f"record {record.id!r} has an empty answer")
    check_recall_source(recall_source)
    cfg = cfg or SimilarityConfig()
    generator, embedder = providers.generator, providers.embedder

    # each step returns (score, details); a "degenerate" detail marks the score degenerate
    def faithfulness() -> tuple[float, dict]:
        statements = segment_sentences(record.answer)
        prompt = build_faithfulness_prompt(record, statements)
        transcript = generator.complete(prompt, params)
        verdicts = parse_faithfulness_verdicts(transcript, len(statements))
        return faithfulness_score(verdicts), {
            "statements": statements, "verdicts": list(verdicts.verdicts), "transcript": transcript
        }

    def recall() -> tuple[float, dict]:
        source_text = recall_source_text(record, recall_source)
        sentences = segment_sentences(source_text)
        prompt = build_recall_prompt(record, recall_source)
        transcript = generator.complete(prompt, params)
        classification = parse_recall_classification(transcript, len(sentences))
        return recall_score(classification), {
            "sentences": sentences,
            "supported": list(classification.supported),
            "transcript": transcript,
        }

    def precision() -> tuple[float, dict]:
        prompt = build_precision_prompt(record)
        transcript = generator.complete(prompt, params)
        extraction = parse_precision_extraction(transcript)
        score, details = _precision_details(extraction, record.contexts, embedder, cfg)
        details["candidates"] = list(extraction.candidate_sentences)
        details["transcript"] = transcript
        return score, details

    def relevance() -> tuple[float, dict]:
        prompt = build_question_gen_prompt(record.answer)
        transcripts = [generator.complete(prompt, params) for _ in range(cfg.n_generated_questions)]
        questions = GeneratedQuestions(tuple(parse_generated_question(t) for t in transcripts))
        score, details = _relevance_details(record.query, questions, embedder)
        details["transcripts"] = transcripts
        return score, details

    results: dict[str, MetricResult] = {}
    for metric, step, needs_contexts in (
        ("faithfulness", faithfulness, False),
        ("retrieval_recall", recall, True),
        ("retrieval_precision", precision, True),
        ("answer_relevance", relevance, False),
    ):
        if needs_contexts and not record.contexts:
            score, details = 0.0, {"degenerate": "no_contexts"}
        else:
            try:
                score, details = step()
            except Exception as exc:
                results[metric] = MetricResult.failed(exc)
                continue
        status = STATUS_DEGENERATE if "degenerate" in details else STATUS_OK
        results[metric] = MetricResult(score, status, details)
    return MetricVector(record_id=record.id, **results)


def evaluate_set(
    record_set: RecordSet,
    providers: ProviderBundle,
    cfg: SimilarityConfig | None = None,
    *,
    params: GenerationParams | None = None,
    parallelism: int = 1,
    recall_source: str = "auto",
) -> SetEvaluation:
    """Evaluate every record with bounded parallelism and report set means.

    Records go through :func:`~ragmeter.providers.run_calls`: `parallelism`
    bounds concurrent records, and a bundle whose generator and embedder
    are in process runs them on the calling thread, since threads would only
    contend for the interpreter; the scorer is never called here, so it
    does not count. A record whose evaluation raises gets every metric
    failed. Means are taken per metric over records whose metric succeeded.
    Raises :class:`SetEvaluationError` for an empty set, and when every
    metric of every record failed, naming the first failure in record order:
    its record id, metric and error text. An unknown `recall_source` and an
    invalid `parallelism` raise ValueError before any provider call.
    """
    if not record_set.records:
        raise SetEvaluationError(f"record set {record_set.label!r} is empty")
    check_recall_source(recall_source)

    def run_one(record: EvalRecord) -> MetricVector:
        try:
            return evaluate_record(record, providers, cfg, params=params, recall_source=recall_source)
        except Exception as exc:
            failed = MetricResult.failed(exc)
            return MetricVector(record.id, failed, failed, failed, failed)

    vectors = tuple(run_calls(run_one, record_set.records, parallelism, providers.generator, providers.embedder))

    if all(
        all(vector.result(m).status == STATUS_FAILED for m in METRICS) for vector in vectors
    ):
        first = vectors[0]
        raise SetEvaluationError(
            f"every record in set {record_set.label!r} failed; first failure: record "
            f"{first.record_id!r} {METRICS[0]}: {first.result(METRICS[0]).diagnostics['error']}"
        )
    return SetEvaluation(label=record_set.label, vectors=vectors)
