"""Per-record scoring: the four judged quality metrics and set-level means.

Each record yields faithfulness, answer relevance, retrieval recall and
retrieval precision in [0, 1]. Sub-metric failures are isolated: a failed
metric is marked as such and excluded from set means rather than imputed
as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    parse_faithfulness_verdicts,
    parse_generated_question,
    parse_precision_extraction,
    parse_recall_classification,
    recall_source_text,
    segment_sentences,
)
from ragmeter.providers import Embedder, GenerationParams, ProviderBundle, run_calls

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

    precision_match_threshold: float = 0.8
    n_generated_questions: int = 3

    def __post_init__(self):
        if not 0.0 <= self.precision_match_threshold <= 1.0:
            raise ValueError(
                f"precision_match_threshold must be in [0, 1], got {self.precision_match_threshold}"
            )
        if self.n_generated_questions < 1:
            raise ValueError(
                f"n_generated_questions must be >= 1, got {self.n_generated_questions}"
            )


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
    """Per-record vectors plus per-metric means over successful records."""

    label: str
    vectors: tuple[MetricVector, ...]
    means: Mapping[str, float | None]
    failure_counts: Mapping[str, int]


def faithfulness_score(verdicts: FaithfulnessVerdicts) -> float:
    """Fraction of statements judged supported."""
    return sum(verdicts.verdicts) / len(verdicts.verdicts)


def recall_score(classification: RecallClassification) -> float:
    """Fraction of sentences classified as supported by the context."""
    return sum(classification.supported) / len(classification.supported)


_BELOW_ONE = 1.0 - 1e-6
_TINY_NORMS = 2.0**-1000


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity; 0 when either vector has zero norm.

    Clamped to [-1, 1] to absorb rounding noise; equal nonzero vectors give
    exactly 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # both norms are at least sqrt of the least subnormal, so the product is
    # never 0 and the float division cannot raise
    norms = nu * nv
    ratio = float(np.dot(u, v)) / norms
    # equal vectors give a ratio within rounding of 1, or NaN when they hold
    # an inf; only a product of norms outside the normal range can lose that
    # precision. Elsewhere the O(d) equality test cannot answer 1 and is skipped.
    if not (ratio < _BELOW_ONE and _TINY_NORMS < norms < math.inf) and np.array_equal(u, v):
        return 1.0
    return min(1.0, max(-1.0, ratio))


def _finite_embed(embedder: Embedder, text: str) -> np.ndarray:
    """`embedder.embed(text)`, raising NonFiniteEmbeddingError for a vector with a NaN or inf."""
    vec = np.asarray(embedder.embed(text), dtype=float)
    # a finite squared norm proves every component finite; only an overflow
    # needs the elementwise test
    if not math.isfinite(vec.dot(vec)) and not np.isfinite(vec).all():
        raise NonFiniteEmbeddingError("embedder returned a vector with a NaN or infinite component")
    return vec


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
    candidate_vectors = None
    relevant: list[str] = []
    similarities: list[float] = []
    for sentence in context_sentences:
        if sentence.strip() in exact:
            relevant.append(sentence)
            similarities.append(1.0)
            continue
        if candidate_vectors is None:
            candidate_vectors = [_finite_embed(embedder, c) for c in candidates]
        best = max(cosine(_finite_embed(embedder, sentence), cv) for cv in candidate_vectors)
        similarities.append(best)
        if best >= cfg.precision_match_threshold:
            relevant.append(sentence)
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
    query_vector = _finite_embed(embedder, original_query)
    raw = [cosine(query_vector, _finite_embed(embedder, q)) for q in questions.questions]
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
    judge calls; faithfulness and relevance are still computed.
    """
    if not record.answer.strip():
        raise ValueError(f"record {record.id!r} has an empty answer")
    cfg = cfg or SimilarityConfig()
    generator, embedder = providers.generator, providers.embedder

    # each step returns (score, details); a "degenerate" detail marks the score degenerate
    def faithfulness() -> tuple[float, dict]:
        statements = segment_sentences(record.answer)
        prompt = build_faithfulness_prompt(record, statements)
        transcript = generator.complete(prompt, params)
        verdicts = parse_faithfulness_verdicts(transcript, len(statements), statements)
        return faithfulness_score(verdicts), {
            "statements": statements, "verdicts": list(verdicts.verdicts), "transcript": transcript
        }

    def recall() -> tuple[float, dict]:
        source_text = recall_source_text(record, recall_source)
        sentences = segment_sentences(source_text)
        prompt = build_recall_prompt(record, recall_source)
        transcript = generator.complete(prompt, params)
        classification = parse_recall_classification(transcript, len(sentences), sentences)
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
        details["insufficient"] = extraction.insufficient
        details["transcript"] = transcript
        return score, details

    def relevance() -> tuple[float, dict]:
        prompt = build_question_gen_prompt(record.answer)
        transcripts = [generator.complete(prompt, params) for _ in range(cfg.n_generated_questions)]
        questions = GeneratedQuestions(
            tuple(parse_generated_question(t) for t in transcripts), tuple(transcripts)
        )
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
    its record id, metric and error text. Raises ValueError for
    `parallelism` below 1.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if not record_set.records:
        raise SetEvaluationError(f"record set {record_set.label!r} is empty")

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

    means: dict[str, float | None] = {}
    failure_counts: dict[str, int] = {}
    for metric in METRICS:
        values = [
            vector.result(metric).value for vector in vectors if vector.result(metric).computed
        ]
        failure_counts[metric] = len(vectors) - len(values)
        means[metric] = math.fsum(values) / len(values) if values else None
    return SetEvaluation(
        label=record_set.label, vectors=vectors, means=means, failure_counts=failure_counts
    )
