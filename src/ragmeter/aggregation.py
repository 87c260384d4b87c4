"""Relevance-statement enhancement and single-score consolidation.

The four metric scores are rendered into fixed prose statements appended to
the answer; a pair scorer then maps (query, enhanced answer) to one logit.
:class:`LinearPairScorer`, the offline stub, reads the statements back.
Logits are the primary output; the logistic-normalized value is carried
alongside. :func:`aggregate_set` scores a whole report and ranks it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from ragmeter.corpus import EvalRecord
from ragmeter.judge import load_template, render
from ragmeter.metrics import METRICS, MetricVector
from ragmeter.providers import PairScorer, ProviderError, run_calls
from ragmeter.schema import check_arguments, refusal

DEFAULT_SCORER_MODEL = "ms-marco-MiniLM-L-12-v2"

# each metric's score statement, in the order the enhancement template appends them
SCORE_STATEMENTS = {
    "answer_relevance": "the answer relevancy score is:",
    "retrieval_precision": "the context precision score is:",
    "retrieval_recall": "the context recall score is:",
    "faithfulness": "the faithfulness score is:",
}


class MissingMetricError(ValueError):
    """Enhancement requires all four metrics to be computed."""

    def __init__(self, metric: str, record_id: str):
        self.metric = metric
        self.record_id = record_id
        super().__init__(f"record {record_id!r}: metric {metric} not computed")


class AggregationError(RuntimeError):
    """The pair scorer failed while consolidating a record."""


class MissingScoreStatementError(ProviderError):
    """A linear pair scorer candidate lacks one of the four score sentences."""

    def __init__(self, metric: str):
        self.metric = metric
        super().__init__(f"candidate text has no {metric} score statement")


@dataclass(frozen=True)
class EnhancedAnswer:
    rendered: str


@dataclass(frozen=True)
class AggregateScore:
    logit: float
    normalized: float


def expit(x: float) -> float:
    """Logistic function 1 / (1 + e^-x), stable for large |x|."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def enhance_answer(
    record: EvalRecord, metrics: MetricVector, contexts_included: bool = True
) -> EnhancedAnswer:
    """Render the answer with the four score statements appended.

    Paragraphs keep the template's order, which :data:`SCORE_STATEMENTS`
    follows; scores are rendered at full precision. The context block (the
    retrieved chunks as a quoted list) is dropped when `contexts_included`
    is false. A metric with no value raises :class:`MissingMetricError`, and
    one whose value is not a finite number ValueError, in `schema`'s words
    after the record id: the vector may be built by the caller.
    """
    slots = {"answer": record.answer, "contexts": repr(list(record.contexts))}
    for metric in METRICS:
        value = metrics.result(metric).value
        if value is None:
            raise MissingMetricError(metric, record.id)
        if problem := refusal(value, float, metric):
            raise ValueError(f"record {record.id!r}: {problem}")
        slots[metric] = repr(float(value))
    paragraphs = load_template("enhancement.txt").splitlines()
    if not contexts_included:
        paragraphs = [paragraph for paragraph in paragraphs if "{contexts}" not in paragraph]
    return EnhancedAnswer(render("\n\n".join(paragraphs), slots))


_SCORE_PATTERNS = {metric: re.compile(re.escape(phrase) + r"\s*(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)")
                   for metric, phrase in SCORE_STATEMENTS.items()}


class LinearPairScorer:
    """Test double scoring enhanced answers as an affine combination.

    Reads the four score statements rendered into an enhanced answer and
    returns bias + sum(w_i * score_i). Weights follow the statement order
    of :data:`SCORE_STATEMENTS`: answer relevance, context precision,
    context recall, faithfulness.
    """

    identifier = "stub:linear"
    in_process = True

    def __init__(self, weights: Sequence[float] = (1.0,) * 4, bias: float = 0.0):
        check_arguments(LinearPairScorer, locals())
        if len(weights) != 4:
            raise ValueError(f"expected 4 weights, got {len(weights)}")
        self.weights = tuple(float(w) for w in weights)
        self.bias = float(bias)

    def score(self, query: str, candidate: str) -> float:
        logit = self.bias
        for weight, value in zip(self.weights, self.extract_scores(candidate).values()):
            logit += weight * value
        return logit

    @staticmethod
    def extract_scores(candidate: str) -> dict[str, float]:
        """The four statement scores of an enhanced answer, in statement order.

        Each statement is read from its last occurrence: the statements are
        appended after the answer and the contexts, so a look-alike quoted in
        either never stands in for a score.
        """
        scores: dict[str, float] = {}
        for metric, pattern in _SCORE_PATTERNS.items():
            found = pattern.findall(candidate)
            if not found:
                raise MissingScoreStatementError(metric)
            scores[metric] = float(found[-1])
        return scores


def aggregate(record: EvalRecord, enhanced: EnhancedAnswer, scorer: PairScorer) -> AggregateScore:
    """Score (query, enhanced answer) and normalize the logit; a NaN or infinite logit is a scorer failure."""
    try:
        logit = float(scorer.score(record.query, enhanced.rendered))
    except Exception as exc:
        raise AggregationError(f"scorer failed on record {record.id!r}: {exc}") from exc
    if not math.isfinite(logit):
        raise AggregationError(f"scorer gave record {record.id!r} the non-finite logit {logit!r}")
    return AggregateScore(logit=logit, normalized=expit(logit))


def rank_records(scores: Iterable[tuple[str, AggregateScore]]) -> list[tuple[str, AggregateScore]]:
    """Descending by logit; ties broken by record id ascending."""
    return sorted(scores, key=lambda item: (-item[1].logit, item[0]))


def aggregate_set(
    pairs: Sequence[tuple[EvalRecord, MetricVector]],
    scorer: PairScorer,
    *,
    contexts_included: bool = True,
    parallelism: int = 1,
) -> list[tuple[str, AggregateScore]]:
    """Enhance and score every (record, metric vector) pair, then rank them.

    Every answer is enhanced before the first scorer call, so the first
    record lacking a metric raises :class:`MissingMetricError`, and one
    whose metric value is not a number ValueError, with no call made. The enhanced answers go through :func:`~ragmeter.providers.run_calls`:
    `parallelism` bounds concurrent scorer calls, an in-process scorer runs
    on the calling thread, and the first failure in record order is raised.
    The ranking is that of :func:`rank_records`, so it does not depend on
    `parallelism`. An invalid `parallelism` raises ValueError before any
    scorer call.
    """
    enhanced = [(record, enhance_answer(record, vector, contexts_included)) for record, vector in pairs]
    return rank_records(run_calls(lambda pair: (pair[0].id, aggregate(*pair, scorer)), enhanced, parallelism, scorer))
