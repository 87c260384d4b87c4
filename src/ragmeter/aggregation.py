"""Relevance-statement enhancement and single-score consolidation.

The four metric scores are rendered into fixed prose statements appended to
the answer; a pair scorer then maps (query, enhanced answer) to one logit.
Logits are the primary output; the logistic-normalized value is carried
alongside. :func:`aggregate_set` scores a whole report and ranks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ragmeter.corpus import EvalRecord
from ragmeter.judge import load_template, render
from ragmeter.metrics import METRICS, MetricVector
from ragmeter.providers import PairScorer, run_calls

DEFAULT_SCORER_MODEL = "ms-marco-MiniLM-L-12-v2"


class MissingMetricError(ValueError):
    """Enhancement requires all four metrics to be computed."""

    def __init__(self, metric: str, record_id: str):
        self.metric = metric
        self.record_id = record_id
        super().__init__(f"record {record_id!r}: metric {metric} not computed")


class AggregationError(RuntimeError):
    """The pair scorer failed while consolidating a record."""


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


def _statement_paragraphs() -> list[str]:
    return load_template("enhancement.txt").splitlines()


def enhance_answer(
    record: EvalRecord, metrics: MetricVector, contexts_included: bool = True
) -> EnhancedAnswer:
    """Render the answer with the four score statements appended.

    Scores are rendered at full precision. The context block (the retrieved
    chunks as a quoted list) is included by default and dropped when
    `contexts_included` is false.
    """
    slots = {"answer": record.answer, "contexts": repr(list(record.contexts))}
    for metric in METRICS:
        result = metrics.result(metric)
        if result.value is None:
            raise MissingMetricError(metric, record.id)
        slots[metric] = repr(float(result.value))
    preamble, context_block, relevance, precision, recall, faithfulness = _statement_paragraphs()
    paragraphs = [preamble]
    if contexts_included:
        paragraphs.append(context_block)
    paragraphs += [relevance, precision, recall, faithfulness]
    return EnhancedAnswer(render("\n\n".join(paragraphs), slots))


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

    The pairs go through :func:`~ragmeter.providers.run_calls`: `parallelism`
    bounds concurrent scorer calls, an in-process scorer runs on the calling
    thread, and the first failure in record order is raised. The ranking is
    that of :func:`rank_records`, so it does not depend on `parallelism`.
    An invalid `parallelism` raises ValueError before any scorer call.
    """

    def score_one(pair: tuple[EvalRecord, MetricVector]) -> tuple[str, AggregateScore]:
        record, vector = pair
        return record.id, aggregate(record, enhance_answer(record, vector, contexts_included), scorer)

    return rank_records(run_calls(score_one, pairs, parallelism, scorer))
