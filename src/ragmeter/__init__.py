"""Batch evaluation engine for retrieval-augmented generation systems.

Scores records on four judged quality metrics, consolidates them into a
single ranking logit via relevance-statement enhancement and a pair
scorer, and characterizes metric uncertainty and repository topicality
with seeded bootstrap statistics.
"""

from ragmeter.aggregation import AggregateScore, EnhancedAnswer, LinearPairScorer, aggregate, enhance_answer, expit, rank_records
from ragmeter.corpus import EvalRecord, QrelsEntry, RecordSet, SyntheticSpec
from ragmeter.metrics import MetricResult, MetricVector, SimilarityConfig, evaluate_record, evaluate_set
from ragmeter.providers import (
    Embedder,
    GenerationParams,
    HashEmbedder,
    PairScorer,
    ProviderBundle,
    ScriptedGenerator,
    TextGenerator,
)
from ragmeter.stats import BootstrapConfig, BootstrapSummary, bootstrap_summaries, bootstrap_summary, convergence_trace, percentile, resample_means, shared_resample_means, unbiasedness_check
from ragmeter.topicality import TopicalityReport, compare_summaries, run_topicality

__version__ = "0.1.0"

__all__ = [
    "AggregateScore",
    "BootstrapConfig",
    "BootstrapSummary",
    "Embedder",
    "EnhancedAnswer",
    "EvalRecord",
    "GenerationParams",
    "HashEmbedder",
    "LinearPairScorer",
    "MetricResult",
    "MetricVector",
    "PairScorer",
    "ProviderBundle",
    "QrelsEntry",
    "RecordSet",
    "ScriptedGenerator",
    "SimilarityConfig",
    "SyntheticSpec",
    "TextGenerator",
    "TopicalityReport",
    "aggregate",
    "bootstrap_summaries",
    "bootstrap_summary",
    "compare_summaries",
    "convergence_trace",
    "enhance_answer",
    "evaluate_record",
    "evaluate_set",
    "expit",
    "percentile",
    "rank_records",
    "resample_means",
    "run_topicality",
    "shared_resample_means",
    "unbiasedness_check",
]
