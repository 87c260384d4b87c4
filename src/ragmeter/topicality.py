"""Contrastive query-set analysis of document-repository topicality.

Evaluates two or more query sets against the same repository, bootstraps
each metric per set, and compares the bootstrap distributions pairwise.
Two sets are "separated" on a metric when their percentile CIs are
disjoint and the mean delta clears a minimum effect size.

Each set's values are checked, and its guidance warnings emitted, as soon
as the set is evaluated, before the next set makes a provider call. The
bootstrap runs after the last set: one :func:`ragmeter.stats.bootstrap_summaries`
call over every (set, metric) value list, which draws once per distinct n.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Annotated, Mapping, Sequence

from ragmeter.corpus import RecordSet
from ragmeter.judge import check_recall_source
from ragmeter.metrics import (
    METRICS,
    SetEvaluation,
    SetEvaluationError,
    SimilarityConfig,
    evaluate_set,
)
from ragmeter.providers import GenerationParams, ProviderBundle
from ragmeter.schema import Range, check_arguments
from ragmeter.stats import (
    BootstrapConfig,
    BootstrapSummary,
    bootstrap_summaries,
    bootstrap_summary,  # not called here; benchmarks/tracing.py wraps it under this module
    check_draw,
    check_summary_input,
)

DEFAULT_MIN_EFFECT = 0.1

# Faithfulness tends to stay high even for off-topic queries (a faithful
# summary of irrelevant passages is still faithful), so its comparisons
# carry an advisory note.
NON_DISCRIMINATIVE_NOTE = "non-discriminative expected"


def format_table(rows: list[list[str]]) -> str:
    """Rows as left-aligned columns two spaces apart, one line each."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows) + "\n"


def check_min_effect(min_effect: Annotated[float, Range(0)]) -> None:
    """Raise ValueError unless `min_effect` is a number of at least 0."""
    check_arguments(check_min_effect, locals())  # a negative effect would reduce "separated" to disjoint CIs


class TopicalityError(RuntimeError):
    """A query set could not be evaluated or summarized."""


@dataclass(frozen=True)
class QuerySetResult:
    """One query set's metric values and bootstrap summaries."""

    label: str
    values: Mapping[str, tuple[float, ...]]
    summaries: Mapping[str, BootstrapSummary]
    failure_counts: Mapping[str, int]


@dataclass(frozen=True)
class SummaryComparison:
    set_a: str
    set_b: str
    metric: str
    delta: float
    ci_overlap: bool
    separated: bool
    note: str = ""


def compare_summaries(
    a: BootstrapSummary,
    b: BootstrapSummary,
    min_effect: float = DEFAULT_MIN_EFFECT,
    *,
    metric: str = "",
    label_a: str = "a",
    label_b: str = "b",
) -> SummaryComparison:
    """Compare two bootstrap summaries of the same metric.

    Both summaries must use the same CI level. The delta is
    a.boot_mean - b.boot_mean; the verdict is "separated" only when the
    CIs are disjoint and |delta| >= min_effect, which must be at least 0.
    """
    check_min_effect(min_effect)
    if a.ci_level != b.ci_level:
        raise ValueError(f"mismatched ci_level: {a.ci_level} vs {b.ci_level}")
    delta = a.boot_mean - b.boot_mean
    overlap = a.ci_low <= b.ci_high and b.ci_low <= a.ci_high
    return SummaryComparison(
        set_a=label_a,
        set_b=label_b,
        metric=metric,
        delta=delta,
        ci_overlap=overlap,
        separated=(not overlap) and abs(delta) >= min_effect,
        note=NON_DISCRIMINATIVE_NOTE if metric == "faithfulness" else "",
    )


@dataclass(frozen=True)
class TopicalityReport:
    """Per-set summaries plus all pairwise per-metric comparisons."""

    set_results: tuple[QuerySetResult, ...]
    comparisons: tuple[SummaryComparison, ...]
    min_effect: float

    def comparison(self, set_a: str, set_b: str, metric: str) -> SummaryComparison:
        for comp in self.comparisons:
            if comp.metric == metric and {comp.set_a, comp.set_b} == {set_a, set_b}:
                return comp
        raise KeyError(f"no comparison for ({set_a}, {set_b}, {metric})")

    def to_dict(self) -> dict:
        """The JSON report: summaries and comparisons, without the metric values."""
        return {
            "min_effect": self.min_effect,
            "sets": [
                {
                    "label": result.label,
                    "summaries": {m: asdict(s) for m, s in result.summaries.items()},
                    "failure_counts": dict(result.failure_counts),
                }
                for result in self.set_results
            ],
            "comparisons": [asdict(comp) for comp in self.comparisons],
        }

    def render_table(self) -> str:
        """Aligned text: one m±e cell per set and metric, then verdicts."""
        rows = [["query_set"] + list(METRICS)]
        for result in self.set_results:
            cells = [result.label]
            for metric in METRICS:
                summary = result.summaries[metric]
                half_width = (summary.ci_high - summary.ci_low) / 2.0
                cells.append(f"{summary.boot_mean:.2f}±{half_width:.2f}")
            rows.append(cells)
        lines = ["", "pairwise comparisons (separated = disjoint CIs and |delta| >= min_effect)"]
        for comp in self.comparisons:
            verdict = "separated" if comp.separated else "not separated"
            note = f"  ({comp.note})" if comp.note else ""
            lines.append(
                f"{comp.set_a} vs {comp.set_b}  {comp.metric}: "
                f"delta={comp.delta:+.4f}  overlap={'yes' if comp.ci_overlap else 'no'}  "
                f"{verdict}{note}"
            )
        return format_table(rows) + "\n".join(lines) + "\n"


# per query set: its label, its successful values per metric and its failure counts
_SetValues = tuple[str, Mapping[str, tuple[float, ...]], Mapping[str, int]]


def _set_values(evaluation: SetEvaluation, boot_cfg: BootstrapConfig) -> _SetValues:
    """An evaluated set's successful values per metric, checked and warned about now.

    Raises TopicalityError for a metric with no successful value, and emits
    the guidance warnings :func:`bootstrap_summary` would for each metric.
    """
    values = {metric: evaluation.values(metric) for metric in METRICS}
    for metric, metric_values in values.items():
        if not metric_values:
            raise TopicalityError(f"set {evaluation.label!r}: no successful values for metric {metric}")
    for metric_values in values.values():
        check_summary_input(metric_values, boot_cfg)
    return evaluation.label, values, evaluation.failure_counts


def _summarize(sets: Sequence[_SetValues], boot_cfg: BootstrapConfig) -> list[QuerySetResult]:
    """Each set with its per-metric summaries, from one :func:`bootstrap_summaries` call over all sets."""
    summaries = iter(bootstrap_summaries([values[m] for _, values, _ in sets for m in METRICS], boot_cfg))
    return [
        QuerySetResult(label, values, {metric: next(summaries) for metric in METRICS}, failure_counts)
        for label, values, failure_counts in sets
    ]


def summarize_set_metrics(
    evaluation: SetEvaluation, boot_cfg: BootstrapConfig
) -> QuerySetResult:
    """Bootstrap every metric of one evaluated set with one shared config.

    The one-set form of :func:`run_topicality`'s bootstrap: the set's values
    are checked and warned about, then summarised by one
    :func:`ragmeter.stats.bootstrap_summaries` call, so each summary equals
    :func:`bootstrap_summary` of that metric's values.
    """
    return _summarize([_set_values(evaluation, boot_cfg)], boot_cfg)[0]


def run_topicality(
    sets: Sequence[RecordSet],
    providers: ProviderBundle,
    metric_cfg: SimilarityConfig | None = None,
    boot_cfg: BootstrapConfig | None = None,
    *,
    min_effect: float = DEFAULT_MIN_EFFECT,
    params: GenerationParams | None = None,
    parallelism: int = 1,
    recall_source: str = "auto",
) -> TopicalityReport:
    """Evaluate each query set, bootstrap per metric, compare all set pairs.

    Two sets with the same label, a `B` below 2 and an unknown
    `recall_source` raise ValueError before any provider call. A set with a metric no record computed raises
    TopicalityError before the next set is evaluated. The resample indices are drawn once per
    distinct number of values, after the last set, for every set and metric.

    Before the first set is evaluated, one buffer of `B` means per set and
    metric and the index buffers of one draw are allocated and released, the
    most the bootstrap holds at once; a failure raises ValueError before any
    provider call. An allocation the operating system overcommits lazily
    cannot be checked ahead of time: it succeeds here and fails only when
    the bootstrap writes its pages.
    """
    if len(sets) < 2:
        raise ValueError(f"need at least 2 query sets, got {len(sets)}")
    labels = [record_set.label for record_set in sets]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"two query sets are labelled {label!r}")
    check_min_effect(min_effect)
    check_recall_source(recall_source)
    boot_cfg = boot_cfg or BootstrapConfig()
    # a draw has at least one value, so empty sets stand for the smallest draw
    size = boot_cfg.resample_size or max(len(record_set.records) for record_set in sets) or 1
    check_draw(boot_cfg, len(sets) * len(METRICS), size)
    set_values: list[_SetValues] = []
    for record_set in sets:
        try:
            evaluation = evaluate_set(
                record_set,
                providers,
                metric_cfg,
                params=params,
                parallelism=parallelism,
                recall_source=recall_source,
            )
        except SetEvaluationError as exc:
            raise TopicalityError(f"set {record_set.label!r} failed: {exc}") from exc
        set_values.append(_set_values(evaluation, boot_cfg))
        del evaluation  # the summaries need only its values, so memory does not grow per set
    results = _summarize(set_values, boot_cfg)
    comparisons = tuple(
        compare_summaries(
            a.summaries[metric],
            b.summaries[metric],
            min_effect,
            metric=metric,
            label_a=a.label,
            label_b=b.label,
        )
        for a, b in combinations(results, 2)
        for metric in METRICS
    )
    return TopicalityReport(
        set_results=tuple(results), comparisons=comparisons, min_effect=min_effect
    )
