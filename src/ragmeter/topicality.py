"""Contrastive query-set analysis of document-repository topicality.

Evaluates two or more query sets against the same repository, bootstraps
each metric per set, and compares the bootstrap distributions pairwise.
Two sets are "separated" on a metric when their percentile CIs are
disjoint and the mean delta clears a minimum effect size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Mapping, Sequence

from ragmeter.corpus import RecordSet
from ragmeter.metrics import (
    METRICS,
    SetEvaluation,
    SetEvaluationError,
    SimilarityConfig,
    evaluate_set,
)
from ragmeter.providers import GenerationParams, ProviderBundle
from ragmeter.stats import BootstrapConfig, BootstrapSummary, bootstrap_summary, shared_resample_means

DEFAULT_MIN_EFFECT = 0.1

# Faithfulness tends to stay high even for off-topic queries (a faithful
# summary of irrelevant passages is still faithful), so its comparisons
# carry an advisory note.
NON_DISCRIMINATIVE_NOTE = "non-discriminative expected"


def format_table(rows: list[list[str]]) -> str:
    """Rows as left-aligned columns two spaces apart, one line each."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows) + "\n"


def _check_min_effect(min_effect: float) -> None:
    if not min_effect >= 0:  # a negative effect would reduce "separated" to disjoint CIs
        raise ValueError(f"min_effect must be at least 0, got {min_effect!r}")


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
    _check_min_effect(min_effect)
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


def summarize_set_metrics(
    evaluation: SetEvaluation, boot_cfg: BootstrapConfig
) -> QuerySetResult:
    """Bootstrap every metric of an evaluated set with one shared config.

    Metrics with the same number of successful values (all four, unless
    some records failed a metric) share one draw of resample indices:
    resample `s` depends only on (seed, s, n, size), so one chunked draw per
    distinct n gives each metric the means its own draw would. Draws are
    never shared across sets.
    """
    values: dict[str, tuple[float, ...]] = {}
    for metric in METRICS:
        metric_values = tuple(
            float(v.result(metric).value)
            for v in evaluation.vectors
            if v.result(metric).computed
        )
        if not metric_values:
            raise TopicalityError(
                f"set {evaluation.label!r}: no successful values for metric {metric}"
            )
        values[metric] = metric_values
    by_n: dict[int, list[str]] = {}
    for metric, metric_values in values.items():
        by_n.setdefault(len(metric_values), []).append(metric)
    means = {}
    for group in by_n.values():
        means.update(zip(group, shared_resample_means([values[m] for m in group], boot_cfg)))
    return QuerySetResult(
        label=evaluation.label,
        values=values,
        summaries={m: bootstrap_summary(values[m], boot_cfg, means=means[m]) for m in METRICS},
        failure_counts=evaluation.failure_counts,
    )


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
    """Evaluate each query set, bootstrap per metric, compare all set pairs."""
    if len(sets) < 2:
        raise ValueError(f"need at least 2 query sets, got {len(sets)}")
    _check_min_effect(min_effect)
    boot_cfg = boot_cfg or BootstrapConfig()
    results: list[QuerySetResult] = []
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
        results.append(summarize_set_metrics(evaluation, boot_cfg))
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
