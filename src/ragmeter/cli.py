"""Command-line orchestration: configuration, pipeline runs, report emission.

Commands: evaluate, aggregate, bootstrap, topicality, synth. Every run
writes machine-readable JSON, an aligned-text table, and a manifest that
records the resolved configuration and seeds so the run can be reproduced
exactly. Output files are written atomically (temp then rename).

Exit codes: 0 ok (possibly with per-record failures reported), 2 config or
input-format error, 3 provider error, 4 empty input, 5 missing metric field
in an upstream report, 6 invalid statistics parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ragmeter import aggregation, metrics, stats, topicality
from ragmeter.corpus import (
    EvalRecord,
    RecordFileError,
    SyntheticGenerationError,
    SyntheticSpec,
    generate_synthetic,
    load_record_set,
    save_record_set,
)
from ragmeter.metrics import METRICS, MetricResult, MetricVector, SimilarityConfig
from ragmeter.providers import (
    EndpointConfig,
    GenerationParams,
    HashEmbedder,
    HttpEmbedder,
    HttpGenerator,
    HttpPairScorer,
    LinearPairScorer,
    ProviderBundle,
    ProviderError,
    ScriptedGenerator,
)
from ragmeter.stats import BootstrapConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_EMPTY_INPUT = 4
EXIT_MISSING_METRIC = 5
EXIT_BAD_STATS = 6


class ConfigError(ValueError):
    """The run configuration or an input file is unusable."""


class EmptyInputError(ValueError):
    """An input file contains no records or values."""


@dataclass
class RunConfig:
    """Fully resolved run configuration plus its serializable echo."""

    raw: dict
    base_dir: Path
    providers_mode: str
    generation: GenerationParams
    similarity: SimilarityConfig
    bootstrap: BootstrapConfig
    checkpoints: list[int] | None
    min_effect: float
    parallelism: int
    seed: int
    contexts_included: bool
    recall_source: str
    strict_parsing: bool
    record_format: str


_CONFIG_DEFAULTS = {
    "providers": {"mode": "stub", "stub": {}, "http": {}},
    "generation": {"temperature": 0.0, "top_p": 0.01, "max_tokens": 1024, "seed": None},
    "metrics": {"precision_match_threshold": 0.8, "n_generated_questions": 3},
    "bootstrap": {"B": 1000, "resample_size": None, "seed": 0, "ci_level": 0.95, "checkpoints": None},
    "topicality": {"min_effect": 0.1},
    "flags": {"contexts_included": True, "recall_source": "auto", "strict_parsing": True},
    "parallelism": 1,
    "seed": 0,
    "record_format": "structured-lines",
}


def _merge_defaults(doc: dict) -> dict:
    merged: dict = {}
    for key, default in _CONFIG_DEFAULTS.items():
        if isinstance(default, dict):
            section = doc.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            merged[key] = {**default, **section}
        else:
            merged[key] = doc.get(key, default)
    return merged


def load_config(path: str | Path, *, seed: int | None = None, parallelism: int | None = None,
                providers_mode: str | None = None) -> RunConfig:
    """Load and resolve a JSON config file, applying CLI overrides.

    A manifest written by a previous run is also accepted: its embedded
    `config` object is used, which makes any run reproducible from its
    manifest alone.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg} (line {exc.lineno})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if "config" in doc and "command" in doc:  # a manifest from a previous run
        doc = doc["config"]
    raw = _merge_defaults(doc)
    if seed is not None:
        raw["seed"] = seed
        raw["bootstrap"]["seed"] = seed
    if parallelism is not None:
        raw["parallelism"] = parallelism
    if providers_mode is not None:
        raw["providers"]["mode"] = providers_mode

    mode = raw["providers"]["mode"]
    if mode not in ("stub", "http"):
        raise ConfigError(f"providers.mode must be 'stub' or 'http', got {mode!r}")
    stub = raw["providers"]["stub"]
    if isinstance(stub, dict) and stub.get("scripts"):
        # make the echoed config location-independent so a manifest replays
        # from any directory
        stub["scripts"] = str((path.parent / stub["scripts"]).resolve())
    try:
        generation = GenerationParams(**raw["generation"])
        similarity = SimilarityConfig(**raw["metrics"])
        boot_section = dict(raw["bootstrap"])
        checkpoints = boot_section.pop("checkpoints")
        bootstrap = BootstrapConfig(**boot_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None
    if checkpoints is not None and (
        not isinstance(checkpoints, list) or not all(isinstance(c, int) for c in checkpoints)
    ):
        raise ConfigError("bootstrap.checkpoints must be a list of integers")
    flags = raw["flags"]
    recall_source = flags["recall_source"]
    if recall_source not in ("auto", "ground_truth", "answer"):
        raise ConfigError(f"flags.recall_source {recall_source!r} is not recognized")
    return RunConfig(
        raw=raw,
        base_dir=path.parent,
        providers_mode=mode,
        generation=generation,
        similarity=similarity,
        bootstrap=bootstrap,
        checkpoints=checkpoints,
        min_effect=float(raw["topicality"]["min_effect"]),
        parallelism=int(raw["parallelism"]),
        seed=int(raw["seed"]),
        contexts_included=bool(flags["contexts_included"]),
        recall_source=recall_source,
        strict_parsing=bool(flags["strict_parsing"]),
        record_format=str(raw["record_format"]),
    )


def _load_scripts(config: RunConfig) -> ScriptedGenerator:
    stub = config.raw["providers"]["stub"]
    scripts_path = stub.get("scripts")
    transcripts: dict = {}
    if scripts_path:
        path = Path(scripts_path)
        if not path.is_absolute():
            path = config.base_dir / path
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read scripts file {path}: {exc}") from None
        entries = doc.get("scripts", []) if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ConfigError(f"scripts file {path} must be an object whose 'scripts' is a list of objects")
        for entry in entries:
            match = entry.get("match")
            needles = tuple(match) if isinstance(match, list) else (str(match),)
            responses = entry.get("responses")
            if responses is None:
                responses = [entry.get("response", "")]
            transcripts[needles] = list(responses)
    return ScriptedGenerator(
        transcripts, strict=config.strict_parsing, fallback=str(stub.get("fallback", ""))
    )


def build_providers(config: RunConfig) -> ProviderBundle:
    """Construct the generator/embedder/scorer trio the config describes."""
    if config.providers_mode == "stub":
        stub = config.raw["providers"]["stub"]
        embedder_cfg = stub.get("embedder", {})
        scorer_cfg = stub.get("scorer", {})
        try:
            embedder = HashEmbedder(
                int(embedder_cfg.get("dimension", 256)),
                embedder_cfg.get("keyword_channels") or {},
                keyword_boost=float(embedder_cfg.get("keyword_boost", 4.0)),
            )
            scorer = LinearPairScorer(
                scorer_cfg.get("weights", (1.0, 1.0, 1.0, 1.0)),
                float(scorer_cfg.get("bias", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid stub provider config: {exc}") from None
        return ProviderBundle(_load_scripts(config), embedder, scorer)

    http = config.raw["providers"]["http"]

    def endpoint(name: str, **defaults) -> EndpointConfig:
        section = http.get(name)
        if not isinstance(section, dict) or "url" not in section:
            raise ConfigError(f"providers.http.{name} must define at least a url")
        try:
            return EndpointConfig(**{**defaults, **section})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"providers.http.{name}: {exc}") from None

    return ProviderBundle(
        HttpGenerator(endpoint("generator")),
        HttpEmbedder(endpoint("embedder")),
        HttpPairScorer(endpoint("scorer", model=aggregation.DEFAULT_SCORER_MODEL))
        if "scorer" in http
        else None,
    )


def _provider_ids(providers: ProviderBundle) -> dict:
    return {
        "generator": getattr(providers.generator, "identifier", "unknown"),
        "embedder": getattr(providers.embedder, "identifier", "unknown"),
        "scorer": getattr(providers.scorer, "identifier", None) if providers.scorer else None,
    }


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, doc: object) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _write_manifest(out_dir: Path, command: str, config: RunConfig, providers: ProviderBundle | None,
                    inputs: list[str], outputs: list[str], extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "seed": config.seed,
        "providers": _provider_ids(providers) if providers else None,
        "thresholds": {
            "precision_match_threshold": config.similarity.precision_match_threshold,
            "min_effect": config.min_effect,
        },
        "config": config.raw,
    }
    if extra:
        manifest.update(extra)
    _write_json(out_dir / f"{command}.manifest.json", manifest)


def _fmt_value(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed, parallelism=args.parallelism,
                         providers_mode=args.providers)
    providers = build_providers(config)
    record_set = load_record_set(args.records, config.record_format)
    if not record_set.records:
        raise EmptyInputError(f"record file {args.records} contains no records")
    evaluation = metrics.evaluate_set(
        record_set,
        providers,
        config.similarity,
        params=config.generation,
        parallelism=config.parallelism,
        recall_source=config.recall_source,
    )
    report = {
        "label": evaluation.label,
        "means": dict(evaluation.means),
        "failure_counts": dict(evaluation.failure_counts),
        "records": [
            {
                **record.to_dict(),
                "metrics": {
                    m: {"value": vector.result(m).value, "status": vector.result(m).status}
                    for m in METRICS
                },
            }
            for record, vector in zip(record_set.records, evaluation.vectors)
        ],
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "metrics.json", report)
    rows = [["id"] + list(METRICS)]
    for vector in evaluation.vectors:
        rows.append([vector.record_id] + [_fmt_value(vector.result(m).value) for m in METRICS])
    rows.append(["mean"] + [_fmt_value(evaluation.means[m]) for m in METRICS])
    rows.append(["failures"] + [str(evaluation.failure_counts[m]) for m in METRICS])
    _atomic_write(out_dir / "metrics.txt", f"set: {evaluation.label}\n" + topicality.format_table(rows))
    _write_manifest(
        out_dir, "evaluate", config, providers, [str(args.records)],
        ["metrics.json", "metrics.txt"],
        extra={"failure_counts": dict(evaluation.failure_counts)},
    )
    return EXIT_OK


def _vector_from_report(entry: dict) -> tuple[EvalRecord, MetricVector]:
    if not isinstance(entry, dict):
        raise ConfigError(f"metrics report entry must be an object: {entry!r}")
    metrics = entry.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ConfigError(f"metrics report entry {entry.get('id')!r} has non-object 'metrics'")
    for required in ("id", "query", "answer"):
        if not entry.get(required):
            raise ConfigError(f"metrics report entry missing {required!r}: {entry!r}")
    record = EvalRecord(
        id=str(entry["id"]),
        query=entry["query"],
        answer=entry["answer"],
        contexts=tuple(entry.get("contexts", [])),
        ground_truth=entry.get("ground_truth"),
    )
    results = {}
    for metric in METRICS:
        cell = metrics.get(metric)
        if cell is not None and not isinstance(cell, dict):
            raise ConfigError(f"metric {metric!r} of record {record.id!r} must be an object")
        if not cell or cell.get("value") is None:
            raise aggregation.MissingMetricError(metric, record.id)
        results[metric] = MetricResult(float(cell["value"]), cell.get("status", "ok"))
    return record, MetricVector(record.id, results["faithfulness"], results["answer_relevance"],
                                results["retrieval_recall"], results["retrieval_precision"])


def cmd_aggregate(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed, parallelism=args.parallelism,
                         providers_mode=args.providers)
    providers = build_providers(config)
    if providers.scorer is None:
        raise ConfigError("aggregate requires a pair scorer in the provider config")
    try:
        report = json.loads(Path(args.metrics_report).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read metrics report {args.metrics_report}: {exc}") from None
    entries = report.get("records", []) if isinstance(report, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"metrics report {args.metrics_report} must be an object whose 'records' is a list")
    if not entries:
        raise EmptyInputError(f"metrics report {args.metrics_report} has no records")
    scored = []
    for entry in entries:
        record, vector = _vector_from_report(entry)
        enhanced = aggregation.enhance_answer(record, vector, config.contexts_included)
        scored.append((record.id, aggregation.aggregate(record, enhanced, providers.scorer)))
    ranked = aggregation.rank_records(scored)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "aggregate.json",
        {
            "contexts_included": config.contexts_included,
            "ranked": [
                {"id": record_id, "logit": score.logit, "normalized": score.normalized}
                for record_id, score in ranked
            ],
        },
    )
    rows = [["rank", "id", "logit", "normalized"]]
    for position, (record_id, score) in enumerate(ranked, start=1):
        rows.append([str(position), record_id, f"{score.logit:.4f}", f"{score.normalized:.6f}"])
    _atomic_write(out_dir / "aggregate.txt", topicality.format_table(rows))
    _write_manifest(
        out_dir, "aggregate", config, providers, [str(args.metrics_report)],
        ["aggregate.json", "aggregate.txt"],
        extra={
            "statement_order": [
                "answer_relevance", "retrieval_precision", "retrieval_recall", "faithfulness"
            ]
        },
    )
    return EXIT_OK


def _load_values(path: str) -> list[float]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read values file {path}: {exc}") from None
    values = doc.get("values") if isinstance(doc, dict) else doc
    if not isinstance(values, list):
        raise ConfigError(f"values file {path} must hold a JSON array or an object with 'values'")
    if not values:
        raise EmptyInputError(f"values file {path} is empty")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"values file {path} must contain only numbers") from None


def _default_checkpoints(B: int) -> list[int] | None:
    candidates = sorted({max(2, B // 8), max(2, B // 4), max(2, B // 2), B})
    return candidates if len(candidates) >= 2 else None


def cmd_bootstrap(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed, parallelism=args.parallelism,
                         providers_mode=args.providers)
    values = _load_values(args.values)
    cfg = config.bootstrap
    checkpoints = config.checkpoints or _default_checkpoints(cfg.B)
    try:
        # one draw serves the summary, the trace and the unbiasedness check
        means = stats.resample_means(values, cfg, max([cfg.B, *(checkpoints or [])]))
        summary = stats.bootstrap_summary(values, cfg, means)
        trace = stats.convergence_trace(means, checkpoints) if checkpoints else None
        unbiased = summary.resample_size == summary.n
        unbiasedness = stats.unbiasedness_check(values, summary) if unbiased else None
    except ValueError as exc:
        raise StatsParameterError(str(exc)) from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "bootstrap.json",
        {
            "summary": summary.to_dict(),
            "convergence": trace.to_dict() if trace else None,
            "unbiasedness": unbiasedness.to_dict() if unbiasedness else None,
            "guidance": {
                "small_n": summary.n < stats.RECOMMENDED_MIN_N,
                "small_B": summary.B < stats.RECOMMENDED_MIN_B,
            },
        },
    )
    lines = [
        f"n={summary.n}  B={summary.B}  resample_size={summary.resample_size}  seed={summary.seed}",
        f"empirical_mean={summary.empirical_mean:.6f}",
        f"boot_mean={summary.boot_mean:.6f}  boot_variance={summary.boot_variance:.6e}",
        f"ci{int(summary.ci_level * 100)}=[{summary.ci_low:.6f}, {summary.ci_high:.6f}]",
    ]
    if trace:
        trail = "  ".join(f"B={p.B}:{p.std_error:.6f}" for p in trace.points)
        lines.append(f"std_error trace: {trail}  converged={'yes' if trace.converged else 'no'}")
    if unbiasedness:
        lines.append(
            f"unbiasedness: delta={unbiasedness.delta:.6e} tolerance={unbiasedness.tolerance:.6e} "
            f"{'pass' if unbiasedness.passed else 'FAIL'}"
        )
    _atomic_write(out_dir / "bootstrap.txt", "\n".join(lines) + "\n")
    _write_manifest(out_dir, "bootstrap", config, None, [str(args.values)],
                    ["bootstrap.json", "bootstrap.txt"])
    return EXIT_OK


class StatsParameterError(ValueError):
    """Invalid bootstrap parameters surfaced by the stats engine."""


def cmd_topicality(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed, parallelism=args.parallelism,
                         providers_mode=args.providers)
    if len(args.records) < 2:
        raise ConfigError("topicality needs at least 2 record files")
    providers = build_providers(config)
    sets = [load_record_set(path, config.record_format) for path in args.records]
    for record_set, path in zip(sets, args.records):
        if not record_set.records:
            raise EmptyInputError(f"record file {path} contains no records")
    report = topicality.run_topicality(
        sets,
        providers,
        config.similarity,
        config.bootstrap,
        min_effect=config.min_effect,
        params=config.generation,
        parallelism=config.parallelism,
        recall_source=config.recall_source,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "topicality.json", report.to_dict())
    _atomic_write(out_dir / "topicality.txt", report.render_table())
    _write_manifest(
        out_dir, "topicality", config, providers, [str(p) for p in args.records],
        ["topicality.json", "topicality.txt"],
        extra={"failure_counts": {r.label: dict(r.failure_counts) for r in report.set_results}},
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed, parallelism=args.parallelism,
                         providers_mode=args.providers)
    providers = build_providers(config)
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        spec = SyntheticSpec(
            topic_label=doc["topic_label"],
            prompt_template=doc["prompt_template"],
            count=int(doc["count"]),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synthetic spec {args.spec}: {exc}") from None
    result = generate_synthetic(
        spec, providers.generator, params=config.generation, parallelism=config.parallelism
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_record_set(result.records, out_dir / "synthetic.jsonl")
    _write_manifest(
        out_dir, "synth", config, providers, [str(args.spec)], ["synthetic.jsonl"],
        extra={
            "generated": len(result.records.records),
            "skipped": [
                {"index": s.index, "reason": s.reason} for s in result.skipped
            ],
        },
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragmeter",
        description="Batch evaluation of retrieval-augmented generation systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON config file (or a previous manifest)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run and bootstrap seed")
        p.add_argument("--parallelism", type=int, default=None, help="override parallelism limit")
        p.add_argument("--providers", choices=["stub", "http"], default=None,
                       help="override provider mode")

    p = sub.add_parser("evaluate", help="score a record file on the four metrics")
    common(p)
    p.add_argument("records", help="record file (structured-lines or delimited)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("aggregate", help="consolidate a metrics report into ranked logits")
    common(p)
    p.add_argument("metrics_report", help="metrics.json produced by evaluate")
    p.set_defaults(fn=cmd_aggregate)

    p = sub.add_parser("bootstrap", help="bootstrap statistics over a metric values file")
    common(p)
    p.add_argument("values", help="JSON array of metric values (or object with 'values')")
    p.set_defaults(fn=cmd_bootstrap)

    p = sub.add_parser("topicality", help="contrastive analysis over 2+ record files")
    common(p)
    p.add_argument("records", nargs="+", help="two or more record files")
    p.set_defaults(fn=cmd_topicality)

    p = sub.add_parser("synth", help="generate a synthetic record set from a spec file")
    common(p)
    p.add_argument("spec", help="JSON file with topic_label, prompt_template, count")
    p.set_defaults(fn=cmd_synth)
    return parser


# Exit code of the first row whose types match; other errors exit EXIT_CONFIG.
_EXIT_CODES = (
    ((ConfigError, RecordFileError), EXIT_CONFIG),
    (EmptyInputError, EXIT_EMPTY_INPUT),
    (aggregation.MissingMetricError, EXIT_MISSING_METRIC),
    (StatsParameterError, EXIT_BAD_STATS),
    ((ProviderError, aggregation.AggregationError, SyntheticGenerationError), EXIT_PROVIDER),
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
