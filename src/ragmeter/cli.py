"""Command-line orchestration: configuration, pipeline runs, report emission.

Commands: evaluate, aggregate, bootstrap, topicality, synth. Every run
writes machine-readable JSON, an aligned-text table, and a manifest that
records the resolved configuration and seeds so the run can be reproduced
exactly. One emitter writes every output file atomically (temp then
rename), the manifest last.

Exit codes: 0 ok (possibly with per-record failures reported), 2 config or
input-format error, 3 provider error, 4 empty input, 5 missing metric field
in an upstream report, 6 invalid statistics parameters.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import reprlib
import sys
import types
import typing
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from ragmeter import aggregation, judge, metrics, stats, topicality
from ragmeter.corpus import (
    RECORD_FORMATS,
    EvalRecord,
    RecordFileError,
    SyntheticGenerationError,
    SyntheticSpec,
    dumps_record_set,
    generate_synthetic,
    load_record_set,
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


def _params(cls) -> dict:
    """The type of each keyword argument `cls` takes, from its type hints."""
    hints = typing.get_type_hints(cls.__init__)
    hints.pop("return", None)
    return hints


def _defaulted(cls) -> dict:
    """(type, default) of each field of the dataclass `cls`."""
    hints = _params(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


# The JSON type of every config key. A dict is an object that may hold only
# its keys, and anything else is a type hint. A (type, default) pair is a key
# every run has: a config that leaves it out gets the default.
_CONFIG = {
    "providers": {
        "mode": (typing.Literal["stub", "http"], "stub"),
        "stub": ({
            "scripts": str | None,
            "fallback": str,
            "embedder": _params(HashEmbedder),
            "scorer": _params(LinearPairScorer),
        }, {}),
        "http": ({name: _params(EndpointConfig) for name in ("generator", "embedder", "scorer")}, {}),
    },
    "generation": _defaulted(GenerationParams),
    "metrics": _defaulted(SimilarityConfig),
    "bootstrap": {**_defaulted(BootstrapConfig), "checkpoints": (list[int] | None, None)},
    "topicality": {"min_effect": (float, topicality.DEFAULT_MIN_EFFECT)},
    "flags": {
        "contexts_included": (bool, True),
        "recall_source": (typing.Literal[judge.RECALL_SOURCES], "auto"),
        "strict_parsing": (bool, True),
    },
    "parallelism": (int, 1),
    "seed": (int, 0),
    "record_format": (typing.Literal[RECORD_FORMATS], "structured-lines"),
}


def _with_defaults(entry: dict, doc: dict) -> dict:
    """`doc`, a checked config node, with the defaults of the `_CONFIG` node `entry` filled in."""
    resolved = dict(doc)
    for key, item in entry.items():
        if isinstance(item, tuple):
            resolved.setdefault(key, copy.deepcopy(item[1]))  # a run may edit its echo
        else:
            resolved[key] = _with_defaults(item, doc.get(key, {}))
    return resolved


_SCRIPTS_SCHEMA = {"scripts": list[{"match": str | list[str], "responses": list[str]}]}

# An evaluate report as aggregate reads it back: only the records are used.
_REPORT_SCHEMA = {
    "label": object, "means": object, "failure_counts": object,
    "records": list[{
        "id": str, "query": str, "answer": str, "contexts": list[str], "ground_truth": str | None,
        "metrics": {metric: {"value": float | None, "status": str} for metric in METRICS},
    }],
}

_UNIONS = (typing.Union, types.UnionType)
_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _is_number(value: object) -> bool:
    """A JSON number that converts to a float: `true` and `false` are not numbers."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    )


def _mismatch(value: object, schema: object) -> tuple[str, object, object] | None:
    """Where `value` departs from the JSON type `schema`, or None if it does not.

    The answer is (the path below `value`, the schema expected there, the
    value found there); the schema is None for a key that is not allowed.
    Types are exact, except that an int is accepted where a float is
    expected, and a float must be finite. `object` accepts any value, and a
    (type, default) pair is checked as its type.
    """
    if isinstance(schema, tuple):
        return _mismatch(value, schema[0])
    if schema is float:
        fits = _is_number(value) and math.isfinite(value)
    elif type(schema) is type:  # object, bool, int, str or NoneType
        fits = isinstance(value, schema) and (schema in (object, bool) or not isinstance(value, bool))
    elif isinstance(schema, dict):
        fits = isinstance(value, dict)
        for name, item in value.items() if fits else ():
            found = _mismatch(item, schema[name]) if name in schema else ("", None, item)
            if found:
                return f".{name}{found[0]}", found[1], found[2]
    else:
        origin, args = typing.get_origin(schema), typing.get_args(schema)
        if origin in _UNIONS:
            fits = any(_mismatch(value, option) is None for option in args)
        elif origin is typing.Literal:
            fits = value in args
        else:  # list[T], Sequence[T] or Mapping[str, T]
            fits = isinstance(value, dict if origin is Mapping else list)
            for name, item in (value.items() if origin is Mapping else enumerate(value)) if fits else ():
                found = _mismatch(item, args[-1])
                if found:
                    return (f".{name}" if origin is Mapping else f"[{name}]") + found[0], found[1], found[2]
    return None if fits else ("", schema, value)


def _check(value: object, schema: object, source: str) -> None:
    """Raise ConfigError naming the dotted key where `value`, read from `source`, fails `schema`."""
    found = _mismatch(value, schema)
    if found:
        path, expected, got = found
        rule = (f"must be {_describe(expected)}, got {reprlib.repr(got)}" if expected is not None
                else "is not a recognized key")
        raise ConfigError(f"{path.lstrip('.') or 'the top level'} {rule} (in {source})")


def _describe(schema: object) -> str:
    origin, args = typing.get_origin(schema), typing.get_args(schema)
    if origin in _UNIONS or origin is typing.Literal:
        return " or ".join(map(_describe if origin in _UNIONS else repr, args))
    if origin in (list, Sequence, Mapping):  # "a list of integers", "an object of strings"
        return f"{'an object' if origin is Mapping else 'a list'} of {_describe(args[-1]).split()[-1]}s"
    return "an object" if isinstance(schema, dict) else _NAMES[schema]


def _read_json(path: str | Path, what: str, schema: object = None) -> object:
    """The parsed JSON file `path`, checked against `schema` when one is given."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc.msg} (line {exc.lineno})") from None
    if schema is not None:
        _check(doc, schema, f"{what} {path}")
    return doc


def _build(cls, where: str, /, *args, **kwargs):
    """`cls(*args, **kwargs)`, with a ConfigError prefixed by `where` if `cls` refuses the settings."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:  # a missing required setting or one out of range
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | Path, *, seed: int | None = None, parallelism: int | None = None,
                providers_mode: str | None = None) -> RunConfig:
    """Load and resolve a JSON config file, applying CLI overrides.

    A manifest written by a previous run is also accepted: its embedded
    `config` object is used, which makes any run reproducible from its
    manifest alone. Every key is checked against `_CONFIG` first.
    """
    path = Path(path)
    doc = _read_json(path, "config")
    if isinstance(doc, dict) and "config" in doc and "command" in doc:  # a previous run's manifest
        doc = doc["config"]
    _check(doc, _CONFIG, f"config {path}")
    raw = _with_defaults(_CONFIG, doc)
    if seed is not None:
        raw["seed"] = seed
        raw["bootstrap"]["seed"] = seed
    if parallelism is not None:
        raw["parallelism"] = parallelism
    if providers_mode is not None:
        raw["providers"]["mode"] = providers_mode
    if raw["parallelism"] < 1:
        raise ConfigError(f"parallelism must be at least 1, got {raw['parallelism']}")
    if raw["topicality"]["min_effect"] < 0:
        raise ConfigError(f"topicality.min_effect must be at least 0, got {raw['topicality']['min_effect']}")
    stub = raw["providers"]["stub"]
    if stub.get("scripts"):
        # the echoed config is location-independent: a manifest replays from any directory
        stub["scripts"] = str((path.parent / stub["scripts"]).resolve())
    flags = raw["flags"]
    return RunConfig(
        raw=raw,
        providers_mode=raw["providers"]["mode"],
        generation=_build(GenerationParams, "generation", **raw["generation"]),
        similarity=_build(SimilarityConfig, "metrics", **raw["metrics"]),
        bootstrap=_build(BootstrapConfig, "bootstrap",
                         **{k: v for k, v in raw["bootstrap"].items() if k != "checkpoints"}),
        checkpoints=raw["bootstrap"]["checkpoints"],
        min_effect=float(raw["topicality"]["min_effect"]),
        parallelism=raw["parallelism"],
        seed=raw["seed"],
        contexts_included=flags["contexts_included"],
        recall_source=flags["recall_source"],
        strict_parsing=flags["strict_parsing"],
        record_format=raw["record_format"],
    )


def _load_scripts(config: RunConfig) -> ScriptedGenerator:
    stub = config.raw["providers"]["stub"]
    path = stub.get("scripts")
    transcripts: dict = {}
    entries = _read_json(path, "scripts file", _SCRIPTS_SCHEMA).get("scripts", []) if path else []
    for index, entry in enumerate(entries):
        if "match" not in entry or "responses" not in entry:  # ScriptedGenerator refuses empty responses
            raise ConfigError(f"scripts file {path}: entry {index} needs 'match' and 'responses'")
        match = entry["match"]
        key = (match,) if isinstance(match, str) else tuple(match)
        if key in transcripts:  # until now one key per entry, in entry order
            raise ConfigError(
                f"scripts file {path}: entries {list(transcripts).index(key)} and {index} "
                f"have the same match {match!r}"
            )
        transcripts[key] = entry["responses"]
    return _build(ScriptedGenerator, f"scripts file {path}", transcripts,
                  strict=config.strict_parsing, fallback=stub.get("fallback", ""))


def build_providers(config: RunConfig) -> ProviderBundle:
    """Construct the generator/embedder/scorer trio the config describes."""
    if config.providers_mode == "stub":
        stub = config.raw["providers"]["stub"]
        embedder = _build(HashEmbedder, "providers.stub.embedder",
                          **{"dimension": 256, **stub.get("embedder", {})})
        scorer = _build(LinearPairScorer, "providers.stub.scorer",
                        **{"weights": (1.0,) * 4, **stub.get("scorer", {})})
        return ProviderBundle(_load_scripts(config), embedder, scorer)

    http = config.raw["providers"]["http"]

    def endpoint(name: str, **defaults) -> EndpointConfig:
        if "url" not in http.get(name, {}):
            raise ConfigError(f"providers.http.{name} must define at least a url")
        return _build(EndpointConfig, f"providers.http.{name}", **{**defaults, **http[name]})

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


def _json_text(doc: object) -> str:
    """`doc` as strict JSON: a NaN or an infinity raises ValueError rather than being written."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def _emit(args: argparse.Namespace, config: RunConfig, providers: ProviderBundle | None,
          inputs: list[str], files: dict[str, str], extra: dict | None = None) -> None:
    """Write every output of a command into `--out`, then its manifest.

    `files` maps file names to their text, written in order. Each file is
    written to a temporary name and renamed into place, so a reader never
    sees a partial file. The manifest `<command>.manifest.json` comes last
    and lists the files as its `outputs`.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "outputs": list(files),
        "seed": config.seed,
        "providers": _provider_ids(providers) if providers else None,
        "thresholds": {
            "precision_match_threshold": config.similarity.precision_match_threshold,
            "min_effect": config.min_effect,
        },
        "config": config.raw,
        **(extra or {}),
    }
    for name, text in {**files, f"{args.command}.manifest.json": _json_text(manifest)}.items():
        tmp = out_dir / f"{name}.tmp{os.getpid()}"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out_dir / name)


def _fmt_value(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> int:
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
    rows = [["id"] + list(METRICS)]
    for vector in evaluation.vectors:
        rows.append([vector.record_id] + [_fmt_value(vector.result(m).value) for m in METRICS])
    rows.append(["mean"] + [_fmt_value(evaluation.means[m]) for m in METRICS])
    rows.append(["failures"] + [str(evaluation.failure_counts[m]) for m in METRICS])
    _emit(
        args, config, providers, [str(args.records)],
        {
            "metrics.json": _json_text(report),
            "metrics.txt": f"set: {evaluation.label}\n" + topicality.format_table(rows),
        },
        extra={"failure_counts": dict(evaluation.failure_counts)},
    )
    return EXIT_OK


def _vector_from_report(entry: dict) -> tuple[EvalRecord, MetricVector]:
    """The record and metric vector of a checked metrics report entry."""
    for required in ("id", "query", "answer"):
        if not entry.get(required):
            raise ConfigError(f"metrics report entry missing {required!r}: {reprlib.repr(entry)}")
    record = EvalRecord(
        id=entry["id"],
        query=entry["query"],
        answer=entry["answer"],
        contexts=tuple(entry.get("contexts", ())),
        ground_truth=entry.get("ground_truth"),
    )
    results = {}
    for metric in METRICS:
        cell = entry.get("metrics", {}).get(metric, {})
        if cell.get("value") is None:
            raise aggregation.MissingMetricError(metric, record.id)
        results[metric] = MetricResult(float(cell["value"]), cell.get("status", "ok"))
    return record, MetricVector(record.id, **results)


def cmd_aggregate(args: argparse.Namespace, config: RunConfig) -> int:
    providers = build_providers(config)
    if providers.scorer is None:
        raise ConfigError("aggregate requires a pair scorer in the provider config")
    entries = _read_json(args.metrics_report, "metrics report", _REPORT_SCHEMA).get("records", [])
    if not entries:
        raise EmptyInputError(f"metrics report {args.metrics_report} has no records")
    scored = []
    for entry in entries:
        record, vector = _vector_from_report(entry)
        enhanced = aggregation.enhance_answer(record, vector, config.contexts_included)
        scored.append((record.id, aggregation.aggregate(record, enhanced, providers.scorer)))
    ranked = aggregation.rank_records(scored)
    report = {
        "contexts_included": config.contexts_included,
        "ranked": [
            {"id": record_id, "logit": score.logit, "normalized": score.normalized}
            for record_id, score in ranked
        ],
    }
    rows = [["rank", "id", "logit", "normalized"]]
    for position, (record_id, score) in enumerate(ranked, start=1):
        rows.append([str(position), record_id, f"{score.logit:.4f}", f"{score.normalized:.6f}"])
    _emit(
        args, config, providers, [str(args.metrics_report)],
        {"aggregate.json": _json_text(report), "aggregate.txt": topicality.format_table(rows)},
        extra={
            "statement_order": [
                "answer_relevance", "retrieval_precision", "retrieval_recall", "faithfulness"
            ]
        },
    )
    return EXIT_OK


def _load_values(path: str) -> list[float]:
    doc = _read_json(path, "values file")
    values = doc.get("values") if isinstance(doc, dict) else doc
    if not isinstance(values, list):
        raise ConfigError(f"values file {path} must hold a JSON array or an object with 'values'")
    if not values:
        raise EmptyInputError(f"values file {path} is empty")
    if not all(map(_is_number, values)):
        raise ConfigError(f"values file {path} must contain only numbers")
    return [float(v) for v in values]


def _default_checkpoints(B: int) -> list[int] | None:
    candidates = sorted({max(2, B // 8), max(2, B // 4), max(2, B // 2), B})
    return candidates if len(candidates) >= 2 else None


def cmd_bootstrap(args: argparse.Namespace, config: RunConfig) -> int:
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
    report = {
        "summary": asdict(summary),
        "convergence": asdict(trace) if trace else None,
        "unbiasedness": asdict(unbiasedness) if unbiasedness else None,
        "guidance": {
            "small_n": summary.n < stats.RECOMMENDED_MIN_N,
            "small_B": summary.B < stats.RECOMMENDED_MIN_B,
        },
    }
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
    _emit(args, config, None, [str(args.values)],
          {"bootstrap.json": _json_text(report), "bootstrap.txt": "\n".join(lines) + "\n"})
    return EXIT_OK


class StatsParameterError(ValueError):
    """Invalid bootstrap parameters surfaced by the stats engine."""


def cmd_topicality(args: argparse.Namespace, config: RunConfig) -> int:
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
    _emit(
        args, config, providers, [str(p) for p in args.records],
        {"topicality.json": _json_text(report.to_dict()), "topicality.txt": report.render_table()},
        extra={"failure_counts": {r.label: dict(r.failure_counts) for r in report.set_results}},
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace, config: RunConfig) -> int:
    doc = _read_json(args.spec, "synthetic spec", _params(SyntheticSpec))
    spec = _build(SyntheticSpec, f"synthetic spec {args.spec}", **doc)
    providers = build_providers(config)
    result = generate_synthetic(
        spec, providers.generator, params=config.generation, parallelism=config.parallelism
    )
    _emit(
        args, config, providers, [str(args.spec)],
        {"synthetic.jsonl": dumps_record_set(result.records)},
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
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, parallelism=args.parallelism,
                             providers_mode=args.providers)
        return args.fn(args, config)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for errors, code in _EXIT_CODES if isinstance(exc, errors)), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
