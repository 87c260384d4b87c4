"""Spans around calls into ragmeter's layers, recorded from outside src/.

Public functions are wrapped where their callers look them up (for example
`ragmeter.metrics.cosine`, which `_precision_details` resolves through the
metrics module), and provider objects are wrapped in proxies before they
reach the code under test. Spans are kept in memory and written out when
the run ends; the wrappers are installed only for traced passes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from workloads import tokens

# (object path, attribute, span name). Each function is patched in every
# module that calls it, because `from x import f` binds a second name.
TARGETS = (
    ("ragmeter.cli", "load_record_set", "corpus.load_record_set"),
    ("ragmeter.metrics", "evaluate_set", "metrics.evaluate_set"),
    ("ragmeter.topicality", "evaluate_set", "metrics.evaluate_set"),
    ("ragmeter.metrics", "evaluate_record", "metrics.evaluate_record"),
    ("ragmeter.metrics", "cosine", "metrics.cosine"),
    ("ragmeter.metrics", "segment_sentences", "judge.segment"),
    ("ragmeter.metrics", "build_faithfulness_prompt", "judge.render"),
    ("ragmeter.metrics", "build_recall_prompt", "judge.render"),
    ("ragmeter.metrics", "build_precision_prompt", "judge.render"),
    ("ragmeter.metrics", "build_question_gen_prompt", "judge.render"),
    ("ragmeter.metrics", "parse_faithfulness_verdicts", "judge.parse"),
    ("ragmeter.metrics", "parse_recall_classification", "judge.parse"),
    ("ragmeter.metrics", "parse_precision_extraction", "judge.parse"),
    ("ragmeter.metrics", "parse_generated_question", "judge.parse"),
    ("ragmeter.aggregation", "enhance_answer", "aggregation.enhance_answer"),
    ("ragmeter.aggregation", "aggregate", "aggregation.aggregate"),
    ("ragmeter.stats", "bootstrap_summary", "stats.bootstrap_summary"),
    ("ragmeter.topicality", "bootstrap_summary", "stats.bootstrap_summary"),
    ("ragmeter.stats", "convergence_trace", "stats.convergence_trace"),
    ("ragmeter.stats", "unbiasedness_check", "stats.unbiasedness_check"),
    ("ragmeter.stats", "resample_rng", "stats.resample_rng"),
    ("ragmeter.topicality", "run_topicality", "topicality.run_topicality"),
    ("ragmeter.topicality", "summarize_set_metrics", "topicality.summarize_set_metrics"),
    ("ragmeter.topicality", "compare_summaries", "topicality.compare_summaries"),
    ("ragmeter.topicality.TopicalityReport", "render_table", "topicality.render_table"),
)


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class _Proxy:
    """A provider with one method replaced by its traced version."""

    def __init__(self, inner, method: str, traced):
        self._inner = inner
        setattr(self, method, traced)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Span store plus the counters measured at the same boundaries.

    A span is (id, name, start, end, parent id, record id). Record ids come
    from the enclosing `evaluate_record` call; spans opened by pool threads
    with no enclosing span take the running `evaluate_set` span as parent.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent = None
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.embedded: list[str] = []
        self.prompt_bytes = 0
        self.enhanced_bytes = 0
        self.context_sentences = 0
        self.exact_matches = 0

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.record = None
        return local

    def wrap(self, name: str, fn, *, observe=None, record_of=None, pool_root=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._thread()
            stack = local.stack
            parent = stack[-1] if stack else tracer._pool_parent
            with tracer._lock:
                span_id = next(tracer._ids)
            outer_record, outer_pool = local.record, tracer._pool_parent
            if record_of is not None:
                local.record = record_of(args)
            if pool_root:
                tracer._pool_parent = span_id
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, local.record))
                local.record = outer_record
                if pool_root:
                    tracer._pool_parent = outer_pool
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _add(self, attr: str, amount: int) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + amount)

    def _observe_record(self, args, vector) -> None:
        details = vector.retrieval_precision.diagnostics
        sentences = details.get("context_sentences")
        if sentences:
            candidates = {c.strip() for c in details.get("candidates", ())}
            with self._lock:
                self.context_sentences += len(sentences)
                self.exact_matches += sum(s.strip() in candidates for s in sentences)

    def bundle(self, providers):
        """The same providers, each behind a proxy that records its calls."""
        from ragmeter.providers import ProviderBundle

        generator, embedder, scorer = providers.generator, providers.embedder, providers.scorer
        return ProviderBundle(
            _Proxy(generator, "complete", self.wrap("providers.complete", generator.complete)),
            _Proxy(embedder, "embed", self.wrap(
                "providers.embed", embedder.embed,
                observe=lambda args, _: self.embedded.append(args[0]))),
            _Proxy(scorer, "score", self.wrap("providers.score", scorer.score)) if scorer else None,
        )

    def install(self) -> None:
        """Patch every target; `uninstall` puts the originals back."""
        observers = {
            "judge.render": lambda args, prompt: self._add("prompt_bytes", len(prompt.encode())),
            "aggregation.enhance_answer": lambda args, enhanced: self._add(
                "enhanced_bytes", len(enhanced.rendered.encode())),
            "metrics.evaluate_record": self._observe_record,
        }
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(
                name, original, observe=observers.get(name),
                record_of=(lambda args: args[0].id) if name == "metrics.evaluate_record" else None,
                pool_root=name == "metrics.evaluate_set"))
        cli = _resolve("ragmeter.cli")
        build = cli.build_providers
        self._undo.append((cli, "build_providers", build))
        cli.build_providers = lambda config: self.bundle(build(config))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_spans(path: Path, spans: list[tuple], origin: float) -> None:
    """One JSON object per span; times in seconds from `origin`."""
    with path.open("w", encoding="utf-8") as out:
        for span_id, name, start, end, parent, record, pass_no in spans:
            out.write(json.dumps({
                "id": span_id, "name": name, "start": round(start - origin, 9),
                "end": round(end - origin, 9), "parent": parent, "record": record,
                "pass": pass_no,
            }) + "\n")


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def pass_layers(tracer: Tracer, records: int) -> dict[str, float]:
    """Per-layer figures for one traced pass: seconds, counts and shares."""
    spans = tracer.spans
    names = {s[0]: s[1] for s in spans}
    children = defaultdict(list)
    total = defaultdict(float)
    calls = Counter()
    for s in spans:
        children[s[4]].append(s)
        total[s[1]] += s[3] - s[2]
        calls[s[1]] += 1

    def self_time(name: str, excluded) -> float:
        return sum(
            (s[3] - s[2]) - _union([(c[2], c[3]) for c in children[s[0]] if excluded(c[1])], s[2], s[3])
            for s in spans if s[1] == name
        )

    per_record = (lambda n: n / records) if records else (lambda n: 0.0)
    texts = tracer.embedded
    all_tokens = [tok for text in texts for tok in tokens(text)]
    return {
        "providers.embed_calls_per_record": per_record(calls["providers.embed"]),
        "providers.embed_s": total["providers.embed"],
        "providers.embed_repeat_share": 1 - len(set(texts)) / len(texts) if texts else 0.0,
        "providers.embed_token_repeat_share":
            1 - len(set(all_tokens)) / len(all_tokens) if all_tokens else 0.0,
        "providers.generate_calls_per_record": per_record(calls["providers.complete"]),
        "providers.generate_s": total["providers.complete"],
        "metrics.cosine_calls_per_record": per_record(calls["metrics.cosine"]),
        "metrics.cosine_s": total["metrics.cosine"],
        "metrics.self_s": self_time(
            "metrics.evaluate_record", lambda n: n.startswith(("judge.", "providers."))),
        "metrics.exact_match_share":
            tracer.exact_matches / tracer.context_sentences if tracer.context_sentences else 0.0,
        "corpus.context_sentences_per_record": per_record(tracer.context_sentences),
        "judge.segment_calls": per_record(calls["judge.segment"]),
        "judge.segment_s": total["judge.segment"],
        "judge.render_s": total["judge.render"],
        "judge.parse_s": total["judge.parse"],
        "judge.prompt_bytes_per_record": per_record(tracer.prompt_bytes),
        "stats.resample_rng_calls": calls["stats.resample_rng"],
        "stats.rng_s": total["stats.resample_rng"],
        "stats.summary_s": sum(
            s[3] - s[2] for s in spans
            if s[1] == "stats.bootstrap_summary" and names.get(s[4]) != "stats.unbiasedness_check"),
        "stats.trace_s": total["stats.convergence_trace"],
        "stats.unbiasedness_s": total["stats.unbiasedness_check"],
        "topicality.summarize_s": total["topicality.summarize_set_metrics"],
        "topicality.compare_render_s":
            total["topicality.compare_summaries"] + total["topicality.render_table"],
        "aggregation.enhance_s": total["aggregation.enhance_answer"],
        "aggregation.score_s": total["aggregation.aggregate"],
        "aggregation.enhanced_bytes_per_record": per_record(tracer.enhanced_bytes),
        "corpus.load_s": total["corpus.load_record_set"],
        "cli.self_s": self_time("cli.main", lambda n: True),
    }


def record_latency(tracer_spans: list[tuple]) -> dict[str, float]:
    """Median and tail of `evaluate_record` time over all traced passes.

    The tail is the highest of p90/p95/p99/p99.9 with at least ten samples
    beyond it (nearest rank), reported with the sample count.
    """
    ms = sorted((s[3] - s[2]) * 1000.0 for s in tracer_spans if s[1] == "metrics.evaluate_record")
    if not ms:
        return {"metrics.record_ms_p50": 0.0, "metrics.record_ms_tail": 0.0,
                "metrics.record_ms_tail_pct": 0.0, "metrics.record_samples": 0}

    def rank(p: float) -> int:
        return max(1, math.ceil(p / 100.0 * len(ms)))

    tail_pct = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if len(ms) - rank(p) >= 10:
            tail_pct = p
    return {
        "metrics.record_ms_p50": ms[rank(50.0) - 1],
        "metrics.record_ms_tail": ms[rank(tail_pct) - 1],
        "metrics.record_ms_tail_pct": tail_pct,
        "metrics.record_samples": len(ms),
    }
