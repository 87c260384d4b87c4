"""Shared fixture data and scripted-provider builders for the test suite."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import ragmeter
from ragmeter.corpus import EvalRecord
from ragmeter.judge import recall_source_text, segment_sentences
from ragmeter.metrics import MetricResult, MetricVector
from ragmeter.providers import (
    EndpointConfig,
    HttpEmbedder,
    HttpGenerator,
    HttpPairScorer,
    ProviderBundle,
    ScriptMissError,
)

def run_python(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """`python *args` in a child interpreter that imports the ragmeter this process imported.

    `env` adds variables to the child's environment only.
    """
    package_root = str(Path(ragmeter.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, **(env or {}), "PYTHONPATH": pythonpath})


# Prompt-type markers: template phrases unique to each of the four prompts.
FAITH_MARK = "Consider the given context and following statements"
RECALL_MARK = "classify whether the sentence is supported"
PRECISION_MARK = "Evaluate whether the provided context can answer"
QGEN_MARK = "Generate a question based on the given answer"


class DictEmbedder:
    """Maps exact texts to fixed vectors; unknown texts get the zero vector."""

    identifier = "stub:dict"

    def __init__(self, mapping: dict[str, list[float]], dimension: int):
        self.dimension = dimension
        self._mapping = {text: np.asarray(vec, dtype=float) for text, vec in mapping.items()}

    def embed(self, text: str) -> np.ndarray:
        vec = self._mapping.get(text)
        return np.zeros(self.dimension) if vec is None else vec


class RecordingEmbedder:
    """Forwards `embed` to `inner` and records each text asked for; has no `embed_many`."""

    def __init__(self, inner):
        self.inner = inner
        self.texts: list[str] = []

    def embed(self, text: str) -> np.ndarray:
        self.texts.append(text)
        return self.inner.embed(text)


def reference_precision(extraction, contexts, embedder, threshold: float) -> tuple[list, list]:
    """Per-pair loop reference for precision matching: (similarities, matched sentences).

    The candidates are embedded when the first sentence that is not an
    exact candidate comes up, then each such sentence is embedded once per
    candidate and scored with one `reference_cosine` call per pair, so
    nothing here goes through `ragmeter.metrics`.
    """
    sentences = [s for chunk in contexts for s in segment_sentences(chunk)]
    exact = {c.strip() for c in extraction.candidate_sentences}
    candidate_vectors = None
    similarities = []
    for sentence in sentences:
        if sentence.strip() in exact:
            similarities.append(1.0)
            continue
        if candidate_vectors is None:
            candidate_vectors = [embedder.embed(c) for c in extraction.candidate_sentences]
        similarities.append(max(reference_cosine(embedder.embed(sentence), cv) for cv in candidate_vectors))
    matched = [s for s, similarity in zip(sentences, similarities) if similarity >= threshold]
    return similarities, matched


def backend_transport(backend: ProviderBundle, threads: set):
    """An in-memory `Transport` answering each route from the provider of `backend` behind it.

    A URL ending in `/embed` answers as `backend.embedder`, one ending in
    `/score` as `backend.scorer`, and any other as `backend.generator`. A
    provider that raises answers 422 with the error, which the adapters raise
    at once as `ProviderHTTPError`, with no retry. The thread of every call
    is added to `threads`.
    """

    def transport(url, payload, headers, timeout):
        threads.add(threading.get_ident())
        request = json.loads(payload)
        try:
            if url.endswith("/embed"):
                body = {"embedding": backend.embedder.embed(request["input"]).tolist()}
            elif url.endswith("/score"):
                body = {"score": backend.scorer.score(request["query"], request["candidate"])}
            else:
                body = {"completion": backend.generator.complete(request["prompt"])}
        except Exception as exc:
            return 422, f"{type(exc).__name__}: {exc}".encode("utf-8")
        return 200, json.dumps(body).encode("utf-8")

    return transport


def http_adapters(transport, sleep=time.sleep) -> ProviderBundle:
    """The three HTTP adapters, all posting through `transport` and backing off with `sleep`."""
    return ProviderBundle(
        HttpGenerator(EndpointConfig(url="http://backend.test/generate"), transport=transport, sleep=sleep),
        HttpEmbedder(EndpointConfig(url="http://backend.test/embed"), transport=transport, sleep=sleep),
        HttpPairScorer(EndpointConfig(url="http://backend.test/score"), transport=transport, sleep=sleep),
    )


def http_bundle(backend: ProviderBundle, threads: set) -> ProviderBundle:
    """HTTP adapters over an in-memory transport that answers from `backend` (see `backend_transport`)."""
    return http_adapters(backend_transport(backend, threads))


# the faults `FaultyTransport` injects, each with the error an adapter call
# that keeps meeting it raises: the first three are retried until the
# attempts run out, the last two end the call at once
FAULT_ERRORS = {
    "429": "ProviderTimeoutError",
    "503": "ProviderTimeoutError",
    "raise": "ProviderTimeoutError",
    "not-json": "ProviderResponseError",
    "404": "ProviderHTTPError",
}
TRANSIENT_FAULTS = ("429", "503", "raise")


class FaultyTransport:
    """A `Transport` that fails the first k attempts of a call with a fault, then forwards to `inner`.

    `schedule(url, payload)` gives `(fault, k)`: a key of `FAULT_ERRORS`, or
    None for no fault. It depends on the request alone, so a call meets the
    same faults whatever thread makes it and whatever runs beside it.
    Attempts are counted per thread and payload digest: a request with the
    digest of the thread's last request continues its count, and the count
    resets when the request is forwarded and when a fault ends the call at
    once. The metrics never repeat a request right after it failed, so each
    count is one call's attempts. Pass `sleep`, which waits for nothing, to
    the adapters. `calls` holds `(url, payload, attempt)` for every
    transport call, in order.
    """

    def __init__(self, inner, schedule):
        self._inner, self._schedule = inner, schedule
        self._local = threading.local()
        self.calls: list[tuple[str, bytes, int]] = []

    @staticmethod
    def sleep(seconds: float) -> None:
        pass

    def __call__(self, url, payload, headers, timeout):
        local = self._local
        digest = hashlib.sha256(url.encode("utf-8") + payload).digest()
        if getattr(local, "digest", None) != digest:
            local.digest, local.attempt = digest, 0
        local.attempt += 1
        self.calls.append((url, payload, local.attempt))
        fault, k = self._schedule(url, payload)
        if fault is None or local.attempt > k:
            local.digest = None
            return self._inner(url, payload, headers, timeout)
        if fault not in TRANSIENT_FAULTS:
            local.digest = None
        if fault == "raise":
            raise ConnectionResetError("injected connection reset")
        return {
            "429": (429, b"slow down"),
            "503": (503, b"unavailable"),
            "not-json": (200, b"<html>not json</html>"),
            "404": (404, b"no such route"),
        }[fault]


def reference_token_axis(token: str, dimension: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


def reference_embed(
    text: str, dimension: int, keyword_channels: dict[str, int] | None = None, keyword_boost: float = 4.0
) -> np.ndarray:
    """Loop reference for `HashEmbedder.embed`: one sha256 and one in-place add per token."""
    vec = np.zeros(dimension)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        vec[reference_token_axis(token, dimension)] += 1.0
        axis = (keyword_channels or {}).get(token)
        if axis is not None:
            vec[axis] += keyword_boost
    norm = math.sqrt(dot(vec, vec))
    if norm > 0.0:
        vec /= norm
    return vec


class ReferenceScriptedGenerator:
    """Loop reference for `ScriptedGenerator.complete`: every needle of every entry is tested on each call."""

    def __init__(self, transcripts: dict, *, strict: bool = True, fallback: str = ""):
        self.entries = [
            ((matcher,) if isinstance(matcher, str) else tuple(matcher),
             [response] if isinstance(response, str) else list(response))
            for matcher, response in transcripts.items()
        ]
        self.cursors = [0] * len(self.entries)
        self.strict = strict
        self.fallback = fallback

    def complete(self, prompt: str) -> str:
        for slot, (needles, responses) in enumerate(self.entries):
            if all(needle in prompt for needle in needles):
                cursor = self.cursors[slot]
                self.cursors[slot] = cursor + 1
                return responses[cursor % len(responses)]
        if self.strict:
            raise ScriptMissError(prompt)
        return self.fallback


def dot(u: np.ndarray, v: np.ndarray) -> np.float64:
    """The dot of two 1-d vectors as `providers.row_dots` rounds it: einsum's, with no BLAS call."""
    return np.einsum("j,j->", u, v)


def reference_cosine(u, v) -> float:
    """Norm-based reference for `metrics.cosine`."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = math.sqrt(dot(u, u))
    nv = math.sqrt(dot(v, v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        return 1.0
    return min(1.0, max(-1.0, float(dot(u, v) / (nu * nv))))


def resample(values, size: int, rng: np.random.Generator) -> np.ndarray:
    """Loop reference for one resample: `size` uniform draws with replacement from `rng`."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot resample an empty value list")
    return arr[rng.integers(0, arr.size, size=size)]


def refuse_large_arrays(monkeypatch, limit: int = 10**8) -> None:
    """Make `np.empty` raise MemoryError for more than `limit` entries, as a failed allocation does."""
    empty = np.empty

    def guarded(shape, *args, **kwargs):
        if math.prod(shape if isinstance(shape, tuple) else (shape,)) > limit:
            raise MemoryError(f"refused an array of shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", guarded)


def reference_segment_sentences(text: str) -> list[str]:
    """Character-loop reference for `judge.segment_sentences`."""
    segments: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k >= n or (k > j and text[k].isupper()):
                segment = text[start:j].strip()
                if segment:
                    segments.append(segment)
                start = k
                i = k
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        segments.append(tail)
    return segments


def reference_render(template: str, slots: dict[str, str]) -> str:
    """Split-based reference for `judge.render`: cut the template on its slot tokens."""
    tokens = "|".join(re.escape("{" + name + "}") for name in slots)
    parts = re.split(f"({tokens})", template)
    # odd parts are the captured slot tokens, even parts the template text between them
    return "".join(slots[part[1:-1]] if i % 2 else part for i, part in enumerate(parts))


# Every slot name of the shipped templates, as a brace token record text may carry.
SLOT_TOKENS = tuple(
    "{" + name + "}"
    for name in (
        "context", "statements", "question", "answer", "ground_truth", "contexts",
        "answer_relevance", "retrieval_precision", "retrieval_recall", "faithfulness",
    )
)
SCORE_LOOKALIKES = (
    "the answer relevancy score is: 7.5",
    "the context precision score is: -3",
    "the context recall score is: 1e5",
    "the faithfulness score is: 9",
    "the faithfulness score is:0.25.",
)

# Record text mixing free text with slot tokens and score-statement look-alikes.
hostile_text = st.lists(
    st.one_of(st.text(max_size=12), st.sampled_from(SLOT_TOKENS + SCORE_LOOKALIKES + ("{", "}"))),
    max_size=6,
).map("".join)


def faithfulness_transcript(verdicts: list[bool]) -> str:
    words = " ".join("Yes." if v else "No." for v in verdicts)
    return f"Final verdict for each statement in order: {words}\n"


def recall_transcript(flags: list[bool]) -> str:
    lines = ["Classification:"]
    for i, flag in enumerate(flags, start=1):
        tag = "[Supported by Context]" if flag else "[Not Supported by Context]"
        lines.append(f"{i}. Sentence {i} was checked against the context. So {tag}")
    return "\n".join(lines) + "\n"


def precision_transcript(candidates: list[str] | None) -> str:
    if candidates is None:
        return "Candidate Sentences:\nInsufficient Information\n"
    return "Candidate Sentences:\n" + "\n".join(f"- {c}" for c in candidates) + "\n"


def question_transcript(question: str) -> str:
    return f"Question:\n{question}\n"


def scripts_for_record(
    record: EvalRecord,
    *,
    faith: list[bool],
    recall: list[bool] | None = None,
    precision: list[str] | None | str = "skip",
    questions: list[str] | None = None,
    recall_source: str = "auto",
) -> dict:
    """Scripted transcripts keyed so each of the record's judge calls matches.

    `precision` accepts a candidate list, None for Insufficient Information,
    or "skip" to omit the script (useful with empty contexts).
    """
    statements = segment_sentences(record.answer)
    scripts: dict = {
        (FAITH_MARK, statements[0]): faithfulness_transcript(faith),
        (QGEN_MARK, statements[0]): [question_transcript(q) for q in (questions or [record.query])],
    }
    if record.contexts and recall is not None:
        source_first = segment_sentences(recall_source_text(record, recall_source))[0]
        scripts[(RECALL_MARK, source_first)] = recall_transcript(recall)
    if record.contexts and precision != "skip":
        scripts[(PRECISION_MARK, record.query)] = precision_transcript(precision)
    return scripts


def scripts_to_json(scripts: dict) -> dict:
    """Convert a scripted-transcripts mapping to the CLI scripts-file schema."""
    entries = []
    for matcher, responses in scripts.items():
        needles = [matcher] if isinstance(matcher, str) else list(matcher)
        entries.append(
            {
                "match": needles,
                "responses": [responses] if isinstance(responses, str) else list(responses),
            }
        )
    return {"scripts": entries}


# Engineered query sets whose metric values sit in distinct bands, mirroring
# on-topic, near-topic and off-topic querying of one repository. Verdict
# patterns cycle per record so each set has within-set variance; faithfulness
# follows the same pattern everywhere (staying high regardless of topic).

_TIER_RECALL = {
    "positive": ([True, True, True], [True, True, False]),
    "adjacent": ([True, True, False], [True, False, False]),
    "random": ([False, False, False], [True, False, False]),
}
_TIER_PRECISION_COUNTS = {"positive": (3, 2), "adjacent": (2, 1), "random": (None, 1)}


def _tier_question(tier: str, query_tokens: list[str], i: int) -> str:
    junk = [f"junk{tier}{i}x{k}" for k in range(4)]
    if tier == "positive":
        if i % 2 == 0:
            return f"What about {' '.join(query_tokens)}?"
        return f"What about {' '.join(query_tokens[:3])} {junk[0]}?"
    if tier == "adjacent":
        if i % 2 == 0:
            return f"What about {query_tokens[0]} {query_tokens[1]} {junk[0]} {junk[1]}?"
        return f"What about {query_tokens[0]} {junk[0]} {junk[1]} {junk[2]}?"
    if i % 2 == 0:
        return f"Give directions toward {' '.join(junk)}"
    return f"What is {' '.join(junk[:3])}?"


def engineered_query_set(label: str, count: int, tier: str):
    """(RecordSet, scripts) for one tier: 'positive', 'adjacent' or 'random'."""
    from ragmeter.corpus import RecordSet

    records = []
    scripts: dict = {}
    recall_cycle = _TIER_RECALL[tier]
    precision_cycle = _TIER_PRECISION_COUNTS[tier]
    for i in range(count):
        query_tokens = [f"{label}{i}w{k}" for k in range(4)]
        query = f"What about {' '.join(query_tokens)}?"
        answer = " ".join(f"Answer {label} {i} part {k} stands." for k in range(3))
        context = " ".join(f"Context {label} {i} item {k} holds." for k in range(3))
        record = EvalRecord(id=f"{label}-{i:03d}", query=query, answer=answer, contexts=(context,))
        records.append(record)
        faith = [True, True, False] if i % 4 == 0 else [True, True, True]
        count_extracted = precision_cycle[i % 2]
        if count_extracted is None:
            precision: list[str] | None = None
        else:
            precision = segment_sentences(context)[:count_extracted]
        scripts.update(
            scripts_for_record(
                record,
                faith=faith,
                recall=recall_cycle[i % 2],
                precision=precision,
                questions=[_tier_question(tier, query_tokens, i)] * 3,
            )
        )
    return RecordSet(label=label, records=tuple(records)), scripts


def ok_vector(record_id: str, faithfulness: float, relevance: float, recall: float,
              precision: float) -> MetricVector:
    return MetricVector(
        record_id=record_id,
        faithfulness=MetricResult(faithfulness, "ok"),
        answer_relevance=MetricResult(relevance, "ok"),
        retrieval_recall=MetricResult(recall, "ok"),
        retrieval_precision=MetricResult(precision, "ok"),
    )


# Worked-example fixture data mirrored by the golden files.

EMMA_CONTEXT = (
    "Emma is a graduate student specializing in marine biology at Coastal University. "
    "She has a keen interest in coral reefs and is conducting her thesis on coral bleaching. "
    "Emma attends several seminars related to marine ecosystems and is actively involved in "
    "field research in the nearby coral reefs. She often collaborates with other researchers "
    "to publish her findings."
)
EMMA_STATEMENTS = (
    "Emma is studying mechanical engineering.",
    "Emma is working on a project related to coral reefs.",
    "Emma often attends computer science workshops.",
    "Emma collaborates with other researchers.",
    "Emma's research focuses on marine ecosystems.",
)

NEWTON_CONTEXT = (
    "Isaac Newton (25 December 1642 – 20 March 1726/27) was an English mathematician, "
    "physicist, astronomer, alchemist, and author. He is widely recognized as one of the most "
    "influential scientists of all time and a key figure in the scientific revolution. His book "
    '"Philosophiæ Naturalis Principia Mathematica," first published in 1687, laid the '
    "foundations of classical mechanics. Newton made seminal contributions to optics and shares "
    "credit with Gottfried Wilhelm Leibniz for developing calculus."
)
NEWTON_ANSWER = (
    "Isaac Newton was an English mathematician, physicist, and astronomer. "
    'He is known for writing "Philosophiæ Naturalis Principia Mathematica." '
    "Newton invented calculus independently of Leibniz."
)

TIDES_CONTEXT = (
    "The gravitational pull of the moon and the sun causes the tides to rise and fall. "
    "The moon's gravity has a greater effect because it is closer to the Earth, creating high "
    "and low tides. The sun also plays a role, but to a lesser extent."
)
TIDES_QUESTION = "What causes the tides to rise and fall?"

PSLV_ANSWER = (
    "The PSLV-C56 mission is scheduled to be launched on Sunday, 30 July 2023 at 06:30 IST / "
    "01:00 UTC. It will be launched from the Satish Dhawan Space Centre, Sriharikota, Andhra "
    "Pradesh, India."
)
PSLV_QUESTION = (
    "When is the scheduled launch date and time for the PSLV-C56 mission, "
    "and where will it be launched from?"
)

BONE_MASS_QUERY = "At about what age do adults normally begin to lose bone mass?"
BONE_MASS_ANSWER = (
    "Based on the given context, adults typically begin to lose bone mass around the age of 40. "
    "The key points are: - Bone mass reaches its peak during young adulthood, and then there is "
    "a slow but steady loss of bone beginning about age 40. - After about age 30, people can "
    "start to lose bone faster than their body makes it, which can weaken the bones and increase "
    "the risk of breakage. - The reduction of bone mass begins between ages 30 and 40, and "
    "continues to decline. So the summarized response is that adults normally begin to lose bone "
    "mass around the age of 40."
)
BONE_MASS_CONTEXTS = (
    "Age. There’s no way around it: loss of bone mass comes with age, laying the groundwork "
    "for low bone density and the potential of osteoporosis. We typically lose bone mass starting "
    "at age 40 and one in two women and one in four men over the age of 50 will fracture a bone "
    "at some point.",
    "After about age 30, you can start to lose bone faster than your body makes it, which can "
    "weaken the bones and increase the risk of breakage. Some bone loss is natural as men and "
    "women age, but women are at higher risk of significant bone loss.",
    "Bone mass reaches its peak during young adulthood. Then, after a period of stability, there "
    "is a slow but steady loss of bone beginning about age 40. In women, normal aging and "
    "menopause significantly increase susceptibility to osteoporosis.",
    "In adults, this can take ten years. Until our mid-20s, bone density is still increasing. "
    "But at 35 bone loss begins as part of the natural ageing process. This becomes more rapid "
    "in post-menopausal women and can cause the bone-thinning condition osteoporosis.",
    "The reduction of bone mass begins between ages 30 and 40, and continues to decline. Women "
    "lose about 8% of skeletal mass every decade, while men lose about 3%. Epiphyses, vertebrae, "
    "and the jaws lose more mass than other sites, resulting in fragile limbs, reduction in "
    "height, and loss of teeth.",
)
BONE_MASS_SCORES = {
    "answer_relevance": 0.9531866263993314,
    "retrieval_precision": 0.06666666666666667,
    "retrieval_recall": 0.2727272727272727,
    "faithfulness": 1.0,
}


def bone_mass_record() -> EvalRecord:
    return EvalRecord(
        id="bone-mass",
        query=BONE_MASS_QUERY,
        answer=BONE_MASS_ANSWER,
        contexts=BONE_MASS_CONTEXTS,
    )


def bone_mass_vector() -> MetricVector:
    return ok_vector(
        "bone-mass",
        BONE_MASS_SCORES["faithfulness"],
        BONE_MASS_SCORES["answer_relevance"],
        BONE_MASS_SCORES["retrieval_recall"],
        BONE_MASS_SCORES["retrieval_precision"],
    )
