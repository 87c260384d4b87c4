"""Seeded, code-generated inputs for the four benchmark workloads.

Everything here is derived from the workload seed alone and uses only the
standard library: the program under test sees nothing but the files and
objects these functions produce. Each generator also records the reference
every output is checked against -- exact faithfulness, recall and precision
from the constructed transcripts and sentence sets, and answer-relevance
bounds from the constructed token overlap -- so no reference comes from the
program itself.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

# Phrases unique to each judge template; a script entry pairs one with a
# token that occurs only in the prompts it must answer.
FAITH_MARK = "Consider the given context and following statements"
RECALL_MARK = "classify whether the sentence is supported"
PRECISION_MARK = "Evaluate whether the provided context can answer"
QGEN_MARK = "Generate a question based on the given answer"

SENTENCE_TOKENS = 12
PRECISION_THRESHOLD = 0.8
N_QUESTIONS = 3
STUB_DIMENSION = 1024
# Hash collisions in the stub embedder can move a cosine by a few hundredths;
# the bound is loose enough for that and still catches a wrong metric.
RELEVANCE_SLACK = 0.15

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass
class Expected:
    """Reference scores for one record."""

    faithfulness: float
    retrieval_recall: float
    retrieval_precision: float
    relevance_low: float
    relevance_high: float


@dataclass
class RecordSpec:
    id: str
    query: str
    answer: str
    contexts: list[str]
    ground_truth: str
    expected: Expected
    # what the judge is scripted to return, kept to derive references
    sentences: list[str]
    candidates: list[str]
    questions: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "query": self.query,
                "answer": self.answer,
                "contexts": self.contexts,
                "ground_truth": self.ground_truth,
            },
            sort_keys=True,
        )


@dataclass
class Generated:
    """One workload's generated inputs, with the references to check them by."""

    sets: dict[str, list[RecordSpec]]
    scripts: list[dict] = field(default_factory=list)
    # (transcript kind, matching token) -> transcript, for the fake HTTP backend
    replies: dict[tuple[str, str], str] = field(default_factory=dict)
    # every text a client embeds: context sentences, candidates, queries, questions
    embed_texts: set[str] = field(default_factory=set)
    values: list[float] = field(default_factory=list)

    @property
    def records(self) -> list[RecordSpec]:
        return [r for records in self.sets.values() for r in records]


def tokens(text: str) -> list[str]:
    """The stub embedder's tokenisation: lowercase alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Letters-only pseudo-words drawn with a Zipf-like skew.

    Letters only, so no word can contain a record or class token (those
    carry digits) and substring matchers stay unambiguous.
    """

    def __init__(self, rng: random.Random, size: int = 3000):
        words: set[str] = set()
        while len(words) < size:
            words.add("".join(rng.choice("bcdfghjklmnpqrstvwxz") + rng.choice("aeiou")
                              for _ in range(rng.randint(2, 4))))
        self.words = sorted(words)
        rng.shuffle(self.words)
        weights = [1.0 / (rank + 10) for rank in range(size)]
        total = 0.0
        self._cum = []
        for w in weights:
            total += w
            self._cum.append(total)
        self._rng = rng

    def distinct(self, k: int, exclude: set[str] = frozenset()) -> list[str]:
        out: list[str] = []
        seen = set(exclude)
        while len(out) < k:
            word = self._rng.choices(self.words, cum_weights=self._cum)[0]
            if word not in seen:
                seen.add(word)
                out.append(word)
        return out

    def sentence(self, extra: str = "") -> str:
        words = self.distinct(SENTENCE_TOKENS - (1 if extra else 0))
        if extra:
            words.insert(self._rng.randrange(1, len(words) + 1), extra)
        return " ".join([words[0].capitalize()] + words[1:]) + "."


def near_copy(sentence: str, replacement: str) -> str:
    """The sentence with its last word swapped: one token off, never verbatim."""
    words = sentence.rstrip(".").split(" ")
    words[-1] = replacement
    return " ".join(words) + "."


def faithfulness_transcript(verdicts: list[bool]) -> str:
    return "Final verdict for each statement in order: " + " ".join(
        "Yes." if v else "No." for v in verdicts) + "\n"


def recall_transcript(flags: list[bool]) -> str:
    lines = ["Classification:"]
    for i, flag in enumerate(flags, start=1):
        tag = "[Supported by Context]" if flag else "[Not Supported by Context]"
        lines.append(f"{i}. Sentence {i} was checked against the context. So {tag}")
    return "\n".join(lines) + "\n"


def precision_transcript(candidates: list[str]) -> str:
    return "Candidate Sentences:\n" + "\n".join(f"- {c}" for c in candidates) + "\n"


def question_transcript(question: str) -> str:
    return f"Question:\n{question}\n"


def token_cosine(a: str, b: str) -> float:
    """Cosine of two bag-of-token vectors when no two tokens share an axis."""
    ta, tb = set(tokens(a)), set(tokens(b))
    return len(ta & tb) / math.sqrt(len(ta) * len(tb))


def relevance_bounds(query: str, questions: list[str]) -> tuple[float, float]:
    centre = sum(token_cosine(query, q) for q in questions) / len(questions)
    return max(0.0, centre - RELEVANCE_SLACK), min(1.0, centre + RELEVANCE_SLACK)


# evaluate-embed / evaluate-http: long contexts, shared class scripts.
EMBED_PASSAGES = 5
EMBED_SENTENCES = 6
EMBED_CANDIDATES = 3
EMBED_CLASSES = 4
# (statement verdicts, recall flags, query topic words shared with the question)
_EMBED_CLASS_SHAPES = (
    ([True, True, True], [True, True, False], 4),
    ([True, False, True, True], [True, False, False], 3),
    ([True, True, False, True, False], [True, True, True], 2),
    ([False, True, True, True], [False, True, False], 1),
)


def evaluate_embed(seed: int, n_records: int) -> Generated:
    """Records with 5 x 6-sentence contexts served by a handful of class scripts.

    Each class shares three anchor sentences placed in every member's
    contexts; the precision judge returns one-token near-copies of them, so
    every context sentence takes the embedding path and exactly three of
    thirty match. Faithfulness, recall and question scripts are shared per
    class too, which keeps the script scan constant per call.
    """
    rng = random.Random(f"evaluate-embed:{seed}")
    vocab = Vocabulary(rng)
    classes = []
    scripts: list[dict] = []
    replies: dict[tuple[str, str], str] = {}
    embed_texts: set[str] = set()
    for c, (verdicts, flags, shared) in enumerate(_EMBED_CLASS_SHAPES):
        token = f"kq{c:02d}x"
        topic = vocab.distinct(4)
        anchors = [vocab.sentence() for _ in range(EMBED_CANDIDATES)]
        variants = vocab.distinct(EMBED_CANDIDATES, exclude={w for a in anchors for w in tokens(a)})
        candidates = [near_copy(a, v) for a, v in zip(anchors, variants)]
        question_words = topic[:shared] + vocab.distinct(2, set(topic))
        question = "What about " + " ".join(question_words + [token]) + "?"
        transcripts = {
            FAITH_MARK: faithfulness_transcript(verdicts),
            RECALL_MARK: recall_transcript(flags),
            PRECISION_MARK: precision_transcript(candidates),
            QGEN_MARK: question_transcript(question),
        }
        for mark, transcript in transcripts.items():
            scripts.append({"match": [mark, token], "responses": [transcript]})
            replies[(mark, token)] = transcript
        embed_texts.update(candidates + [question])
        classes.append((token, topic, set(topic + question_words), anchors, candidates, question,
                        verdicts, flags))

    records = []
    for i in range(n_records):
        token, topic, taken, anchors, candidates, question, verdicts, flags = classes[i % EMBED_CLASSES]
        query = "What about " + " ".join(topic + vocab.distinct(4, taken) + [token]) + "?"
        answer = " ".join([vocab.sentence(token)] + [vocab.sentence() for _ in verdicts[1:]])
        ground_truth = " ".join([vocab.sentence(token)] + [vocab.sentence() for _ in flags[1:]])
        sentences = [vocab.sentence() for _ in range(EMBED_PASSAGES * EMBED_SENTENCES - len(anchors))]
        for anchor in anchors:
            sentences.insert(rng.randrange(len(sentences) + 1), anchor)
        contexts = [" ".join(sentences[p * EMBED_SENTENCES:(p + 1) * EMBED_SENTENCES])
                    for p in range(EMBED_PASSAGES)]
        embed_texts.update(sentences + [query])
        low, high = relevance_bounds(query, [question] * N_QUESTIONS)
        records.append(RecordSpec(
            id=f"e{i:05d}", query=query, answer=answer, contexts=contexts,
            ground_truth=ground_truth,
            expected=Expected(
                faithfulness=sum(verdicts) / len(verdicts),
                retrieval_recall=sum(flags) / len(flags),
                retrieval_precision=len(anchors) / len(sentences),
                relevance_low=low, relevance_high=high,
            ),
            sentences=sentences, candidates=candidates, questions=[question] * N_QUESTIONS,
        ))
    return Generated({"records": records}, scripts=scripts, replies=replies, embed_texts=embed_texts)


# topicality-replay: short contexts, one replayed transcript set per record.
TOPIC_SENTENCES = 3
# tier -> (recall flags cycle, verbatim candidate counts cycle, shared query words)
_TOPIC_TIERS = {
    "on_topic": (([True, True, True], [True, True, False]), (3, 2), 4),
    "adjacent": (([True, True, False], [True, False, False]), (2, 1), 2),
    "off_topic": (([False, False, False], [True, False, False]), (1, 1), 0),
}


def topicality_replay(seed: int, per_set: int) -> Generated:
    """Three query sets whose scripts replay one transcript set per record.

    Every record has its own four script entries (faithfulness, recall,
    precision and three question transcripts), so the scripted generator
    scans a list that grows with the record count. Candidates are verbatim
    context sentences, which takes the exact-match path of precision.
    """
    rng = random.Random(f"topicality-replay:{seed}")
    vocab = Vocabulary(rng)
    sets: dict[str, list[RecordSpec]] = {}
    scripts: list[dict] = []
    for t, (tier, (flag_cycle, count_cycle, shared)) in enumerate(_TOPIC_TIERS.items()):
        records = []
        for i in range(per_set):
            token = f"rq{t}{i:04d}z"
            topic = vocab.distinct(4)
            query = "What about " + " ".join(topic + [token]) + "?"
            verdicts = [True, True, False] if i % 4 == 0 else [True, True, True]
            flags = flag_cycle[i % 2]
            sentences = [vocab.sentence() for _ in range(TOPIC_SENTENCES)]
            candidates = sentences[:count_cycle[i % 2]]
            questions = ["What about " + " ".join(topic[:shared] + vocab.distinct(4 - shared + k, set(topic))
                                                  + [token]) + "?" for k in range(N_QUESTIONS)]
            answer = " ".join([vocab.sentence(token)] + [vocab.sentence() for _ in verdicts[1:]])
            ground_truth = " ".join([vocab.sentence(token)] + [vocab.sentence() for _ in flags[1:]])
            scripts += [
                {"match": [FAITH_MARK, token], "responses": [faithfulness_transcript(verdicts)]},
                {"match": [RECALL_MARK, token], "responses": [recall_transcript(flags)]},
                {"match": [PRECISION_MARK, token], "responses": [precision_transcript(candidates)]},
                {"match": [QGEN_MARK, token], "responses": [question_transcript(q) for q in questions]},
            ]
            low, high = relevance_bounds(query, questions)
            records.append(RecordSpec(
                id=f"{tier}-{i:04d}", query=query, answer=answer, contexts=[" ".join(sentences)],
                ground_truth=ground_truth,
                expected=Expected(
                    faithfulness=sum(verdicts) / len(verdicts),
                    retrieval_recall=sum(flags) / len(flags),
                    retrieval_precision=len(candidates) / len(sentences),
                    relevance_low=low, relevance_high=high,
                ),
                sentences=sentences, candidates=candidates, questions=questions,
            ))
        sets[tier] = records
    return Generated(sets, scripts=scripts)


def bootstrap_large(seed: int, n: int) -> Generated:
    """One beta(2, 5)-distributed values file, like a precision column."""
    rng = random.Random(f"bootstrap-large:{seed}")
    return Generated({}, values=[rng.betavariate(2.0, 5.0) for _ in range(n)])


def write_records(path: Path, records: list[RecordSpec]) -> None:
    path.write_text("".join(r.to_json() + "\n" for r in records), encoding="utf-8")


def write_json(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
