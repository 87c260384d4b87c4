"""Judge prompt construction and transcript parsing.

Prompts are rendered from versioned template assets; any template edit is a
breaking change gated by golden tests. Parsers are strict: every transcript
either yields a structured verdict or raises a typed
:class:`TranscriptParseError`, never anything else.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Annotated, Literal, Mapping, Sequence

from ragmeter.corpus import EvalRecord
from ragmeter.schema import Range, check_arguments


class TranscriptParseError(ValueError):
    """Base class for judge-transcript parsing failures."""


class MissingSectionError(TranscriptParseError):
    """An expected marker or section is absent from the transcript."""


class EmptySectionError(TranscriptParseError):
    """A required section is present but carries no content."""


class VerdictCountError(TranscriptParseError):
    """The verdict count does not match the expected item count."""

    def __init__(self, expected: int, actual: int, what: str = "verdicts"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"expected {expected} {what}, found {actual}")


class VerdictTokenError(TranscriptParseError):
    """A verdict token is neither yes nor no."""

    def __init__(self, token: str):
        self.token = token
        super().__init__(f"verdict token {token!r} is not yes/no")


class UnknownTagError(TranscriptParseError):
    """A classification tag is neither of the two supported forms."""

    def __init__(self, tag: str):
        self.tag = tag
        super().__init__(f"unknown classification tag [{tag}]")


class DegenerateInputWarning(UserWarning):
    """A prompt was built from degenerate input, e.g. an empty context."""


@dataclass(frozen=True)
class FaithfulnessVerdicts:
    verdicts: tuple[bool, ...]

    def __post_init__(self):
        if not self.verdicts:
            raise ValueError("verdicts must be non-empty")


@dataclass(frozen=True)
class RecallClassification:
    supported: tuple[bool, ...]

    def __post_init__(self):
        if not self.supported:
            raise ValueError("labels must be non-empty")


@dataclass(frozen=True)
class PrecisionExtraction:
    """The candidate sentences a judge extracted; none means insufficient information."""

    candidate_sentences: tuple[str, ...]

    def __post_init__(self):
        if any(not s for s in self.candidate_sentences):
            raise ValueError("candidate sentences must be non-empty strings")

    @property
    def insufficient(self) -> bool:
        return not self.candidate_sentences


@dataclass(frozen=True)
class GeneratedQuestions:
    questions: tuple[str, ...]

    def __post_init__(self):
        if not self.questions or any(not q for q in self.questions):
            raise ValueError("questions must be non-empty")


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Read a shipped template asset verbatim."""
    return (resources.files("ragmeter") / "assets" / name).read_text(encoding="utf-8")


_SLOT_RE = re.compile(r"\{(\w+)\}")


def render(template: str, slots: Mapping[str, str]) -> str:
    """Fill each `{name}` slot of the template in one pass.

    Values are inserted verbatim and never rescanned, so text that itself
    contains `{name}` tokens cannot reach another slot. Names without a slot
    value stay as written.
    """
    return _SLOT_RE.sub(lambda m: slots.get(m.group(1), m.group(0)), template)


def _join_contexts(record: EvalRecord, prompt_name: str) -> str:
    if not record.contexts:
        warnings.warn(
            f"{prompt_name} prompt for record {record.id!r} has an empty context section",
            DegenerateInputWarning,
            stacklevel=3,
        )
    return "\n\n".join(record.contexts)


# a terminator and the whitespace after it; for str patterns \s is exactly str.isspace()
_TERMINATOR_RE = re.compile(r"[.!?]\s*")


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences, preserving the original spans.

    A sentence ends at '.', '!' or '?' followed by whitespace and an
    uppercase letter, or at end of text. Abbreviations followed by
    lowercase continue the sentence. Never returns empty segments.
    """
    segments: list[str] = []
    start = 0
    n = len(text)
    for match in _TERMINATOR_RE.finditer(text):
        j, k = match.start() + 1, match.end()
        if k == n or (k > j and text[k].isupper()):
            segment = text[start:j].strip()
            if segment:
                segments.append(segment)
            start = k
    tail = text[start:].strip()
    if tail:
        segments.append(tail)
    return segments


def build_faithfulness_prompt(record: EvalRecord, statements: Sequence[str]) -> str:
    """Render the faithfulness prompt with numbered statements."""
    if not statements:
        raise ValueError("statements must be non-empty")
    numbered = "\n".join(f"{i}. {s}" for i, s in enumerate(statements, start=1))
    return render(
        load_template("faithfulness_prompt.txt"),
        {"context": _join_contexts(record, "faithfulness"), "statements": numbered},
    )


_FINAL_VERDICT_RE = re.compile(r"final verdict for each statement in order\s*:", re.IGNORECASE)


def parse_faithfulness_verdicts(transcript: str, n_statements: Annotated[int, Range(1)]) -> FaithfulnessVerdicts:
    """Extract the ordered Yes/No verdicts from the final-verdict line.

    Tokens are matched case-insensitively; trailing periods and commas are
    tolerated, anything else is rejected. An argument that fails its hint
    raises ValueError.
    """
    check_arguments(parse_faithfulness_verdicts, locals())
    matches = list(_FINAL_VERDICT_RE.finditer(transcript))
    if not matches:
        raise MissingSectionError("no final-verdict line in transcript")
    line = transcript[matches[-1].end() :].split("\n", 1)[0]
    verdicts: list[bool] = []
    for token in line.split():
        word = token.rstrip(".,").lower()
        if word == "yes":
            verdicts.append(True)
        elif word == "no":
            verdicts.append(False)
        else:
            raise VerdictTokenError(token)
    if len(verdicts) != n_statements:
        raise VerdictCountError(n_statements, len(verdicts))
    return FaithfulnessVerdicts(tuple(verdicts))


RECALL_SOURCES = ("auto", "ground_truth", "answer")


def check_recall_source(recall_source: Literal[RECALL_SOURCES]) -> None:
    """Raise ValueError unless `recall_source` is one of :data:`RECALL_SOURCES`, in the config key's wording."""
    check_arguments(check_recall_source, locals())


def recall_source_text(record: EvalRecord, source: str = "auto") -> str:
    """The text whose sentences the recall judge classifies.

    `auto` prefers the ground truth when present and falls back to the
    answer.
    """
    check_recall_source(source)
    if source == "ground_truth" or (source == "auto" and record.ground_truth):
        if not record.ground_truth:
            raise ValueError(f"record {record.id!r} has no ground truth for recall")
        return record.ground_truth
    return record.answer


def build_recall_prompt(record: EvalRecord, source: str = "auto") -> str:
    """Render the recall-classification prompt for the chosen sentence source."""
    return render(
        load_template("recall_prompt.txt"),
        {
            "context": _join_contexts(record, "recall"),
            "ground_truth": recall_source_text(record, source),
        },
    )


_BRACKET_TAG_RE = re.compile(r"\[([^\]\n]*)\]")


def parse_recall_classification(transcript: str, n_sentences: Annotated[int, Range(1)]) -> RecallClassification:
    """Extract ordered supported/not-supported tags from a classification list.

    An argument that fails its hint raises ValueError.
    """
    check_arguments(parse_recall_classification, locals())
    supported: list[bool] = []
    for match in _BRACKET_TAG_RE.finditer(transcript):
        tag = match.group(1)
        normalized = " ".join(tag.split()).lower()
        if "supported" not in normalized:
            continue
        if normalized == "supported by context":
            supported.append(True)
        elif normalized == "not supported by context":
            supported.append(False)
        else:
            raise UnknownTagError(tag)
    if not supported:
        raise MissingSectionError("no classification tags in transcript")
    if len(supported) != n_sentences:
        raise VerdictCountError(n_sentences, len(supported), what="classification tags")
    return RecallClassification(tuple(supported))


def build_precision_prompt(record: EvalRecord) -> str:
    """Render the sentence-extraction prompt for retrieval precision."""
    return render(
        load_template("precision_prompt.txt"),
        {"question": record.query, "context": _join_contexts(record, "precision")},
    )


_CANDIDATE_SECTION_RE = re.compile(r"candidate sentences\s*:", re.IGNORECASE)
_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")
INSUFFICIENT_SENTINEL = "insufficient information"


def parse_precision_extraction(transcript: str) -> PrecisionExtraction:
    """Read the Candidate Sentences section into verbatim extractions.

    The exact phrase "Insufficient Information" alone in the section marks
    the extraction as insufficient; otherwise each bullet or line becomes a
    candidate sentence.
    """
    matches = list(_CANDIDATE_SECTION_RE.finditer(transcript))
    if not matches:
        raise MissingSectionError("no Candidate Sentences section in transcript")
    section = transcript[matches[-1].end() :]
    if section.strip().rstrip(".").lower() == INSUFFICIENT_SENTINEL:
        return PrecisionExtraction(())
    candidates = []
    for line in section.splitlines():
        item = _BULLET_RE.sub("", line).strip()
        if item:
            candidates.append(item)
    if not candidates:
        raise EmptySectionError("Candidate Sentences section carries no sentences")
    return PrecisionExtraction(tuple(candidates))


def build_question_gen_prompt(answer: str) -> str:
    """Render the question-generation prompt for answer relevance."""
    if not answer.strip():
        raise ValueError("answer must be non-empty")
    return render(load_template("question_gen_prompt.txt"), {"answer": answer})


_QUESTION_MARKER_RE = re.compile(r"question\s*:", re.IGNORECASE)


def parse_generated_question(transcript: str) -> str:
    """The first non-empty line after the final Question: marker."""
    matches = list(_QUESTION_MARKER_RE.finditer(transcript))
    if not matches:
        raise MissingSectionError("no Question marker in transcript")
    remainder = transcript[matches[-1].end() :]
    for line in remainder.splitlines():
        if line.strip():
            return line.strip()
    raise EmptySectionError("Question marker present but body is blank")
