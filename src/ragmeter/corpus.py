"""Data model and dataset ingestion for RAG evaluation runs.

Handles the standard qrels relevance-judgment format, line-delimited record
files, and a harness that turns a text generator into synthetic
query/passage sets.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Iterable, Sequence

from ragmeter.providers import GenerationParams, TextGenerator, check_parallelism, run_calls
from ragmeter.schema import Range, check_fields, refusal


class QrelsFormatError(ValueError):
    """A qrels line that does not follow `topic iteration doc grade`."""

    def __init__(self, line_no: int, raw_line: str, reason: str):
        self.line_no = line_no
        self.raw_line = raw_line
        super().__init__(f"qrels line {line_no}: {reason}: {raw_line!r}")


class RecordFileError(ValueError):
    """A record file with invalid rows or duplicate ids.

    Carries every row-level problem plus the count of rows that did parse,
    so callers can verify no row was silently dropped. The message names
    the file, `source`.
    """

    def __init__(self, row_errors: Sequence[str], valid_count: int, source: str | Path):
        self.row_errors = list(row_errors)
        self.valid_count = valid_count
        summary = "; ".join(self.row_errors[:5])
        if len(self.row_errors) > 5:
            summary += f"; ... ({len(self.row_errors)} problems total)"
        super().__init__(f"record file {source} invalid: {summary}")


class SyntheticGenerationError(RuntimeError):
    """Generator failed mid-run; reports how many records completed."""

    def __init__(self, completed: int, cause: BaseException):
        self.completed = completed
        super().__init__(
            f"generator failed after {completed} completed record(s): {cause}"
        )


@dataclass(frozen=True)
class EvalRecord:
    """One (query, answer, contexts, optional ground truth) unit under evaluation.

    The answer may be empty for records produced by the synthetic harness,
    which are meant to be filled in by a RAG run before evaluation.
    """

    id: str
    query: str
    answer: str
    contexts: tuple[str, ...] = ()
    ground_truth: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not self.query.strip():
            raise ValueError(f"record {self.id!r}: query must be non-empty")
        object.__setattr__(self, "contexts", tuple(self.contexts))

    def to_dict(self) -> dict:
        doc = {
            "id": self.id,
            "query": self.query,
            "answer": self.answer,
            "contexts": list(self.contexts),
        }
        if self.ground_truth is not None:
            doc["ground_truth"] = self.ground_truth
        return doc


@dataclass(frozen=True)
class RecordSet:
    """A labelled, immutable collection of evaluation records."""

    label: str
    records: tuple[EvalRecord, ...]

    def __post_init__(self):
        if not self.label:
            raise ValueError("record set label must be non-empty")
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for record in self.records:
            if record.id in seen:
                raise ValueError(f"duplicate record id {record.id!r} in set {self.label!r}")
            seen.add(record.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class QrelsEntry:
    """One relevance judgment: (topic, document, integer grade)."""

    topic_id: str
    doc_id: str
    relevance: int

    def __post_init__(self):
        if re.search(r"\s", self.topic_id) or re.search(r"\s", self.doc_id):
            raise ValueError("qrels ids must be whitespace-free")
        if self.relevance < 0:
            raise ValueError(f"relevance grade must be >= 0, got {self.relevance}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Instructions for generating one topical record set."""

    topic_label: str
    prompt_template: str
    count: Annotated[int, Range(1)]

    def __post_init__(self):
        check_fields(self)
        if not self.topic_label:
            raise ValueError("topic_label must be non-empty")
        lowered = self.prompt_template.lower()
        if "passage" not in lowered or "question" not in lowered:
            raise ValueError(
                "prompt_template must instruct the generator to produce a "
                "passage and a question"
            )


@dataclass(frozen=True)
class SkippedTranscript:
    """Diagnostic for a generator transcript that could not be parsed."""

    index: int
    reason: str
    transcript: str


@dataclass(frozen=True)
class SyntheticResult:
    records: RecordSet
    skipped: tuple[SkippedTranscript, ...]


def parse_qrels(stream: str | Iterable[str]) -> list[QrelsEntry]:
    """Parse qrels lines `topic iteration doc grade` into entries, in file order.

    The iteration column is discarded. Blank lines are skipped. Malformed
    lines raise :class:`QrelsFormatError` carrying the line number.
    """
    if isinstance(stream, str):
        lines: Iterable[str] = stream.splitlines()
    else:
        lines = stream
    entries: list[QrelsEntry] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 4:
            raise QrelsFormatError(line_no, raw.rstrip("\n"), "expected at least 4 fields")
        topic_id, _iteration, doc_id, grade_text = fields[0], fields[1], fields[2], fields[3]
        try:
            grade = int(grade_text)
        except ValueError:
            raise QrelsFormatError(
                line_no, raw.rstrip("\n"), f"grade {grade_text!r} is not an integer"
            ) from None
        try:
            entries.append(QrelsEntry(topic_id, doc_id, grade))
        except ValueError as exc:
            raise QrelsFormatError(line_no, raw.rstrip("\n"), str(exc)) from None
    return entries


def serialize_qrels(entries: Iterable[QrelsEntry]) -> str:
    """Render entries back to the 4-column text format (iteration written as 0)."""
    return "".join(f"{e.topic_id} 0 {e.doc_id} {e.relevance}\n" for e in entries)


def filter_by_grade(entries: Iterable[QrelsEntry], grade: int) -> list[QrelsEntry]:
    """Entries whose relevance equals `grade`, original order preserved."""
    return [e for e in entries if e.relevance == grade]


def sample_without_replacement(items: Sequence, k: int, seed: int) -> list:
    """Seeded uniform sample of `k` items without replacement."""
    if k > len(items):
        raise ValueError(f"cannot sample {k} items from {len(items)}")
    return random.Random(seed).sample(list(items), k)


def record_from_fields(
    record_id: str, query: object, answer: object, contexts: object, ground_truth: object
) -> EvalRecord:
    """The record one input row holds, under the rules every record file and report shares.

    The id is stripped and must be non-empty. The query and the answer must
    be non-blank strings, and the contexts a list of strings; all three are
    kept verbatim. The ground truth must be a string or None, and a blank one
    is read as None. A row that breaks a rule raises ValueError.
    """
    record_id = record_id.strip()
    if not record_id:
        raise ValueError("missing record id")
    for name, value in (("query", query), ("answer", answer)):
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"record {record_id!r} missing {name}")
    if not isinstance(contexts, list) or not all(isinstance(c, str) for c in contexts):
        raise ValueError(f"record {record_id!r} contexts must be a list of strings")
    if ground_truth is not None and not isinstance(ground_truth, str):
        raise ValueError(f"record {record_id!r} ground_truth must be a string")
    return EvalRecord(record_id, query, answer, tuple(contexts),
                      ground_truth if ground_truth and ground_truth.strip() else None)


def _json_fields(line: str) -> tuple:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    record_id = doc.get("id", "")
    if refusal(record_id, str | int, "record id"):
        raise ValueError(f"record id must be a string or an integer, got {json.dumps(record_id)}")
    return str(record_id), doc.get("query"), doc.get("answer"), doc.get("contexts", []), doc.get("ground_truth")


def _delimited_fields(line: str) -> tuple:
    columns = line.rstrip("\n").split("\t")
    if len(columns) < 3:
        raise ValueError("expected at least id, query, answer columns")
    return *columns[:3], [c for c in columns[4:] if c], columns[3] if len(columns) > 3 else None


# The row reader of each record format: it splits a line into the fields of `record_from_fields`.
_ROW_READERS = {"structured-lines": _json_fields, "delimited": _delimited_fields}
RECORD_FORMATS = tuple(_ROW_READERS)


def load_record_set(
    source: str | Path, fmt: str = "structured-lines", *, label: str | None = None
) -> RecordSet:
    """Load a record set from a file, one record per non-blank line.

    `structured-lines` is one JSON object per line with fields
    {id, query, answer, contexts[], ground_truth?}; `delimited` is
    tab-separated `id, query, answer, ground_truth, context...` columns,
    whose empty context columns are dropped. Both go through
    :func:`record_from_fields`. A line of whitespace alone is blank, except
    that a tab separates delimited columns, so a delimited line with one is
    a row. Every bad row is collected and reported via
    :class:`RecordFileError`; nothing is silently dropped.
    """
    if fmt not in RECORD_FORMATS:
        raise ValueError(f"unknown record format {fmt!r}; expected one of {RECORD_FORMATS}")
    path = Path(source)
    read_row = _ROW_READERS[fmt]
    records: list[EvalRecord] = []
    errors: list[str] = []
    seen_ids: set[str] = set()
    try:
        with path.open(encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                if not raw.strip() and not (read_row is _delimited_fields and "\t" in raw):
                    continue
                try:
                    record = record_from_fields(*read_row(raw))
                    if record.id in seen_ids:
                        raise ValueError(f"duplicate record id {record.id!r}")
                except ValueError as exc:
                    errors.append(f"line {line_no}: {exc}")
                    continue
                seen_ids.add(record.id)
                records.append(record)
    except UnicodeDecodeError as exc:  # raised per decoded chunk, so no line number is known
        errors.append(f"not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})")
    if errors:
        raise RecordFileError(errors, valid_count=len(records), source=source)
    return RecordSet(label=label or path.stem, records=tuple(records))


def dumps_record_set(record_set: RecordSet) -> str:
    """A record set in the structured-lines format: one JSON object per line."""
    return "".join(
        json.dumps(record.to_dict(), ensure_ascii=False, sort_keys=True) + "\n"
        for record in record_set.records
    )


def save_record_set(record_set: RecordSet, path: str | Path) -> None:
    """Write a record set in the structured-lines format (UTF-8, one object per line)."""
    Path(path).write_text(dumps_record_set(record_set), encoding="utf-8")


_PASSAGE_RE = re.compile(r"passage\s*:", re.IGNORECASE)
_QUESTION_RE = re.compile(r"question\s*:", re.IGNORECASE)


def _parse_synthetic_transcript(transcript: str) -> tuple[str, str] | str:
    """Extract (passage, question) from a transcript, or a skip reason."""
    passage_match = _PASSAGE_RE.search(transcript)
    question_match = _QUESTION_RE.search(transcript)
    if passage_match is None:
        return "no Passage section"
    if question_match is None:
        return "no Question section"
    if question_match.start() > passage_match.start():
        passage = transcript[passage_match.end() : question_match.start()]
        question = transcript[question_match.end() :]
    else:
        question = transcript[question_match.end() : passage_match.start()]
        passage = transcript[passage_match.end() :]
    passage, question = passage.strip(), question.strip()
    # A question can run into trailing boilerplate; keep its first paragraph.
    question = question.split("\n\n")[0].strip()
    if not passage:
        return "empty Passage section"
    if not question:
        return "empty Question section"
    return passage, question


def generate_synthetic(
    spec: SyntheticSpec,
    generator: TextGenerator,
    *,
    params: GenerationParams | None = None,
    parallelism: int = 1,
) -> SyntheticResult:
    """Generate `spec.count` passage/question records via `generator`.

    Answers are left empty so a RAG run can fill them in later. Transcripts
    that lack a parseable Passage or Question section are skipped and
    reported in the result. An invalid `parallelism` raises ValueError
    before any generator call.

    The calls go through :func:`~ragmeter.providers.run_calls`:
    `parallelism` bounds concurrent generator calls, and an in-process
    generator always runs on the calling thread, so cycling scripted
    responses arrive in request order. A generator failure aborts the run
    with :class:`SyntheticGenerationError`, whose `completed` counts the
    generator calls that succeeded: on the calling thread those before the
    failure, where the run stops; on a pool, all of them, since every call
    runs.
    """
    check_parallelism(parallelism)  # outside the `try`, which reports generator failures
    completed: list[int] = []

    def run_one(index: int) -> str:
        transcript = generator.complete(spec.prompt_template, params)
        completed.append(index)
        return transcript

    try:
        transcripts = run_calls(run_one, range(spec.count), parallelism, generator)
    except Exception as exc:
        raise SyntheticGenerationError(len(completed), exc) from exc

    records: list[EvalRecord] = []
    skipped: list[SkippedTranscript] = []
    for i, transcript in enumerate(transcripts):
        parsed = _parse_synthetic_transcript(transcript)
        if isinstance(parsed, str):
            skipped.append(SkippedTranscript(index=i, reason=parsed, transcript=transcript))
            continue
        passage, question = parsed
        records.append(
            EvalRecord(
                id=f"{spec.topic_label}-{i + 1:04d}",
                query=question,
                answer="",
                contexts=(passage,),
            )
        )
    return SyntheticResult(
        records=RecordSet(label=spec.topic_label, records=tuple(records)),
        skipped=tuple(skipped),
    )
