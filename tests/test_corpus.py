"""Tests for qrels parsing, record files, and the synthetic harness."""

import json
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scripts_for_record
from ragmeter.corpus import (
    EvalRecord,
    QrelsEntry,
    QrelsFormatError,
    RecordFileError,
    RecordSet,
    SkippedTranscript,
    SyntheticGenerationError,
    SyntheticSpec,
    filter_by_grade,
    generate_synthetic,
    load_record_set,
    parse_qrels,
    record_from_fields,
    sample_without_replacement,
    save_record_set,
    serialize_qrels,
)
from ragmeter.judge import segment_sentences
from ragmeter.metrics import STATUS_OK, evaluate_record
from ragmeter.providers import HashEmbedder, ProviderBundle, ScriptedGenerator
from ragmeter.schema import refusal, type_hints


@pytest.mark.parametrize("build, message", [
    (lambda: EvalRecord("r", "q", "a", contexts="one passage"), "contexts must be a list of strings, got 'one passage'"),
    (lambda: EvalRecord("r", None, "a"), "query must be a string, got None"),
    (lambda: EvalRecord(7, "q", "a"), "id must be a string, got 7"),
    (lambda: EvalRecord("r", "q", "a", ("c", 1)), "contexts[1] must be a string, got 1"),
    (lambda: EvalRecord("r", "q", "a", ground_truth=0.5), "ground_truth must be a string or null, got 0.5"),
    (lambda: RecordSet("s", ["x"]), "records[0] must be EvalRecord, got 'x'"),
    (lambda: RecordSet("s", "x"), "records must be a list of EvalRecords, got 'x'"),
    (lambda: RecordSet(None, ()), "label must be a string, got None"),
    (lambda: QrelsEntry("t", "d", 1.5), "relevance must be an integer, got 1.5"),
    (lambda: QrelsEntry("t", "d", True), "relevance must be an integer, got True"),
    (lambda: QrelsEntry("t", "d", -1), "relevance must be >= 0, got -1"),
    (lambda: QrelsEntry("t", 4, 1), "doc_id must be a string, got 4"),
], ids=["string-contexts", "none-query", "integer-id", "integer-context", "number-ground-truth",
        "non-record-item", "string-records", "none-label", "fractional-relevance", "bool-relevance",
        "negative-relevance", "integer-doc-id"])
def test_a_data_class_refuses_a_field_of_the_wrong_type_in_schemas_wording(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_record_file_row_is_refused_in_the_same_words(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "r1", "query": "q", "answer": "a", "contexts": "one passage"}\n', encoding="utf-8")
    with pytest.raises(RecordFileError) as excinfo:
        load_record_set(path)
    assert excinfo.value.row_errors == ["line 1: contexts must be a list of strings, got 'one passage'"]


def test_a_list_of_contexts_is_kept_as_a_tuple():
    record = EvalRecord("r", "q", "a", ["c1", "c2"])
    assert record.contexts == ("c1", "c2")
    assert RecordSet("s", [record]).records == (record,)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_VALID_FIELDS = {"id": "r", "query": "q", "answer": "a", "contexts": (), "ground_truth": None}


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_VALID_FIELDS)), value=_json_values)
def test_a_record_field_is_accepted_exactly_when_its_hint_is_met(name, value):
    # the rules a type cannot state: a non-empty id and a non-blank query
    breaks_a_rule = value == "" if name == "id" else name == "query" and isinstance(value, str) and not value.strip()
    problem = refusal(value, type_hints(EvalRecord)[name], name)
    try:
        EvalRecord(**{**_VALID_FIELDS, name: value})
    except ValueError as exc:
        assert problem == str(exc) or problem is None and breaks_a_rule
    else:
        assert problem is None and not breaks_a_rule


def test_parse_qrels_basic():
    entries = parse_qrels("101 0 D12 3\n101 0 D13 0")
    assert entries == [QrelsEntry("101", "D12", 3), QrelsEntry("101", "D13", 0)]


def test_parse_qrels_empty_stream():
    assert parse_qrels("") == []
    assert parse_qrels([]) == []


def test_parse_qrels_non_integer_grade():
    with pytest.raises(QrelsFormatError) as excinfo:
        parse_qrels("101 0 D12 three")
    assert excinfo.value.line_no == 1
    assert "101 0 D12 three" in str(excinfo.value)


def test_parse_qrels_too_few_fields():
    with pytest.raises(QrelsFormatError) as excinfo:
        parse_qrels("101 0 D12 3\n102 D13 1")
    assert excinfo.value.line_no == 2


def test_parse_qrels_skips_blank_lines_and_tolerates_extra_fields():
    entries = parse_qrels("101 0 D12 3 extra\n\n102 0 D13 1\n")
    assert [e.doc_id for e in entries] == ["D12", "D13"]


def test_parse_qrels_rejects_negative_grade():
    with pytest.raises(QrelsFormatError):
        parse_qrels("101 0 D12 -1")


qrels_entries = st.lists(
    st.builds(
        QrelsEntry,
        topic_id=st.from_regex(r"[0-9]{1,4}", fullmatch=True),
        doc_id=st.from_regex(r"D[0-9A-Za-z]{1,8}", fullmatch=True),
        relevance=st.integers(min_value=0, max_value=4),
    ),
    max_size=30,
)


@given(qrels_entries)
def test_qrels_serialize_parse_round_trip(entries):
    assert parse_qrels(serialize_qrels(entries)) == entries


@given(qrels_entries)
def test_filter_by_grade_partitions(entries):
    grades = {e.relevance for e in entries}
    recovered = []
    for grade in sorted(grades):
        filtered = filter_by_grade(entries, grade)
        assert all(e.relevance == grade for e in filtered)
        recovered.extend(filtered)
    assert len(recovered) == len(entries)
    assert sorted(map(id, recovered)) == sorted(map(id, entries))


def test_filter_by_grade_examples():
    entries = parse_qrels("101 0 D12 3\n101 0 D13 0")
    assert filter_by_grade(entries, 3) == [QrelsEntry("101", "D12", 3)]
    assert filter_by_grade(entries, 2) == []
    all_threes = [QrelsEntry("1", "D1", 3), QrelsEntry("1", "D2", 3)]
    assert filter_by_grade(all_threes, 0) == []


def test_sample_without_replacement_deterministic():
    items = list(range(100))
    first = sample_without_replacement(items, 10, seed=42)
    second = sample_without_replacement(items, 10, seed=42)
    assert first == second
    assert len(set(first)) == 10
    assert sample_without_replacement(items, 10, seed=43) != first
    with pytest.raises(ValueError):
        sample_without_replacement([1, 2], 3, seed=0)


def test_eval_record_invariants():
    with pytest.raises(ValueError):
        EvalRecord(id="", query="q", answer="a")
    with pytest.raises(ValueError):
        EvalRecord(id="r1", query="  ", answer="a")
    record = EvalRecord(id="r1", query="q", answer="", contexts=["c1"])
    assert record.contexts == ("c1",)


def test_record_set_rejects_duplicate_ids():
    a = EvalRecord(id="r1", query="q", answer="a")
    with pytest.raises(ValueError, match="duplicate"):
        RecordSet(label="s", records=(a, a))
    with pytest.raises(ValueError):
        RecordSet(label="", records=(a,))


def test_load_record_set_structured_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"id": "r1", "query": "q1", "answer": "a1", "contexts": ["c1", "c2", "c3", "c4", "c5"]}\n'
        '{"id": "r2", "query": "q2", "answer": "a2", "ground_truth": "gt"}\n',
        encoding="utf-8",
    )
    record_set = load_record_set(path)
    assert record_set.label == "records"
    assert len(record_set.records[0].contexts) == 5
    assert record_set.records[1].ground_truth == "gt"
    assert record_set.records[1].contexts == ()


def test_load_record_set_missing_answer_names_record(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "r9", "query": "q", "contexts": []}\n', encoding="utf-8")
    with pytest.raises(RecordFileError, match="r9"):
        load_record_set(path)


def test_load_record_set_duplicate_id(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"id": "r1", "query": "q", "answer": "a"}\n{"id": "r1", "query": "q", "answer": "a"}\n',
        encoding="utf-8",
    )
    with pytest.raises(RecordFileError, match="duplicate"):
        load_record_set(path)


def test_load_record_set_reports_every_bad_row(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"id": "r1", "query": "q", "answer": "a"}\n'
        "not json\n"
        '{"id": "r2", "query": "q"}\n'
        '{"id": "r3", "query": "q", "answer": "a"}\n',
        encoding="utf-8",
    )
    with pytest.raises(RecordFileError) as excinfo:
        load_record_set(path)
    # no row silently dropped: rows = parsed + reported problems
    assert excinfo.value.valid_count + len(excinfo.value.row_errors) == 4


@pytest.mark.parametrize("record_id", ["null", "true", "1.5", '{"x": 1}'])
def test_load_record_set_rejects_an_id_neither_string_nor_integer(tmp_path, record_id):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"id": "r1", "query": "q", "answer": "a"}\n'
        f'{{"id": {record_id}, "query": "q", "answer": "a"}}\n',
        encoding="utf-8",
    )
    with pytest.raises(RecordFileError) as excinfo:
        load_record_set(path)
    assert excinfo.value.row_errors == [
        f"line 2: record id must be a string or an integer, got {record_id}"
    ]
    assert excinfo.value.valid_count == 1


@pytest.mark.parametrize("fmt", ["structured-lines", "delimited"])
def test_load_record_set_names_a_file_that_is_not_utf8(tmp_path, fmt):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'\xff{"id": "r1", "query": "q", "answer": "a"}\n')
    with pytest.raises(RecordFileError) as excinfo:
        load_record_set(path, fmt)
    assert str(excinfo.value) == f"record file {path} invalid: not UTF-8 text: invalid start byte (byte 0xff)"
    assert excinfo.value.valid_count == 0


def test_load_record_set_stringifies_an_integer_id(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": 7, "query": "q", "answer": "a"}\n', encoding="utf-8")
    assert load_record_set(path).records[0].id == "7"


def test_load_record_set_delimited(tmp_path):
    path = tmp_path / "records.tsv"
    path.write_text(
        "r1\tq1\ta1\tgt1\tc1\tc2\nr2\tq2\ta2\t\tc1\n",
        encoding="utf-8",
    )
    record_set = load_record_set(path, "delimited")
    assert record_set.records[0].contexts == ("c1", "c2")
    assert record_set.records[0].ground_truth == "gt1"
    assert record_set.records[1].ground_truth is None


# Row text either format can hold: no tab, no line break.
_row_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=6)
_field = st.sampled_from(["", " ", "  padded  "]) | _row_text


def _load_outcome(path, fmt):
    """The records `path` loads to, or the row errors it is refused with."""
    try:
        return load_record_set(path, fmt).records
    except RecordFileError as exc:
        return exc.row_errors


@settings(max_examples=200, deadline=None)
@given(record_id=_field, query=_field, answer=_field, ground_truth=st.none() | _field,
       contexts=st.lists(_row_text.filter(bool), max_size=3))
def test_both_formats_load_the_same_fields_alike(tmp_path_factory, record_id, query, answer, ground_truth, contexts):
    folder = tmp_path_factory.mktemp("rows")
    doc = {"id": record_id, "query": query, "answer": answer, "contexts": contexts}
    if ground_truth is not None:
        doc["ground_truth"] = ground_truth
    (folder / "rows.jsonl").write_text("\n" + json.dumps(doc) + "\n", encoding="utf-8")
    optional = [ground_truth or "", *contexts] if ground_truth is not None or contexts else []
    (folder / "rows.tsv").write_text("\n" + "\t".join([record_id, query, answer, *optional]) + "\n", encoding="utf-8")
    try:
        expected = (record_from_fields(record_id, query, answer, contexts, ground_truth),)
    except ValueError as exc:
        expected = [f"line 2: {exc}"]
    assert _load_outcome(folder / "rows.jsonl", "structured-lines") == expected
    assert _load_outcome(folder / "rows.tsv", "delimited") == expected


@pytest.mark.parametrize("fmt, row", [
    ("structured-lines", '{"id": "r1", "query": "Why?", "answer": "%s", "contexts": ["%s"], "ground_truth": " "}'),
    ("delimited", "r1\tWhy?\t%s\t \t%s"),
], ids=["structured-lines", "delimited"])
def test_blank_ground_truth_is_absent_so_recall_judges_the_answer(tmp_path, fmt, row):
    answer, context = "Tides follow the moon. The sun adds a pull.", "The moon pulls the sea."
    path = tmp_path / "records.txt"
    path.write_text(row % (answer, context) + "\n", encoding="utf-8")
    record = load_record_set(path, fmt).records[0]
    assert record == EvalRecord("r1", "Why?", answer, (context,))
    scripts = scripts_for_record(record, faith=[True, True], recall=[True, False], precision=[context])
    result = evaluate_record(record, ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(64))).result(
        "retrieval_recall")
    assert result.status == STATUS_OK
    assert result.diagnostics["sentences"] == segment_sentences(answer)


def test_load_record_set_unknown_format(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("{}\n", encoding="utf-8")
    message = "record_format must be 'structured-lines' or 'delimited', got 'csv'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_record_set(path, "csv")


def test_save_load_round_trip(tmp_path):
    records = (
        EvalRecord(id="r1", query="q1", answer="a1", contexts=("c1",), ground_truth="g"),
        EvalRecord(id="r2", query="q2", answer="a2"),
    )
    original = RecordSet(label="round", records=records)
    path = tmp_path / "round.jsonl"
    save_record_set(original, path)
    loaded = load_record_set(path, label="round")
    assert loaded == original


SYNTH_TEMPLATE = "Generate a passage about clouds and a corresponding question based on the passage."


def test_generate_synthetic_scripted():
    generator = ScriptedGenerator(
        {
            "Generate a passage": [
                "Passage:\nClouds drive modern sales analytics.\n\nQuestion:\nHow do clouds drive sales analytics?",
                "Passage:\nCloud spending keeps growing.\n\nQuestion:\nWhat keeps growing?",
            ]
        }
    )
    spec = SyntheticSpec(topic_label="cloud", prompt_template=SYNTH_TEMPLATE, count=2)
    result = generate_synthetic(spec, generator)
    assert len(result.records) == 2
    first = result.records.records[0]
    assert first.id == "cloud-0001"
    assert first.answer == ""
    assert first.contexts == ("Clouds drive modern sales analytics.",)
    assert first.query == "How do clouds drive sales analytics?"


def test_generate_synthetic_skips_unparseable():
    generator = ScriptedGenerator(
        {
            "Generate a passage": [
                "Passage:\nGood passage here.\n\nQuestion:\nA question?",
                "Passage:\nNo question follows at all.",
            ]
        }
    )
    spec = SyntheticSpec(topic_label="cloud", prompt_template=SYNTH_TEMPLATE, count=2)
    result = generate_synthetic(spec, generator)
    assert len(result.records) == 1
    assert len(result.skipped) == 1
    assert isinstance(result.skipped[0], SkippedTranscript)
    assert result.skipped[0].reason == "no Question section"


def test_synthetic_spec_rejects_zero_count():
    with pytest.raises(ValueError):
        SyntheticSpec(topic_label="cloud", prompt_template=SYNTH_TEMPLATE, count=0)


def test_synthetic_spec_requires_instruction_slots():
    with pytest.raises(ValueError):
        SyntheticSpec(topic_label="cloud", prompt_template="write something", count=1)


def test_generate_synthetic_generator_failure_reports_completed():
    calls = {"n": 0}

    class FlakyGenerator:
        def complete(self, prompt, params=None):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("backend down")
            return "Passage:\np\n\nQuestion:\nq?"

    spec = SyntheticSpec(topic_label="cloud", prompt_template=SYNTH_TEMPLATE, count=5)
    with pytest.raises(SyntheticGenerationError) as excinfo:
        generate_synthetic(spec, FlakyGenerator())
    assert excinfo.value.completed == 2


def test_generate_synthetic_parallel():
    threads = set()

    class RecordingGenerator(ScriptedGenerator):
        def complete(self, prompt, params=None):
            threads.add(threading.get_ident())
            return super().complete(prompt, params)

    # cycling responses arrive in request order only when calls are serial
    generator = RecordingGenerator(
        {"Generate a passage": [f"Passage:\nPassage {i}.\n\nQuestion:\nQuestion {i}?" for i in range(6)]}
    )
    spec = SyntheticSpec(topic_label="par", prompt_template=SYNTH_TEMPLATE, count=6)
    result = generate_synthetic(spec, generator, parallelism=3)
    assert len(result.records) == 6
    assert [r.id for r in result.records] == [f"par-{i:04d}" for i in range(1, 7)]
    assert [r.query for r in result.records] == [f"Question {i}?" for i in range(6)]
    assert threads == {threading.get_ident()}


def test_generate_synthetic_pool_failure_counts_every_successful_call():
    lock = threading.Lock()
    calls = {"n": 0}

    class FlakyRemoteGenerator:
        def complete(self, prompt, params=None):
            with lock:
                calls["n"] += 1
                call = calls["n"]
            if call == 2:
                raise RuntimeError("backend down")
            return "Passage:\np\n\nQuestion:\nq?"

    spec = SyntheticSpec(topic_label="cloud", prompt_template=SYNTH_TEMPLATE, count=5)
    with pytest.raises(SyntheticGenerationError, match="backend down") as excinfo:
        generate_synthetic(spec, FlakyRemoteGenerator(), parallelism=3)
    assert excinfo.value.completed == 4
    assert calls["n"] == 5


@pytest.mark.parametrize("parallelism", [0, -3, True, 2.5])
def test_generate_synthetic_rejects_parallelism_below_one(parallelism):
    calls = []

    class RecordingGenerator:
        def complete(self, prompt, params=None):
            calls.append(prompt)
            return "Passage:\np\n\nQuestion:\nq?"

    spec = SyntheticSpec(topic_label="par", prompt_template=SYNTH_TEMPLATE, count=2)
    with pytest.raises(ValueError, match="parallelism"):
        generate_synthetic(spec, RecordingGenerator(), parallelism=parallelism)
    assert calls == []


def test_generate_synthetic_pools_other_generators():
    threads = set()

    class RemoteGenerator:
        def complete(self, prompt, params=None):
            threads.add(threading.get_ident())
            return "Passage:\nShared passage text.\n\nQuestion:\nShared question?"

    spec = SyntheticSpec(topic_label="par", prompt_template=SYNTH_TEMPLATE, count=6)
    result = generate_synthetic(spec, RemoteGenerator(), parallelism=3)
    assert [r.id for r in result.records] == [f"par-{i:04d}" for i in range(1, 7)]
    assert threads and threading.get_ident() not in threads


def test_generate_synthetic_question_first_transcript():
    generator = ScriptedGenerator(
        {"Generate a passage": "Question:\nWhich came first?\n\nPassage:\nThe passage came second."}
    )
    spec = SyntheticSpec(topic_label="t", prompt_template=SYNTH_TEMPLATE, count=1)
    result = generate_synthetic(spec, generator)
    record = result.records.records[0]
    assert record.query == "Which came first?"
    assert record.contexts == ("The passage came second.",)
