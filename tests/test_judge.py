"""Tests for prompt construction and transcript parsing."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import read_golden
from helpers import (
    EMMA_CONTEXT,
    EMMA_STATEMENTS,
    NEWTON_ANSWER,
    NEWTON_CONTEXT,
    PSLV_ANSWER,
    PSLV_QUESTION,
    TIDES_CONTEXT,
    TIDES_QUESTION,
    hostile_text,
    reference_render,
    reference_segment_sentences,
)
from ragmeter.corpus import EvalRecord
from ragmeter.providers import ScriptedGenerator
from ragmeter.judge import (
    DegenerateInputWarning,
    EmptySectionError,
    MissingSectionError,
    PrecisionExtraction,
    TranscriptParseError,
    UnknownTagError,
    VerdictCountError,
    VerdictTokenError,
    build_faithfulness_prompt,
    build_precision_prompt,
    build_question_gen_prompt,
    build_recall_prompt,
    load_template,
    parse_faithfulness_verdicts,
    parse_generated_question,
    parse_precision_extraction,
    parse_recall_classification,
    recall_source_text,
    render,
    segment_sentences,
)


class TestSegmentSentences:
    def test_basic_split(self):
        assert segment_sentences("A b. C d.") == ["A b.", "C d."]

    def test_empty(self):
        assert segment_sentences("") == []
        assert segment_sentences("   ") == []

    def test_abbreviation_does_not_split(self):
        assert segment_sentences("He noticed e.g. mold. It grew.") == [
            "He noticed e.g. mold.",
            "It grew.",
        ]

    def test_no_terminal_punctuation(self):
        assert segment_sentences("no punctuation at all") == ["no punctuation at all"]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_lowercase_after_period_continues(self):
        assert segment_sentences("See fig. 3 for details.") == ["See fig. 3 for details."]

    @given(st.text(max_size=200))
    def test_never_returns_empty_segments(self, text):
        for segment in segment_sentences(text):
            assert segment
            assert segment == segment.strip()

    # terminators, ASCII and Unicode whitespace (\x1c, \x85 and \u3000 are
    # str.isspace()) and characters of every case kind: é/É are non-ASCII,
    # ǅ is titlecase (not isupper) and Ⓐ is isupper but not a letter
    @given(st.text(alphabet=".!? \t\n\x1c\x85\u3000aAéÉǅⒶ", max_size=60))
    @example("A b. C d.")
    @example("e.g. x. Y! z?")
    @example("Hi.\x85\u3000É")
    @example("ok.\x1cǅ done")
    @example("end?!..")
    def test_matches_the_loop_reference(self, text):
        assert segment_sentences(text) == reference_segment_sentences(text)


class TestFaithfulness:
    def test_emma_prompt_matches_golden(self):
        record = EvalRecord(id="emma", query="What is Emma studying?", answer="placeholder.",
                            contexts=(EMMA_CONTEXT,))
        assert build_faithfulness_prompt(record, list(EMMA_STATEMENTS)) == read_golden(
            "emma_faithfulness_prompt.txt"
        )

    def test_single_statement_numbering(self):
        record = EvalRecord(id="r", query="q", answer="a.", contexts=("ctx",))
        prompt = build_faithfulness_prompt(record, ["only one"])
        assert "Statements:\n1. only one" in prompt
        assert "2." not in prompt.split("Statements:\n1. only one")[-1]

    def test_empty_statements_rejected(self):
        record = EvalRecord(id="r", query="q", answer="a.", contexts=("ctx",))
        with pytest.raises(ValueError):
            build_faithfulness_prompt(record, [])

    def test_empty_contexts_warn(self):
        record = EvalRecord(id="r", query="q", answer="a.")
        with pytest.warns(DegenerateInputWarning):
            prompt = build_faithfulness_prompt(record, ["s"])
        assert "Context: \n" in prompt

    def test_parse_worked_example(self):
        parsed = parse_faithfulness_verdicts(read_golden("emma_faithfulness_transcript.txt"), 5)
        assert parsed.verdicts == (False, True, False, True, True)

    def test_parse_case_insensitive_single(self):
        parsed = parse_faithfulness_verdicts("final VERDICT for each statement in order: yes", 1)
        assert parsed.verdicts == (True,)

    def test_count_mismatch_carries_both_counts(self):
        line = "Final verdict for each statement in order: No. Yes. No. Yes."
        with pytest.raises(VerdictCountError) as excinfo:
            parse_faithfulness_verdicts(line, 5)
        assert excinfo.value.expected == 5
        assert excinfo.value.actual == 4

    def test_bad_token_rejected(self):
        line = "Final verdict for each statement in order: Yes. Maybe."
        with pytest.raises(VerdictTokenError):
            parse_faithfulness_verdicts(line, 2)

    def test_missing_verdict_line(self):
        with pytest.raises(MissingSectionError):
            parse_faithfulness_verdicts("some reasoning without the anchor", 1)

    def test_last_verdict_line_wins(self):
        transcript = (
            "Final verdict for each statement in order: Yes.\n"
            "Correction below.\n"
            "Final verdict for each statement in order: No.\n"
        )
        assert parse_faithfulness_verdicts(transcript, 1).verdicts == (False,)


@pytest.mark.parametrize("parse, name, line", [
    (parse_faithfulness_verdicts, "n_statements", "Final verdict for each statement in order: Yes."),
    (parse_recall_classification, "n_sentences", "1. x [Supported by Context]"),
])
@pytest.mark.parametrize("count, rule", [(0, ">= 1"), (True, "an integer"), (1.5, "an integer")])
def test_parsers_refuse_a_count_that_is_not_a_positive_integer(parse, name, line, count, rule):
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {count!r}$"):
        parse(line, count)


class TestRecall:
    def test_newton_prompt_matches_golden(self):
        record = EvalRecord(
            id="newton", query="Who was Isaac Newton?", answer=NEWTON_ANSWER,
            contexts=(NEWTON_CONTEXT,), ground_truth=NEWTON_ANSWER,
        )
        assert build_recall_prompt(record) == read_golden("newton_recall_prompt.txt")

    def test_newton_transcript(self):
        parsed = parse_recall_classification(read_golden("newton_recall_transcript.txt"), 3)
        assert parsed.supported == (True, True, False)

    def test_curie_transcript(self):
        parsed = parse_recall_classification(read_golden("curie_recall_transcript.txt"), 3)
        assert parsed.supported == (True, True, True)

    def test_count_mismatch(self):
        transcript = "1. a [Supported by Context]\n2. b [Not Supported by Context]\n"
        with pytest.raises(VerdictCountError):
            parse_recall_classification(transcript, 3)

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            parse_recall_classification("1. x [Partially Supported by Context]", 1)

    def test_no_tags(self):
        with pytest.raises(MissingSectionError):
            parse_recall_classification("free-form text with [brackets] but no tags", 1)

    def test_tags_case_insensitive(self):
        parsed = parse_recall_classification("1. x [supported by context]", 1)
        assert parsed.supported == (True,)

    def test_recall_source_selection(self):
        with_gt = EvalRecord(id="r", query="q", answer="a.", contexts=("c",), ground_truth="gt.")
        without_gt = EvalRecord(id="r", query="q", answer="a.", contexts=("c",))
        assert recall_source_text(with_gt, "auto") == "gt."
        assert recall_source_text(without_gt, "auto") == "a."
        assert recall_source_text(with_gt, "answer") == "a."
        with pytest.raises(ValueError):
            recall_source_text(without_gt, "ground_truth")
        with pytest.raises(ValueError):
            recall_source_text(with_gt, "sideways")


class TestPrecision:
    def test_tides_prompt_matches_golden(self):
        record = EvalRecord(id="tides", query=TIDES_QUESTION, answer="The moon and sun cause tides.",
                            contexts=(TIDES_CONTEXT,))
        assert build_precision_prompt(record) == read_golden("tides_precision_prompt.txt")

    def test_tides_transcript(self):
        parsed = parse_precision_extraction(read_golden("tides_precision_transcript.txt"))
        assert not parsed.insufficient
        assert len(parsed.candidate_sentences) == 2
        assert parsed.candidate_sentences[0].startswith("The gravitational pull")

    def test_atlantis_transcript_is_insufficient(self):
        parsed = parse_precision_extraction(read_golden("atlantis_precision_transcript.txt"))
        assert parsed.insufficient
        assert parsed.candidate_sentences == ()

    def test_sentinel_tolerates_case_and_period(self):
        parsed = parse_precision_extraction("Candidate Sentences:\ninsufficient information.")
        assert parsed.insufficient

    def test_empty_section_rejected(self):
        with pytest.raises(EmptySectionError):
            parse_precision_extraction("Candidate Sentences:\n   \n")

    def test_missing_section_rejected(self):
        with pytest.raises(MissingSectionError):
            parse_precision_extraction("no marker anywhere")

    def test_empty_extraction_must_be_marked_insufficient(self):
        assert PrecisionExtraction(()).insufficient
        assert not PrecisionExtraction(("A sentence.",)).insufficient
        with pytest.raises(ValueError, match="non-empty strings"):
            PrecisionExtraction(("A sentence.", ""))

    @pytest.mark.parametrize("bullet", ["- ", "* ", "• ", "1. ", "1) "])
    def test_bullet_styles(self, bullet):
        parsed = parse_precision_extraction(f"Candidate Sentences:\n{bullet}A sentence here.")
        assert parsed.candidate_sentences == ("A sentence here.",)


class TestQuestionGeneration:
    def test_pslv_prompt_matches_golden(self):
        assert build_question_gen_prompt(PSLV_ANSWER) == read_golden("pslv_question_gen_prompt.txt")

    def test_pslv_transcript(self):
        assert parse_generated_question(read_golden("pslv_question_transcript.txt")) == PSLV_QUESTION

    def test_marker_with_blank_body(self):
        with pytest.raises(EmptySectionError):
            parse_generated_question("Question:\n\n   \n")

    def test_multi_line_takes_first(self):
        assert parse_generated_question("Question:\nFirst line?\nSecond line.") == "First line?"

    def test_same_line_question(self):
        assert parse_generated_question("Question: Inline question?") == "Inline question?"

    def test_final_marker_wins(self):
        assert parse_generated_question("Question: draft?\nQuestion: final?") == "final?"

    def test_no_marker(self):
        with pytest.raises(MissingSectionError):
            parse_generated_question("no marker")

    def test_empty_answer_rejected(self):
        with pytest.raises(ValueError):
            build_question_gen_prompt("   ")


class TestBuildThenJudgeRoundTrips:
    """Build each prompt, answer it with the scripted worked-example judge,
    and parse the transcript back into the expected verdicts."""

    def test_faithfulness(self):
        record = EvalRecord(id="emma", query="What is Emma studying?", answer="placeholder.",
                            contexts=(EMMA_CONTEXT,))
        prompt = build_faithfulness_prompt(record, list(EMMA_STATEMENTS))
        judge = ScriptedGenerator({EMMA_STATEMENTS[0]: read_golden("emma_faithfulness_transcript.txt")})
        parsed = parse_faithfulness_verdicts(judge.complete(prompt), 5)
        assert parsed.verdicts == (False, True, False, True, True)

    def test_recall(self):
        record = EvalRecord(id="newton", query="Who was Isaac Newton?", answer=NEWTON_ANSWER,
                            contexts=(NEWTON_CONTEXT,), ground_truth=NEWTON_ANSWER)
        prompt = build_recall_prompt(record)
        judge = ScriptedGenerator({"Isaac Newton (25 December": read_golden("newton_recall_transcript.txt")})
        # the worked example classifies 3 sentences (the second ends inside a
        # quotation, which the whitespace-then-uppercase rule does not split)
        parsed = parse_recall_classification(judge.complete(prompt), 3)
        assert parsed.supported == (True, True, False)

    def test_precision(self):
        record = EvalRecord(id="tides", query=TIDES_QUESTION, answer="The moon and sun cause tides.",
                            contexts=(TIDES_CONTEXT,))
        prompt = build_precision_prompt(record)
        judge = ScriptedGenerator({TIDES_QUESTION: read_golden("tides_precision_transcript.txt")})
        parsed = parse_precision_extraction(judge.complete(prompt))
        assert len(parsed.candidate_sentences) == 2

    def test_question_generation(self):
        prompt = build_question_gen_prompt(PSLV_ANSWER)
        judge = ScriptedGenerator({"PSLV-C56": read_golden("pslv_question_transcript.txt")})
        assert parse_generated_question(judge.complete(prompt)) == PSLV_QUESTION


@given(st.text(max_size=400))
def test_parsers_total_over_error_type(text):
    """Arbitrary transcripts either parse or raise a TranscriptParseError."""
    for parse in (
        lambda t: parse_faithfulness_verdicts(t, 3),
        lambda t: parse_recall_classification(t, 3),
        parse_precision_extraction,
        parse_generated_question,
    ):
        try:
            parse(text)
        except TranscriptParseError:
            pass


class TestRender:
    def test_unknown_slot_stays_verbatim(self):
        assert render("{a} and {b} and {}", {"a": "x"}) == "x and {b} and {}"

    def test_value_is_never_rescanned(self):
        assert render("{a}|{b}", {"a": "{b}", "b": "{a}"}) == "{b}|{a}"


_nonblank_text = hostile_text.filter(str.strip)


@given(
    query=_nonblank_text,
    answer=_nonblank_text,
    contexts=st.lists(hostile_text, min_size=1, max_size=3),
    ground_truth=st.one_of(st.none(), hostile_text),
    statements=st.lists(hostile_text, min_size=1, max_size=3),
)
@example(
    query="what is {context}?",
    answer="a.",
    contexts=["see {statements} here"],
    ground_truth=None,
    statements=["First claim."],
)
def test_record_text_fills_only_its_own_slot(query, answer, contexts, ground_truth, statements):
    """Query, answer, context and ground truth reach each prompt verbatim, in their own slots only."""
    record = EvalRecord(id="r", query=query, answer=answer, contexts=tuple(contexts),
                        ground_truth=ground_truth)
    context = "\n\n".join(contexts)
    numbered = "\n".join(f"{i}. {s}" for i, s in enumerate(statements, start=1))
    assert build_faithfulness_prompt(record, statements) == reference_render(
        load_template("faithfulness_prompt.txt"), {"context": context, "statements": numbered}
    )
    assert build_recall_prompt(record) == reference_render(
        load_template("recall_prompt.txt"),
        {"context": context, "ground_truth": recall_source_text(record)},
    )
    assert build_precision_prompt(record) == reference_render(
        load_template("precision_prompt.txt"), {"question": query, "context": context}
    )
    assert build_question_gen_prompt(answer) == reference_render(
        load_template("question_gen_prompt.txt"), {"answer": answer}
    )
