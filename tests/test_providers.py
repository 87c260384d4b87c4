"""Tests for the provider stubs and HTTP adapters."""

import http.server
import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ReferenceScriptedGenerator, reference_embed, reference_token_axis, run_python
from ragmeter.metrics import cosine
from ragmeter.providers import (
    EndpointConfig,
    GenerationParams,
    HashEmbedder,
    HttpEmbedder,
    HttpGenerator,
    HttpPairScorer,
    LinearPairScorer,
    MissingScoreStatementError,
    ProviderError,
    ProviderHTTPError,
    ProviderResponseError,
    ProviderTimeoutError,
    RetryPolicy,
    ScriptMissError,
    ScriptedGenerator,
    all_in_process,
    run_calls,
)


def test_generation_params_defaults():
    params = GenerationParams()
    assert params.temperature == 0.0
    assert params.top_p == 0.01
    with pytest.raises(ValueError):
        GenerationParams(temperature=-1)
    with pytest.raises(ValueError):
        GenerationParams(top_p=0)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


# regex metacharacters and a non-ASCII letter, beside plain letters
NEEDLE_CHARS = "ab.*+?()[]{}|\\^$é"


class TestScriptedGenerator:
    def test_substring_match(self):
        generator = ScriptedGenerator({"Statements:": "canned faithfulness transcript"})
        assert generator.complete("... Statements: 1. x ...") == "canned faithfulness transcript"

    def test_tuple_matcher_requires_all_needles(self):
        generator = ScriptedGenerator({("alpha", "beta"): "both"}, strict=False, fallback="none")
        assert generator.complete("alpha and beta here") == "both"
        assert generator.complete("only alpha") == "none"

    def test_strict_miss_names_prompt_prefix(self):
        generator = ScriptedGenerator({"known": "ok"})
        with pytest.raises(ScriptMissError) as excinfo:
            generator.complete("an unmatched prompt body")
        assert "an unmatched prompt" in str(excinfo.value)

    def test_lenient_fallback(self):
        generator = ScriptedGenerator({"known": "ok"}, strict=False, fallback="fallback text")
        assert generator.complete("whatever") == "fallback text"

    def test_response_cycling(self):
        generator = ScriptedGenerator({"q": ["first", "second"]})
        assert [generator.complete("q"), generator.complete("q"), generator.complete("q")] == [
            "first",
            "second",
            "first",
        ]

    def test_first_matching_entry_wins(self):
        generator = ScriptedGenerator({"ab": "specific", "a": "generic"})
        assert generator.complete("ab") == "specific"

    # overlapping needles, needles shared across entries, a repeated needle, the empty needle
    @example(
        transcripts={"ab": ["x", "y"], "b": "z", ("b", "b"): "w", ("a", "c"): ["u", "v"], "": "e"},
        prompts=["ab", "b", "cab", "ca", "", "bb", "ab"],
        strict=True,
    )
    @example(transcripts={("a", "b"): "x", "b": ["y", "z"]}, prompts=["c", "b", "ba", "b", "c"], strict=True)
    @example(transcripts={("a", "b"): "x", "b": ["y", "z"]}, prompts=["c", "b", "ba", "b", "c"], strict=False)
    # a prefix chain: every needle that starts where a longer one starts occurs too
    @example(
        transcripts={("a", "ab", "abc"): "chain", "abc": "x", "ab": ["y", "z"], "a": "w"},
        prompts=["abc", "ab", "a", "xabcab", "b", "cba", "abab"],
        strict=True,
    )
    # "ab" and "bc" overlap in "abc": the scan restarts one past a match start, not at its end
    @example(transcripts={("ab", "bc"): "x", "bc": "y"}, prompts=["abc", "ab", "bc", "abbc", "ac"], strict=True)
    # a needle repeated inside one matcher
    @example(transcripts={("a", "a"): "x", ("b", "a", "b"): ["y", "z"]}, prompts=["a", "ab", "b", "ba"], strict=True)
    # the empty matcher matches every prompt
    @example(transcripts={"a": "x", (): ["e", "f"], "b": "y"}, prompts=["b", "a", "", "c", "ab"], strict=True)
    # needles with different first characters, each searched by its own pattern, in one prompt
    @example(
        transcripts={("ab", ".b", "é"): ["x", "y"], ".b": "z", ("b", "$a"): "w", "a": ["u", "v"]},
        prompts=["é.bab", "$ab", ".bab", "ab.b$a", "ba", "aé"],
        strict=True,
    )
    # the longest needle of a group fails partway while a shorter one matches at the same position
    @example(transcripts={"abcd": "x", "abx": ["y", "z"], "ab": "w"}, prompts=["abxab", "abcab", "abcd"], strict=True)
    @example(transcripts={("abcd", "ab"): "x", ("abx", "ab"): "y"}, prompts=["abxab", "abcab", "abcdabx"], strict=True)
    # needles that share only their first character
    @example(
        transcripts={("ab", "a.", "a$"): "x", "a(": ["y", "z"], "a.": "w"},
        prompts=["ab", "a.a$", "a$ab", "a(", "aba.a$", "a"],
        strict=False,
    )
    # a needle equal to its group's common prefix
    @example(
        transcripts={("a.b", "a.c"): "x", "a.": ["y", "z"], "a.c": "w"},
        prompts=["a.b", "a.ca.b", "a.", "a.c", "a"],
        strict=True,
    )
    @settings(max_examples=300, deadline=None)
    @given(
        transcripts=st.dictionaries(
            st.text(NEEDLE_CHARS, max_size=6)
            | st.lists(st.text(NEEDLE_CHARS, max_size=6), max_size=3).map(tuple),
            st.text("xyz", min_size=1, max_size=2)
            | st.lists(st.text("xyz", max_size=2), min_size=1, max_size=3),
            max_size=6,
        ),
        prompts=st.lists(st.text(NEEDLE_CHARS, max_size=12), min_size=1, max_size=25),
        strict=st.booleans(),
    )
    def test_matches_the_loop_reference(self, transcripts, prompts, strict):
        def outcome(complete, prompt):
            try:
                return complete(prompt)
            except ScriptMissError as exc:
                return ("miss", exc.prompt_prefix)

        # random long needles seldom occur in random prompts, so each entry
        # also gets a prompt holding all its needles back to back, where they
        # can straddle one another
        spliced = [
            prompts[i % len(prompts)] + "".join((matcher,) if isinstance(matcher, str) else matcher)
            for i, matcher in enumerate(transcripts)
        ]
        # replayed once as drawn and once with every prompt sent twice in a
        # row, where the second call reuses the entry the first one matched
        for replay in (prompts + spliced, [p for p in prompts + spliced for _ in range(2)]):
            generator = ScriptedGenerator(transcripts, strict=strict, fallback="fallback")
            reference = ReferenceScriptedGenerator(transcripts, strict=strict, fallback="fallback")
            for prompt in replay:
                assert outcome(generator.complete, prompt) == outcome(reference.complete, prompt)

    def test_repeated_prompt_keeps_the_round_robin(self):
        transcripts = {"a": ["a1", "a2", "a3"], "b": ["b1", "b2"], ("a", "b"): "ab"}
        generator = ScriptedGenerator(transcripts)
        reference = ReferenceScriptedGenerator(transcripts)
        prompts = ["a", "a", "b", "a"]
        responses = [generator.complete(prompt) for prompt in prompts]
        assert responses == [reference.complete(prompt) for prompt in prompts]
        assert responses == ["a1", "a2", "b1", "a3"]

    def test_long_prefix_chain_matches_the_loop_reference(self):
        chain = {"a" * length: f"r{length}" for length in range(1, 1001)}
        generator = ScriptedGenerator(chain, strict=False, fallback="fallback")
        reference = ReferenceScriptedGenerator(chain, strict=False, fallback="fallback")
        for prompt in ["a" * 500, "b", "x" + "a" * 1000, "a" * 1000, "ba"]:
            assert generator.complete(prompt) == reference.complete(prompt)


HASH_VOCAB = ["cloud", "sales", "river", "stone", "x", "9"]
# the Kelvin sign (lowers to ASCII "k"), dotted capital I (lowers to "i" and
# a combining dot), sharp s, NUL and a lone surrogate
UNICODE_WORDS = ["\u212a", "\u0130", "\u00df", "\x00", "\ud800"]
UNICODE_TEXT = " ".join(UNICODE_WORDS) + " x\u212a9 a\u0130b Stra\u00dfe\x00cloud \ud800river"
# any code point, surrogates included
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
hash_texts = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.lists(st.one_of(st.sampled_from(HASH_VOCAB + UNICODE_WORDS), ANY_TEXT), max_size=12).map(" ".join),
)


class TestHashEmbedder:
    def test_identical_text_cosine_is_one(self):
        embedder = HashEmbedder(128)
        text = "the same text twice"
        assert cosine(embedder.embed(text), embedder.embed(text)) == 1.0

    def test_keyword_channels_raise_topical_similarity(self):
        embedder = HashEmbedder(256, {"cloud": 3, "basketball": 7})
        both_cloud = cosine(
            embedder.embed("our cloud migration plan"), embedder.embed("cloud spending grew fast")
        )
        cross_topic = cosine(
            embedder.embed("our cloud migration plan"), embedder.embed("basketball practice drills")
        )
        assert both_cloud > cross_topic

    def test_empty_text_is_zero_vector(self):
        embedder = HashEmbedder(64)
        vec = embedder.embed("")
        assert not vec.any()
        assert cosine(vec, embedder.embed("something")) == 0.0

    def test_vectors_are_unit_or_zero(self):
        embedder = HashEmbedder(64, {"cloud": 0})
        for text in ("a few words here", "cloud", ""):
            norm = float(np.linalg.norm(embedder.embed(text)))
            assert norm == pytest.approx(1.0) or norm == 0.0

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            HashEmbedder(0)
        with pytest.raises(ValueError):
            HashEmbedder(8, {"kw": 8})

    def test_bit_determinism_across_instances(self):
        a = HashEmbedder(128, {"cloud": 5}).embed("clouds over the bay")
        b = HashEmbedder(128, {"cloud": 5}).embed("clouds over the bay")
        assert np.array_equal(a, b)

    def test_cosine_range(self):
        embedder = HashEmbedder(32)
        value = cosine(embedder.embed("one two three"), embedder.embed("three four five"))
        assert -1.0 <= value <= 1.0

    @given(st.data())
    def test_matches_loop_reference_bit_for_bit(self, data):
        # small dimensions make hashed axes collide with each other and with
        # keyword channels; non-integer boosts make the order of the sums matter
        dimension = data.draw(st.integers(1, 12), label="dimension")
        channels = {}
        for keyword in data.draw(st.lists(st.sampled_from(HASH_VOCAB), unique=True), label="keywords"):
            channels[keyword] = data.draw(
                st.one_of(
                    st.just(reference_token_axis(keyword, dimension)),
                    st.integers(0, dimension - 1),
                ),
                label=f"axis of {keyword}",
            )
        boost = data.draw(
            st.one_of(
                st.sampled_from([4.0, 0.1, 1 / 3, -1.0]),
                st.floats(-100.0, 100.0, allow_nan=False),
            ),
            label="boost",
        )
        texts = data.draw(st.lists(hash_texts, max_size=5), label="texts") + [UNICODE_TEXT]
        other = data.draw(ANY_TEXT, label="other text")
        embedder = HashEmbedder(dimension, channels, keyword_boost=boost)
        # repeated texts and tokens go through the memoised axes; each text is
        # embedded twice in a row and once more after another text
        for text in texts + texts:
            expected = reference_embed(text, dimension, channels, boost)
            first, repeat = embedder.embed(text), embedder.embed(text)
            embedder.embed(other)
            for vec in (first, repeat, embedder.embed(text)):
                assert vec.dtype == expected.dtype and vec.shape == expected.shape
                assert np.array_equal(vec, expected)

    def test_returned_vectors_are_fresh_copies(self):
        embedder = HashEmbedder(32)
        text = "the same text twice"
        first = embedder.embed(text)
        expected = first.copy()
        repeat = embedder.embed(text)
        assert np.array_equal(repeat, expected) and repeat is not first
        first[:] = 7.0
        repeat[:] = -7.0
        assert np.array_equal(embedder.embed(text), expected)
        empty = embedder.embed("")
        empty[0] = 1.0
        assert not embedder.embed("").any()

    @given(st.data())
    def test_embed_many_rows_equal_embed_bit_for_bit(self, data):
        # a mixed batch: empty texts, repeats, keyword channels and a
        # non-integer boost, each row checked against the loop reference
        dimension = data.draw(st.integers(1, 12), label="dimension")
        boost = data.draw(st.sampled_from([1 / 3, 0.1, 2.2, -1.0]), label="boost")
        channels = {"cloud": 0, "x": dimension - 1}
        pool = data.draw(st.lists(hash_texts, min_size=1, max_size=4), label="pool") + ["", UNICODE_TEXT]
        texts = data.draw(st.lists(st.sampled_from(pool), max_size=10), label="texts")
        embedder = HashEmbedder(dimension, channels, keyword_boost=boost)
        matrix = embedder.embed_many(texts)
        assert matrix.shape == (len(texts), dimension) and matrix.dtype == np.float64
        for row, text in zip(matrix, texts):
            expected = reference_embed(text, dimension, channels, boost)
            assert np.array_equal(row, expected)
            assert np.array_equal(embedder.embed(text), expected)
        if texts:
            matrix[:] = 7.0
            assert np.array_equal(embedder.embed_many(texts)[0], embedder.embed(texts[0]))

    @pytest.mark.parametrize("boost", [0.1, 1 / 3, 0.7, 2.2])
    def test_boosts_sum_in_token_order(self, boost):
        # unit, boost, unit, boost, ... rounds differently from all units first
        channels = {"cloud": reference_token_axis("cloud", 2)}
        other = next(t for t in ("bay", "tide", "x") if reference_token_axis(t, 2) != channels["cloud"])
        text = "cloud " * 6 + other
        vec = HashEmbedder(2, channels, keyword_boost=boost).embed(text)
        assert np.array_equal(vec, reference_embed(text, 2, channels, boost))


class TestInProcess:
    class Forwarding:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def test_stubs_are_in_process(self):
        assert all_in_process(ScriptedGenerator({}), HashEmbedder(8), LinearPairScorer([1, 1, 1, 1]))
        assert all_in_process(ScriptedGenerator({}), HashEmbedder(8), None)

    def test_http_wrappers_and_unmarked_providers_are_not(self):
        embedder = HashEmbedder(8)
        config = EndpointConfig(url="http://backend.test/embed")
        assert not all_in_process(ScriptedGenerator({}), HttpEmbedder(config))
        assert not all_in_process(ScriptedGenerator({}), self.Forwarding(embedder))
        assert not all_in_process(embedder, object())


class Remote:
    """A provider that does not declare itself in process."""


class TestRunCalls:
    def test_calling_thread_keeps_item_order(self):
        calls = []

        def fn(item):
            calls.append((item, threading.get_ident()))
            return item * 10

        assert run_calls(fn, range(5), 1, Remote()) == [0, 10, 20, 30, 40]
        assert calls == [(i, threading.get_ident()) for i in range(5)]

    def test_pool_returns_item_order_whatever_the_finishing_order(self):
        # item i finishes only after item i + 1, so the calls finish in reverse order
        finished = [threading.Event() for _ in range(5)]
        threads = set()

        def fn(item):
            threads.add(threading.get_ident())
            if item < 4:
                assert finished[item + 1].wait(5)
            finished[item].set()
            return item * 10

        assert run_calls(fn, range(5), 5, Remote()) == [0, 10, 20, 30, 40]
        assert threads and threading.get_ident() not in threads

    def test_calling_thread_stops_at_the_first_failure(self):
        calls = []

        def fn(item):
            calls.append(item)
            if item == 2:
                raise ProviderTimeoutError("backend down")
            return item

        with pytest.raises(ProviderTimeoutError, match="backend down"):
            run_calls(fn, range(5), 1, Remote())
        assert calls == [0, 1, 2]

    def test_pool_runs_every_call_and_raises_the_first_failure_in_item_order(self):
        # item 3 fails first; item 1 fails only after it, yet comes first in item order
        third_failed = threading.Event()
        calls = set()

        def fn(item):
            calls.add(item)
            if item == 3:
                third_failed.set()
                raise ValueError("item 3")
            if item == 1:
                assert third_failed.wait(5)
                raise ValueError("item 1")
            return item

        with pytest.raises(ValueError, match="^item 1$"):
            run_calls(fn, range(5), 5, Remote())
        assert calls == set(range(5))

    def test_in_process_providers_stay_on_the_calling_thread(self):
        threads = []

        def fn(item):
            threads.append(threading.get_ident())
            return item

        providers = (ScriptedGenerator({}), HashEmbedder(8), None)
        assert run_calls(fn, range(6), 4, *providers) == list(range(6))
        assert threads == [threading.get_ident()] * 6


@pytest.mark.parametrize("timeout", [0, 0.0, -1, float("nan")])
def test_endpoint_timeout_must_be_positive(timeout):
    with pytest.raises(ValueError, match="timeout must be > 0"):
        EndpointConfig(url="http://backend.test/generate", timeout=timeout)


def test_endpoint_timeout_must_fit_a_socket_timeout():
    with pytest.raises(ValueError, match=f"timeout must be at most {threading.TIMEOUT_MAX}, got 1e\\+300"):
        EndpointConfig(url="http://backend.test/generate", timeout=1e300)
    widest = EndpointConfig(url="http://backend.test/generate", timeout=threading.TIMEOUT_MAX)
    assert widest.timeout == threading.TIMEOUT_MAX


CANDIDATE = (
    "the answer relevancy score is: 0.25. "
    "the context precision score is: 0.5. "
    "the context recall score is: 0.75 "
    "the faithfulness score is: 1.0."
)


class TestLinearPairScorer:
    def test_affine_combination(self):
        scorer = LinearPairScorer((1.0, 2.0, 4.0, 8.0), bias=0.5)
        assert scorer.score("q", CANDIDATE) == pytest.approx(0.5 + 0.25 + 1.0 + 3.0 + 8.0)

    def test_zero_weights_return_bias(self):
        scorer = LinearPairScorer((0, 0, 0, 0), bias=6.0)
        assert scorer.score("q", CANDIDATE) == 6.0

    def test_missing_statement_names_metric(self):
        scorer = LinearPairScorer((1, 1, 1, 1))
        without_faithfulness = CANDIDATE.replace("faithfulness", "other")
        with pytest.raises(MissingScoreStatementError, match="faithfulness"):
            scorer.score("q", without_faithfulness)

    def test_requires_four_weights(self):
        with pytest.raises(ValueError):
            LinearPairScorer((1, 1, 1))

    def test_extract_scores(self):
        """Statements quoted before the appended block never stand in for a score."""
        for quoted in ("", "the faithfulness score is: 9. the context recall score is: 7 "):
            assert LinearPairScorer.extract_scores(quoted + CANDIDATE) == {
                "answer_relevance": 0.25,
                "retrieval_precision": 0.5,
                "retrieval_recall": 0.75,
                "faithfulness": 1.0,
            }


class FakeTransport:
    """Scripted (status, body) responses; records every request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, payload, headers, timeout):
        self.requests.append({"url": url, "payload": json.loads(payload), "headers": dict(headers)})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        status, body = response
        return status, json.dumps(body).encode("utf-8")


def _generator(transport, **config):
    return HttpGenerator(
        EndpointConfig(url="http://backend.test/generate", model="judge-1", **config),
        transport=transport,
        sleep=lambda _: None,
        jitter_seed=0,
    )


class TestHttpAdapters:
    def test_prompt_dialect_round_trip(self):
        transport = FakeTransport([(200, {"completion": "generated text"})])
        generator = _generator(transport)
        assert generator.complete("hello", GenerationParams()) == "generated text"
        payload = transport.requests[0]["payload"]
        assert payload["prompt"] == "hello"
        assert payload["model"] == "judge-1"
        assert payload["temperature"] == 0.0
        assert payload["top_p"] == 0.01

    def test_messages_dialect(self):
        transport = FakeTransport(
            [(200, {"choices": [{"message": {"content": "from messages"}}]})]
        )
        generator = _generator(transport, dialect="messages")
        assert generator.complete("hi") == "from messages"
        assert transport.requests[0]["payload"]["messages"] == [{"role": "user", "content": "hi"}]

    def test_retry_on_429_then_success(self):
        transport = FakeTransport([(429, {}), (200, {"completion": "ok"})])
        assert _generator(transport).complete("p") == "ok"
        assert len(transport.requests) == 2

    def test_401_fails_immediately(self):
        transport = FakeTransport([(401, {"error": "no auth"})])
        with pytest.raises(ProviderHTTPError) as excinfo:
            _generator(transport).complete("p")
        assert excinfo.value.status == 401
        assert len(transport.requests) == 1

    @pytest.mark.parametrize("status", [400, 403, 404, 418])
    def test_4xx_never_retried(self, status):
        transport = FakeTransport([(status, {})])
        with pytest.raises(ProviderHTTPError):
            _generator(transport).complete("p")
        assert len(transport.requests) == 1

    def test_retry_exhaustion_raises_timeout(self):
        transport = FakeTransport([(500, {}), (503, {}), (500, {})])
        with pytest.raises(ProviderTimeoutError):
            _generator(transport).complete("p")
        assert len(transport.requests) == 3

    def test_transport_exception_is_retried(self):
        transport = FakeTransport([OSError("refused"), (200, {"completion": "ok"})])
        assert _generator(transport).complete("p") == "ok"

    def test_malformed_response_raises_parse_error(self):
        transport = FakeTransport([(200, {"unexpected": True})])
        with pytest.raises(ProviderResponseError):
            _generator(transport).complete("p")

    def test_custom_response_path(self):
        transport = FakeTransport([(200, {"outputs": [{"text": "nested"}]})])
        generator = _generator(transport, response_path="outputs.0.text")
        assert generator.complete("p") == "nested"

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("BACKEND_TOKEN", "sekret")
        transport = FakeTransport([(200, {"completion": "ok"})])
        generator = _generator(transport, auth_env="BACKEND_TOKEN")
        generator.complete("p")
        assert transport.requests[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_missing_auth_env_is_provider_error(self, monkeypatch):
        monkeypatch.delenv("NOPE_TOKEN", raising=False)
        generator = _generator(FakeTransport([]), auth_env="NOPE_TOKEN")
        with pytest.raises(ProviderError, match="NOPE_TOKEN"):
            generator.complete("p")

    def test_embedder_vector(self):
        transport = FakeTransport([(200, {"embedding": [1.0, 2.0, 3.0]})])
        embedder = HttpEmbedder(
            EndpointConfig(url="http://backend.test/embed", model="emb-1"),
            transport=transport,
            sleep=lambda _: None,
        )
        assert np.array_equal(embedder.embed("text"), np.array([1.0, 2.0, 3.0]))
        assert transport.requests[0]["payload"] == {"model": "emb-1", "input": "text"}

    @pytest.mark.parametrize("body", [
        {"embedding": [1.0, float("nan")]},
        {"embedding": [True, False]},
        {"embedding": ["1", "2"]},
        {"embedding": [10**400, 1.0]},
        {"embedding": [True, 1.5]},
        {"embedding": [1, True]},
        {"embedding": [0.5, False, 2]},
    ], ids=["nan", "booleans", "strings", "too-large", "boolean-then-float", "int-then-boolean",
            "boolean-between-numbers"])
    def test_embedder_rejects_non_finite(self, body):
        transport = FakeTransport([(200, body)])
        embedder = HttpEmbedder(
            EndpointConfig(url="http://backend.test/embed"), transport=transport,
            sleep=lambda _: None,
        )
        with pytest.raises(ProviderResponseError):
            embedder.embed("text")

    def test_pair_scorer_logit(self):
        transport = FakeTransport([(200, {"score": 8.72})])
        scorer = HttpPairScorer(
            EndpointConfig(url="http://backend.test/score"), transport=transport,
            sleep=lambda _: None,
        )
        assert scorer.score("q", "candidate") == 8.72
        assert transport.requests[0]["payload"] == {"query": "q", "candidate": "candidate"}

    @pytest.mark.parametrize("body", [
        {"score": float("nan")},
        {"score": True},
        {"score": "2.5"},
        {"score": 10**400},
    ], ids=["nan", "boolean", "string", "too-large"])
    def test_pair_scorer_rejects_what_is_not_a_finite_number(self, body):
        transport = FakeTransport([(200, body)])
        scorer = HttpPairScorer(
            EndpointConfig(url="http://backend.test/score"), transport=transport,
            sleep=lambda _: None,
        )
        with pytest.raises(ProviderResponseError):
            scorer.score("q", "candidate")

    def test_backoff_delays_double(self):
        delays = []
        transport = FakeTransport([(500, {}), (500, {}), (200, {"completion": "ok"})])
        generator = HttpGenerator(
            EndpointConfig(url="http://backend.test/generate"),
            transport=transport,
            sleep=delays.append,
            retry=RetryPolicy(attempts=3, base_delay=0.25),
            jitter_seed=1,
        )
        generator.complete("p")
        assert len(delays) == 2
        assert 0.125 <= delays[0] <= 0.375
        assert 0.25 <= delays[1] <= 0.75


def test_import_loads_no_http_stack():
    proc = run_python("-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ragmeter.cli\n"
        "print(sorted({'urllib.request', 'http.client', 'ssl'} & (set(sys.modules) - before)))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class _LoopbackHandler(http.server.BaseHTTPRequestHandler):
    """Answers POST /generate with an echo completion and any other path with 404."""

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
        if self.path == "/generate":
            status, body = 200, json.dumps({"completion": f"echo: {prompt}"}).encode("utf-8")
        else:
            status, body = 404, b'{"error": "no route"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback_url(monkeypatch):
    # requests to the loopback server must not be routed through a proxy
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = http.server.HTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestDefaultTransport:
    """HTTP adapters built without a transport post through urllib."""

    def _generator(self, url):
        return HttpGenerator(EndpointConfig(url=url, timeout=10.0), sleep=lambda _: None)

    def test_ok_response_is_read(self, loopback_url):
        assert self._generator(f"{loopback_url}/generate").complete("hello") == "echo: hello"

    def test_error_status_raises_http_error(self, loopback_url):
        with pytest.raises(ProviderHTTPError) as caught:
            self._generator(f"{loopback_url}/missing").complete("hello")
        assert caught.value.status == 404
        assert "no route" in caught.value.body
