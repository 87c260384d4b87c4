"""Interfaces to external model services plus deterministic in-process stubs.

Three capabilities are modelled: text generation (the judge), text
embedding, and pair scoring (a cross-encoder returning a relevance logit).
Each has an HTTP adapter for hosted backends and a stub for offline,
bit-reproducible runs; the pair scorer's stub is `aggregation.LinearPairScorer`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Annotated, Callable, Iterable, Literal, Mapping, Protocol, Sequence, TypeVar

import numpy as np

from ragmeter.schema import Range, check_arguments, check_fields, refusal


class ProviderError(RuntimeError):
    """Base class for provider failures."""


class ProviderHTTPError(ProviderError):
    """Non-retryable HTTP status from a backend."""

    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body}")


class ProviderTimeoutError(ProviderError):
    """Retry budget exhausted on transient failures."""


class ProviderResponseError(ProviderError):
    """Backend responded but the body could not be interpreted."""


class ScriptMissError(ProviderError):
    """A scripted generator received a prompt no matcher covers."""

    def __init__(self, prompt: str):
        self.prompt_prefix = prompt[:80]
        super().__init__(f"no script matches prompt starting {self.prompt_prefix!r}")


def check_parallelism(parallelism: Annotated[int, Range(1)]) -> None:
    """Raise ValueError unless `parallelism` is an integer of at least 1."""
    check_arguments(check_parallelism, locals())


@dataclass(frozen=True)
class GenerationParams:
    """Decoding parameters; defaults pin near-deterministic generation."""

    temperature: Annotated[float, Range(0)] = 0.0
    top_p: Annotated[float, Range(0, 1, open_low=True)] = 0.01
    max_tokens: Annotated[int, Range(1)] = 1024
    seed: int | None = None

    def __post_init__(self):
        check_fields(self)


class TextGenerator(Protocol):
    def complete(self, prompt: str, params: GenerationParams | None = None) -> str: ...


class Embedder(Protocol):
    """Maps a text to a 1-d float vector.

    An embedder may also have `embed_many(texts)`, answering a batch as one
    `(len(texts), d)` array whose row i is `embed(texts[i])`. The metrics
    call it when an embedder has it, with each distinct text of the batch
    once, and otherwise call `embed` once per text, repeats included, in
    order. A `HashEmbedder` subclass that overrides `embed` must override
    `embed_many` too, or the metrics never call its `embed`.
    """

    def embed(self, text: str) -> np.ndarray: ...


class PairScorer(Protocol):
    def score(self, query: str, candidate: str) -> float: ...


@dataclass(frozen=True)
class ProviderBundle:
    """The providers one evaluation run needs."""

    generator: TextGenerator
    embedder: Embedder
    scorer: PairScorer | None = None


def all_in_process(*providers: object) -> bool:
    """Whether every given provider computes in process instead of waiting on I/O.

    A provider declares this with a class attribute `in_process = True`.
    Threads only overlap waiting, so callers run in-process providers on the
    calling thread and keep a pool for the rest. The attribute is read from
    the class: a wrapper that forwards attributes to a provider it holds may
    add waiting of its own, so it keeps the pool unless it declares itself.
    `None` entries (an absent optional provider) are ignored.
    """
    return all(getattr(type(p), "in_process", False) for p in providers if p is not None)


T = TypeVar("T")
R = TypeVar("R")


def run_calls(
    fn: Callable[[T], R], items: Iterable[T], parallelism: int, *providers: object
) -> list[R]:
    """`[fn(item) for item in items]`, with at most `parallelism` calls at once.

    The calls run on the calling thread, in item order, when `parallelism`
    is 1 or every provider `fn` uses is in process (:func:`all_in_process`);
    the first call that raises stops the run. Otherwise every item is
    submitted to a pool of `parallelism` threads, and once every call has
    finished the first exception in item order is raised. Either way the
    results come back in item order, and :func:`check_parallelism` runs first.
    """
    check_parallelism(parallelism)
    if parallelism == 1 or all_in_process(*providers):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]


class ScriptedGenerator:
    """Test double returning canned transcripts keyed by prompt substrings.

    A matcher is a substring or a tuple of substrings that must all occur in
    the prompt; the first matching entry (insertion order) wins. A matcher
    may map to a sequence of responses, consumed round-robin across calls,
    which lets one prompt yield several distinct transcripts. Unmatched
    prompts raise :class:`ScriptMissError` when strict, otherwise return the
    fallback text.

    The distinct non-empty needles are grouped by their first character, and
    each group is compiled once into one alternation of its needles, longest
    first, so at a position the pattern matches the longest needle of the
    group that starts there. `re` factors out the group's common prefix, so
    every pattern starts with a literal character and `re` skips to its
    candidates with a literal-prefix search instead of trying the pattern at
    every position. Each search restarts one character after the last match
    start, so a needle that occurs k times costs k pattern searches. The
    needles that are prefixes of a found needle occur too: each needle links
    to its longest needle prefix, and the links of a match are followed up to
    a needle already found. Only the entries listed under a found needle are
    then checked; each entry is listed under its needle shared by the fewest
    entries. The empty needle always occurs.

    The last prompt and the entry it matched are kept, and a call with the
    same prompt reuses that entry without a scan: a record asks for its
    question transcripts with one prompt, back to back. Responses are still
    consumed round-robin, one per call.
    """

    identifier = "stub:scripted"
    in_process = True

    def __init__(
        self,
        transcripts: Mapping[str | tuple[str, ...], str | Sequence[str]],
        *,
        strict: bool = True,
        fallback: str = "",
    ):
        self._entries: list[tuple[frozenset[str], list[str]]] = []
        for matcher, response in transcripts.items():
            needles = (matcher,) if isinstance(matcher, str) else tuple(matcher)
            responses = [response] if isinstance(response, str) else list(response)
            if not responses:
                raise ValueError(f"matcher {matcher!r} has no responses")
            self._entries.append((frozenset(n for n in needles if n), responses))
        self._strict = strict
        self._fallback = fallback
        self._cursors = [0] * len(self._entries)
        self._lock = threading.Lock()

        shares: dict[str, int] = {}
        for needles, _ in self._entries:
            for needle in needles:
                shares[needle] = shares.get(needle, 0) + 1
        # needle -> slots (ascending) of the entries it is the most selective needle of
        self._keyed: dict[str, list[int]] = {}
        # lowest slot whose matcher has no non-empty needle, which every prompt matches
        self._always = len(self._entries)
        for slot, (needles, _) in enumerate(self._entries):
            if needles:
                self._keyed.setdefault(min(needles, key=lambda n: (shares[n], n)), []).append(slot)
            else:
                self._always = min(self._always, slot)
        groups: dict[str, list[str]] = {}
        for needle in shares:
            groups.setdefault(needle[0], []).append(needle)
        # a needle's prefixes start with its first character, so each group
        # holds the parent of each of its needles that has one
        self._searches: list[Callable] = []
        self._parents: dict[str, str] = {}
        for group in groups.values():
            pattern, parents = _needle_index(group)
            self._searches.append(pattern.search)
            self._parents.update(parents)
        # (prompt, slot) of the last call, replaced in one assignment so a
        # reader on another thread never pairs one call's prompt with another's slot
        self._last: tuple[str | None, int] = (None, self._always)

    def complete(self, prompt: str, params: GenerationParams | None = None) -> str:
        last_prompt, slot = self._last
        if prompt != last_prompt:
            slot = self._slot(prompt)
            self._last = (prompt, slot)
        if slot < len(self._entries):
            responses = self._entries[slot][1]
            with self._lock:
                cursor = self._cursors[slot]
                self._cursors[slot] = cursor + 1
            return responses[cursor % len(responses)]
        if self._strict:
            raise ScriptMissError(prompt)
        return self._fallback

    def _slot(self, prompt: str) -> int:
        """The slot of the first entry whose needles all occur in `prompt`, else `len(entries)`."""
        found: set[str] = set()
        parents = self._parents
        for search in self._searches:
            match = search(prompt)
            while match is not None:
                needle = match.group()
                found.add(needle)
                # found holds the parent of each needle it holds, so the walk
                # stops at the first needle found before
                while needle in parents and (needle := parents[needle]) not in found:
                    found.add(needle)
                match = search(prompt, match.start() + 1)
        slot = self._always
        for needle in found:
            for candidate in self._keyed.get(needle, ()):
                if candidate >= slot:
                    break
                if self._entries[candidate][0] <= found:
                    slot = candidate
                    break
        return slot


def _needle_index(needles: Iterable[str]) -> tuple[re.Pattern, dict[str, str]]:
    """A pattern over one or more non-empty needles, and each needle's parent.

    The pattern is the needles as alternatives, longest first, so at a
    position it matches the longest needle that starts there; the other
    needles starting there are its prefixes. A needle's parent is its longest
    proper prefix among the needles, so the parent links of a needle reach
    each of its needle prefixes. A needle with no needle prefix has no parent.
    """
    parents: dict[str, str] = {}
    # a needle's prefixes sort before it, and every needle sorted between
    # them starts with that prefix too, so the stack holds a chain of prefixes
    stack: list[str] = []
    ordered = sorted(needles)
    for needle in ordered:
        while stack and not needle.startswith(stack[-1]):
            stack.pop()
        if stack:
            parents[needle] = stack[-1]
        stack.append(needle)
    longest_first = sorted(ordered, key=len, reverse=True)
    return re.compile("|".join(map(re.escape, longest_first))), parents


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot of each row pair of `a` and `b`, whose leading axes broadcast: every similarity dot and squared norm.

    The one rule: each dot has the bits of the 1-d matmul `u @ v` for its
    rows `u` and `v`, because numpy runs each 1 x d by d x 1 product of the
    stacked matmul as that 1-d product. An overflow or NaN is left in the
    result for the caller to judge.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _token_axis(token: bytes, dimension: int) -> int:
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") % dimension


# maps every byte but [a-z0-9] to a space: after `.encode("ascii", "replace")`
# turns each non-ASCII character into "?", splitting on spaces gives the
# ASCII tokens `[a-z0-9]+` finds in the lowered text
_TOKEN_BYTES = bytes(c if c in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for c in range(256))


class HashEmbedder:
    """Deterministic bag-of-tokens embedder for offline runs.

    Each token (a run of `[a-z0-9]` in the lowered text) adds one unit to a
    sha256-hashed axis; tokens listed in `keyword_channels` additionally
    boost a dedicated axis so topical texts cluster. Vectors are
    L2-normalized; empty (token-free) text maps to the all-zeros vector,
    whose cosine against anything is defined as 0. A batch is embedded in
    one pass: one `bincount` builds every row and one division of the
    entries that are not 0 normalizes them, so each row is bit-identical to
    embedding its text alone. `embed_many` embeds every text it is given,
    repeats included (the metrics pass each distinct text once), and never
    calls `embed`: a subclass that overrides `embed` overrides `embed_many`
    too. Every call returns a newly computed array; only each token's axis
    is kept between calls.
    """

    in_process = True

    def __init__(
        self,
        dimension: Annotated[int, Range(1)] = 256,
        keyword_channels: Mapping[str, int] | None = None,
        *,
        keyword_boost: float = 4.0,
    ):
        check_arguments(HashEmbedder.__init__, locals())
        channels = dict(keyword_channels or {})
        for keyword, axis in channels.items():
            if not 0 <= axis < dimension:
                raise ValueError(f"keyword {keyword!r} axis {axis} outside dimension {dimension}")
        self.dimension = int(dimension)  # a numpy integer would overflow on a hashed axis
        # tokens are ASCII bytes; a keyword that is not ASCII can match none
        self._channels = {
            keyword.encode("ascii"): axis for keyword, axis in channels.items() if keyword.isascii()
        }
        self._boost = keyword_boost
        # token -> hashed axis; racing threads can only store the same value
        self._axes: dict[bytes, int] = {}
        self.identifier = f"stub:hash-{dimension}"

    def _vectors(self, texts: Sequence[str]) -> np.ndarray:
        """The `(len(texts), dimension)` embeddings of `texts`, computed in one pass."""
        dimension, axes, channels = self.dimension, self._axes, self._channels
        # row r's token axes and keyword channels are bins r * dimension + axis;
        # `boosted` holds the positions of the channel bins
        bins: list[int] = []
        boosted: list[int] = []
        for row, text in enumerate(texts):
            offset = row * dimension
            for token in text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split():
                axis = axes.get(token)
                if axis is None:
                    axis = axes[token] = _token_axis(token, dimension)
                bins.append(offset + axis)
                channel = channels.get(token)
                if channel is not None:
                    boosted.append(len(bins))
                    bins.append(offset + channel)
        if not bins:
            return np.zeros((len(texts), dimension))
        touched = np.array(bins)
        weights = np.ones(len(touched))
        weights[boosted] = self._boost
        # bincount adds the weights in list order, so each sum is that of
        # adding a row's token units and boosts one after another
        flat = np.bincount(touched, weights, minlength=len(texts) * dimension)
        matrix = flat.reshape(-1, dimension)
        norms = np.sqrt(row_dots(matrix, matrix))
        with np.errstate(over="ignore", invalid="ignore"):
            # a zero (or NaN) norm leaves its row as it is
            norms[~(norms > 0.0)] = 1.0
            # every other entry is 0, which the division leaves 0
            flat[touched] /= norms[touched // dimension]
        return matrix

    def embed(self, text: str) -> np.ndarray:
        return self._vectors([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """`(len(texts), dimension)` array whose row i is `self.embed(texts[i])`."""
        return self._vectors(texts)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter; retries 429/5xx and transport faults."""

    attempts: Annotated[int, Range(1)] = 3
    base_delay: Annotated[float, Range(0)] = 0.25

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to reach one hosted model endpoint.

    `auth_env` names the environment variable holding the bearer token; the
    token value itself is never recorded anywhere. `response_path` is a
    dot-separated path into the response JSON overriding the dialect
    default.
    """

    url: str
    model: str = ""
    dialect: Literal["prompt", "messages"] = "prompt"
    auth_env: str | None = None
    response_path: str | None = None
    timeout: Annotated[float, Range(0, threading.TIMEOUT_MAX, open_low=True)] = 30.0  # a socket takes at most TIMEOUT_MAX

    def __post_init__(self):
        check_fields(self)


Transport = Callable[[str, bytes, Mapping[str, str], float], tuple[int, bytes]]


def _urllib_transport(url: str, payload: bytes, headers: Mapping[str, str], timeout: float):
    # imported on first use: urllib.request loads http.client, email, ssl and socket,
    # which stub runs and injected transports never need
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=payload, headers=dict(headers), method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _walk_response(doc: object, path: str) -> object:
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                raise ProviderResponseError(f"response path {path!r}: bad index {part!r}") from None
        elif isinstance(node, dict):
            if part not in node:
                raise ProviderResponseError(f"response path {path!r}: missing key {part!r}")
            node = node[part]
        else:
            raise ProviderResponseError(f"response path {path!r}: cannot descend into {type(node).__name__}")
    return node


class _HttpProvider:
    """Shared POST-with-retries plumbing for the three HTTP adapters."""

    def __init__(
        self,
        config: EndpointConfig,
        *,
        transport: Transport | None = None,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        jitter_seed: int | None = None,
    ):
        self.config = config
        self._transport = transport or _urllib_transport
        self._retry = retry or RetryPolicy()
        self._sleep = sleep
        self._rng = random.Random(jitter_seed)
        self._rng_lock = threading.Lock()

    @property
    def identifier(self) -> str:
        return f"http:{self.config.model or 'default'}@{self.config.url}"

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.config.auth_env:
            token = os.environ.get(self.config.auth_env)
            if not token:
                raise ProviderError(
                    f"auth token environment variable {self.config.auth_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _delay(self, attempt: int) -> float:
        with self._rng_lock:
            jitter = self._rng.random()
        return self._retry.base_delay * (2**attempt) * (0.5 + jitter)

    def _post(self, payload: dict) -> object:
        headers = self._headers()
        body = json.dumps(payload).encode("utf-8")
        for attempt in range(self._retry.attempts):
            try:
                status, raw = self._transport(self.config.url, body, headers, self.config.timeout)
            except Exception as exc:
                last_transient = f"transport failure: {exc}"
            else:
                if status == 200:
                    try:
                        return json.loads(raw.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError) as exc:
                        raise ProviderResponseError(f"response is not JSON: {exc}") from None
                if status == 429 or 500 <= status < 600:
                    last_transient = f"HTTP {status}"
                else:
                    raise ProviderHTTPError(status, raw[:200].decode("utf-8", "replace"))
            if attempt + 1 < self._retry.attempts:
                self._sleep(self._delay(attempt))
        raise ProviderTimeoutError(
            f"{self._retry.attempts} attempts exhausted; last failure: {last_transient}"
        )


class HttpGenerator(_HttpProvider):
    """Text-generation adapter speaking either a prompt- or messages-style API."""

    def complete(self, prompt: str, params: GenerationParams | None = None) -> str:
        params = params or GenerationParams()
        payload: dict = {
            "model": self.config.model,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "max_tokens": params.max_tokens,
        }
        if params.seed is not None:
            payload["seed"] = params.seed
        if self.config.dialect == "messages":
            payload["messages"] = [{"role": "user", "content": prompt}]
            default_path = "choices.0.message.content"
        else:
            payload["prompt"] = prompt
            default_path = "completion"
        doc = self._post(payload)
        text = _walk_response(doc, self.config.response_path or default_path)
        if not isinstance(text, str):
            raise ProviderResponseError(f"completion field is {type(text).__name__}, not text")
        return text


class HttpEmbedder(_HttpProvider):
    """Embedding adapter: POST {model, input} and read back one vector.

    It has no `embed_many`, so a batch costs one POST per text, in order.
    """

    def embed(self, text: str) -> np.ndarray:
        doc = self._post({"model": self.config.model, "input": text})
        value = _walk_response(doc, self.config.response_path or "embedding")
        # numpy reads a boolean beside numbers as a number: [true, 1.5] is float64
        if isinstance(value, list) and any(x is True or x is False for x in value):
            raise ProviderResponseError("embedding field holds a JSON boolean, not only numbers")
        try:
            vector = np.asarray(value)
        except (TypeError, ValueError) as exc:
            raise ProviderResponseError(f"embedding field is not numeric: {exc}") from None
        if vector.dtype.kind not in "iuf":  # JSON booleans, strings and numbers no float holds
            raise ProviderResponseError(f"embedding field holds {vector.dtype}, not JSON numbers")
        vector = vector.astype(float)
        if vector.ndim != 1 or vector.size == 0 or not np.all(np.isfinite(vector)):
            raise ProviderResponseError("embedding must be a non-empty finite 1-d vector")
        return vector


class HttpPairScorer(_HttpProvider):
    """Cross-encoder adapter: POST {query, candidate} and read back one logit."""

    def score(self, query: str, candidate: str) -> float:
        payload: dict = {"query": query, "candidate": candidate}
        if self.config.model:
            payload["model"] = self.config.model
        doc = self._post(payload)
        value = _walk_response(doc, self.config.response_path or "score")
        if problem := refusal(value, float, "score"):
            raise ProviderResponseError(problem)
        return float(value)
