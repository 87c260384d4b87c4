"""In-process stand-in for hosted generation and embedding backends.

It is injected as the HTTP adapters' `Transport`, so no socket is opened.
Replies come from tables built at set-up from the workload's own data; no
ragmeter code runs on this side, so a faster stub embedder cannot move the
HTTP workload. Latency is a fixed cost per request plus a cost per input,
so batching is credited only for the round trips it saves.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time

from workloads import FAITH_MARK, PRECISION_MARK, QGEN_MARK, RECALL_MARK, tokens

# Never contacted: the transport is injected. Loopback keeps even a wiring
# mistake off the network.
GENERATE_URL = "http://127.0.0.1:9/generate"
EMBED_URL = "http://127.0.0.1:9/embed"

DIMENSION = 256
REQUEST_S = 0.004
PER_INPUT_S = 0.0002
FAIL_SHARE = 0.03

_MARKS = (FAITH_MARK, RECALL_MARK, PRECISION_MARK, QGEN_MARK)
_MATCH_TOKEN_RE = re.compile(r"\b(kq\d\dx|rq\d{5}z)\b")


def embedding(text: str) -> list[int]:
    """Bag-of-tokens counts on blake2b-hashed axes; independent of ragmeter."""
    vec = [0] * DIMENSION
    for token in tokens(text):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % DIMENSION] += 1
    return vec


def cosine(u: list[int], v: list[int]) -> float:
    """Same operation order as a dot product over the two norms."""
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return min(1.0, max(-1.0, sum(a * b for a, b in zip(u, v)) / (nu * nv)))


class FakeBackend:
    """A `Transport` answering both endpoints from precomputed tables.

    A seeded share of requests gets a 503. Whether one does depends only on
    (payload digest, how many times that payload arrived before), never on
    thread timing, so retry counts repeat exactly; a payload never fails
    twice in a row, so a short retry budget always suffices.
    """

    def __init__(self, seed: int, embed_texts: set[str], replies: dict[tuple[str, str], str]):
        self._salt = f"fake-backend:{seed}".encode()
        self.vectors = {text: embedding(text) for text in embed_texts}
        self._vector_json = {text: json.dumps(vec) for text, vec in self.vectors.items()}
        self._replies = {key: json.dumps({"completion": text}).encode() for key, text in replies.items()}
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._arrivals: dict[bytes, int] = {}
            self.posts = 0
            self.embed_posts = 0
            self.generate_posts = 0
            self.retries = 0
            self.bytes_sent = 0
            self.wait_s = 0.0

    def _fails(self, digest: bytes, attempt: int) -> bool:
        h = hashlib.blake2b(self._salt + digest + attempt.to_bytes(4, "big"), digest_size=8).digest()
        return int.from_bytes(h, "big") < FAIL_SHARE * 2**64

    def __call__(self, url: str, payload: bytes, headers, timeout: float) -> tuple[int, bytes]:
        started = time.perf_counter()
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        with self._lock:
            attempt = self._arrivals.get(digest, 0)
            self._arrivals[digest] = attempt + 1
        failing = self._fails(digest, attempt) and not (attempt and self._fails(digest, attempt - 1))
        doc = json.loads(payload)
        if url == EMBED_URL:
            inputs = doc["input"] if isinstance(doc["input"], list) else [doc["input"]]
            status, body = self._embed(doc["input"])
        elif url == GENERATE_URL:
            inputs = [doc["prompt"]]
            status, body = self._generate(doc["prompt"])
        else:
            inputs, status, body = [], 404, b'{"error": "unknown endpoint"}'
        if failing:
            status, body = 503, b'{"error": "overloaded"}'
        time.sleep(REQUEST_S + PER_INPUT_S * len(inputs))
        with self._lock:
            self.posts += 1
            self.embed_posts += url == EMBED_URL
            self.generate_posts += url == GENERATE_URL
            self.retries += failing
            self.bytes_sent += len(payload)
            self.wait_s += time.perf_counter() - started
        return status, body

    def _embed(self, text_or_texts) -> tuple[int, bytes]:
        # Today's adapter sends one string and reads `embedding`; the list
        # form is answered as `data[i].embedding`, as batching backends do.
        texts = text_or_texts if isinstance(text_or_texts, list) else [text_or_texts]
        missing = [t for t in texts if t not in self._vector_json]
        if missing:
            return 400, json.dumps({"error": f"no embedding for {missing[0][:60]!r}"}).encode()
        if isinstance(text_or_texts, list):
            items = ", ".join('{"embedding": %s}' % self._vector_json[t] for t in texts)
            return 200, ('{"data": [%s]}' % items).encode()
        return 200, ('{"embedding": %s}' % self._vector_json[text_or_texts]).encode()

    def _generate(self, prompt: str) -> tuple[int, bytes]:
        mark = next((m for m in _MARKS if m in prompt), None)
        match = _MATCH_TOKEN_RE.search(prompt)
        reply = self._replies.get((mark, match.group(1))) if mark and match else None
        if reply is None:
            return 400, b'{"error": "no transcript for this prompt"}'
        return 200, reply
