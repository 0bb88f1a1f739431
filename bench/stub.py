"""In-process stand-in for the completions endpoint.

``install(seed)`` replaces ``requests.post``, which ``kgsynth.textgen`` calls
for every completion request, so ``kgsynth generate`` runs unchanged and no
socket is opened. Every answer is a pure function of (seed, prompt):

- the completion states each queried triplet in one sentence; a seeded share
  of entity mentions is paraphrased (only the label's last word survives), so
  the codec's text-position heuristic takes both its exact-match branch and
  its longest-word-run branch;
- a seeded share of prompts gets HTTP 429 or 503 on its first attempt, which
  exercises the client's retry path;
- ``usage`` carries prompt, completion and total token counts.
"""
from __future__ import annotations

import hashlib
import random
import re
import threading

PARAPHRASE_SHARE = 0.15
FIRST_ATTEMPT_FAILURE_SHARE = 0.05

_TRIPLET = re.compile(r"\(([^;()]+); ([^;()]+); ([^;()]+)\)")


class StubResponse:
    def __init__(self, status_code: int, payload: dict):
        self.status_code = status_code
        self._payload = payload

    def json(self) -> dict:
        return self._payload


def query_triplets(prompt: str) -> list[tuple[str, str, str]]:
    """Triplets of the query block, the prompt's last ``triplets:`` line."""
    line = prompt[prompt.rindex("triplets: ") :].split("\n", 1)[0]
    return _TRIPLET.findall(line)


def mention(label: str, rng: random.Random) -> str:
    if rng.random() < PARAPHRASE_SHARE:
        return f"that {label.split()[-1]}"
    return label


def completion_text(prompt: str, rng: random.Random) -> str:
    sentences = [f"{mention(s, rng)} {r} {mention(o, rng)}." for s, r, o in query_triplets(prompt)]
    # the text after the newline is cut by the client at the stop sequence
    return " " + " ".join(sentences) + "\ntriplets:"


class StubEndpoint:
    """Deterministic completions keyed by (seed, prompt); thread-safe."""

    def __init__(self, seed: int):
        self.seed = seed
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def _rng(self, prompt: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}\0{prompt}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def post(self, url, json=None, headers=None, timeout=None) -> StubResponse:
        prompt = json["prompt"]
        rng = self._rng(prompt)
        with self._lock:
            first_attempt = prompt not in self._seen
            self._seen.add(prompt)
        if rng.random() < FIRST_ATTEMPT_FAILURE_SHARE and first_attempt:
            return StubResponse(429 if rng.random() < 0.5 else 503, {"error": {"message": "try again"}})
        text = completion_text(prompt, rng)
        prompt_tokens = len(prompt) // 4 + 1
        completion_tokens = len(text) // 4 + 1
        return StubResponse(
            200,
            {
                "choices": [{"text": text, "finish_reason": "stop"}],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "total_tokens": prompt_tokens + completion_tokens,
                },
            },
        )


def install(seed: int) -> StubEndpoint:
    import requests

    endpoint = StubEndpoint(seed)
    requests.post = endpoint.post
    return endpoint
