"""Prompting and generation against an OpenAI-compatible completions endpoint.

Prompts are instruction + demonstrations + a query block that stops exactly
where the completion should begin. The client bounds in-flight concurrency,
enforces request/minute and token/minute budgets with a sliding window, and
persists every record incrementally so a killed run resumes without
re-billing completed prompts. Clock, sleep, and HTTP transport are injectable
for simulated-time testing.
"""
from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import yaml

from .pipeline import ValidationError, read_jsonl, repair_jsonl_tail

TRIPLETS_PLACEHOLDER = "{triplets}"
TEXT_PLACEHOLDER = "{text}"

DEFAULT_API_KEY_ENV = "KGSYNTH_API_KEY"


class TemplateError(ValidationError):
    """Malformed prompt template or demonstration mismatch."""


@dataclass(frozen=True)
class GenerationParams:
    max_tokens: int
    temperature: float = 0.7
    top_p: float = 1.0
    frequency_penalty: float = 0.2
    presence_penalty: float = 0.0
    stop: str = "\n"
    n: int = 1
    best_of: int = 1

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must lie in (0, 1]")
        if not (self.best_of >= self.n >= 1):
            raise ValueError("best_of >= n >= 1 required")

    def to_request_fields(self) -> dict:
        return {
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
            "top_p": self.top_p,
            "frequency_penalty": self.frequency_penalty,
            "presence_penalty": self.presence_penalty,
            "stop": self.stop,
            "n": self.n,
            "best_of": self.best_of,
        }


# Decoding knobs tuned for the two completion models driving the pipeline.
PRESETS = {
    "code": GenerationParams(max_tokens=100, best_of=5),
    "text": GenerationParams(max_tokens=50, best_of=1),
}


def render_triplets(triplets: Iterable[tuple[str, str, str]]) -> str:
    return ", ".join(f"({s}; {r}; {o})" for s, r, o in triplets)


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction header plus a demonstration block format.

    The demonstration format must mention the triplet placeholder exactly once
    and the text placeholder exactly once; the query block is the format cut
    at the text placeholder, so the prompt ends where the completion begins.
    """

    instruction: str
    demonstration_format: str = "triplets: {triplets}\ntext: {text}"
    num_demonstrations: int = 0

    def __post_init__(self):
        if self.num_demonstrations < 0:
            raise TemplateError("num_demonstrations must be >= 0")
        for placeholder in (TRIPLETS_PLACEHOLDER, TEXT_PLACEHOLDER):
            if self.demonstration_format.count(placeholder) != 1:
                raise TemplateError(f"demonstration_format must contain {placeholder} exactly once")

    @classmethod
    def from_file(cls, path) -> "PromptTemplate":
        # accepts filesystem paths and importlib.resources traversables
        source = path if hasattr(path, "read_text") else Path(path)
        raw = yaml.safe_load(source.read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or "instruction" not in raw:
            raise TemplateError(f"{path}: expected a mapping with an 'instruction' key")
        return cls(
            instruction=str(raw["instruction"]),
            demonstration_format=str(raw.get("demonstration_format", cls.demonstration_format)),
            num_demonstrations=int(raw.get("num_demonstrations", 0)),
        )

    def render_demo(self, triplets: Iterable[tuple[str, str, str]], text: str) -> str:
        return self.demonstration_format.replace(TRIPLETS_PLACEHOLDER, render_triplets(triplets)).replace(
            TEXT_PLACEHOLDER, text
        )

    def render_query(self, triplets: Iterable[tuple[str, str, str]]) -> str:
        head = self.demonstration_format[: self.demonstration_format.index(TEXT_PLACEHOLDER)]
        return head.replace(TRIPLETS_PLACEHOLDER, render_triplets(triplets))


def build_prompt(
    triplet_set: Sequence[tuple[str, str, str]],
    template: PromptTemplate,
    demonstrations: Sequence[tuple[Sequence[tuple[str, str, str]], str]] = (),
) -> str:
    """Deterministic prompt: instruction, demonstrations in the given order,
    then the query triplets rendered in the same format."""
    if len(demonstrations) != template.num_demonstrations:
        raise TemplateError(
            f"template expects {template.num_demonstrations} demonstrations, got {len(demonstrations)}"
        )
    blocks = [template.instruction.rstrip("\n")]
    blocks.extend(template.render_demo(trips, text) for trips, text in demonstrations)
    blocks.append(template.render_query(triplet_set))
    return "\n\n".join(blocks)


def estimate_cost(token_count: int, price_per_1k: float) -> float:
    if token_count < 0 or price_per_1k < 0:
        raise ValueError("token count and price must be non-negative")
    return token_count / 1000.0 * price_per_1k


def estimate_tokens(text: str) -> int:
    """Conservative fallback when the endpoint reports no usage: 4 characters
    per token, rounded up."""
    return max(1, math.ceil(len(text) / 4))


class CostLedger:
    """Thread-safe token and request accounting."""

    def __init__(self, price_per_1k_tokens: float = 0.0):
        self.price_per_1k_tokens = price_per_1k_tokens
        self.tokens_consumed = 0
        self.requests_sent = 0
        self._lock = threading.Lock()

    def add(self, tokens: int, requests: int = 1) -> None:
        with self._lock:
            self.tokens_consumed += tokens
            self.requests_sent += requests

    @property
    def cost(self) -> float:
        return estimate_cost(self.tokens_consumed, self.price_per_1k_tokens)


class RateLimiter:
    """Sliding-window limiter over both requests/minute and tokens/minute.

    ``acquire`` blocks (via the injected sleep function) until admitting the
    request keeps every 60-second window within both budgets.
    """

    def __init__(
        self,
        requests_per_minute: int,
        tokens_per_minute: int,
        time_fn: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
        window: float = 60.0,
    ):
        if requests_per_minute < 1 or tokens_per_minute < 1:
            raise ValidationError("requests_per_minute and tokens_per_minute must be positive")
        self.requests_per_minute = requests_per_minute
        self.tokens_per_minute = tokens_per_minute
        self.window = window
        self._time_fn = time_fn
        self._sleep_fn = sleep_fn
        self._events: deque[tuple[float, int]] = deque()  # (grant time, tokens)
        self._token_sum = 0
        self._lock = threading.Lock()

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] <= horizon:
            _, tokens = self._events.popleft()
            self._token_sum -= tokens

    def acquire(self, tokens: int) -> float:
        """Block until the request is admitted; returns the grant time."""
        if tokens > self.tokens_per_minute:
            raise ValueError(f"a single request of {tokens} tokens exceeds the per-minute budget")
        while True:
            with self._lock:
                now = self._time_fn()
                self._prune(now)
                if len(self._events) < self.requests_per_minute and self._token_sum + tokens <= self.tokens_per_minute:
                    self._events.append((now, tokens))
                    self._token_sum += tokens
                    return now
                wait = self._events[0][0] + self.window - now if self._events else 0.001
            self._sleep_fn(max(wait, 0.001))


@dataclass
class GenerationRecord:
    set_id: str
    prompt: str
    completion: str
    finish_reason: str
    prompt_tokens: int
    completion_tokens: int
    total_tokens: int
    status: str  # "ok" | "failed"
    error: str = ""
    attempts: int = 1
    timestamp: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, sort_keys=True)


def _default_transport(url: str, body: dict, headers: dict, timeout: float) -> tuple[int, dict]:
    import requests  # here, not at module level: only a run that sends requests pays for it

    response = requests.post(url, json=body, headers=headers, timeout=timeout)
    try:
        payload = response.json()
    except ValueError:
        payload = {}
    return response.status_code, payload


@dataclass
class EndpointConfig:
    url: str
    model: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 60.0

    def headers(self) -> dict:
        key = os.environ.get(self.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers


class CompletionClient:
    """Batch driver with retries, rate limiting, cost accounting, and
    append-only record persistence keyed by set id."""

    def __init__(
        self,
        endpoint: EndpointConfig,
        params: GenerationParams,
        rate_limiter: RateLimiter,
        ledger: CostLedger | None = None,
        transport: Callable[[str, dict, dict, float], tuple[int, dict]] = _default_transport,
        max_attempts: int = 5,
        backoff_base: float = 2.0,
        backoff_cap: float = 60.0,
        concurrency: int = 4,
        time_fn: Callable[[], float] = time.time,
        sleep_fn: Callable[[float], None] = time.sleep,
        jitter_rng: random.Random | None = None,
    ):
        self.endpoint = endpoint
        self.params = params
        self.rate_limiter = rate_limiter
        self.ledger = ledger if ledger is not None else CostLedger()
        self.transport = transport
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.concurrency = concurrency
        self.time_fn = time_fn
        self.sleep_fn = sleep_fn
        self.jitter_rng = jitter_rng if jitter_rng is not None else random.Random()

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_base * (2**attempt), self.backoff_cap)
        return base * (1.0 + 0.25 * self.jitter_rng.random())

    def _strip_stop(self, text: str) -> str:
        stop = self.params.stop
        if stop and stop in text:
            return text.split(stop, 1)[0]
        return text

    def generate_one(self, set_id: str, prompt: str) -> GenerationRecord:
        body = {"model": self.endpoint.model, "prompt": prompt, **self.params.to_request_fields()}
        estimate = estimate_tokens(prompt) + self.params.max_tokens * self.params.best_of
        last_error = ""
        attempt = 0
        while attempt < self.max_attempts:
            attempt += 1
            try:
                self.rate_limiter.acquire(estimate)
            except ValueError as exc:
                return self._failed(set_id, prompt, str(exc), attempt)
            try:
                status, payload = self.transport(self.endpoint.url, body, self.endpoint.headers(), self.endpoint.timeout)
            except Exception as exc:  # network-level failure: retry
                last_error = f"transport error: {exc}"
                self.sleep_fn(self._backoff(attempt - 1))
                continue
            self.ledger.add(0, requests=1)
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                self.sleep_fn(self._backoff(attempt - 1))
                continue
            if status != 200:
                return self._failed(set_id, prompt, f"HTTP {status}", attempt)
            try:
                choice = payload["choices"][0]
                completion = self._strip_stop(str(choice.get("text", "")))
                finish_reason = str(choice.get("finish_reason", ""))
            except (KeyError, IndexError, TypeError):
                return self._failed(set_id, prompt, "malformed response", attempt)
            usage = payload.get("usage") or {}
            prompt_tokens = int(usage.get("prompt_tokens", estimate_tokens(prompt)))
            completion_tokens = int(usage.get("completion_tokens", estimate_tokens(completion)))
            total = int(usage.get("total_tokens", prompt_tokens + completion_tokens))
            self.ledger.add(total, requests=0)
            return GenerationRecord(
                set_id=str(set_id),
                prompt=prompt,
                completion=completion,
                finish_reason=finish_reason,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                total_tokens=total,
                status="ok",
                attempts=attempt,
                timestamp=self.time_fn(),
            )
        return self._failed(set_id, prompt, last_error or "retries exhausted", attempt)

    def _failed(self, set_id, prompt, error, attempts) -> GenerationRecord:
        return GenerationRecord(
            set_id=str(set_id),
            prompt=prompt,
            completion="",
            finish_reason="",
            prompt_tokens=0,
            completion_tokens=0,
            total_tokens=0,
            status="failed",
            error=error,
            attempts=attempts,
            timestamp=self.time_fn(),
        )

    def generate(self, prompts: Sequence[tuple[str, str]], out_path) -> dict:
        """Answer every (set_id, prompt), appending records to ``out_path`` as
        they complete. Prompts whose id already has an ok record are skipped,
        so resuming after a kill never re-bills completed work; a torn last
        line the kill left is repaired or cut off first."""
        out_path = Path(out_path)
        repair_jsonl_tail(out_path)
        done = completed_ids(out_path)
        todo = [(str(sid), prompt) for sid, prompt in prompts if str(sid) not in done]
        skipped = len(prompts) - len(todo)
        write_lock = threading.Lock()
        counts = {"ok": 0, "failed": 0, "skipped": skipped}

        def run(item):
            record = self.generate_one(*item)
            with write_lock:
                with open(out_path, "a", encoding="utf-8") as fh:
                    fh.write(record.to_json() + "\n")
                counts[record.status] += 1
            return record

        if not todo:
            return counts
        with ThreadPoolExecutor(max_workers=self.concurrency) as pool:
            list(pool.map(run, todo))
        return counts


def completed_ids(path) -> set[str]:
    """Set ids with an ok record already persisted at ``path``."""
    if not Path(path).exists():
        return set()
    return {str(record["set_id"]) for record in read_jsonl(path) if record.get("status") == "ok"}
