"""Prompting and generation against an OpenAI-compatible completions endpoint.

Prompts are instruction + demonstrations + a query block that stops exactly
where the completion should begin. The client bounds in-flight concurrency,
enforces request/minute and token/minute budgets with a sliding window, and
persists every record incrementally so a killed run resumes without
re-billing completed prompts. Clock, sleep, and HTTP transport are injectable
for simulated-time testing.
"""
from __future__ import annotations

import math
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import yaml

from .pipeline import JsonlSink, Row, ValidationError

TRIPLETS_PLACEHOLDER = "{triplets}"
TEXT_PLACEHOLDER = "{text}"

RATE_WINDOW_S = 60.0  # the rate limits are per minute
BACKOFF_CAP_S = 60.0  # longest backoff before jitter
REQUEST_TIMEOUT_S = 60.0


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
        """The template in the YAML file ``path``. A file that is not UTF-8 or
        not YAML, has no ``instruction``, or has a field that is not a string
        (``num_demonstrations``: an int) is a TemplateError naming ``path``."""
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise TemplateError(f"{path}: not UTF-8 ({exc})") from None
        except yaml.YAMLError as exc:
            raise TemplateError(f"{path}: not valid YAML ({exc})") from None
        if not isinstance(raw, dict) or "instruction" not in raw:
            raise TemplateError(f"{path}: expected a mapping with an 'instruction' key")
        fields = {"instruction": raw["instruction"],
                  "demonstration_format": raw.get("demonstration_format", cls.demonstration_format),
                  "num_demonstrations": raw.get("num_demonstrations", 0)}
        for key, value in fields.items():
            kind, name = (int, "an int") if key == "num_demonstrations" else (str, "a string")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TemplateError(f"{path}: {key} must be {name}, got {value!r}")
        return cls(**fields)

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
    ):
        if requests_per_minute < 1 or tokens_per_minute < 1:
            raise ValidationError("requests_per_minute and tokens_per_minute must be positive")
        self.requests_per_minute = requests_per_minute
        self.tokens_per_minute = tokens_per_minute
        self._time_fn = time_fn
        self._sleep_fn = sleep_fn
        self._events: deque[tuple[float, int]] = deque()  # (grant time, tokens)
        self._token_sum = 0
        self._lock = threading.Lock()

    def _prune(self, now: float) -> None:
        horizon = now - RATE_WINDOW_S
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
                wait = self._events[0][0] + RATE_WINDOW_S - now if self._events else 0.001
            self._sleep_fn(max(wait, 0.001))


@dataclass
class GenerationRecord:
    set_id: str
    prompt: str
    status: str  # "ok" | "failed"
    completion: str = ""
    finish_reason: str = ""
    prompt_tokens: int = 0
    completion_tokens: int = 0
    total_tokens: int = 0
    error: str = ""
    attempts: int = 1


def _default_transport(url: str, body: dict, headers: dict, timeout: float) -> tuple[int, dict]:
    import requests  # here, not at module level: only a run that sends requests pays for it

    response = requests.post(url, json=body, headers=headers, timeout=timeout)
    try:
        payload = response.json()
    except ValueError:
        payload = {}
    return response.status_code, payload


class CompletionClient:
    """Batch driver with retries, rate limiting, and append-only record
    persistence keyed by set id. ``tokens_consumed`` sums ``total_tokens``
    over the records ``generate`` appends; the key in the environment
    variable ``api_key_env``, if it is set, is sent as a bearer token."""

    def __init__(
        self,
        url: str,
        model: str,
        params: GenerationParams,
        rate_limiter: RateLimiter,
        api_key_env: str = "KGSYNTH_API_KEY",
        transport: Callable[[str, dict, dict, float], tuple[int, dict]] = _default_transport,
        max_attempts: int = 5,
        backoff_base: float = 2.0,
        concurrency: int = 4,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if backoff_base < 0:
            raise ValidationError("backoff_base must be >= 0")
        if concurrency < 1:
            raise ValidationError("concurrency must be >= 1")
        self.url, self.model = url, model
        self.params = params
        self.rate_limiter = rate_limiter
        key = os.environ.get(api_key_env, "")
        self.headers = {"Content-Type": "application/json"}
        if key:
            self.headers["Authorization"] = f"Bearer {key}"
        self.transport = transport
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.concurrency = concurrency
        self.sleep_fn = sleep_fn
        self.tokens_consumed = 0

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_base * (2**attempt), BACKOFF_CAP_S)
        return base * (1.0 + 0.25 * random.random())

    def _strip_stop(self, text: str) -> str:
        stop = self.params.stop
        if stop and stop in text:
            return text.split(stop, 1)[0]
        return text

    def generate_one(self, set_id: str, prompt: str) -> GenerationRecord:
        body = {"model": self.model, "prompt": prompt, **asdict(self.params)}
        estimate = estimate_tokens(prompt) + self.params.max_tokens * self.params.best_of
        last_error = ""
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:  # back off between attempts, never after the last
                self.sleep_fn(self._backoff(attempt - 2))
            try:
                self.rate_limiter.acquire(estimate)
            except ValueError as exc:
                return self._failed(set_id, prompt, str(exc), attempt)
            try:
                status, payload = self.transport(self.url, body, self.headers, REQUEST_TIMEOUT_S)
            except Exception as exc:  # network-level failure: retry
                last_error = f"transport error: {exc}"
                continue
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                return self._failed(set_id, prompt, f"HTTP {status}", attempt)
            try:
                choice = payload["choices"][0]
                text = choice.get("text", "")
                if not isinstance(text, str):
                    raise TypeError("completion text is not a string")
                completion = self._strip_stop(text)
                finish_reason = choice.get("finish_reason")
                finish_reason = "" if finish_reason is None else finish_reason
                if not isinstance(finish_reason, str):
                    raise TypeError("finish reason is not a string")
                usage = payload.get("usage") or {}
                prompt_tokens = int(usage.get("prompt_tokens", estimate_tokens(prompt)))
                completion_tokens = int(usage.get("completion_tokens", estimate_tokens(completion)))
                total = int(usage.get("total_tokens", prompt_tokens + completion_tokens))
                if min(prompt_tokens, completion_tokens, total) < 0:
                    raise ValueError("negative token count")
            except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError):
                return self._failed(set_id, prompt, "malformed response", attempt)
            return GenerationRecord(
                set_id=set_id,
                prompt=prompt,
                completion=completion,
                finish_reason=finish_reason,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                total_tokens=total,
                status="ok",
                attempts=attempt,
            )
        return self._failed(set_id, prompt, last_error, self.max_attempts)

    def _failed(self, set_id, prompt, error, attempts) -> GenerationRecord:
        return GenerationRecord(set_id, prompt, "failed", error=error, attempts=attempts)

    def generate(self, prompts: Sequence[tuple[str, str]], sink: JsonlSink) -> tuple[dict, dict[str, str]]:
        """Answer every (set_id, prompt), appending records to the records
        file ``sink`` as they complete. Prompts whose id already has an ok
        record among its rows are skipped, so resuming after a kill never
        re-bills completed work; a torn last line the kill left is repaired
        or cut off first, and a bad record stops the run before any request
        is sent. Returns the counts and an ok completion per set id: the
        file's first for an id it already held, this run's for the others."""
        completions = completed_ids(sink.rows)
        todo = [(sid, prompt) for sid, prompt in prompts if sid not in completions]
        counts = {"ok": 0, "failed": 0, "skipped": len(prompts) - len(todo)}

        def run(item):
            record = self.generate_one(*item)
            sink.append(asdict(record))
            return record

        with ThreadPoolExecutor(max_workers=self.concurrency) as pool:
            for record in pool.map(run, todo):
                counts[record.status] += 1
                self.tokens_consumed += record.total_tokens
                if record.status == "ok":
                    completions.setdefault(record.set_id, record.completion)
        return counts, completions


def completed_ids(records: Iterable[Row]) -> dict[str, str]:
    """The first ok completion of each set id among ``records``, the rows of
    a records file; a row whose ``set_id`` is not a string or an integer,
    whose ``status`` is not ``"ok"`` or ``"failed"``, or an ok row without a
    string ``completion``, is an ``InputError`` naming its line."""
    completions: dict[str, str] = {}
    for record in records:
        set_id = record.row_id("set_id")
        if record.get_as("status", ("ok", "failed")) == "ok":
            completions.setdefault(set_id, record.get_as("completion", str))
    return completions
