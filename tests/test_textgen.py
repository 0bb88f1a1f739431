import json
import threading

import pytest

from kgsynth import textgen
from kgsynth.pipeline import JsonlSink, read_jsonl
from kgsynth.textgen import (
    CompletionClient,
    GenerationParams,
    PromptTemplate,
    RateLimiter,
    build_prompt,
    estimate_cost,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start
        self._lock = threading.Lock()

    def time(self):
        with self._lock:
            return self.now

    def sleep(self, seconds):
        with self._lock:
            self.now += seconds


def ok_payload(text="generated text", prompt_tokens=40, completion_tokens=10):
    return {
        "choices": [{"text": text, "finish_reason": "stop"}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        },
    }


def make_client(transport, tmp_path=None, clock=None, **kwargs):
    clock = clock or FakeClock()
    limiter = RateLimiter(20, 150_000, time_fn=clock.time, sleep_fn=clock.sleep)
    defaults = dict(
        transport=transport,
        max_attempts=5,
        backoff_base=0.01,
        concurrency=2,
        sleep_fn=clock.sleep,
    )
    defaults.update(kwargs)
    return CompletionClient("http://mock/v1/completions", "mock-model", textgen.PRESETS["text"], limiter, **defaults)


# --- generation parameter presets ---

def test_code_preset_matches_published_values():
    p = textgen.PRESETS["code"]
    assert (p.max_tokens, p.temperature, p.top_p) == (100, 0.7, 1.0)
    assert (p.frequency_penalty, p.presence_penalty) == (0.2, 0.0)
    assert (p.stop, p.n, p.best_of) == ("\n", 1, 5)


def test_text_preset_matches_published_values():
    p = textgen.PRESETS["text"]
    assert (p.max_tokens, p.best_of) == (50, 1)
    assert (p.temperature, p.top_p, p.frequency_penalty, p.presence_penalty) == (0.7, 1.0, 0.2, 0.0)
    assert (p.stop, p.n) == ("\n", 1)


def test_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=10, temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=10, top_p=0.0)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=10, n=2, best_of=1)


# --- prompts ---

TRIPLETS = [("Pix Brook", "mouth of the watercourse", "River Hiz")]
DEMOS = [
    ([("Ciudad del Este", "country", "Paraguay")], "Ciudad del Este is a city in Paraguay."),
    ([("Poltava Governorate", "country", "Russian Empire")], "Poltava Governorate was part of the Russian Empire."),
    ([("Two Weeks with the Queen", "author", "Morris Gleitzman")], "Two Weeks with the Queen is a novel by Morris Gleitzman."),
]


def test_zero_shot_prompt_structure():
    template = PromptTemplate(instruction="Express the triplets as one sentence.")
    prompt = build_prompt(TRIPLETS, template)
    assert prompt.startswith("Express the triplets as one sentence.\n\n")
    assert prompt.endswith("triplets: (Pix Brook; mouth of the watercourse; River Hiz)\ntext: ")


def test_prompt_is_deterministic():
    template = PromptTemplate(instruction="Instr.", num_demonstrations=3)
    assert build_prompt(TRIPLETS, template, DEMOS) == build_prompt(TRIPLETS, template, DEMOS)


def test_demonstrations_appear_in_order_before_query():
    template = PromptTemplate(instruction="Instr.", num_demonstrations=3)
    prompt = build_prompt(TRIPLETS, template, DEMOS)
    positions = [prompt.index(text) for _, text in DEMOS]
    assert positions == sorted(positions)
    assert positions[-1] < prompt.index("Pix Brook")


def test_placeholder_missing_is_error():
    with pytest.raises(textgen.TemplateError):
        PromptTemplate(instruction="x", demonstration_format="triplets here\ntext: {text}")
    with pytest.raises(textgen.TemplateError):
        PromptTemplate(instruction="x", demonstration_format="{triplets} and {triplets}: {text}")


def test_demonstration_count_mismatch_is_error():
    template = PromptTemplate(instruction="x", num_demonstrations=2)
    with pytest.raises(textgen.TemplateError):
        build_prompt(TRIPLETS, template, DEMOS)


def test_template_from_file(tmp_path):
    path = tmp_path / "template.yaml"
    path.write_text(
        "instruction: Write text for the triplets.\n"
        'demonstration_format: "triplets: {triplets}\\ntext: {text}"\n'
        "num_demonstrations: 1\n",
        encoding="utf-8",
    )
    template = PromptTemplate.from_file(path)
    assert template.num_demonstrations == 1
    prompt = build_prompt(TRIPLETS, template, DEMOS[:1])
    assert "Ciudad del Este is a city in Paraguay." in prompt


# --- cost accounting ---

def test_estimate_cost_published_price():
    assert estimate_cost(1000, 0.02) == pytest.approx(0.02)
    assert estimate_cost(0, 0.02) == 0.0
    assert estimate_cost(11_177_500, 0.02) == pytest.approx(223.55)
    with pytest.raises(ValueError):
        estimate_cost(-1, 0.02)


# --- rate limiter ---

def sliding_window_ok(events, window, max_requests, max_tokens):
    for i, (t_i, _) in enumerate(events):
        in_window = [(t, k) for t, k in events if t_i <= t < t_i + window]
        if len(in_window) > max_requests or sum(k for _, k in in_window) > max_tokens:
            return False
    return True


def test_rate_limiter_request_budget_simulated_clock():
    clock = FakeClock()
    limiter = RateLimiter(20, 150_000, time_fn=clock.time, sleep_fn=clock.sleep)
    events = [(limiter.acquire(100), 100) for _ in range(100)]
    assert sliding_window_ok(events, 60.0, 20, 150_000)
    assert clock.now > 0  # waiting actually happened


def test_rate_limiter_token_budget_simulated_clock():
    clock = FakeClock()
    limiter = RateLimiter(1000, 150_000, time_fn=clock.time, sleep_fn=clock.sleep)
    events = [(limiter.acquire(40_000), 40_000) for _ in range(12)]
    assert sliding_window_ok(events, 60.0, 1000, 150_000)


@pytest.mark.parametrize("preset, fields", [
    ("code", '"max_tokens": 100, "temperature": 0.7, "top_p": 1.0, "frequency_penalty": 0.2, '
             '"presence_penalty": 0.0, "stop": "\\n", "n": 1, "best_of": 5'),
    ("text", '"max_tokens": 50, "temperature": 0.7, "top_p": 1.0, "frequency_penalty": 0.2, '
             '"presence_penalty": 0.0, "stop": "\\n", "n": 1, "best_of": 1'),
])
def test_request_body_carries_every_preset_field_in_order(preset, fields):
    bodies = []

    def transport(url, body, headers, timeout):
        bodies.append(body)
        return 200, ok_payload("A fine sentence.")

    client = make_client(transport)
    client.params = textgen.PRESETS[preset]
    client.generate_one("set-1", "some prompt")
    assert json.dumps(bodies[0]) == '{"model": "mock-model", "prompt": "some prompt", ' + fields + "}"


def test_rate_limiter_rejects_oversized_request():
    limiter = RateLimiter(10, 1000, time_fn=lambda: 0.0, sleep_fn=lambda s: None)
    with pytest.raises(ValueError):
        limiter.acquire(2000)


# --- completion client ---

def test_successful_generation_records_usage():
    calls = []

    def transport(url, body, headers, timeout):
        calls.append(body)
        return 200, ok_payload("A fine sentence.")

    client = make_client(transport)
    record = client.generate_one("set-1", "some prompt")
    assert record.status == "ok"
    assert record.completion == "A fine sentence."
    assert record.total_tokens == 50
    assert calls[0]["model"] == "mock-model"
    assert calls[0]["best_of"] == 1
    assert calls[0]["stop"] == "\n"


def test_completion_truncated_at_stop_string():
    transport = lambda url, body, headers, timeout: (200, ok_payload("first line\nsecond line"))
    record = make_client(transport).generate_one("s", "p")
    assert record.completion == "first line"
    assert "\n" not in record.completion


def test_null_finish_reason_is_recorded_empty():
    payload = ok_payload()
    payload["choices"][0]["finish_reason"] = None
    record = make_client(lambda url, body, headers, timeout: (200, payload)).generate_one("s", "p")
    assert (record.status, record.finish_reason) == ("ok", "")


def test_429_backs_off_and_retries():
    attempts = []

    def transport(url, body, headers, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            return 429, {}
        return 200, ok_payload()

    clock = FakeClock()
    client = make_client(transport, clock=clock)
    record = client.generate_one("s", "p")
    assert record.status == "ok"
    assert record.attempts == 3
    assert len(attempts) == 3
    assert clock.now > 0  # backoff slept on the injected clock


def test_network_errors_are_retried():
    state = {"n": 0}

    def transport(url, body, headers, timeout):
        state["n"] += 1
        if state["n"] < 3:
            raise ConnectionError("boom")
        return 200, ok_payload()

    record = make_client(transport).generate_one("s", "p")
    assert record.status == "ok" and record.attempts == 3


def test_malformed_response_fails_without_retry():
    calls = []

    def transport(url, body, headers, timeout):
        calls.append(1)
        return 200, {"unexpected": "shape"}

    record = make_client(transport).generate_one("s", "p")
    assert record.status == "failed"
    assert record.error == "malformed response"
    assert len(calls) == 1


def test_retries_exhausted_marks_failed():
    transport = lambda url, body, headers, timeout: (429, {})
    record = make_client(transport).generate_one("s", "p")
    assert record.status == "failed"
    assert record.attempts == 5
    assert "429" in record.error


def test_a_doomed_prompt_sleeps_only_between_attempts():
    sleeps = []
    transport = lambda url, body, headers, timeout: (500, {})
    record = make_client(transport, max_attempts=3, sleep_fn=sleeps.append).generate_one("s", "p")
    assert record.status == "failed" and record.attempts == 3
    assert len(sleeps) == 2  # none after the last attempt


def test_usage_falls_back_to_char_estimate():
    def transport(url, body, headers, timeout):
        return 200, {"choices": [{"text": "ok then", "finish_reason": "stop"}]}

    record = make_client(transport).generate_one("s", "x" * 40)
    assert record.prompt_tokens == 10  # ceil(40 / 4)
    assert record.completion_tokens == textgen.estimate_tokens("ok then")


def generate(client, prompts, out):
    """``client.generate`` appending to the records file ``out``, as ``kgsynth generate`` calls it."""
    with JsonlSink(out) as sink:
        return client.generate(prompts, sink)


def test_generate_batch_persists_all_records(tmp_path):
    transport = lambda url, body, headers, timeout: (200, ok_payload())
    client = make_client(transport)
    out = tmp_path / "records.jsonl"
    prompts = [(f"id{i}", f"prompt {i}") for i in range(25)]
    counts, _ = generate(client, prompts, out)
    assert counts == {"ok": 25, "failed": 0, "skipped": 0}
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["set_id"] for r in records} == {f"id{i}" for i in range(25)}


def test_resume_never_rebills_completed_prompts(tmp_path):
    out = tmp_path / "records.jsonl"
    first_calls = []
    transport1 = lambda url, body, headers, timeout: (first_calls.append(body["prompt"]), (200, ok_payload()))[1]
    prompts = [(f"id{i}", f"prompt {i}") for i in range(30)]
    generate(make_client(transport1), prompts[:18], out)
    assert len(first_calls) == 18

    second_calls = []
    transport2 = lambda url, body, headers, timeout: (second_calls.append(body["prompt"]), (200, ok_payload()))[1]
    counts, completions = generate(make_client(transport2), prompts, out)
    assert counts["skipped"] == 18
    assert counts["ok"] == 12
    assert sorted(second_calls) == sorted(f"prompt {i}" for i in range(18, 30))
    done = textgen.completed_ids(read_jsonl(out))
    assert set(done) == {f"id{i}" for i in range(30)}
    assert completions == done  # this run's completions, and the earlier run's read back


def recording_transport(calls):
    return lambda url, body, headers, timeout: (calls.append(body["prompt"]), (200, ok_payload()))[1]


@pytest.mark.parametrize("keep", ["half", "all but the newline"])
def test_resume_repairs_a_torn_last_record(tmp_path, keep):
    out = tmp_path / "records.jsonl"
    prompts = [(f"id{i}", f"prompt {i}") for i in range(3)]
    generate(make_client(recording_transport([]), concurrency=1), prompts[:2], out)
    first, second = out.read_bytes().splitlines(keepends=True)
    torn = second[: len(second) // 2] if keep == "half" else second[:-1]
    out.write_bytes(first + torn)  # a kill in the middle of the second append

    calls = []
    counts, _ = generate(make_client(recording_transport(calls)), prompts, out)
    requeried = ["prompt 1", "prompt 2"] if keep == "half" else ["prompt 2"]
    assert sorted(calls) == requeried
    assert counts == {"ok": len(requeried), "failed": 0, "skipped": 3 - len(requeried)}
    records = list(read_jsonl(out))  # every line parses again
    assert sorted(r["set_id"] for r in records) == ["id0", "id1", "id2"]


def test_failed_records_are_retried_on_resume(tmp_path):
    out = tmp_path / "records.jsonl"
    transport_fail = lambda url, body, headers, timeout: (500, {})
    counts, _ = generate(make_client(transport_fail), [("a", "p")], out)
    assert counts["failed"] == 1
    transport_ok = lambda url, body, headers, timeout: (200, ok_payload())
    counts, _ = generate(make_client(transport_ok), [("a", "p")], out)
    assert counts == {"ok": 1, "failed": 0, "skipped": 0}
