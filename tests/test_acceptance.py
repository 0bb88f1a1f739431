"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import io
import itertools
import json
import math
import random
import threading
import time

import numpy as np
import pytest
import yaml

from kgsynth import codec, metrics, sampler, textgen
from kgsynth.cli import main as cli_main
from kgsynth.codec import Variant
from kgsynth.decoder import (
    ConstraintEngine,
    DecodeParams,
    DEFAULT_LENGTH_PENALTY,
    UniformScorer,
    WordPieceTokenizer,
    build_trie,
    constrained_beam_search,
)
from kgsynth.metrics import EvalPair
from kgsynth.pipeline import JsonlSink

from conftest import make_zipf_kg
from engine_replay import accepts
from fake_scorers import AdversarialScorer
from score_points import macro_scores, micro_scores
from test_metrics import brute_force_macro, brute_force_micro, five_numbers, random_instance, sort_oracle_quartiles

FE = Variant.FE
SC = Variant.SC

ZTP_MEAN = 3.0 / (1.0 - math.exp(-3.0))


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_codec_golden():
    start = time.monotonic()
    triplets = [
        ("Mount Lanning", "instance of", "Mountain"),
        ("Mount Lanning", "mountain range", "Sentinel Range"),
        ("Newcomer Glacier", "mountain range", "Sentinel Range"),
    ]
    fe_expected = (
        "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
        " [s] Mount_Lanning [r] mountain range [o] Sentinel_Range [e]"
        " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
    )
    sc_expected = (
        "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
        " [r] mountain range [o] Sentinel_Range [e]"
        " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
    )
    assert codec.linearize(triplets, FE) == fe_expected
    assert codec.linearize(triplets, SC) == sc_expected
    assert set(codec.parse(fe_expected, FE).triplets) == set(triplets)
    assert set(codec.parse(sc_expected, SC).triplets) == set(triplets)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("1 codec golden", f"FE and SC byte-exact, round trip ok, {elapsed:.3f}s < 1s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_codec_property_suite():
    start = time.monotonic()
    rng = random.Random(2024)
    entities = [f"Entity {i} {'Place' if i % 3 else 'Person'}" for i in range(200)]
    relations = [f"relation {j} of" for j in range(30)]
    sc_never_longer = 0
    n_sets = 10_000
    for _ in range(n_sets):
        n = rng.randint(1, 6)
        triplets = set()
        while len(triplets) < n:
            triplets.add((rng.choice(entities), rng.choice(relations), rng.choice(entities)))
        triplets = sorted(triplets)
        fe_text = codec.linearize(triplets, FE)
        sc_text = codec.linearize(triplets, SC)
        assert set(codec.parse(fe_text, FE).triplets) == set(triplets)
        assert set(codec.parse(sc_text, SC).triplets) == set(triplets)
        sc_never_longer += int(len(sc_text) <= len(fe_text))
    elapsed = time.monotonic() - start
    assert sc_never_longer == n_sets
    assert elapsed < 30.0
    report("2 codec properties", f"{n_sets} round trips, SC<=FE in 100%, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_metrics_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(31337)
    for _ in range(1000):
        pairs = random_instance(rng, max_docs=8, max_triplets=6)
        assert micro_scores(pairs) == brute_force_micro(pairs)
        assert macro_scores(pairs) == brute_force_macro(pairs)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("3 metrics oracle", f"1000 instances, all six scores exactly equal, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_bootstrap_determinism_and_degeneracy():
    pairs = [
        EvalPair.make("d1", {("a", "r", "b")}, {("a", "r", "b")}),
        EvalPair.make("d2", {("c", "r", "d")}, {("c", "r", "e")}),
        EvalPair.make("d3", set(), {("x", "q", "y")}),
    ]
    fn = lambda ps: micro_scores(ps)[2]
    first = metrics.bootstrap_ci(pairs, fn, seed=17)
    second = metrics.bootstrap_ci(pairs, fn, seed=17)
    assert first == second

    degenerate = [EvalPair.make(f"d{i}", {("a", "r", "b")}, {("a", "r", "b")}) for i in range(5)]
    point, lower, upper = metrics.bootstrap_ci(degenerate, fn, seed=3)
    assert point == lower == upper

    import inspect

    signature = inspect.signature(metrics.bootstrap_ci)
    assert signature.parameters["n"].default == 50
    assert signature.parameters["level"].default == 0.95
    report("4 bootstrap", "fixed seed reproduces CIs, zero-variance CI has zero width, defaults n=50 level=0.95")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_bucketing_and_summaries():
    assert metrics.bucketize(34) == 5
    assert metrics.bucketize(32) == 5
    assert metrics.bucketize(1) == 0
    grid = sorted({1, 2, 3, 5, 8, 31, 32, 33, 64, 1000, 2**10, 2**17, 10**5, 10**6})
    buckets = [metrics.bucketize(c) for c in grid]
    assert buckets == sorted(buckets)

    rebel_counts = [1, 4, 34, 432, 716679]
    flattened = [[("e", f"r{i}", "e")] for i, c in enumerate(rebel_counts) for _ in range(c)]
    stats = metrics.relation_stats(flattened)
    assert five_numbers(stats) == (1, 4, 34, 432, 716679)
    assert five_numbers(stats) == pytest.approx(sort_oracle_quartiles(rebel_counts))

    rng = random.Random(55)
    for _ in range(50):
        counts = [rng.randint(1, 10_000) for _ in range(rng.randint(2, 12))]
        flattened = [[("e", f"r{i}", "e")] for i, c in enumerate(counts) for _ in range(c)]
        assert five_numbers(metrics.relation_stats(flattened)) == pytest.approx(sort_oracle_quartiles(counts))
    report("5 bucketing", "34->5, 32->5, 1->0, monotone over spot grid, summaries match sort oracle")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_sampler_statistics(zipf_kg):
    start = time.monotonic()
    n_sets = 20_000

    def run(cfg):
        rel_counts = np.zeros(len(zipf_kg.relations))
        sizes = []
        for ts in sampler.sample_dataset(zipf_kg, sampler.SamplerState(zipf_kg, cfg), n_sets):
            sizes.append(len(ts.triplets))
            for t in ts.triplets:
                rel_counts[t.relation] += 1
        return rel_counts, np.asarray(sizes)

    biased_cfg = sampler.SamplerConfig(
        poisson_mean=3.0, bias_factor=7.0, dampening=1.0, reweight_interval=2_000,
        strategy=sampler.MIXED, seed=7,
    )
    rel_counts, sizes = run(biased_cfg)

    # (a) every relation sampled at least once
    assert int((rel_counts > 0).sum()) == len(zipf_kg.relations)

    # (b) coefficient of variation at least 30% below the unbiased baseline
    baseline_cfg = sampler.SamplerConfig(
        poisson_mean=3.0, bias_factor=0.0, dampening=1.0, reweight_interval=10**9,
        strategy=sampler.ENTITY_CENTRIC, seed=7,
    )
    baseline_counts, _ = run(baseline_cfg)
    cv = rel_counts.std() / rel_counts.mean()
    cv_baseline = baseline_counts.std() / baseline_counts.mean()
    reduction = 1.0 - cv / cv_baseline
    assert reduction >= 0.30, f"CV reduction {reduction:.1%}"

    # (c) empirical set-size mean within 3 standard errors of the
    # zero-truncated Poisson(3) mean
    se = sizes.std() / math.sqrt(len(sizes))
    assert abs(sizes.mean() - ZTP_MEAN) < 3 * se

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        "6 sampler statistics",
        f"coverage 200/200, CV {cv:.3f} vs {cv_baseline:.3f} (-{reduction:.1%}), "
        f"mean size {sizes.mean():.4f} vs {ZTP_MEAN:.4f} (3SE {3 * se:.4f}), {elapsed:.0f}s < 300s",
    )


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_sampler_determinism(zipf_kg):
    cfg = sampler.SamplerConfig(reweight_interval=500, strategy=sampler.MIXED, seed=20240809)
    first = io.StringIO()
    second = io.StringIO()
    sampler.write_dataset_jsonl(zipf_kg, cfg, 2_000, first)
    sampler.write_dataset_jsonl(zipf_kg, cfg, 2_000, second)
    assert first.getvalue() == second.getvalue()
    report("7 sampler determinism", "2000-set JSONL byte-identical across two runs")


# ---------------------------------------------------------------- criterion 8

DELIM_PIECES = ["[s] ", " [s] ", " [r] ", " [o] ", " [e]"]


def test_criterion_08_decoder_soundness_completeness():
    start = time.monotonic()
    entities = ["Ada", "Bob", "Chip", "Lab", "Zuse"]
    relations = ["knows", "works at", "built"]
    tokenizer = WordPieceTokenizer(DELIM_PIECES + entities + relations)
    entity_trie = build_trie(entities, tokenizer)
    relation_trie = build_trie(relations, tokenizer)
    engines = {
        Variant.FE: ConstraintEngine(FE, tokenizer, entity_trie, relation_trie),
        Variant.SC: ConstraintEngine(SC, tokenizer, entity_trie, relation_trie),
    }

    # completeness: every valid set of <= 2 triplets has a reachable linearization
    singles = list(itertools.product(entities, relations, entities))
    n_sets = 0
    for triplets in itertools.chain(((t,) for t in singles), itertools.combinations(singles, 2)):
        for variant, engine in engines.items():
            text = codec.linearize(list(triplets), variant)
            ids = tokenizer.try_encode(text)
            assert ids is not None and accepts(engine, ids), text
        n_sets += 1

    # defaults match the published decoding setup
    assert DecodeParams().num_beams == 10
    assert DecodeParams().resolve_length_penalty(Variant.FE) == 0.8
    assert DecodeParams().resolve_length_penalty(Variant.SC) == 0.6

    # 10,000 searches under uniform and adversarial scorers, default beams
    uniform = UniformScorer(tokenizer.vocab_size)
    adversarial = [AdversarialScorer(tokenizer.vocab_size, favored) for favored in range(tokenizer.vocab_size)]
    params = DecodeParams(max_length=25)
    n_runs = 10_000
    n_finished = 0
    for i in range(n_runs):
        variant = Variant.FE if i % 2 == 0 else Variant.SC
        engine = engines[variant]
        scorer = uniform if i % 4 < 2 else adversarial[i % tokenizer.vocab_size]
        best = constrained_beam_search(scorer, f"ctx{i}", engine, params)
        parsed = codec.parse(
            best.text, variant,
            entity_catalog=entities, relation_catalog=relations,
        )
        assert parsed.triplets
        assert parsed.dropped_unresolvable == 0
        if best.finished:
            # accepted sequences parse completely
            n_finished += 1
            assert parsed.dropped_fragments == 0
        else:
            # explicit truncation at max_length: at most the trailing fragment
            assert parsed.dropped_fragments <= 1
    assert n_finished >= n_runs // 2  # all uniform-scorer runs terminate
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        "8 decoder",
        f"{n_sets} toy sets reachable (FE+SC), {n_runs} searches 100% catalog-valid "
        f"({n_finished} finished, rest flagged truncated), beams=10 lp=0.8/0.6, {elapsed:.0f}s < 120s",
    )


# ---------------------------------------------------------------- criterion 9

class FakeClock:
    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def time(self):
        with self._lock:
            return self.now

    def sleep(self, seconds):
        with self._lock:
            self.now += seconds


class RecordingLimiter(textgen.RateLimiter):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []

    def acquire(self, tokens):
        granted = super().acquire(tokens)
        with self._lock:
            self.events.append((granted, tokens))
        return granted


def test_criterion_09_generation_client(tmp_path):
    assert textgen.estimate_cost(11_177_500, 0.02) == pytest.approx(223.55)

    prompts = [(f"set-{i}", f"prompt number {i} " + "x" * (i % 37)) for i in range(500)]
    flaky = {f"set-{i}" for i in range(0, 500, 7)}  # 429 once, then succeed
    doomed = {f"set-{i}" for i in range(0, 500, 97)}  # always fail
    flaky -= doomed
    attempts_seen = {}

    def transport(url, body, headers, timeout):
        set_id = body["prompt"].split(" ")[2]
        key = f"set-{set_id}"
        attempts_seen[key] = attempts_seen.get(key, 0) + 1
        if key in doomed:
            return 500, {}
        if key in flaky and attempts_seen[key] == 1:
            return 429, {}
        return 200, {
            "choices": [{"text": f"text for {key}\n junk", "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 20, "completion_tokens": 8, "total_tokens": 28},
        }

    clock = FakeClock()
    limiter = RecordingLimiter(20, 150_000, time_fn=clock.time, sleep_fn=clock.sleep)
    client = textgen.CompletionClient(
        "http://mock/v1", "mock", textgen.PRESETS["text"], limiter,
        transport=transport, max_attempts=3, backoff_base=0.5, concurrency=4,
        sleep_fn=clock.sleep,
    )
    out = tmp_path / "records.jsonl"

    # first run is killed partway: only the first 350 prompts get processed
    with JsonlSink(out) as sink:
        counts_first, _ = client.generate(prompts[:350], sink)
    assert counts_first["ok"] + counts_first["failed"] == 350

    # every prompt resolved or flagged after the resumed full run
    calls_before_resume = dict(attempts_seen)
    with JsonlSink(out) as sink:
        counts, _ = client.generate(prompts, sink)
    assert counts["skipped"] == counts_first["ok"]
    records = {}
    for line in out.read_text().splitlines():
        record = json.loads(line)
        records[record["set_id"]] = record  # latest wins
    assert set(records) == {sid for sid, _ in prompts}
    assert all(records[sid]["status"] == ("failed" if sid in doomed else "ok") for sid in records)

    # resume re-billed zero completed prompts
    for sid, record in records.items():
        if record["status"] == "ok" and sid in calls_before_resume and sid not in flaky:
            assert attempts_seen[sid] == calls_before_resume[sid] or sid not in {s for s, _ in prompts[:350]}

    ok_before_resume = {sid for sid, _ in prompts[:350] if sid not in doomed}
    rebilled = [sid for sid in ok_before_resume if attempts_seen[sid] > calls_before_resume.get(sid, 0)]
    assert rebilled == []

    # sliding-window limits never exceeded on the simulated clock
    events = sorted(limiter.events)
    for i, (t_i, _) in enumerate(events):
        window = [(t, k) for t, k in events if t_i <= t < t_i + 60.0]
        assert len(window) <= 20
        assert sum(k for _, k in window) <= 150_000
    report(
        "9 generation client",
        f"500 prompts resolved/flagged ({sum(1 for r in records.values() if r['status'] == 'ok')} ok, "
        f"{sum(1 for r in records.values() if r['status'] == 'failed')} flagged), zero re-billed on resume, "
        f"window limits respected over {len(events)} grants, cost(11,177,500 @ $0.02/1K) = $223.55",
    )


# --------------------------------------------------------------- criterion 10

def test_criterion_10_prepare_token_filter(tmp_path):
    # byte tokenizer: one token per byte, so lengths are exact and auditable
    def fe_len(triplets, text=""):
        return len(codec.linearize(triplets, FE, text).encode("utf-8"))

    def pad_entity(base, target, triplets_fn):
        # grow the object label until the FE target hits the requested length
        for extra in range(0, 300):
            label = base + "y" * extra
            if fe_len(triplets_fn(label)) == target:
                return label
        raise AssertionError("could not calibrate fixture length")

    single = lambda label: [("Subject", "relation", label)]
    at_limit = pad_entity("Obj", 256, single)
    over_limit = pad_entity("Obj", 257, single)

    # same-subject pair: SC is shorter than FE; calibrate FE to 257 with SC <= 256
    def pair(label):
        return [("Subject", "relation", "CompactObj"), ("Subject", "relation two", label)]

    fe_governs_label = pad_entity("Obj", 257, pair)
    sc_len = len(codec.linearize(pair(fe_governs_label), SC).encode("utf-8"))
    assert sc_len <= 256

    rows = [
        {"id": "keep_short", "text": "short text", "triplets": single("Obj")},
        {"id": "keep_at_limit", "text": "x" * 256, "triplets": single(at_limit)},
        {"id": "drop_long_input", "text": "x" * 257, "triplets": single("Obj")},
        {"id": "drop_long_target", "text": "fine", "triplets": single(over_limit)},
        {"id": "drop_fe_governs", "text": "fine", "triplets": pair(fe_governs_label)},
    ]
    datapoints = tmp_path / "datapoints.jsonl"
    datapoints.write_text(
        "".join(
            json.dumps({"id": r["id"], "text": r["text"], "triplets": [{"s": s, "r": rr, "o": o} for s, rr, o in r["triplets"]]}) + "\n"
            for r in rows
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "tokenizer": "byte",
                "paths": {"workdir": str(out)},
                "prepare": {"max_input_tokens": 256, "max_target_tokens": 256},
            }
        ),
        encoding="utf-8",
    )
    assert cli_main(["prepare", "--config", str(config), "--datapoints", str(datapoints)]) == 0
    fe_rows = [json.loads(l) for l in (out / "prepared_fe.jsonl").read_text().splitlines()]
    sc_rows = [json.loads(l) for l in (out / "prepared_sc.jsonl").read_text().splitlines()]
    kept_fe = [r["id"] for r in fe_rows]
    kept_sc = [r["id"] for r in sc_rows]
    assert kept_fe == ["keep_short", "keep_at_limit"]
    assert kept_sc == kept_fe  # FE length governs both outputs
    for row in fe_rows:
        assert len(row["target"].encode("utf-8")) <= 256
        assert len(row["input"].encode("utf-8")) <= 256
    report(
        "10 prepare filter",
        "boundary 256 kept, 257 dropped (input and FE target), FE governs SC, surviving ids identical",
    )
