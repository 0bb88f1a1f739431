import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsynth import metrics
from kgsynth.metrics import EvalPair

from score_points import macro_scores, micro_scores


def pair(doc_id, predicted, gold):
    return EvalPair.make(doc_id, predicted, gold)


T = lambda s, r, o: (s, r, o)


# --- independent brute-force oracle: plain loops, no indexing tricks ---

def brute_force_micro(pairs):
    correct = n_pred = n_gold = 0
    for p in pairs:
        for t in p.predicted:
            n_pred += 1
            if t in p.gold:
                correct += 1
        for t in p.gold:
            n_gold += 1
    if n_pred == 0:
        precision = 1.0 if n_gold == 0 else 0.0
    else:
        precision = correct / n_pred
    if n_gold == 0:
        recall = 1.0 if n_pred == 0 else 0.0
    else:
        recall = correct / n_gold
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def brute_force_macro(pairs):
    relations = set()
    for p in pairs:
        for t in p.predicted:
            relations.add(t[1])
        for t in p.gold:
            relations.add(t[1])
    if not relations:
        return 1.0, 1.0, 1.0
    precisions, recalls, f1s = [], [], []
    for r in sorted(relations):  # the summation order of CountIndex.table
        restricted = [
            EvalPair.make(
                p.doc_id,
                [t for t in p.predicted if t[1] == r],
                [t for t in p.gold if t[1] == r],
            )
            for p in pairs
        ]
        p_r, r_r, f_r = brute_force_micro(restricted)
        precisions.append(p_r)
        recalls.append(r_r)
        f1s.append(f_r)
    n = len(relations)
    return sum(precisions) / n, sum(recalls) / n, sum(f1s) / n


def recount_relations(pairs):
    """The loop that counted relations before ``CountIndex``: every drawn
    pair recounted in Python, relations in sorted order, absent ones left out."""
    counts = {}
    for p in pairs:
        for column, facts in enumerate((p.predicted & p.gold, p.predicted, p.gold)):
            for t in facts:
                counts.setdefault(t[1], [0, 0, 0])[column] += 1
    return {r: tuple(counts[r]) for r in sorted(counts)}


def random_instance(rng, max_docs=8, max_triplets=6, n_entities=6, n_relations=4):
    pairs = []
    for d in range(rng.randint(1, max_docs)):
        make = lambda: {
            (f"e{rng.randint(0, n_entities)}", f"r{rng.randint(0, n_relations)}", f"e{rng.randint(0, n_entities)}")
            for _ in range(rng.randint(0, max_triplets))
        }
        pairs.append(pair(f"d{d}", make(), make()))
    return pairs


# --- count index ---

@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=200, deadline=None)
def test_count_index_table_equals_a_recount_of_the_drawn_pairs(seed, data):
    pairs = random_instance(random.Random(seed))
    # repeats and omitted documents included, and the empty multiset
    docs = data.draw(st.lists(st.integers(0, len(pairs) - 1), max_size=2 * len(pairs)))
    table = metrics.CountIndex(pairs).table(docs)
    expected = recount_relations([pairs[j] for j in docs])
    assert table == expected
    assert list(table) == list(expected)
    assert all(type(count) is int for row in table.values() for count in row)


def test_count_index_of_pairs_without_facts_is_empty():
    pairs = [pair("d0", set(), set()), pair("d1", set(), set())]
    assert metrics.CountIndex(pairs).table([0, 1, 1]) == {}
    assert metrics.CountIndex([]).table([]) == {}


# --- micro ---

def test_micro_identity():
    pairs = [pair("d1", {T("a", "r", "b")}, {T("a", "r", "b")})]
    assert micro_scores(pairs) == (1.0, 1.0, 1.0)


def test_micro_hand_computed():
    pairs = [
        pair("d1", {T("a", "r", "b"), T("a", "r", "c")}, {T("a", "r", "b")}),
        pair("d2", {T("x", "q", "y")}, {T("x", "q", "y"), T("x", "q", "z")}),
    ]
    p, r, f = micro_scores(pairs)
    assert (p, r, f) == (2 / 3, 2 / 3, pytest.approx(2 / 3))


def test_micro_empty_predictions_nonempty_gold():
    pairs = [pair("d1", set(), {T("a", "r", "b")})]
    assert micro_scores(pairs) == (0.0, 0.0, 0.0)


def test_micro_both_empty_is_perfect():
    pairs = [pair("d1", set(), set())]
    assert micro_scores(pairs) == (1.0, 1.0, 1.0)


# --- macro ---

def test_macro_averages_over_relations():
    pairs = [
        pair("d1", {T("a", "r1", "b")}, {T("a", "r1", "b")}),  # r1 perfect
        pair("d2", {T("a", "r2", "c")}, {T("a", "r2", "d")}),  # r2 all wrong
    ]
    p, r, f = macro_scores(pairs)
    assert p == 0.5 and r == 0.5 and f == 0.5


def test_macro_single_relation_perfect():
    pairs = [pair("d1", {T("a", "r", "b")}, {T("a", "r", "b")})]
    assert macro_scores(pairs) == (1.0, 1.0, 1.0)


def test_macro_predicted_only_relation_counts_as_zero_precision():
    pairs = [
        pair("d1", {T("a", "r1", "b"), T("a", "r2", "b")}, {T("a", "r1", "b")}),
    ]
    p, r, f = macro_scores(pairs)
    # r1: P=R=1; r2: P=0 (predicted, no gold), R=0
    assert p == 0.5 and r == 0.5


def test_macro_f1_modes_differ():
    pairs = [
        pair("d1", {T("a", "r1", "b")}, {T("a", "r1", "b")}),
        pair("d2", {T("a", "r2", "c")}, {T("a", "r2", "d")}),
    ]
    mean_of_f1 = macro_scores(pairs, f1_mode="mean_of_f1")[2]
    harmonic = macro_scores(pairs, f1_mode="harmonic_of_means")[2]
    assert mean_of_f1 == 0.5
    assert harmonic == 0.5  # 2*0.5*0.5/(0.5+0.5)
    with pytest.raises(ValueError, match="macro_f1_mode"):
        metrics.evaluate(pairs, macro_f1_mode="nope")


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(12345)
    for _ in range(300):
        pairs = random_instance(rng)
        assert micro_scores(pairs) == brute_force_micro(pairs)
        assert macro_scores(pairs) == pytest.approx(brute_force_macro(pairs), abs=0)


def test_permutation_invariance():
    rng = random.Random(5)
    pairs = random_instance(rng)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert micro_scores(pairs) == micro_scores(shuffled)
    assert macro_scores(pairs) == macro_scores(shuffled)


def test_empty_document_changes_nothing():
    rng = random.Random(6)
    pairs = random_instance(rng)
    extended = pairs + [pair("extra", set(), set())]
    assert micro_scores(pairs) == micro_scores(extended)
    assert macro_scores(pairs) == macro_scores(extended)


def test_f1_zero_iff_pr_product_zero():
    rng = random.Random(7)
    for _ in range(100):
        pairs = random_instance(rng)
        p, r, f = micro_scores(pairs)
        assert 0 <= p <= 1 and 0 <= r <= 1 and 0 <= f <= 1
        assert (f == 0) == (p * r == 0)
        assert f <= (p + r) / 2 + 1e-12


# --- bootstrap ---

def test_bootstrap_deterministic():
    pairs = [pair("d1", {T("a", "r", "b")}, {T("a", "r", "b")}), pair("d2", set(), {T("x", "r", "y")})]
    fn = lambda ps: micro_scores(ps)[2]
    first = metrics.bootstrap_ci(pairs, fn, n=50, seed=42)
    second = metrics.bootstrap_ci(pairs, fn, n=50, seed=42)
    assert first == second


def test_bootstrap_zero_variance():
    pairs = [pair(f"d{i}", {T("a", "r", "b")}, {T("a", "r", "b")}) for i in range(4)]
    point, lower, upper = metrics.bootstrap_ci(pairs, lambda ps: micro_scores(ps)[2], n=50, seed=1)
    assert point == lower == upper == 1.0


def test_bootstrap_bounds_come_from_achievable_values():
    # two docs scoring 0 and 1: any resample metric lies in {0, 0.5, 1}
    pairs = [
        pair("good", {T("a", "r", "b")}, {T("a", "r", "b")}),
        pair("bad", {T("x", "r", "z")}, {T("x", "r", "y")}),
    ]
    fn = lambda ps: micro_scores(ps)[0]
    achievable = set()
    for combo in itertools.product(range(2), repeat=2):
        achievable.add(fn([pairs[i] for i in combo]))
    assert achievable == {0.0, 0.5, 1.0}
    for seed in range(10):
        point, lower, upper = metrics.bootstrap_ci(pairs, fn, n=50, seed=seed)
        assert lower in achievable and upper in achievable
        assert lower <= upper


def test_bootstrap_requires_pairs():
    with pytest.raises(ValueError):
        metrics.bootstrap_ci([], lambda ps: 0.0)


# --- buckets ---

def test_bucketize_known_values():
    assert metrics.bucketize(34) == 5  # 32 <= 34 < 64
    assert metrics.bucketize(32) == 5
    assert metrics.bucketize(1) == 0
    assert metrics.bucketize(0) == metrics.UNSEEN_BUCKET
    with pytest.raises(ValueError):
        metrics.bucketize(-1)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_bucketize_matches_log2_floor(count):
    import math

    assert metrics.bucketize(count) == int(math.floor(math.log2(count)))


def test_bucketize_monotone():
    grid = [1, 2, 3, 7, 8, 31, 32, 33, 1023, 1024, 10**5, 10**6]
    buckets = [metrics.bucketize(c) for c in grid]
    assert buckets == sorted(buckets)


def test_per_bucket_single_bucket_equals_global():
    pairs = [
        pair("d1", {T("a", "r1", "b"), T("a", "r2", "c")}, {T("a", "r1", "b")}),
        pair("d2", {T("x", "r1", "y")}, {T("x", "r1", "y"), T("x", "r2", "z")}),
    ]
    train_counts = {"r1": 40, "r2": 40}  # both bucket 5
    rows = metrics.evaluate(pairs, n_bootstrap=10, seed=3, train_counts=train_counts)["per_bucket"]
    assert len(rows) == 1
    assert rows[0]["bucket"] == 5
    assert rows[0]["f1_point"] == micro_scores(pairs)[2]


def test_per_bucket_two_buckets():
    pairs = [
        pair("d1", {T("a", "rare", "b")}, {T("a", "rare", "b")}),
        pair("d2", set(), {T("x", "common", "y")}),
    ]
    rows = metrics.evaluate(pairs, n_bootstrap=10, seed=0, train_counts={"rare": 1, "common": 1000})["per_bucket"]
    by_bucket = {row["bucket"]: row["f1_point"] for row in rows}
    assert by_bucket[metrics.bucketize(1)] == 1.0
    assert by_bucket[metrics.bucketize(1000)] == 0.0


def test_per_bucket_missing_relation_goes_unseen():
    pairs = [pair("d1", {T("a", "novel", "b")}, {T("a", "novel", "b")})]
    rows = metrics.evaluate(pairs, n_bootstrap=5, seed=0, train_counts={})["per_bucket"]
    assert rows[0]["bucket"] == metrics.UNSEEN_BUCKET


def test_per_bucket_empty_pairs():  # pairs without facts: no bucket
    pairs = [pair("d1", set(), set())]
    assert metrics.evaluate(pairs, n_bootstrap=5, train_counts={"r": 1})["per_bucket"] == []


def test_per_bucket_f1_scores_each_bucket_of_one_table():
    table = {"r1": (1, 2, 1), "r2": (0, 1, 3), "r3": (2, 2, 2)}
    members = [["r1", "r3"], ["r2"], ["r4"]]  # r4: in no document of this resample
    assert metrics.per_bucket_f1(table, members) == (metrics.f1(3 / 4, 1.0), 0.0, 1.0)


# --- relation stats ---

def five_numbers(stats):
    """The summary of what ``relation_stats`` returns, in the order min, q1,
    median, q3, max."""
    summary = stats[0]["summary"]
    return (summary["min"], summary["q1"], summary["median"], summary["q3"], summary["max"])


def test_relation_stats_all_once():
    sets = [[T("a", f"r{i}", "b")] for i in range(5)]
    stats = metrics.relation_stats(sets)
    assert five_numbers(stats) == (1, 1, 1, 1, 1)


def test_relation_stats_known_row():
    counts = [1, 4, 34, 432, 716679]
    sets = [[(f"e{i}", f"r{i}", f"e{i}")] * c for i, c in enumerate(counts)]
    # expand baskets into triplet sets of size 1 to keep memory sane
    flattened = [[t] for s in sets for t in s]
    stats = metrics.relation_stats(flattened)
    assert five_numbers(stats) == (1, 4, 34, 432, 716679)


def sort_oracle_quartiles(values):
    """Brute-force linear-interpolation percentiles on a sorted copy."""
    v = sorted(values)
    n = len(v)

    def at(q):
        pos = q * (n - 1)
        lo, hi = int(pos), min(int(pos) + 1, n - 1)
        frac = pos - int(pos)
        return v[lo] * (1 - frac) + v[hi] * frac

    return (v[0], at(0.25), at(0.5), at(0.75), v[-1])


def test_relation_stats_matches_sort_oracle():
    rng = random.Random(11)
    counts = [rng.randint(1, 500) for _ in range(6)]
    flattened = [[("e", f"r{i}", "e")] for i, c in enumerate(counts) for _ in range(c)]
    stats = metrics.relation_stats(flattened)
    assert five_numbers(stats) == pytest.approx(sort_oracle_quartiles(counts))


def test_relation_stats_cdf():
    flattened = [[("e", "r1", "e")], [("e", "r1", "e")], [("e", "r2", "e")]]
    _, cdf = metrics.relation_stats(flattened)
    assert cdf == [(1, 0.5), (2, 1.0)]


def test_relation_stats_empty_dataset():
    with pytest.raises(ValueError):
        metrics.relation_stats([])


# --- full report ---

def test_evaluate_report_shape():
    rng = random.Random(3)
    pairs = random_instance(rng)
    payload = metrics.evaluate(pairs, n_bootstrap=10, seed=9, train_counts={"r0": 10, "r1": 100})
    for block in ("micro", "macro"):
        for name in ("precision", "recall", "f1"):
            entry = payload[block][name]
            assert set(entry) == {"point", "lower", "upper"}
            assert 0 <= entry["point"] <= 1
    assert payload["n_bootstrap"] == 10
    assert payload["seed"] == 9
    assert "conventions" in payload


# --- one count table, one bootstrap pass per report section ---

def keep_facts(p, keep):
    return EvalPair(p.doc_id, frozenset(t for t in p.predicted if keep(t)), frozenset(t for t in p.gold if keep(t)))


def per_component_report(pairs, train_counts, n, seed, mode):
    """The per-component path as a reference: one scalar ``bootstrap_ci`` per
    micro and macro value, and one per bucket over bucket-restricted pairs.
    Also says whether some resample of some bucket held none of its facts."""
    ci = lambda ps, fn: dict(zip(("point", "lower", "upper"), metrics.bootstrap_ci(ps, fn, n=n, seed=seed)))
    names = ("precision", "recall", "f1")
    micro = {name: ci(pairs, lambda ps, i=i: micro_scores(ps)[i]) for i, name in enumerate(names)}
    macro = {name: ci(pairs, lambda ps, i=i: macro_scores(ps, f1_mode=mode)[i]) for i, name in enumerate(names)}
    bucket_of = lambda t: metrics.bucketize(train_counts.get(t[1], 0))
    rows, saw_empty = [], False
    for b in sorted({bucket_of(t) for p in pairs for t in p.predicted | p.gold}):
        restricted = [keep_facts(p, lambda t: bucket_of(t) == b) for p in pairs]

        def bucket_f1(ps):
            nonlocal saw_empty
            saw_empty |= not any(p.predicted or p.gold for p in ps)
            return micro_scores(ps)[2]

        point, lower, upper = metrics.bootstrap_ci(restricted, bucket_f1, n=n, seed=seed)
        rows.append({"bucket": b, "n_gold": sum(len(p.gold) for p in restricted),
                     "n_predicted": sum(len(p.predicted) for p in restricted),
                     "f1_point": point, "f1_lower": lower, "f1_upper": upper})
    return micro, macro, rows, saw_empty


facts = st.frozensets(st.tuples(st.sampled_from("abc"), st.sampled_from(["r0", "r1", "r2", "r3", "r4"]),
                                st.sampled_from("abc")), max_size=4)


def assert_evaluate_equals_per_component_path(pairs, train_counts, seed):
    """Returns whether some bucket resample held none of the bucket's facts."""
    for mode in ("mean_of_f1", "harmonic_of_means"):
        report = metrics.evaluate(pairs, n_bootstrap=20, seed=seed, macro_f1_mode=mode, train_counts=train_counts)
        micro, macro, rows, saw_empty = per_component_report(pairs, train_counts, 20, seed, mode)
        assert report["micro"] == micro
        assert report["macro"] == macro
        assert report["per_bucket"] == rows
    return saw_empty


@given(
    docs=st.lists(st.tuples(facts, facts), min_size=1, max_size=8),
    train_counts=st.dictionaries(st.sampled_from(["r0", "r1", "r2", "r3"]), st.integers(0, 40)),
    seed=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_equals_the_per_component_path(docs, train_counts, seed):
    pairs = [pair(f"d{i}", predicted, gold) for i, (predicted, gold) in enumerate(docs)]
    assert_evaluate_equals_per_component_path(pairs, train_counts, seed)


def test_evaluate_equals_the_per_component_path_when_a_resample_empties_a_bucket():
    # r1 occurs in one document of four, so some resamples hold none of its bucket
    pairs = [pair(f"d{i}", {T("a", "r0", "b")}, {T("a", "r0", "b")}) for i in range(3)]
    pairs.append(pair("d3", {T("a", "r1", "c")}, {T("a", "r1", "b")}))
    assert assert_evaluate_equals_per_component_path(pairs, {"r0": 8, "r1": 1}, seed=0)


def test_tuple_metric_bootstrap_equals_per_component_calls():
    pairs = random_instance(random.Random(21), max_docs=12)
    components = (lambda ps: micro_scores(ps)[2], lambda ps: macro_scores(ps)[0], lambda ps: micro_scores(ps)[1])
    expected = [metrics.bootstrap_ci(pairs, fn, n=30, level=0.9, seed=4) for fn in components]
    assert metrics.bootstrap_ci(pairs, lambda ps: tuple(fn(ps) for fn in components), n=30, level=0.9, seed=4) == expected
    assert metrics.bootstrap_ci(pairs, lambda ps: [fn(ps) for fn in components], n=30, level=0.9, seed=4) == expected


def test_evaluate_bootstraps_once_per_report_section(monkeypatch):
    calls = []
    bootstrap = metrics.bootstrap_ci
    monkeypatch.setattr(metrics, "bootstrap_ci", lambda *args, **kwargs: (calls.append(1), bootstrap(*args, **kwargs))[1])
    pairs = random_instance(random.Random(8))
    metrics.evaluate(pairs, n_bootstrap=10, train_counts={"r0": 3, "r1": 70})
    assert len(calls) == 1
    calls.clear()
    metrics.evaluate(pairs, n_bootstrap=10)
    assert len(calls) == 1


def reference_report(pairs, n, seed, mode, train_counts):
    """``evaluate`` as it was before ``CountIndex``: each bootstrap resample
    is a list of pairs, recounted by ``recount_relations``."""
    def scores(ps):
        table = recount_relations(ps)
        return (*metrics._prf(*metrics._sums(table.values())), *metrics._macro(table, mode))

    cis = metrics.bootstrap_ci(pairs, scores, n=n, seed=seed)
    names = ("precision", "recall", "f1")
    table = recount_relations(pairs)
    report = {
        "micro": {name: dict(zip(("point", "lower", "upper"), ci)) for name, ci in zip(names, cis[:3])},
        "macro": {name: dict(zip(("point", "lower", "upper"), ci)) for name, ci in zip(names, cis[3:])},
        "per_relation": {r: list(metrics._prf(*row)) for r, row in table.items()},
        "per_bucket": [],
        "n_bootstrap": n,
        "level": 0.95,
        "seed": seed,
        "macro_f1_mode": mode,
        "conventions": metrics.ZERO_DENOMINATOR_CONVENTION,
    }
    if train_counts is not None:
        members = {}
        for r in table:
            members.setdefault(metrics.bucketize(train_counts.get(r, 0)), []).append(r)
        buckets = sorted(members)

        def bucket_sums(counts):
            return [metrics._sums(counts[r] for r in members[b] if r in counts) for b in buckets]

        bucket_cis = metrics.bootstrap_ci(
            pairs, lambda ps: tuple(metrics._prf(*sums)[2] for sums in bucket_sums(recount_relations(ps))), n=n, seed=seed)
        report["per_bucket"] = [
            {"bucket": b, "n_gold": gold, "n_predicted": predicted, "f1_point": point, "f1_lower": lower, "f1_upper": upper}
            for b, (_, predicted, gold), (point, lower, upper) in zip(buckets, bucket_sums(table), bucket_cis)]
    return report


@pytest.mark.parametrize("with_train_counts", [False, True], ids=["no-buckets", "buckets"])
@pytest.mark.parametrize("seed", range(5))
def test_evaluate_equals_the_pair_list_bootstrap(seed, with_train_counts):
    rng = random.Random(100 + seed)
    pairs = random_instance(rng, max_docs=40, n_relations=9)
    train_counts = {f"r{r}": rng.randint(0, 300) for r in range(8)} if with_train_counts else None
    for mode in ("mean_of_f1", "harmonic_of_means"):
        report = metrics.evaluate(pairs, n_bootstrap=30, seed=seed, macro_f1_mode=mode, train_counts=train_counts)
        expected = reference_report(pairs, 30, seed, mode, train_counts)
        assert report == expected
        assert json.dumps(report) == json.dumps(expected)
