"""Tests of the benchmark itself: python -m pytest bench (with src on PYTHONPATH)."""
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import kggen  # noqa: E402
import run  # noqa: E402
import scorer  # noqa: E402
import spans  # noqa: E402
import stub  # noqa: E402

TINY = kggen.KgShape(300, 12, 1.2, 5, 200.0, 1.3, literal_edges=7)


def export_files(directory: Path) -> dict:
    return {name: (directory / name).read_bytes() for name in ("entities.tsv", "relations.tsv", "edges.tsv", "expected.json")}


def test_generator_is_deterministic_per_seed(tmp_path):
    kggen.generate(TINY, 5, tmp_path / "a")
    kggen.generate(TINY, 5, tmp_path / "b")
    kggen.generate(TINY, 6, tmp_path / "c")
    assert export_files(tmp_path / "a") == export_files(tmp_path / "b")
    assert export_files(tmp_path / "a")["edges.tsv"] != export_files(tmp_path / "c")["edges.tsv"]


def test_generator_expected_counts_match_ingest(tmp_path):
    from kgsynth import kgstore

    expected = kggen.generate(TINY, 3, tmp_path)
    graph = kgstore.filter_zero_degree(
        kgstore.ingest(tmp_path / "edges.tsv", tmp_path / "entities.tsv", tmp_path / "relations.tsv")
    )
    assert expected == {
        "entities": len(graph.entities),
        "relations": len(graph.relations),
        "edges": len(graph.edges),
        "duplicate_edges_dropped": graph.stats.duplicate_edges_dropped,
        "literal_relations_dropped": graph.stats.literal_relations_dropped,
        "literal_edges_dropped": graph.stats.literal_edges_dropped,
    }
    assert expected["duplicate_edges_dropped"] > 0


def test_generator_meets_relation_quotas():
    edges = kggen.zipf_edges(TINY, np.random.default_rng(0))
    per_relation = np.bincount(edges[:, 1], minlength=TINY.n_relations)
    assert (per_relation >= TINY.min_edges_per_relation).all()
    assert len({tuple(e) for e in edges.tolist()}) == len(edges)
    assert (edges[:, 0] != edges[:, 2]).all()


PROMPT = "Write facts.\n\ntriplets: (Entity 1; relation 2; Entity 3), (Entity 3; relation 0; Entity 40)\ntext:"


def test_stub_is_deterministic_given_seed_and_prompt():
    answers = []
    for _ in range(2):
        endpoint = stub.StubEndpoint(seed=9)
        replies = [endpoint.post("u", json={"prompt": PROMPT}) for _ in range(2)]
        answers.append([(r.status_code, r.json()) for r in replies])
    assert answers[0] == answers[1]
    status, payload = answers[0][-1]
    assert status == 200
    usage = payload["usage"]
    assert usage["total_tokens"] == usage["prompt_tokens"] + usage["completion_tokens"] > 0


def test_stub_fails_only_first_attempts_at_its_share():
    endpoint = stub.StubEndpoint(seed=1)
    prompts = [PROMPT.replace("Entity 40", f"Entity {i}") for i in range(2000)]
    first = [endpoint.post("u", json={"prompt": p}).status_code for p in prompts]
    second = [endpoint.post("u", json={"prompt": p}).status_code for p in prompts]
    assert set(first) == {200, 429, 503}
    assert 0.03 < sum(s != 200 for s in first) / len(first) < 0.07
    assert set(second) == {200}


def test_stub_paraphrases_a_share_of_mentions():
    rng = random.Random(0)
    mentions = [stub.mention(f"Entity {i}", rng) for i in range(2000)]
    paraphrased = [m for m in mentions if not m.startswith("Entity ")]
    assert 0.1 < len(paraphrased) / len(mentions) < 0.2
    assert all(m.startswith("that ") for m in paraphrased)


def test_scorer_favours_the_target_then_goes_flat():
    target = list(b"ab")
    assert scorer.next_favoured(target, []) == ord("a")
    assert scorer.next_favoured(target, list(b"a")) == ord("b")
    assert scorer.next_favoured(target, list(b"ab")) == scorer.EOS_ID
    assert scorer.next_favoured(target, list(b"x")) is None
    assert scorer.next_favoured(target, list(b"abc")) is None


def test_self_time_subtracts_the_union_of_children():
    # root 0..10 with children 1..4 and 3..6 (overlapping: cover 1..6) and
    # 9..12 (clipped to 9..10); grandchild 2..3 inside the first child
    tree = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["c", 9.0, 12.0, 0],
        ["a1", 2.0, 3.0, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 3, 1])


def test_tracer_nests_spans_and_parents_worker_threads_to_the_waiting_span():
    import threading

    tracer = spans.Tracer()
    root = tracer.begin("root")
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()

    def run_worker():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()

    run_worker()  # started with only the root open
    tracer.wrap(run_worker, "pool")()  # started inside "pool"
    tracer.end(root)
    parents = [(name, parent) for name, _, _, parent in tracer.spans]
    assert parents == [("root", None), ("outer", 0), ("inner", 1), ("inner", 0), ("pool", 0), ("inner", 4)]


def test_tracer_times_generators_per_item():
    tracer = spans.Tracer()
    gen = tracer.wrap(lambda n: (i for i in range(n)), "plain")  # not a generator function
    assert list(gen(3)) == [0, 1, 2]

    def items(n):
        yield from range(n)

    assert list(tracer.wrap(items, "items")(3)) == [0, 1, 2]
    assert [s[0] for s in tracer.spans] == ["plain", "items", "items", "items", "items"]


def test_fe_parser_and_micro_scores():
    text = "[s] Entity_1 [r] relation 2 [o] Entity_3 [e] [s] Entity_3 [r] relation 0 [o] Entity_40 [e]"
    assert run.parse_fe(text) == [("Entity 1", "relation 2", "Entity 3"), ("Entity 3", "relation 0", "Entity 40")]
    assert run.parse_fe(text + " [s] Entity_5") is None
    pairs = [({1, 2}, {2, 3}), (set(), set()), ({4}, set())]
    assert run.micro_prf(pairs) == pytest.approx((1 / 3, 1 / 2, 0.4))
    assert run.micro_prf([(set(), set())]) == (1.0, 1.0, 1.0)


def test_perturbed_target_changes_only_the_last_object():
    target = "[s] Entity_1 [r] relation 2 [o] Entity_3 [e] [s] Entity_3 [r] relation 0 [o] Entity_40 [e]"
    out = run.perturb_target(target, random.Random(0), ["Entity 40", "Entity 7"])
    assert out == target.replace("Entity_40", "Entity_7")


def test_same_report_tolerates_only_last_digit_float_noise():
    a = {"micro": {"f1": 0.9321206658702427}, "n": [1, "x"]}
    assert run.same_report(a, {"micro": {"f1": 0.932120665870243}, "n": [1, "x"]})
    assert not run.same_report(a, {"micro": {"f1": 0.9321206}, "n": [1, "x"]})
    assert not run.same_report(a, {"micro": {"f1": 0.9321206658702427}, "n": [2, "x"]})
