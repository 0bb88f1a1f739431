import hashlib
import io
import math

import numpy as np
import pytest

from kgsynth import kgstore, sampler
from kgsynth.kgstore import Triplet
from kgsynth.sampler import SamplerConfig, SamplerState

from graph_builder import from_triples

ZTP_MEAN = 3.0 / (1.0 - math.exp(-3.0))  # zero-truncated Poisson(3) mean


def make_state(graph, **overrides):
    cfg = SamplerConfig(**overrides)
    return SamplerState(graph, cfg), cfg


# --- config validation ---

@pytest.mark.parametrize(
    "kwargs",
    [
        {"poisson_mean": 0},
        {"bias_factor": -1},
        {"dampening": 0},
        {"dampening": 1.5},
        {"reweight_interval": 0},
        {"strategy": "bogus"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SamplerConfig(**kwargs)


def test_config_allows_unbiased_baseline():
    SamplerConfig(bias_factor=0.0)


# --- set sizes ---

def test_set_size_reproducible(tiny_graph):
    sizes_a = [sampler.sample_set_size(make_state(tiny_graph, seed=5)[0], SamplerConfig(seed=5)) for _ in range(1)]
    state_a, cfg = make_state(tiny_graph, seed=5)
    state_b, _ = make_state(tiny_graph, seed=5)
    run_a = [sampler.sample_set_size(state_a, cfg) for _ in range(200)]
    run_b = [sampler.sample_set_size(state_b, cfg) for _ in range(200)]
    assert run_a == run_b


def test_set_size_never_zero(tiny_graph):
    state, cfg = make_state(tiny_graph, seed=11)
    assert all(sampler.sample_set_size(state, cfg) >= 1 for _ in range(5000))


def brute_force_truncated_poisson(mean, rng, n):
    """Independent rejection sampler over plain Poisson draws."""
    out = []
    while len(out) < n:
        draw = rng.poisson(mean)
        if draw >= 1:
            out.append(draw)
    return np.array(out)


def test_set_size_empirical_mean(tiny_graph):
    state, cfg = make_state(tiny_graph, seed=123)
    draws = np.array([sampler.sample_set_size(state, cfg) for _ in range(100_000)])
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - ZTP_MEAN) < 3 * se
    oracle = brute_force_truncated_poisson(3.0, np.random.default_rng(321), 100_000)
    assert abs(draws.mean() - oracle.mean()) < 3 * se + 3 * oracle.std() / math.sqrt(len(oracle))


# --- coherence weights ---

def test_coherence_weight_formula():
    # ranks 1, 2, 3 of three distinct entities: (3+1-1)^7, 2^7, 1^7
    assert sampler._rank_weights(3, 7.0) == [2187, 128, 1]


def test_coherence_weight_unbiased():
    assert sampler._rank_weights(4, 0.0) == [1.0] * 4


@pytest.mark.parametrize("n,bf", [(2, 1.0), (5, 7.0), (9, 3.0)])
def test_coherence_ratio_scale(n, bf):
    weights = sampler._rank_weights(n, bf)
    assert weights[0] / weights[-1] == pytest.approx(n**bf)


# --- reweighting ---

def test_reweight_uniform_when_unseen():
    dist = sampler.reweight_distribution(np.zeros(8), dampening=0.5)
    assert np.allclose(dist, 1 / 8)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_reweight_full_inversion_ratio():
    # (9,1) at d=1 with a tiny epsilon: relative masses approach (0.1, 0.9)
    counts = np.zeros(10_000)
    counts[0], counts[1] = 9, 1
    dist = sampler.reweight_distribution(counts, dampening=1.0)
    pairwise = dist[0] / (dist[0] + dist[1])
    assert pairwise == pytest.approx(0.1, abs=1e-3)


def test_reweight_default_dampening_near_uniform():
    dist = sampler.reweight_distribution(np.array([9.0, 1.0]), dampening=0.01)
    assert np.all(np.abs(dist - 0.5) < 0.01)


def test_reweight_updates_state(tiny_graph):
    state, _ = make_state(tiny_graph, dampening=1.0)
    state.entity_counts[0] = 50
    sampler.reweight(state)
    assert state.entity_dist.sum() == pytest.approx(1.0, abs=1e-9)
    assert state.entity_dist[0] == min(state.entity_dist)


# --- starts ---

def test_start_single_entity():
    graph = from_triples(["Only"], ["r"], [(0, 0, 0)])
    state, cfg = make_state(graph, strategy=sampler.ENTITY_CENTRIC)
    assert all(sampler.sample_start(state, graph, cfg) == 0 for _ in range(20))


def test_relation_centric_renormalizes_over_subjects():
    graph = from_triples(
        ["A", "B", "C"], ["r"], [(0, 0, 2), (1, 0, 2)]
    )
    state, cfg = make_state(graph, strategy=sampler.RELATION_CENTRIC, seed=77)
    state.entity_dist = np.array([0.9, 0.1, 0.0])
    picks = [sampler.sample_start(state, graph, cfg) for _ in range(4000)]
    frac_a = sum(1 for t in picks if t.subject == 0) / len(picks)
    assert frac_a == pytest.approx(0.9, abs=0.02)


def test_relation_centric_resamples_empty_relations():
    graph = from_triples(
        ["A", "B"], ["empty", "used"], [(0, 1, 1)]
    )
    state, cfg = make_state(graph, strategy=sampler.RELATION_CENTRIC, seed=3)
    starts = [sampler.sample_start(state, graph, cfg) for _ in range(50)]
    assert all(isinstance(t, Triplet) and t.relation == 1 for t in starts)


def test_mixed_strategy_alternates_every_interval(tiny_graph):
    state, cfg = make_state(tiny_graph, strategy=sampler.MIXED, reweight_interval=2)
    observed = []
    for i in range(6):
        state.sets_sampled = i
        observed.append(state.active_start_strategy)
    assert observed == [
        sampler.ENTITY_CENTRIC,
        sampler.ENTITY_CENTRIC,
        sampler.RELATION_CENTRIC,
        sampler.RELATION_CENTRIC,
        sampler.ENTITY_CENTRIC,
        sampler.ENTITY_CENTRIC,
    ]


class TopRng:
    """An rng whose every uniform draw is the largest that ``random`` returns."""

    def random(self):
        return 1.0 - 2.0 ** -53


def ring_graph(n_entities, n_relations):
    return from_triples(
        [f"E{i}" for i in range(n_entities)],
        [f"r{j}" for j in range(n_relations)],
        [(i, i % n_relations, (i + 1) % n_entities) for i in range(n_entities)],
    )


@pytest.mark.parametrize("strategy", [sampler.ENTITY_CENTRIC, sampler.RELATION_CENTRIC])
def test_top_draw_takes_the_last_index(strategy):
    # the uniform cumulative sum over 7 items ends at 0.9999999999999998,
    # below the top draw
    graph = ring_graph(7, 7)
    state, cfg = make_state(graph, strategy=strategy)
    assert state._entity_cum[-1] < TopRng().random() and state._relation_cum[-1] < TopRng().random()
    state.rng = TopRng()
    assert (state.draw_entity(), state.draw_relation()) == (6, 6)
    last = 6 if strategy == sampler.ENTITY_CENTRIC else graph.triplet(int(graph.relation_edges(6)[0]))
    assert sampler.sample_start(state, graph, cfg) == last


def test_top_draw_picks_the_last_biased_candidate():
    # over 25 uniform entities with bias 1 the candidates' cumulative extra
    # weight ends below the top draw's share of their total
    graph = ring_graph(25, 1)
    state, _ = make_state(graph, bias_factor=1.0)
    state.rng = TopRng()
    assert sampler._draw_biased_subject(state, list(range(25)), 1.0, set()) == 24


# --- walks ---

def test_edge_start_target_one(tiny_graph):
    state, cfg = make_state(tiny_graph)
    start = Triplet(0, 0, 1)
    ts = sampler.sample_triplet_set(state, tiny_graph, cfg, start, target_size=1)
    assert ts.triplets == [start]
    assert not ts.partial


def test_start_outside_graph_rejected(tiny_graph):
    state, cfg = make_state(tiny_graph)
    with pytest.raises(sampler.SamplingError):
        sampler.sample_triplet_set(state, tiny_graph, cfg, Triplet(1, 1, 0), target_size=1)
    with pytest.raises(kgstore.KgError):
        sampler.sample_triplet_set(state, tiny_graph, cfg, 4, target_size=1)


def test_walk_emits_only_graph_edges_without_duplicates(zipf_kg):
    state, cfg = make_state(zipf_kg, seed=42)
    edges = {zipf_kg.triplet(i) for i in range(len(zipf_kg.edges))}
    for _ in range(1000):
        start = sampler.sample_start(state, zipf_kg, cfg)
        ts = sampler.sample_triplet_set(state, zipf_kg, cfg, start)
        assert len(ts.triplets) >= 1
        assert len(set(ts.triplets)) == len(ts.triplets)
        assert all(t in edges for t in ts.triplets)


def test_huge_bias_keeps_walk_near_anchor(path_graph):
    # A-B-C path: with an overwhelming bias the second triplet is always
    # incident to an entity of the first.
    hits = 0
    n_runs = 200
    for seed in range(n_runs):
        state, cfg = make_state(path_graph, bias_factor=50.0, seed=seed)
        ts = sampler.sample_triplet_set(state, path_graph, cfg, 0, target_size=2)
        assert len(ts.triplets) == 2
        anchor_entities = {ts.triplets[0].subject, ts.triplets[0].object}
        second = ts.triplets[1]
        if second.subject in anchor_entities or second.object in anchor_entities:
            hits += 1
    assert hits == n_runs


def test_counts_incremented_per_mention(tiny_graph):
    state, cfg = make_state(tiny_graph)
    ts = sampler.sample_triplet_set(state, tiny_graph, cfg, Triplet(0, 0, 1), target_size=1)
    assert state.entity_counts[0] == 1
    assert state.entity_counts[1] == 1
    assert state.relation_counts[0] == 1
    assert state.sets_sampled == 1


def test_partial_set_flagged():
    # single edge, target 5: only one triplet can ever be found
    graph = from_triples(["A", "B"], ["r"], [(0, 0, 1)])
    state, cfg = make_state(graph, seed=1)
    ts = sampler.sample_triplet_set(state, graph, cfg, 0, target_size=5)
    assert ts.triplets == [Triplet(0, 0, 1)]
    assert ts.partial


# --- dataset orchestration ---

def test_dataset_deterministic(tiny_graph):
    cfg = SamplerConfig(seed=9, reweight_interval=10)
    a = io.StringIO()
    b = io.StringIO()
    sampler.write_dataset_jsonl(tiny_graph, cfg, 50, a)
    sampler.write_dataset_jsonl(tiny_graph, cfg, 50, b)
    assert a.getvalue() == b.getvalue()


def test_dataset_reweight_schedule(tiny_graph, monkeypatch):
    # n = 2K: recomputation fires exactly at K and 2K sampled sets
    calls = []
    original = sampler.reweight
    monkeypatch.setattr(sampler, "reweight", lambda state: (calls.append(state.sets_sampled), original(state))[1])
    list(sampler.sample_dataset(tiny_graph, SamplerState(tiny_graph, SamplerConfig(seed=2, reweight_interval=25)), 50))
    assert calls == [25, 50]


def test_dataset_rejects_nonpositive_n(tiny_graph):
    with pytest.raises(ValueError):
        list(sampler.sample_dataset(tiny_graph, SamplerState(tiny_graph, SamplerConfig()), 0))


def test_dataset_record_format(tiny_graph):
    out = io.StringIO()
    summary = sampler.write_dataset_jsonl(tiny_graph, SamplerConfig(seed=4), 5, out)
    import json

    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 5
    for i, row in enumerate(lines):
        assert row["id"] == i
        assert isinstance(row["partial"], bool)
        for t in row["triplets"]:
            assert set(t) == {"s", "r", "o"}
    assert summary["sets"] == 5
    assert summary["mean_set_size"] >= 1


# sha256 of write_dataset_jsonl's stream on the Zipf KG, and the summary it
# returns: 1000 sets, seed 1, reweighting every 100 sets (so mixed switches
# strategy five times)
DATASET_PINS = {
    (sampler.ENTITY_CENTRIC, 7.0): (
        "54881b3b2203cc20dae9ac94130fcc8996480a3d5cd888b1a33a787696c07d4d",
        {"sets": 1000, "partial_sets": 0, "mean_set_size": 3.158, "entities_covered": 2931,
         "relations_covered": 200, "relation_count_cv": 2.320521925078947},
    ),
    (sampler.ENTITY_CENTRIC, 0.0): (
        "016b7ff63d071cc348923abbe1903e4369eb25c4237f7b8cca60321e8f0863ac",
        {"sets": 1000, "partial_sets": 0, "mean_set_size": 3.132, "entities_covered": 3377,
         "relations_covered": 200, "relation_count_cv": 1.9486779875620195},
    ),
    (sampler.RELATION_CENTRIC, 7.0): (
        "c74373bd01e9adce78beca15529706cf311e19f9752be8f97054b271ebaee198",
        {"sets": 1000, "partial_sets": 0, "mean_set_size": 3.192, "entities_covered": 2763,
         "relations_covered": 200, "relation_count_cv": 1.1021130496864224},
    ),
    (sampler.RELATION_CENTRIC, 0.0): (
        "14e32b465c41a17868fe7e1301947fc6134d00ce0f95c0c164734c1a878820c2",
        {"sets": 1000, "partial_sets": 0, "mean_set_size": 3.144, "entities_covered": 3240,
         "relations_covered": 200, "relation_count_cv": 1.3886516382126224},
    ),
    (sampler.MIXED, 7.0): (
        "ea86e62edf58dde08526e1d592b449643b047db3dced7b3731daace06cca65fa",
        {"sets": 1000, "partial_sets": 0, "mean_set_size": 3.165, "entities_covered": 2813,
         "relations_covered": 200, "relation_count_cv": 1.5632811557325368},
    ),
    (sampler.MIXED, 0.0): (
        "98afacc3766bcd1d43062c0fe893f183d881bd1fb4a0c37fdf9ded37ad2ba0c3",
        {"sets": 1000, "partial_sets": 0, "mean_set_size": 3.162, "entities_covered": 3295,
         "relations_covered": 200, "relation_count_cv": 1.6904902904788714},
    ),
}


@pytest.mark.parametrize(("strategy", "bias_factor"), list(DATASET_PINS))
def test_dataset_bytes_are_pinned(zipf_kg, strategy, bias_factor):
    out = io.StringIO()
    cfg = SamplerConfig(seed=1, bias_factor=bias_factor, strategy=strategy, reweight_interval=100)
    summary = sampler.write_dataset_jsonl(zipf_kg, cfg, 1000, out)
    digest, expected_summary = DATASET_PINS[strategy, bias_factor]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert summary == expected_summary
