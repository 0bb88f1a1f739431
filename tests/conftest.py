import functools
import json
import random

import numpy as np
import pytest

from graph_builder import from_triples
from kgsynth import kgstore, sampler
from kgsynth.pipeline import triplet_rows

# the graph file layout before the edge rows were raw bytes: one JSON object
# holding the edges as base64 text
BASE64_LAYOUT = (
    '{"entities": {"external_ids": ["E0", "E1", "E2"], "labels": ["Zürich", "東京", "a\\"b\\\\c\\n"]}, '
    '"relations": {"external_ids": ["R0"], "labels": ["près de"]}, "edges": "AAAAAAAAAAABAAAAAgAAAAAAAAACAAAA"}\n'
).encode()


def graph_file_bytes(graph, rows=None, **header) -> bytes:
    """A graph file holding ``graph``'s catalogs and the edge ``rows``
    (``graph``'s own by default) in the layout ``save_graph`` writes;
    ``header`` replaces header fields, and a field given as None is left out."""
    rows = np.asarray(graph.edges if rows is None else rows, dtype="<i4").reshape(-1, 3)
    catalogs = {name: {"external_ids": list(catalog.external_ids), "labels": list(catalog.labels)}
                for name, catalog in (("entities", graph.entities), ("relations", graph.relations))}
    fields = {"edges": len(rows), "format": 2, **catalogs, **header}
    line = json.dumps({key: value for key, value in fields.items() if value is not None}, ensure_ascii=False, sort_keys=True)
    return (line + "\n").encode() + rows.tobytes()


@pytest.fixture
def tiny_graph():
    """4 entities, 2 relations, 4 hand-enumerable edges."""
    return from_triples(
        ["Alpha", "Beta", "Gamma", "Delta"],
        ["linked to", "part of"],
        [
            (0, 0, 1),  # Alpha -linked to-> Beta
            (0, 1, 2),  # Alpha -part of-> Gamma
            (1, 0, 2),  # Beta -linked to-> Gamma
            (3, 1, 0),  # Delta -part of-> Alpha
        ],
    )


@pytest.fixture
def path_graph():
    """A - B - C chain with distinct relations."""
    return from_triples(
        ["A", "B", "C"],
        ["r1", "r2"],
        [(0, 0, 1), (1, 1, 2)],
    )


def make_zipf_kg(
    seed: int = 1234,
    n_entities: int = 10_000,
    n_relations: int = 200,
    entity_exponent: float = 1.6,
    min_edges_per_relation: int = 20,
    relation_scale: float = 8000.0,
    relation_exponent: float = 1.3,
    segment_spread: float = 0.95,
) -> kgstore.KnowledgeGraph:
    """Synthetic KG with Zipf-like degrees and skewed relation mass.

    Relation popularity correlates with its endpoints' popularity, as in real
    KG exports: relation r draws endpoints Zipf-distributed around a home
    segment that slides toward rarer entities as r grows. Every relation gets
    at least ``min_edges_per_relation`` edges.
    """
    rng = np.random.default_rng(seed)
    local = 1.0 / np.arange(1, n_entities + 1, dtype=float) ** entity_exponent
    cum = np.cumsum(local / local.sum())
    edges: set[tuple[int, int, int]] = set()
    triples: list[tuple[int, int, int]] = []
    for r in range(n_relations):
        n_edges_r = min_edges_per_relation + int(relation_scale / (r + 1) ** relation_exponent)
        offset = int(r / n_relations * n_entities * segment_spread)
        count = 0
        while count < n_edges_r:
            batch = max(16, 2 * (n_edges_r - count))
            draws = np.searchsorted(cum, rng.random(2 * batch), side="right").reshape(2, batch)
            for s_raw, o_raw in zip(draws[0], draws[1]):
                s = (offset + int(s_raw)) % n_entities
                o = (offset + int(o_raw)) % n_entities
                if s != o and (s, r, o) not in edges:
                    edges.add((s, r, o))
                    triples.append((s, r, o))
                    count += 1
                    if count == n_edges_r:
                        break
    graph = from_triples(
        [f"Entity {i}" for i in range(n_entities)],
        [f"relation {j}" for j in range(n_relations)],
        triples,
    )
    return kgstore.filter_zero_degree(graph)


@functools.cache
def default_zipf_kg() -> kgstore.KnowledgeGraph:
    return make_zipf_kg()


@pytest.fixture(scope="session")
def zipf_kg():
    return default_zipf_kg()


PARAPHRASE_SHARE = 0.15  # bench/stub.py's share of paraphrased entity mentions


def make_datapoints(n: int, seed: int):
    """``n`` datapoint rows (``id``, ``text``, ``triplets``) for sets sampled
    from the Zipf KG, each set stated one sentence per triplet as the bench's
    stub endpoint states it: a paraphrased mention keeps only the label's last
    word, so about one label in eight is not found verbatim in its text."""
    rng = random.Random(seed)

    def mention(label: str) -> str:
        return f"that {label.split()[-1]}" if rng.random() < PARAPHRASE_SHARE else label

    graph = default_zipf_kg()
    for i, ts in enumerate(sampler.sample_dataset(graph, sampler.SamplerState(graph, sampler.SamplerConfig(seed=seed)), n)):
        triplets = [graph.triplet_labels(t) for t in ts.triplets]
        text = " ".join(f"{mention(s)} {r} {mention(o)}." for s, r, o in triplets)
        yield {"id": str(i), "text": text, "triplets": triplet_rows(triplets)}
