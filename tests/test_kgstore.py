import base64
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgsynth import kgstore
from kgsynth.kgstore import KgError, Triplet


def write_kg_files(tmp_path, entities, relations, edges):
    ent_file = tmp_path / "entities.tsv"
    rel_file = tmp_path / "relations.tsv"
    edge_file = tmp_path / "edges.tsv"
    ent_file.write_text("".join(f"{e[0]}\t{e[1]}\n" for e in entities), encoding="utf-8")
    rel_file.write_text(
        "".join("\t".join(r) + "\n" for r in relations),
        encoding="utf-8",
    )
    edge_file.write_text("".join(f"{s}\t{r}\t{o}\n" for s, r, o in edges), encoding="utf-8")
    return edge_file, ent_file, rel_file


@pytest.fixture
def kg_files(tmp_path):
    return write_kg_files(
        tmp_path,
        entities=[("Q1", "Alpha"), ("Q2", "Beta"), ("Q3", "Gamma")],
        relations=[("P1", "linked to"), ("P2", "part of")],
        edges=[("Q1", "P1", "Q2"), ("Q1", "P1", "Q2"), ("Q2", "P2", "Q3")],
    )


def test_ingest_deduplicates_edges(kg_files):
    graph = kgstore.ingest(*kg_files)
    assert len(graph.edges) == 2
    assert graph.stats.duplicate_edges_dropped == 1


def test_ingest_keeps_first_appearance_of_duplicates(tmp_path):
    files = write_kg_files(
        tmp_path,
        entities=[("Q1", "Alpha"), ("Q2", "Beta"), ("Q3", "Gamma")],
        relations=[("P1", "linked to"), ("P2", "part of")],
        edges=[
            ("Q2", "P2", "Q3"),
            ("Q1", "P1", "Q2"),
            ("Q2", "P2", "Q3"),
            ("Q3", "P1", "Q1"),
            ("Q1", "P1", "Q2"),
            ("Q2", "P2", "Q3"),
            ("Q3", "P1", "Q3"),
        ],
    )
    graph = kgstore.ingest(*files)
    assert graph.edges.tolist() == [[1, 1, 2], [0, 0, 1], [2, 0, 0], [2, 0, 2]]
    assert graph.stats.duplicate_edges_dropped == 3
    assert len(graph.edges) == 4


def test_ingest_assigns_dense_indices_in_file_order(kg_files):
    graph = kgstore.ingest(*kg_files)
    assert graph.entities.labels == ("Alpha", "Beta", "Gamma")
    assert graph.entities.index_of_external("Q2") == 1
    assert graph.relations.labels == ("linked to", "part of")


def test_ingest_unknown_entity_names_line(tmp_path):
    files = write_kg_files(
        tmp_path,
        entities=[("Q1", "Alpha")],
        relations=[("P1", "linked to")],
        edges=[("Q1", "P1", "Q999")],
    )
    with pytest.raises(KgError, match=r"edges\.tsv:1.*Q999"):
        kgstore.ingest(*files)


def test_ingest_duplicate_label_is_hard_error(tmp_path):
    files = write_kg_files(
        tmp_path,
        entities=[("Q1", "Alpha"), ("Q2", "Alpha")],
        relations=[("P1", "linked to")],
        edges=[],
    )
    with pytest.raises(KgError, match="duplicate label"):
        kgstore.ingest(*files)


def test_ingest_drops_literal_relations_and_their_edges(tmp_path, caplog):
    files = write_kg_files(
        tmp_path,
        entities=[("Q1", "Alpha"), ("Q2", "Beta")],
        relations=[("P1", "linked to"), ("P2", "population", "literal")],
        edges=[("Q1", "P1", "Q2"), ("Q1", "P2", "Q2")],
    )
    with caplog.at_level("WARNING"):
        graph = kgstore.ingest(*files)
    assert len(graph.relations) == 1
    assert len(graph.edges) == 1
    assert graph.stats.literal_relations_dropped == 1
    assert graph.stats.literal_edges_dropped == 1
    assert "literal" in caplog.text


def test_ingest_idempotent(kg_files):
    g1 = kgstore.ingest(*kg_files)
    g2 = kgstore.ingest(*kg_files)
    assert g1.entities == g2.entities
    assert g1.relations == g2.relations
    assert np.array_equal(g1.edges, g2.edges)


def test_filter_zero_degree_removes_isolated_entity():
    graph = kgstore.KnowledgeGraph.from_triples(
        ["A", "B", "Isolated"], ["r"], [(0, 0, 1)]
    )
    filtered = kgstore.filter_zero_degree(graph)
    assert filtered.entities.labels == ("A", "B")
    assert [filtered.triplet_labels(filtered.triplet(i)) for i in range(len(filtered.edges))] == [("A", "r", "B")]


def test_filter_zero_degree_is_identity_without_isolated(tiny_graph):
    assert kgstore.filter_zero_degree(tiny_graph) is tiny_graph


def test_filter_zero_degree_counts():
    # 5 entities, 2 edges touching 3 of them
    graph = kgstore.KnowledgeGraph.from_triples(
        ["A", "B", "C", "D", "E"], ["r"], [(0, 0, 1), (1, 0, 2)]
    )
    filtered = kgstore.filter_zero_degree(graph)
    assert len(filtered.entities) == 3
    assert len(filtered.edges) == 2
    assert all(filtered.degree(e) >= 1 for e in range(len(filtered.entities)))


def test_edges_are_a_read_only_int32_array(tiny_graph):
    assert tiny_graph.edges.dtype == np.int32 and tiny_graph.edges.shape == (4, 3)
    assert not tiny_graph.edges.flags.writeable
    assert tiny_graph.edges.tolist() == [[0, 0, 1], [0, 1, 2], [1, 0, 2], [3, 1, 0]]
    empty = kgstore.KnowledgeGraph.from_triples(["A"], ["r"], [])
    assert empty.edges.shape == (0, 3)
    with pytest.raises(KgError, match="integer array"):
        kgstore.KnowledgeGraph(tiny_graph.entities, tiny_graph.relations, np.zeros((2, 2), dtype=np.int32))


def test_triplet_reads_one_edge(tiny_graph):
    t = tiny_graph.triplet(3)
    assert isinstance(t, Triplet) and t == Triplet(3, 1, 0)
    assert tiny_graph.triplet(np.int64(1)) == Triplet(0, 1, 2)
    for bad in (4, -1, "0"):
        with pytest.raises(KgError):
            tiny_graph.triplet(bad)


def edges_of(graph, edge_ids):
    return [graph.triplet(i) for i in edge_ids]


def outgoing(graph, entity):
    """(relation, object) of the incident edges ``entity`` is the subject of
    (no self-loops in the graphs this is used on)."""
    edge_ids, _ = graph.incident(entity)
    return [(t.relation, t.object) for t in edges_of(graph, edge_ids) if t.subject == entity]


def test_neighbors_outgoing_only(tiny_graph):
    # Gamma has two incoming edges, no outgoing
    gamma = tiny_graph.entities.labels.index("Gamma")
    assert outgoing(tiny_graph, gamma) == []
    assert tiny_graph.degree(gamma) == 2


def test_neighbors_star_center():
    k = 5
    graph = kgstore.KnowledgeGraph.from_triples(
        ["Center"] + [f"Leaf{i}" for i in range(k)],
        ["spoke"],
        [(0, 0, i + 1) for i in range(k)],
    )
    assert len(outgoing(graph, 0)) == k
    assert graph.degree(0) == k


def test_neighbors_sorted_and_exact(tiny_graph):
    alpha = tiny_graph.entities.labels.index("Alpha")
    assert outgoing(tiny_graph, alpha) == [(0, 1), (1, 2)]
    edge_ids, others = tiny_graph.incident(alpha)
    # outgoing by (relation, object), then incoming by (relation, subject)
    assert edges_of(tiny_graph, edge_ids) == [Triplet(0, 0, 1), Triplet(0, 1, 2), Triplet(3, 1, 0)]
    assert others.tolist() == [1, 2, 3]


def test_neighbors_invalid_index(tiny_graph):
    for bad in (99, -1, 4, "0"):
        with pytest.raises(KgError):
            tiny_graph.incident(bad)
        with pytest.raises(KgError):
            tiny_graph.degree(bad)


def test_triples_of_relation(tiny_graph):
    linked = tiny_graph.relations.labels.index("linked to")
    got = edges_of(tiny_graph, tiny_graph.relation_edges(linked))
    assert got == [Triplet(0, 0, 1), Triplet(1, 0, 2)]


def test_triples_of_relation_absent_and_singleton():
    graph = kgstore.KnowledgeGraph.from_triples(
        ["A", "B"], ["used", "unused"], [(0, 0, 1)]
    )
    assert edges_of(graph, graph.relation_edges(1)) == []
    assert edges_of(graph, graph.relation_edges(0)) == [Triplet(0, 0, 1)]
    for bad in (5, -1):
        with pytest.raises(KgError):
            graph.relation_edges(bad)


def test_triples_of_relation_selects_all_and_only():
    edges = [(0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 1, 2), (1, 1, 3), (2, 1, 0), (3, 1, 1)]
    graph = kgstore.KnowledgeGraph.from_triples(["A", "B", "C", "D"], ["r", "q"], edges)
    got = edges_of(graph, graph.relation_edges(0))
    assert got == sorted(Triplet(*e) for e in edges if e[1] == 0)
    assert len(got) == 3


def test_adjacency_sums_to_edge_count(tiny_graph):
    entities = range(len(tiny_graph.entities))
    assert sum(len(outgoing(tiny_graph, e)) for e in entities) == len(tiny_graph.edges)
    assert sum(tiny_graph.degree(e) for e in entities) == 2 * len(tiny_graph.edges)


def test_incident_preserves_stored_orientation(tiny_graph):
    alpha = tiny_graph.entities.labels.index("Alpha")
    edge_ids, others = tiny_graph.incident(alpha)
    incident = list(zip(edges_of(tiny_graph, edge_ids), others.tolist()))
    # outgoing: (Alpha,linked,Beta), (Alpha,part of,Gamma); incoming: (Delta,part of,Alpha)
    assert (Triplet(3, 1, 0), 3) in incident
    assert all(t.subject == alpha or t.object == alpha for t, _ in incident)
    assert sorted(others.tolist()) == [1, 2, 3]


def test_self_loops_permitted():
    graph = kgstore.KnowledgeGraph.from_triples(["A"], ["r"], [(0, 0, 0)])
    assert graph.degree(0) == 2
    assert len(graph.edges) == 1
    edge_ids, others = graph.incident(0)
    assert edge_ids.tolist() == [0, 0] and others.tolist() == [0, 0]


def test_refs_expose_index_external_id_label(tiny_graph):
    assert (tiny_graph.entities.external_ids[1], tiny_graph.entities.label(1)) == ("E1", "Beta")
    assert (tiny_graph.relations.external_ids[0], tiny_graph.relations.label(0)) == ("R0", "linked to")
    with pytest.raises(KgError):
        tiny_graph.incident(40)
    with pytest.raises(KgError):
        tiny_graph.relation_edges(40)


def test_edge_outside_catalogs_rejected():
    with pytest.raises(KgError, match="outside the catalogs"):
        kgstore.KnowledgeGraph.from_triples(["A", "B"], ["r"], [(0, 0, 1), (0, 1, 1)])
    with pytest.raises(KgError, match="outside the catalogs"):
        kgstore.KnowledgeGraph.from_triples(["A", "B"], ["r"], [(0, 0, -1)])


def test_edge_key_overflow_is_refused():
    # (subject * n_relations + relation) * n_entities + object must fit an int64
    edges = np.zeros((1, 3), dtype=np.int32)
    assert kgstore._first_occurrences(edges, 3_000_000, 1_000_000).tolist() == [[0, 0, 0]]
    with pytest.raises(KgError, match="overflow"):
        kgstore._first_occurrences(edges, 4_000_000, 1_000_000)


@st.composite
def small_graphs(draw):
    n_entities = draw(st.integers(1, 6))
    n_relations = draw(st.integers(1, 4))
    # the last relation never gets an edge; repeated triples are deduplicated
    triple = st.tuples(
        st.integers(0, n_entities - 1), st.integers(0, n_relations - 1), st.integers(0, n_entities - 1)
    )
    triples = draw(st.lists(triple, max_size=40))
    return kgstore.KnowledgeGraph.from_triples(
        [f"Entity {i}" for i in range(n_entities)], [f"relation {j}" for j in range(n_relations + 1)], triples
    )


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_index_matches_brute_force_enumeration(graph):
    edges = [graph.triplet(i) for i in range(len(graph.edges))]
    ids = range(len(edges))
    for e in range(len(graph.entities)):
        out = sorted((i for i in ids if edges[i].subject == e), key=lambda i: (edges[i].relation, edges[i].object))
        inc = sorted((i for i in ids if edges[i].object == e), key=lambda i: (edges[i].relation, edges[i].subject))
        edge_ids, others = graph.incident(e)
        assert edge_ids.tolist() == out + inc
        assert others.tolist() == [edges[i].object for i in out] + [edges[i].subject for i in inc]
        assert graph.degree(e) == len(out) + len(inc)
    for r in range(len(graph.relations)):
        expected = sorted((i for i in ids if edges[i].relation == r), key=lambda i: (edges[i].subject, edges[i].object))
        assert graph.relation_edges(r).tolist() == expected
    assert graph.relation_edges(len(graph.relations) - 1).tolist() == []


def test_empty_label_rejected():
    with pytest.raises(KgError, match="empty label"):
        kgstore.Catalog(("ok", ""), ("A", "B"))


labels = st.text(min_size=1, max_size=8)


@st.composite
def labelled_graphs(draw):
    entity_labels = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    relation_labels = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    n_ent, n_rel = len(entity_labels), len(relation_labels)
    entity_ids = draw(st.lists(labels, min_size=n_ent, max_size=n_ent, unique=True))
    relation_ids = draw(st.lists(labels, min_size=n_rel, max_size=n_rel, unique=True))
    triple = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1))
    # repeated triples and self-loops are drawn often at these sizes
    triples = draw(st.lists(triple, max_size=30))
    return kgstore.KnowledgeGraph.from_triples(entity_labels, relation_labels, triples, entity_ids, relation_ids)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
@example(kgstore.KnowledgeGraph.from_triples(["Zürich", "東京", "a\"b\\c\n"], ["près de"], [(0, 0, 1), (2, 0, 2), (0, 0, 1)]))
@example(kgstore.KnowledgeGraph.from_triples(["Solo"], ["never used"], []))
def test_graph_file_round_trip_is_exact_and_byte_stable(graph):
    with tempfile.TemporaryDirectory() as tmp:
        first, second, again = (Path(tmp) / name for name in ("first.json", "second.json", "again.json"))
        kgstore.save_graph(graph, first)
        kgstore.save_graph(graph, second)
        loaded = kgstore.load_graph(first)
        assert "_index" not in vars(loaded)  # loading leaves the incidence index unbuilt
        kgstore.save_graph(loaded, again)
        assert first.read_bytes() == second.read_bytes() == again.read_bytes()
    assert loaded.entities == graph.entities
    assert loaded.relations == graph.relations
    assert loaded.edges.dtype == np.int32
    assert np.array_equal(loaded.edges, graph.edges)


def test_unreadable_graph_file_is_a_kg_error_naming_it(tiny_graph, tmp_path):
    path = tmp_path / "graph.json"
    kgstore.save_graph(tiny_graph, path)
    good = path.read_bytes()
    payload = json.loads(good)

    def with_edges(raw: bytes) -> bytes:
        return json.dumps(dict(payload, edges=base64.b64encode(raw).decode("ascii"))).encode()

    nested = {
        "entities": [list(pair) for pair in zip(tiny_graph.entities.external_ids, tiny_graph.entities.labels)],
        "relations": [list(pair) for pair in zip(tiny_graph.relations.external_ids, tiny_graph.relations.labels)],
        "edges": tiny_graph.edges.tolist(),
    }
    unreadable = {
        "truncated": good[: len(good) // 2],
        "not_json": b"\x00\xffgarbage",
        "not_an_object": b"[1, 2, 3]\n",
        "nested_list_layout": json.dumps(nested).encode(),
        "bad_base64": json.dumps(dict(payload, edges="@@@@")).encode(),
        "partial_row": with_edges(np.array([0, 0, 1, 7], dtype="<i4").tobytes()),
        "id_out_of_range": with_edges(np.array([[0, 0, 1], [0, 0, 99]], dtype="<i4").tobytes()),
        "negative_id": with_edges(np.array([[0, -1, 1]], dtype="<i4").tobytes()),
        "catalog_lengths_differ": json.dumps(dict(payload, relations={"external_ids": ["R0"], "labels": []})).encode(),
    }
    for name, data in unreadable.items():
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(data)
        with pytest.raises(KgError, match=re.escape(str(bad))):
            kgstore.load_graph(bad)
