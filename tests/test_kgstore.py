import hashlib
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BASE64_LAYOUT, graph_file_bytes
from graph_builder import from_triples
from kgsynth import catalog, kgstore
from kgsynth.kgstore import KgError, Triplet
from kgsynth.pipeline import InputError


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
    assert graph.entities.external_ids.index("Q2") == 1
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


READER_FILES = {
    "entities": b"Q1\tAlpha\nQ2\tBeta\nQ3\tGamma\n",
    "relations": b"P1\tlinked to\nP2\tpart of\nP9\tpopulation\tliteral\n",
    "edges": b"Q1\tP1\tQ2\nQ2\tP2\tQ3\n",
}
LABEL_ROW = "expected 'external_id<TAB>label[<TAB>flags]'"


@pytest.mark.parametrize(
    "name, data, line, message",
    [
        ("entities", b"Q1\tAlpha\nQ2\n", 2, LABEL_ROW),
        ("entities", b"Q1\tAlpha\n\tBeta\n", 2, LABEL_ROW),
        ("entities", b"Q1\tAlpha\r\n\r\n\nQ2\t\r\n", 4, LABEL_ROW),
        ("entities", b"Q1\tAlpha\nQ2\nQ3\n\tGamma\n", 2, LABEL_ROW),
        ("relations", b"P1\tlinked to\r\n\r\nP2\r\n", 3, LABEL_ROW),
        ("relations", b"P1\tlinked to\n\nP2\t\tliteral\n", 3, LABEL_ROW),
        ("edges", b"Q1\tP1\tQ2\n\nQ1\tP1\n", 3, "expected 3 tab-separated columns"),
        ("edges", b"Q1\tP1\tQ2\tQ3\n", 1, "expected 3 tab-separated columns"),
        ("edges", b"Q1\tP1\tQ2\r\n\r\nQ7\tP1\tQ2\r\n", 3, "unknown entity id 'Q7'"),
        ("edges", b"\n\nQ1\tP1\tQ8\n", 3, "unknown entity id 'Q8'"),
        ("edges", b"Q1\tP5\tQ2\n", 1, "unknown relation id 'P5'"),
        ("edges", b"Q7\tP5\tQ8\n", 1, "unknown entity id 'Q7'"),  # subject, then object, then relation
        ("edges", b"Q1\tP5\tQ8\n", 1, "unknown entity id 'Q8'"),
        ("edges", b"Q1\tP1\tQ2\nQ1\tP5\tQ2\nQ1\tP1\nQ9\tP1\tQ2\n", 2, "unknown relation id 'P5'"),
        ("edges", b"Q1\tP9\tQ99\nQ1\t\tQ2\n", 2, "unknown relation id ''"),  # the literal line is dropped
    ],
)
def test_ingest_reader_fault_names_its_line(tmp_path, name, data, line, message):
    paths = {key: tmp_path / f"{key}.tsv" for key in READER_FILES}
    for key, path in paths.items():
        path.write_bytes(data if key == name else READER_FILES[key])
    with pytest.raises(KgError) as info:
        kgstore.ingest(paths["edges"], paths["entities"], paths["relations"])
    assert str(info.value) == f"{paths[name]}:{line}: {message}"


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("entities", b"Q1\tAlpha\nQ2\tAlpha\n", "duplicate label in catalog"),
        ("entities", b"Q1\tAlpha\nQ1\tBeta\n", "duplicate external id in catalog"),
        ("relations", b"P1\tlinked to\nP1\tpart of\n", "duplicate external id in catalog"),
        ("relations", b"P1\tlinked to\nP2\tlinked to\n", "duplicate label in catalog"),
    ],
)
def test_ingest_catalog_fault_is_a_kg_error(tmp_path, name, data, message):
    paths = {key: tmp_path / f"{key}.tsv" for key in READER_FILES}
    for key, path in paths.items():
        path.write_bytes(data if key == name else READER_FILES[key])
    with pytest.raises(KgError) as info:
        kgstore.ingest(paths["edges"], paths["entities"], paths["relations"])
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["entities", "relations", "edges"])
def test_ingest_non_utf8_line_is_an_input_error_naming_it(tmp_path, name):
    paths = {key: tmp_path / f"{key}.tsv" for key in READER_FILES}
    for key, path in paths.items():
        path.write_bytes(READER_FILES[key] + (b"\r\n\nQ\xff\tbad\tline\n" if key == name else b""))
    line = READER_FILES[name].count(b"\n") + 3
    with pytest.raises(InputError, match=f"^{re.escape(str(paths[name]))}:{line}: not UTF-8"):
        kgstore.ingest(paths["edges"], paths["entities"], paths["relations"])


def test_ingest_ignores_entity_flags_and_drops_literal_edges_unchecked(tmp_path):
    paths = {key: tmp_path / f"{key}.tsv" for key in READER_FILES}
    paths["entities"].write_bytes(b"Q1\tAlpha\tliteral\r\nQ2\tBeta\tfoo,bar\n\nQ3\tGamma\t\n")
    paths["relations"].write_bytes(b"P1\tlinked to\tnotliteral\nP8\tarea\tx,literal\nP9\tpopulation\tliteral\n")
    paths["edges"].write_bytes(b"Q1\tP9\tQ99\nQ1\tP1\tQ2\r\nQ77\tP8\tQ2\n\nQ2\tP1\tQ3\nQ1\tP1\tQ2\n")
    graph = kgstore.ingest(paths["edges"], paths["entities"], paths["relations"])
    assert graph.entities.labels == ("Alpha", "Beta", "Gamma")
    assert graph.entities.external_ids == ("Q1", "Q2", "Q3")
    assert graph.relations.labels == ("linked to",)
    assert graph.edges.tolist() == [[0, 0, 1], [1, 0, 2]]
    assert graph.stats == kgstore.IngestStats(
        duplicate_edges_dropped=1, literal_relations_dropped=2, literal_edges_dropped=2
    )


def test_filter_zero_degree_removes_isolated_entity():
    graph = from_triples(
        ["A", "B", "Isolated"], ["r"], [(0, 0, 1)]
    )
    filtered = kgstore.filter_zero_degree(graph)
    assert filtered.entities.labels == ("A", "B")
    assert [filtered.triplet_labels(filtered.triplet(i)) for i in range(len(filtered.edges))] == [("A", "r", "B")]


def test_filter_zero_degree_is_identity_without_isolated(tiny_graph):
    assert kgstore.filter_zero_degree(tiny_graph) is tiny_graph


def test_filter_zero_degree_counts():
    # 5 entities, 2 edges touching 3 of them
    graph = from_triples(
        ["A", "B", "C", "D", "E"], ["r"], [(0, 0, 1), (1, 0, 2)]
    )
    filtered = kgstore.filter_zero_degree(graph)
    assert len(filtered.entities) == 3
    assert len(filtered.edges) == 2
    assert all(len(filtered.incident(e)[0]) >= 1 for e in range(len(filtered.entities)))


def test_edges_are_a_read_only_int32_array(tiny_graph):
    assert tiny_graph.edges.dtype == np.int32 and tiny_graph.edges.shape == (4, 3)
    assert not tiny_graph.edges.flags.writeable
    assert tiny_graph.edges.tolist() == [[0, 0, 1], [0, 1, 2], [1, 0, 2], [3, 1, 0]]
    empty = from_triples(["A"], ["r"], [])
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
    assert len(tiny_graph.incident(gamma)[0]) == 2


def test_neighbors_star_center():
    k = 5
    graph = from_triples(
        ["Center"] + [f"Leaf{i}" for i in range(k)],
        ["spoke"],
        [(0, 0, i + 1) for i in range(k)],
    )
    assert len(outgoing(graph, 0)) == k
    assert len(graph.incident(0)[0]) == k


def test_neighbors_sorted_and_exact(tiny_graph):
    alpha = tiny_graph.entities.labels.index("Alpha")
    assert outgoing(tiny_graph, alpha) == [(0, 1), (1, 2)]
    edge_ids, others = tiny_graph.incident(alpha)
    # outgoing by (relation, object), then incoming by (relation, subject)
    assert edges_of(tiny_graph, edge_ids) == [Triplet(0, 0, 1), Triplet(0, 1, 2), Triplet(3, 1, 0)]
    assert others.tolist() == [1, 2, 3]


def test_incident_refuses_an_entity_outside_the_catalog(tiny_graph):
    for bad in (99, -1, 4, "0"):
        with pytest.raises(KgError):
            tiny_graph.incident(bad)


def test_triples_of_relation(tiny_graph):
    linked = tiny_graph.relations.labels.index("linked to")
    got = edges_of(tiny_graph, tiny_graph.relation_edges(linked))
    assert got == [Triplet(0, 0, 1), Triplet(1, 0, 2)]


def test_triples_of_relation_absent_and_singleton():
    graph = from_triples(
        ["A", "B"], ["used", "unused"], [(0, 0, 1)]
    )
    assert edges_of(graph, graph.relation_edges(1)) == []
    assert edges_of(graph, graph.relation_edges(0)) == [Triplet(0, 0, 1)]
    for bad in (5, -1):
        with pytest.raises(KgError):
            graph.relation_edges(bad)


def test_triples_of_relation_selects_all_and_only():
    edges = [(0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 1, 2), (1, 1, 3), (2, 1, 0), (3, 1, 1)]
    graph = from_triples(["A", "B", "C", "D"], ["r", "q"], edges)
    got = edges_of(graph, graph.relation_edges(0))
    assert got == sorted(Triplet(*e) for e in edges if e[1] == 0)
    assert len(got) == 3


def test_adjacency_sums_to_edge_count(tiny_graph):
    entities = range(len(tiny_graph.entities))
    assert sum(len(outgoing(tiny_graph, e)) for e in entities) == len(tiny_graph.edges)
    assert sum(len(tiny_graph.incident(e)[0]) for e in entities) == 2 * len(tiny_graph.edges)


def test_incident_preserves_stored_orientation(tiny_graph):
    alpha = tiny_graph.entities.labels.index("Alpha")
    edge_ids, others = tiny_graph.incident(alpha)
    incident = list(zip(edges_of(tiny_graph, edge_ids), others.tolist()))
    # outgoing: (Alpha,linked,Beta), (Alpha,part of,Gamma); incoming: (Delta,part of,Alpha)
    assert (Triplet(3, 1, 0), 3) in incident
    assert all(t.subject == alpha or t.object == alpha for t, _ in incident)
    assert sorted(others.tolist()) == [1, 2, 3]


def test_self_loops_permitted():
    graph = from_triples(["A"], ["r"], [(0, 0, 0)])
    assert len(graph.incident(0)[0]) == 2
    assert len(graph.edges) == 1
    edge_ids, others = graph.incident(0)
    assert edge_ids.tolist() == [0, 0] and others.tolist() == [0, 0]


def test_refs_expose_index_external_id_label(tiny_graph):
    assert (tiny_graph.entities.external_ids[1], tiny_graph.entities.labels[1]) == ("E1", "Beta")
    assert (tiny_graph.relations.external_ids[0], tiny_graph.relations.labels[0]) == ("R0", "linked to")
    with pytest.raises(KgError):
        tiny_graph.incident(40)
    with pytest.raises(KgError):
        tiny_graph.relation_edges(40)


def test_edge_outside_catalogs_rejected(tiny_graph):
    # tiny_graph has 4 entities and 2 relations
    for row in ((0, 2, 1), (0, 0, -1), (4, 0, 1), (0, 0, 4)):
        edges = np.array([(0, 0, 1), row])
        with pytest.raises(KgError, match=re.escape(f"edge {row} references an index outside the catalogs")):
            kgstore.KnowledgeGraph(tiny_graph.entities, tiny_graph.relations, edges)


def test_edge_key_overflow_is_refused():
    # (relation * n_entities + subject) * n_entities + object must fit an int64
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
    return from_triples(
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
        assert len(graph.incident(e)[0]) == len(out) + len(inc)
    for r in range(len(graph.relations)):
        expected = sorted((i for i in ids if edges[i].relation == r), key=lambda i: (edges[i].subject, edges[i].object))
        assert graph.relation_edges(r).tolist() == expected
    assert graph.relation_edges(len(graph.relations) - 1).tolist() == []


def lexsort_index(graph) -> kgstore._Index:
    """The index as two lexsorts over separate keys built it: the reference
    for the packed-key sort."""
    n_ent, n_rel = len(graph.entities), len(graph.relations)
    s, r, o = graph.edges.astype(np.int64).T
    ids = np.arange(len(s))
    entity = np.concatenate([s, o])
    other = np.concatenate([o, s])
    within = (np.repeat([0, n_rel], len(s)) + np.concatenate([r, r])) * n_ent + other
    order = np.lexsort((within, entity))
    return kgstore._Index(
        kgstore._offsets(entity, n_ent),
        np.concatenate([ids, ids])[order],
        other[order],
        kgstore._offsets(r, n_rel),
        ids[np.lexsort((s * n_ent + o, r))],
    )


@st.composite
def indexed_graphs(draw):
    n_entities = draw(st.integers(1, 8))  # entities past the drawn pairs' reach stay isolated
    n_relations = draw(st.integers(1, 4))
    endpoint = st.integers(0, max(0, n_entities - 2))
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))  # s == o is a self-loop
    # each pair under one or more relations
    relations = st.sets(st.integers(0, n_relations - 1), min_size=1)
    triples = [(s, r, o) for s, o in pairs for r in sorted(draw(relations))]
    return from_triples(
        [f"Entity {i}" for i in range(n_entities)], [f"relation {j}" for j in range(n_relations)], triples
    )


@settings(max_examples=300, deadline=None)
@given(indexed_graphs())
@example(from_triples(["A", "B", "C"], ["r"], [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]))
@example(from_triples(["A"], ["r", "s"], []))
def test_packed_key_index_equals_the_lexsort_index(graph):
    n_ent, n_rel = len(graph.entities), len(graph.relations)
    # uint64 throughout: numpy 1.x promotes an int64/uint64 mix to float64
    assert kgstore._incidence_keys(graph.edges, n_ent, n_rel).dtype == np.uint64
    for name, got, want in zip(kgstore._Index._fields, graph._index, lexsort_index(graph)):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_key_bound_on_catalog_sizes():
    # n_entities**2 * n_relations must stay below 2**63
    kgstore._check_key_bound(3_000_000, 1_000_000)
    with pytest.raises(KgError, match="overflow"):
        kgstore._check_key_bound(4_000_000, 1_000_000)


def save(graph, path):
    """``kgstore.save_graph`` into a new file at ``path``, as ``ingest`` writes it."""
    with open(path, "wb") as fh:
        kgstore.save_graph(graph, fh)


def test_load_graph_refuses_catalogs_past_the_key_bound(tiny_graph, tmp_path, monkeypatch):
    # a graph file not written by ingest may hold any catalog sizes; scaling
    # the counts the bound sees stands in for catalogs of millions of labels
    path = tmp_path / "graph.json"
    save(tiny_graph, path)
    check = kgstore._check_key_bound
    monkeypatch.setattr(kgstore, "_check_key_bound", lambda n_ent, n_rel: check(n_ent * 10**6, n_rel * 10**6))
    with pytest.raises(KgError, match=re.escape(str(path)) + ".*overflow"):
        kgstore.load_graph(path)


def test_load_graph_key_bound_refusal_names_the_path_without_ingest_advice(tiny_graph, tmp_path, monkeypatch):
    # ingest refuses the same catalogs, so re-running it is no remedy
    path = tmp_path / "graph.json"
    save(tiny_graph, path)
    check = kgstore._check_key_bound
    monkeypatch.setattr(kgstore, "_check_key_bound", lambda n_ent, n_rel: check(n_ent * 10**6, n_rel * 10**6))
    with pytest.raises(KgError) as info:
        kgstore.load_graph(path)
    assert str(info.value) == f"{path}: 4000000 entities x 2000000 relations overflow the int64 edge key"


def test_repeated_edge_row_is_refused_naming_the_first_repeat(tiny_graph, tmp_path):
    # (1, 0, 2) repeats first in row order; (0, 0, 1) sorts first by key
    edges = np.array([[1, 0, 2], [0, 0, 1], [1, 0, 2], [0, 0, 1]], dtype=np.int32)
    message = "edge (1, 0, 2) at row 2 repeats row 0"
    with pytest.raises(KgError) as info:
        kgstore.KnowledgeGraph(tiny_graph.entities, tiny_graph.relations, edges)
    assert str(info.value) == message
    path = tmp_path / "graph.json"
    path.write_bytes(graph_file_bytes(tiny_graph, edges))
    with pytest.raises(KgError) as info:
        kgstore.load_graph(path)
    assert str(info.value) == f"{path}: {message}"


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
    edges = from_triples(entity_labels, relation_labels, triples).edges  # repeats dropped
    return kgstore.KnowledgeGraph(kgstore.Catalog(tuple(entity_labels), tuple(entity_ids)),
                                  kgstore.Catalog(tuple(relation_labels), tuple(relation_ids)), edges)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
@example(from_triples(["Zürich", "東京", "a\"b\\c\n"], ["près de"], [(0, 0, 1), (2, 0, 2), (0, 0, 1)]))
@example(from_triples(["Solo"], ["never used"], []))
# a LINE SEPARATOR that JSON leaves unescaped stays inside the header line
@example(from_triples(["one\u2028line", "B"], ["r\u2029s"], [(0, 0, 1), (1, 0, 0)]))
def test_graph_file_round_trip_is_exact_and_byte_stable(graph):
    with tempfile.TemporaryDirectory() as tmp:
        first, second, again = (Path(tmp) / name for name in ("first.json", "second.json", "again.json"))
        save(graph, first)
        save(graph, second)
        loaded = kgstore.load_graph(first)
        assert "_index" not in vars(loaded)  # loading leaves the incidence index unbuilt
        save(loaded, again)
        assert first.read_bytes() == second.read_bytes() == again.read_bytes() == graph_file_bytes(graph)
    assert loaded.entities == graph.entities
    assert loaded.relations == graph.relations
    assert loaded.edges.dtype == np.int32
    assert np.array_equal(loaded.edges, graph.edges)


def test_graph_file_bytes_are_pinned(zipf_kg, tmp_path):
    path = tmp_path / "graph.json"
    graph = from_triples(["Zürich", "東京", "a\"b\\c\n"], ["près de"], [(0, 0, 1), (2, 0, 2)])
    save(graph, path)
    assert path.read_bytes() == (
        '{"edges": 2, "entities": {"external_ids": ["E0", "E1", "E2"], "labels": ["Zürich", "東京", "a\\"b\\\\c\\n"]}, '
        '"format": 2, "relations": {"external_ids": ["R0"], "labels": ["près de"]}}\n'
    ).encode() + bytes.fromhex("000000000000000001000000" "020000000000000002000000")
    save(zipf_kg, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "452e9354ff7abaf4c3157381b3562ed5aefec29916d8f96ee922961425ab60bf"


def traced(fn, *args):
    """``fn(*args)``, the traced memory still held once it returns, and the
    traced peak while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_save_graph_holds_less_than_the_file_it_writes(zipf_kg, tmp_path):
    path = tmp_path / "graph.json"
    _, _, peak = traced(save, zipf_kg, path)
    # the whole JSON text with its payload dict took 4.3x the file; pieces take 0.3x
    assert peak < path.stat().st_size


def test_ingest_peak_is_a_small_multiple_of_the_graph_it_returns(zipf_kg, tmp_path):
    files = write_kg_files(
        tmp_path,
        entities=[(f"Q{i}", label) for i, label in enumerate(zipf_kg.entities.labels)],
        relations=[(f"P{j}", label) for j, label in enumerate(zipf_kg.relations.labels)],
        edges=[(f"Q{s}", f"P{r}", f"Q{o}") for s, r, o in zipf_kg.edges.tolist()[::-1] + zipf_kg.edges.tolist()[::50]],
    )
    graph, held, peak = traced(kgstore.ingest, *files)
    assert len(graph.edges) == len(zipf_kg.edges)
    # per-row tuples, flag sets and int lists made the peak 3.2x the graph;
    # int32 columns and a dedupe holding two copies of its keys make it 2.0x
    assert peak <= 2.4 * held


def test_unreadable_graph_file_is_a_kg_error_naming_it(tiny_graph, tmp_path):
    path = tmp_path / "graph.json"
    save(tiny_graph, path)
    good = path.read_bytes()
    nested = {
        "entities": [list(pair) for pair in zip(tiny_graph.entities.external_ids, tiny_graph.entities.labels)],
        "relations": [list(pair) for pair in zip(tiny_graph.relations.external_ids, tiny_graph.relations.labels)],
        "edges": tiny_graph.edges.tolist(),
    }
    one_row = [[0, 0, 1]]
    unreadable = {
        "truncated": good[: len(good) // 2],
        "not_json": b"\x00\xffgarbage",
        "not_an_object": b"[1, 2, 3]\n",
        "nested_list_layout": json.dumps(nested).encode(),
        "base64_layout": BASE64_LAYOUT,
        "format_missing": graph_file_bytes(tiny_graph, format=None),
        "format_1": graph_file_bytes(tiny_graph, format=1),
        "format_string": graph_file_bytes(tiny_graph, format="2"),
        "edges_missing": graph_file_bytes(tiny_graph, edges=None),
        "edges_bool": graph_file_bytes(tiny_graph, one_row, edges=True),  # True == 1 row
        "edges_negative": graph_file_bytes(tiny_graph, one_row, edges=-1),
        "edges_string": graph_file_bytes(tiny_graph, one_row, edges="1"),
        "header_without_newline": graph_file_bytes(tiny_graph, [])[:-1],
        "body_missing": good[: good.index(b"\n") + 1],
        "body_one_byte_short": good[:-1],
        "body_one_byte_long": good + b"\x00",
        "body_one_row_long": good + good[-12:],
        "id_out_of_range": graph_file_bytes(tiny_graph, [[0, 0, 1], [0, 0, 99]]),
        "negative_id": graph_file_bytes(tiny_graph, [[0, -1, 1]]),
        "catalog_lengths_differ": graph_file_bytes(tiny_graph, relations={"external_ids": ["R0"], "labels": []}),
    }
    assert graph_file_bytes(tiny_graph) == good
    for name, data in unreadable.items():
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(data)
        with pytest.raises(KgError, match=re.escape(str(bad))):
            kgstore.load_graph(bad)
        if name not in ("id_out_of_range", "negative_id"):  # the layout itself is refused, as decode reads it
            with pytest.raises(KgError, match=re.escape(str(bad)) + ".*re-run ingest"):
                catalog.read_graph_file(bad)
