"""Load, filter, and index the knowledge graph consumed by sampling and decoding.

The graph is built from three TSV files (edges + entity/relation label files),
deduplicated, and indexed with dense integer ids; its edges are one int32
(subject, relation, object) array. Labels and external ids only appear at the
I/O boundary; everything downstream works on dense indices. ``save_graph``
writes the graph file the pipeline stages pass along, and ``load_graph`` reads
it through ``catalog.read_graph_file``, which owns its layout.
"""
from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .catalog import Catalog, KgError, read_graph_file, unreadable, write_header
from .pipeline import read_lines

log = logging.getLogger(__name__)


class Triplet(NamedTuple):
    subject: int
    relation: int
    object: int


@dataclass
class IngestStats:
    duplicate_edges_dropped: int = 0
    literal_relations_dropped: int = 0
    literal_edges_dropped: int = 0


class _Index(NamedTuple):
    """CSR rows over edge ids: ``*_offsets[i]:*_offsets[i + 1]`` slices row i."""

    incident_offsets: np.ndarray  # per entity
    incident_edges: np.ndarray
    incident_others: np.ndarray  # opposite endpoint of each incident edge
    relation_offsets: np.ndarray  # per relation
    relation_edges: np.ndarray


def _offsets(row_of: np.ndarray, n_rows: int) -> np.ndarray:
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=n_rows), out=offsets[1:])
    return offsets


def _check_key_bound(n_entities: int, n_relations: int) -> None:
    """Refuse catalogs whose packed edge keys could overflow: the dedupe and
    relation-row keys stay below n_entities**2 * n_relations < 2**63, the
    incidence-row keys below twice that, which fits a uint64."""
    if n_entities * n_entities * n_relations >= 2**63:
        raise KgError(f"{n_entities} entities x {n_relations} relations overflow the int64 edge key")


def _edge_keys(edges: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    """Each edge's (relation, subject, object) packed into one int64, which
    ``_check_key_bound`` keeps from overflowing. Built in place."""
    s, r, o = edges.T
    key = r.astype(np.int64)
    key *= n_entities
    key += s
    key *= n_entities
    key += o
    return key


def _incidence_keys(edges: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    """Each edge's two incidence rows, first in its subject's row and then
    in its object's, as one uint64 key each: (entity, incoming, relation,
    other endpoint) packed in that order, which ``_check_key_bound`` keeps
    below 2**64. Built in place."""
    n = len(edges)
    s, r, o = edges.view(np.uint32).T  # exact for in-range ids; adds in place, no uint64 copy
    key = np.empty(2 * n, dtype=np.uint64)
    for half, entity, incoming, other in ((key[:n], s, 0, o), (key[n:], o, 1, s)):
        half[:] = entity
        half *= 2
        half += incoming
        half *= n_relations
        half += r
        half *= n_entities
        half += other
    return key


def _checked_edges(edges, n_entities: int, n_relations: int) -> np.ndarray:
    """An ``(E, 3)`` integer array whose rows all lie inside the catalogs, as
    a read-only int32 array. An int32 array is taken as it is, not copied,
    and flagged read-only: the caller hands its rows over."""
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 3 or edges.dtype.kind not in "iu":
        raise KgError(f"edges must be an (E, 3) integer array, got {edges.dtype} of shape {edges.shape}")
    # column reductions hold no per-row temporaries; the row is found only on failure
    s, r, o = edges.T
    if len(edges) and (edges.min() < 0 or max(s.max(), o.max()) >= n_entities or r.max() >= n_relations):
        bad = (edges < 0).any(axis=1) | (edges[:, [0, 2]] >= n_entities).any(axis=1) | (r >= n_relations)
        raise KgError(f"edge {tuple(edges[bad.argmax()].tolist())} references an index outside the catalogs")
    edges = edges.astype(np.int32, copy=False)
    edges.flags.writeable = False
    return edges


def _first_rows(key: np.ndarray) -> np.ndarray:
    """The sorted positions of each key's first occurrence, which a stable
    sort puts first among its equals; holds two copies of ``key``, not five."""
    order = key.argsort(kind="stable")
    ordered = key[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    first = order[first]
    first.sort()
    return first


def _first_occurrences(edges: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    """The rows of an in-range edge array with repeats dropped, in order of
    first appearance."""
    _check_key_bound(n_entities, n_relations)
    return edges[_first_rows(_edge_keys(edges, n_entities, n_relations))]


def _refuse_repeats(edges: np.ndarray, n_entities: int, n_relations: int) -> None:
    """Raise a ``KgError`` naming the first row that repeats an earlier one.
    Sorting the packed keys puts every repeat next to its twin."""
    key = _edge_keys(edges, n_entities, n_relations)
    key.sort()
    if not (key[1:] == key[:-1]).any():
        return
    key = _edge_keys(edges, n_entities, n_relations)
    repeat = np.ones(len(key), dtype=bool)
    repeat[_first_rows(key)] = False
    row = int(repeat.argmax())
    earlier = int(np.flatnonzero(key == key[row])[0])
    raise KgError(f"edge {tuple(edges[row].tolist())} at row {row} repeats row {earlier}")


@dataclass(eq=False)
class KnowledgeGraph:
    """Entity/relation catalogs plus a deduplicated edge set, stored as one
    read-only ``(E, 3)`` int32 array of (subject, relation, object) rows, with
    one integer incidence index. A repeated edge row is a ``KgError``.

    Immutable after construction; safe to share read-only across workers.
    """

    entities: Catalog
    relations: Catalog
    edges: np.ndarray
    stats: IngestStats = field(default_factory=IngestStats)

    def __post_init__(self):
        _check_key_bound(len(self.entities), len(self.relations))
        self.edges = _checked_edges(self.edges, len(self.entities), len(self.relations))
        _refuse_repeats(self.edges, len(self.entities), len(self.relations))

    @cached_property
    def _index(self) -> _Index:
        """Built on first use: incidence rows hold outgoing edges sorted by
        (relation, object), then incoming ones sorted by (relation, subject);
        relation rows hold edges sorted by (subject, object).

        Each index is one argsort of one packed key. Edges are deduplicated
        and a self-loop's two incidence rows differ in direction, so every key
        is unique and an unstable sort gives the one order; sorting the
        incidence keys in place then gives them in that order too."""
        n_ent, n_rel = len(self.entities), len(self.relations)
        n = len(self.edges)
        s, r, o = self.edges.T
        others = _incidence_keys(self.edges, n_ent, n_rel)
        order = others.argsort()
        others.sort()  # equals others[order], with no third array
        others %= n_ent  # the key's last digit
        order[order >= n] -= n  # the object's rows name their edge too
        index = _Index(
            _offsets(s, n_ent) + _offsets(o, n_ent),
            order,
            others.view(np.int64),
            _offsets(r, n_rel),
            _edge_keys(self.edges, n_ent, n_rel).argsort(),
        )
        for array in index:
            array.flags.writeable = False  # accessors hand out views
        return index

    def triplet(self, edge_id: int) -> Triplet:
        """The (subject, relation, object) of edge ``edge_id``."""
        if not (isinstance(edge_id, (int, np.integer)) and 0 <= edge_id < len(self.edges)):
            raise KgError(f"edge id {edge_id!r} out of range")
        return Triplet._make(self.edges[edge_id].tolist())

    def incident(self, entity: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids into ``edges`` of all edges touching ``entity`` in either
        direction, and the opposite endpoint of each: outgoing edges by
        (relation, object), then incoming ones by (relation, subject)."""
        self._check_entity(entity)
        index = self._index
        lo, hi = index.incident_offsets[entity], index.incident_offsets[entity + 1]
        return index.incident_edges[lo:hi], index.incident_others[lo:hi]

    def relation_edges(self, relation: int) -> np.ndarray:
        """Ids into ``edges`` of all edges carrying ``relation``, by (subject, object)."""
        self._check_relation(relation)
        index = self._index
        return index.relation_edges[index.relation_offsets[relation] : index.relation_offsets[relation + 1]]

    def triplet_labels(self, t: Triplet) -> tuple[str, str, str]:
        return (self.entities.labels[t.subject], self.relations.labels[t.relation], self.entities.labels[t.object])

    def _check_entity(self, entity: int) -> None:
        if not (isinstance(entity, (int, np.integer)) and 0 <= entity < len(self.entities)):
            raise KgError(f"entity index {entity!r} out of range")

    def _check_relation(self, relation: int) -> None:
        if not (isinstance(relation, (int, np.integer)) and 0 <= relation < len(self.relations)):
            raise KgError(f"relation index {relation!r} out of range")


def save_graph(graph: KnowledgeGraph, fh) -> None:
    """Write ``graph`` to the binary file ``fh`` as ``catalog.read_graph_file``
    reads it: the header line, then the little-endian int32 ``(E, 3)`` edge
    array in row-major order, written straight from the array. The bytes
    depend on the graph alone, and no piece of the file is held whole."""
    write_header(fh, graph.entities, graph.relations, len(graph.edges))
    graph.edges.astype("<i4", copy=False).tofile(fh)


def load_graph(path) -> KnowledgeGraph:
    """Read a graph written by ``save_graph``. Anything else raises a
    ``KgError`` naming ``path``: a truncated or corrupt file or another
    layout with the advice to re-run ingest, a graph that ``KnowledgeGraph``
    refuses (an edge outside the catalogs, a repeated edge row, catalogs past
    the key bound) without it."""
    entities, relations, n_edges, offset = read_graph_file(path)
    rows = np.fromfile(path, dtype="<i4", count=3 * n_edges, offset=offset)
    if len(rows) != 3 * n_edges:  # the file shrank since its length was checked
        raise unreadable(path, KgError(f"{len(rows)} edge values where the header counts {n_edges} rows"))
    try:
        return KnowledgeGraph(entities, relations, rows.reshape(-1, 3))
    except KgError as exc:
        raise KgError(f"{path}: {exc}") from exc


def _read_label_file(path, literal: list[str] | None = None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels and external ids of a label file's rows, in file order.
    Flags are read only when ``literal`` is given: rows flagged ``literal``
    are then left out and their ids appended to it; other flags are ignored."""
    external_ids: list[str] = []
    labels: list[str] = []
    for lineno, raw in read_lines(path):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise KgError(f"{path}:{lineno}: expected 'external_id<TAB>label[<TAB>flags]'")
        if literal is not None and len(parts) > 2 and "literal" in parts[2].split(","):
            literal.append(parts[0])
            continue
        external_ids.append(parts[0])
        labels.append(parts[1])
    return tuple(labels), tuple(external_ids)


def ingest(edges_file, entity_labels_file, relation_labels_file) -> KnowledgeGraph:
    """Read the three TSV files into a deduplicated, densely indexed graph.

    Dense indices follow first-appearance order of the label files. Relations
    flagged ``literal`` are dropped with a warning, along with their edges;
    entity flags are ignored. An edge referencing an undeclared id is a hard
    error naming the line. Rows go straight into the catalogs' lists and one
    int32 edge column, with no per-row container kept.
    """
    stats = IngestStats()
    entities = Catalog(*_read_label_file(entity_labels_file))
    literal: list[str] = []
    relation_rows = _read_label_file(relation_labels_file, literal)
    literal_ids = set(literal)
    stats.literal_relations_dropped = len(literal)
    if stats.literal_relations_dropped:
        log.warning("dropped %d literal-valued relation(s) at ingest", stats.literal_relations_dropped)
    relations = Catalog(*relation_rows)

    entity_index = dict(zip(entities.external_ids, range(len(entities)))).get
    relation_index = dict(zip(relations.external_ids, range(len(relations)))).get
    rows = array("i")  # (subject, relation, object) per kept line
    append = rows.append
    for lineno, raw in read_lines(edges_file):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise KgError(f"{edges_file}:{lineno}: expected 3 tab-separated columns")
        s_ext, r_ext, o_ext = parts
        if r_ext in literal_ids:
            stats.literal_edges_dropped += 1
            continue
        s = entity_index(s_ext)
        if s is None:
            raise KgError(f"{edges_file}:{lineno}: unknown entity id {s_ext!r}")
        o = entity_index(o_ext)
        if o is None:
            raise KgError(f"{edges_file}:{lineno}: unknown entity id {o_ext!r}")
        r = relation_index(r_ext)
        if r is None:
            raise KgError(f"{edges_file}:{lineno}: unknown relation id {r_ext!r}")
        append(s)
        append(r)
        append(o)
    if stats.literal_edges_dropped:
        log.warning("dropped %d edge(s) using literal-valued relations", stats.literal_edges_dropped)

    lines = np.frombuffer(rows, dtype=np.intc).reshape(-1, 3)
    edges = _first_occurrences(lines, len(entities), len(relations))
    stats.duplicate_edges_dropped = len(lines) - len(edges)
    del lines, rows
    return KnowledgeGraph(entities, relations, edges, stats)


def filter_zero_degree(graph: KnowledgeGraph) -> KnowledgeGraph:
    """Remove entities with degree 0 (in + out). Edges are unchanged; surviving
    entities are re-indexed densely, preserving catalog order."""
    # the row lengths of the incidence index, without sorting an index of a
    # graph about to be replaced
    endpoints = graph.edges[:, [0, 2]]
    degrees = np.bincount(endpoints.ravel(), minlength=len(graph.entities))
    keep = np.flatnonzero(degrees)
    if len(keep) == len(graph.entities):
        return graph
    entities = Catalog(
        tuple(graph.entities.labels[i] for i in keep),
        tuple(graph.entities.external_ids[i] for i in keep),
    )
    new_index = np.cumsum(degrees > 0) - 1
    edges = graph.edges.copy()
    edges[:, [0, 2]] = new_index[endpoints]
    return KnowledgeGraph(entities, graph.relations, edges, graph.stats)
