"""Load, filter, and index the knowledge graph consumed by sampling and decoding.

The graph is built from three TSV files (edges + entity/relation label files),
deduplicated, and indexed with dense integer ids; its edges are one int32
(subject, relation, object) array. Labels and external ids only appear at the
I/O boundary; everything downstream works on dense indices. ``save_graph`` and
``load_graph`` own the graph file the pipeline stages pass along.
"""
from __future__ import annotations

import base64
import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .pipeline import ValidationError

log = logging.getLogger(__name__)


class KgError(ValidationError):
    """Raised on malformed or inconsistent graph input."""


class Triplet(NamedTuple):
    subject: int
    relation: int
    object: int


@dataclass(frozen=True)
class Catalog:
    """Immutable label catalog with dense indices in first-appearance order."""

    labels: tuple[str, ...]
    external_ids: tuple[str, ...]

    def __post_init__(self):
        if any(not label for label in self.labels):
            raise KgError("empty label in catalog")
        if len(set(self.labels)) != len(self.labels):
            raise KgError("duplicate label in catalog")
        if len(set(self.external_ids)) != len(self.external_ids):
            raise KgError("duplicate external id in catalog")
        object.__setattr__(self, "_by_external", {ext: i for i, ext in enumerate(self.external_ids)})

    def __len__(self) -> int:
        return len(self.labels)

    def index_of_external(self, external_id: str) -> int | None:
        return self._by_external.get(external_id)

    def label(self, index: int) -> str:
        return self.labels[index]


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


def _checked_edges(edges, n_entities: int, n_relations: int) -> np.ndarray:
    """A read-only int32 copy of an ``(E, 3)`` integer array whose rows all
    lie inside the catalogs."""
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 3 or edges.dtype.kind not in "iu":
        raise KgError(f"edges must be an (E, 3) integer array, got {edges.dtype} of shape {edges.shape}")
    bad = (edges < 0).any(axis=1) | (edges[:, [0, 2]] >= n_entities).any(axis=1) | (edges[:, 1] >= n_relations)
    if bad.any():
        raise KgError(f"edge {tuple(edges[bad.argmax()].tolist())} references an index outside the catalogs")
    edges = edges.astype(np.int32)
    edges.flags.writeable = False
    return edges


def _first_occurrences(edges: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    """The rows of an in-range edge array with repeats dropped, in order of
    first appearance."""
    if n_entities * n_entities * n_relations >= 2**63:
        raise KgError(f"{n_entities} entities x {n_relations} relations overflow the int64 edge key")
    key = (edges[:, 0].astype(np.int64) * n_relations + edges[:, 1]) * n_entities + edges[:, 2]
    _, first = np.unique(key, return_index=True)
    return edges[np.sort(first)]


@dataclass(eq=False)
class KnowledgeGraph:
    """Entity/relation catalogs plus a deduplicated edge set, stored as one
    read-only ``(E, 3)`` int32 array of (subject, relation, object) rows, with
    one integer incidence index.

    Immutable after construction; safe to share read-only across workers.
    """

    entities: Catalog
    relations: Catalog
    edges: np.ndarray
    stats: IngestStats = field(default_factory=IngestStats)

    def __post_init__(self):
        self.edges = _checked_edges(self.edges, len(self.entities), len(self.relations))

    @cached_property
    def _index(self) -> _Index:
        """Built on first use: incidence rows hold outgoing edges sorted by
        (relation, object), then incoming ones sorted by (relation, subject);
        relation rows hold edges sorted by (subject, object)."""
        n_ent, n_rel = len(self.entities), len(self.relations)
        s, r, o = self.edges.astype(np.int64).T
        ids = np.arange(len(s))
        # each edge twice: once in its subject's row, once in its object's
        entity = np.concatenate([s, o])
        other = np.concatenate([o, s])
        # (incoming, relation, other) packed into one key; < 2 * n_rel * n_ent
        within = (np.repeat([0, n_rel], len(s)) + np.concatenate([r, r])) * n_ent + other
        order = np.lexsort((within, entity))
        by_relation = np.lexsort((s * n_ent + o, r))
        index = _Index(
            _offsets(entity, n_ent),
            np.concatenate([ids, ids])[order],
            other[order],
            _offsets(r, n_rel),
            ids[by_relation],
        )
        for array in index:
            array.flags.writeable = False  # accessors hand out views
        return index

    @classmethod
    def from_triples(
        cls,
        entity_labels: Sequence[str],
        relation_labels: Sequence[str],
        triples: Iterable[tuple[int, int, int]],
        entity_external_ids: Sequence[str] | None = None,
        relation_external_ids: Sequence[str] | None = None,
    ) -> "KnowledgeGraph":
        """Build a graph directly from dense-index triples (fixtures, tests);
        repeated triples keep their first appearance."""
        ents = Catalog(
            tuple(entity_labels),
            tuple(entity_external_ids) if entity_external_ids else tuple(f"E{i}" for i in range(len(entity_labels))),
        )
        rels = Catalog(
            tuple(relation_labels),
            tuple(relation_external_ids) if relation_external_ids else tuple(f"R{i}" for i in range(len(relation_labels))),
        )
        edges = _checked_edges(np.array(list(triples), dtype=np.int64).reshape(-1, 3), len(ents), len(rels))
        return cls(ents, rels, _first_occurrences(edges, len(ents), len(rels)))

    def triplet(self, edge_id: int) -> Triplet:
        """The (subject, relation, object) of edge ``edge_id``."""
        if not (isinstance(edge_id, (int, np.integer)) and 0 <= edge_id < len(self.edges)):
            raise KgError(f"edge id {edge_id!r} out of range")
        return Triplet._make(self.edges[edge_id].tolist())

    def degree(self, entity: int) -> int:
        """Total degree, incoming plus outgoing (a self-loop counts twice)."""
        self._check_entity(entity)
        offsets = self._index.incident_offsets
        return int(offsets[entity + 1] - offsets[entity])

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
        return (self.entities.label(t.subject), self.relations.label(t.relation), self.entities.label(t.object))

    def _check_entity(self, entity: int) -> None:
        if not (isinstance(entity, (int, np.integer)) and 0 <= entity < len(self.entities)):
            raise KgError(f"entity index {entity!r} out of range")

    def _check_relation(self, relation: int) -> None:
        if not (isinstance(relation, (int, np.integer)) and 0 <= relation < len(self.relations)):
            raise KgError(f"relation index {relation!r} out of range")


def save_graph(graph: KnowledgeGraph, path) -> None:
    """Write ``graph`` as one JSON object: each catalog as parallel
    ``external_ids``/``labels`` lists, and the edges as base64 of the
    little-endian int32 ``(E, 3)`` array in row-major order. The bytes depend
    on the graph alone."""
    payload = {
        "entities": {"external_ids": list(graph.entities.external_ids), "labels": list(graph.entities.labels)},
        "relations": {"external_ids": list(graph.relations.external_ids), "labels": list(graph.relations.labels)},
        "edges": base64.b64encode(graph.edges.astype("<i4").tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)
        fh.write("\n")


def _catalog_from(raw) -> Catalog:
    if not isinstance(raw, dict):
        raise KgError("a catalog must be an object of parallel external_ids and labels lists")
    external_ids, labels = raw["external_ids"], raw["labels"]
    if not (isinstance(external_ids, list) and isinstance(labels, list) and len(external_ids) == len(labels)):
        raise KgError("catalog external_ids and labels must be lists of equal length")
    if not set(map(type, external_ids + labels)) <= {str}:
        raise KgError("catalog external_ids and labels must be strings")
    return Catalog(tuple(labels), tuple(external_ids))


def load_graph(path) -> KnowledgeGraph:
    """Read a graph written by ``save_graph``. Anything else (a truncated or
    corrupt file, another layout, an edge outside the catalogs) raises a
    ``KgError`` naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        entities = _catalog_from(payload["entities"])
        relations = _catalog_from(payload["relations"])
        blob = base64.b64decode(payload["edges"], validate=True)
        if len(blob) % 12:
            raise KgError(f"edge data of {len(blob)} bytes is not a whole number of 12-byte rows")
        return KnowledgeGraph(entities, relations, np.frombuffer(blob, dtype="<i4").reshape(-1, 3))
    except (ValueError, KeyError, TypeError) as exc:  # KgError, JSON, UTF-8 and base64 errors are ValueErrors
        raise KgError(f"{path}: not a readable graph file ({exc}); re-run ingest to rewrite it") from exc


def _read_label_file(path, *, allow_flags: bool) -> list[tuple[str, str, set[str]]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise KgError(f"{path}:{lineno}: expected 'external_id<TAB>label[<TAB>flags]'")
            flags = set(parts[2].split(",")) if allow_flags and len(parts) > 2 and parts[2] else set()
            rows.append((parts[0], parts[1], flags))
    return rows


def ingest(edges_file, entity_labels_file, relation_labels_file) -> KnowledgeGraph:
    """Read the three TSV files into a deduplicated, densely indexed graph.

    Dense indices follow first-appearance order of the label files. Relations
    flagged ``literal`` are dropped with a warning, along with their edges.
    An edge referencing an undeclared id is a hard error naming the line.
    """
    stats = IngestStats()

    ent_rows = _read_label_file(entity_labels_file, allow_flags=True)
    ent_labels = tuple(label for _, label, _ in ent_rows)
    ent_ext = tuple(ext for ext, _, _ in ent_rows)
    entities = Catalog(ent_labels, ent_ext)

    rel_rows = _read_label_file(relation_labels_file, allow_flags=True)
    literal_ids = {ext for ext, _, flags in rel_rows if "literal" in flags}
    kept = [(ext, label) for ext, label, flags in rel_rows if "literal" not in flags]
    stats.literal_relations_dropped = len(rel_rows) - len(kept)
    if stats.literal_relations_dropped:
        log.warning("dropped %d literal-valued relation(s) at ingest", stats.literal_relations_dropped)
    relations = Catalog(tuple(label for _, label in kept), tuple(ext for ext, _ in kept))

    subjects: list[int] = []
    relation_ids: list[int] = []
    objects: list[int] = []
    with open(edges_file, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise KgError(f"{edges_file}:{lineno}: expected 3 tab-separated columns")
            s_ext, r_ext, o_ext = parts
            if r_ext in literal_ids:
                stats.literal_edges_dropped += 1
                continue
            s = entities.index_of_external(s_ext)
            if s is None:
                raise KgError(f"{edges_file}:{lineno}: unknown entity id {s_ext!r}")
            o = entities.index_of_external(o_ext)
            if o is None:
                raise KgError(f"{edges_file}:{lineno}: unknown entity id {o_ext!r}")
            r = relations.index_of_external(r_ext)
            if r is None:
                raise KgError(f"{edges_file}:{lineno}: unknown relation id {r_ext!r}")
            subjects.append(s)
            relation_ids.append(r)
            objects.append(o)
    if stats.literal_edges_dropped:
        log.warning("dropped %d edge(s) using literal-valued relations", stats.literal_edges_dropped)

    columns = np.array([subjects, relation_ids, objects], dtype=np.int32)
    edges = _first_occurrences(columns.T, len(entities), len(relations))
    stats.duplicate_edges_dropped = len(subjects) - len(edges)
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
