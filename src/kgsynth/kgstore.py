"""Load, filter, and index the knowledge graph consumed by sampling and decoding.

The graph is built from three TSV files (edges + entity/relation label files),
deduplicated, and indexed with dense integer ids. Labels and external ids only
appear at the I/O boundary; everything downstream works on dense indices.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)


class KgError(ValueError):
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
        object.__setattr__(self, "_by_label", {lab: i for i, lab in enumerate(self.labels)})
        object.__setattr__(self, "_by_external", {ext: i for i, ext in enumerate(self.external_ids)})

    def __len__(self) -> int:
        return len(self.labels)

    def index_of_label(self, label: str) -> int | None:
        return self._by_label.get(label)

    def index_of_external(self, external_id: str) -> int | None:
        return self._by_external.get(external_id)

    def label(self, index: int) -> str:
        return self.labels[index]


@dataclass
class IngestStats:
    n_entities: int = 0
    n_relations: int = 0
    n_edges: int = 0
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


@dataclass
class KnowledgeGraph:
    """Entity/relation catalogs plus a deduplicated edge set with one
    integer incidence index.

    Immutable after construction; safe to share read-only across workers.
    """

    entities: Catalog
    relations: Catalog
    edges: tuple[Triplet, ...]
    stats: IngestStats = field(default_factory=IngestStats)

    def __post_init__(self):
        n_ent, n_rel = len(self.entities), len(self.relations)
        flat = itertools.chain.from_iterable(self.edges)
        spo = np.fromiter(flat, dtype=np.int64, count=3 * len(self.edges)).reshape(-1, 3)
        bad = (spo < 0).any(axis=1) | (spo[:, 0] >= n_ent) | (spo[:, 1] >= n_rel) | (spo[:, 2] >= n_ent)
        if bad.any():
            raise KgError(f"edge {self.edges[int(bad.argmax())]} references an index outside the catalogs")
        self._spo = spo
        self.stats.n_entities = n_ent
        self.stats.n_relations = n_rel
        self.stats.n_edges = len(self.edges)

    @cached_property
    def _index(self) -> _Index:
        """Built on first use: incidence rows hold outgoing edges sorted by
        (relation, object), then incoming ones sorted by (relation, subject);
        relation rows hold edges sorted by (subject, object)."""
        s, r, o = self._spo.T
        ids = np.arange(len(s))
        # each edge twice: once in its subject's row, once in its object's
        entity = np.concatenate([s, o])
        incoming = np.repeat([0, 1], len(s))
        other = np.concatenate([o, s])
        order = np.lexsort((other, np.concatenate([r, r]), incoming, entity))
        by_relation = np.lexsort((o, s, r))
        index = _Index(
            _offsets(entity, len(self.entities)),
            np.concatenate([ids, ids])[order],
            other[order],
            _offsets(r, len(self.relations)),
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
        """Build a graph directly from dense-index triples (fixtures, tests)."""
        ents = Catalog(
            tuple(entity_labels),
            tuple(entity_external_ids) if entity_external_ids else tuple(f"E{i}" for i in range(len(entity_labels))),
        )
        rels = Catalog(
            tuple(relation_labels),
            tuple(relation_external_ids) if relation_external_ids else tuple(f"R{i}" for i in range(len(relation_labels))),
        )
        seen: set[Triplet] = set()
        edges = []
        for s, r, o in triples:
            t = Triplet(s, r, o)
            if t not in seen:
                seen.add(t)
                edges.append(t)
        return cls(ents, rels, tuple(edges))

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

    seen: set[Triplet] = set()
    edges: list[Triplet] = []
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
            t = Triplet(s, r, o)
            if t in seen:
                stats.duplicate_edges_dropped += 1
                continue
            seen.add(t)
            edges.append(t)
    if stats.literal_edges_dropped:
        log.warning("dropped %d edge(s) using literal-valued relations", stats.literal_edges_dropped)

    return KnowledgeGraph(entities, relations, tuple(edges), stats)


def filter_zero_degree(graph: KnowledgeGraph) -> KnowledgeGraph:
    """Remove entities with degree 0 (in + out). Edges are unchanged; surviving
    entities are re-indexed densely, preserving catalog order."""
    # the row lengths of the incidence index, without sorting an index of a
    # graph about to be replaced
    degrees = np.bincount(graph._spo[:, [0, 2]].ravel(), minlength=len(graph.entities))
    keep = np.flatnonzero(degrees)
    if len(keep) == len(graph.entities):
        return graph
    entities = Catalog(
        tuple(graph.entities.labels[i] for i in keep),
        tuple(graph.entities.external_ids[i] for i in keep),
    )
    new_index = np.cumsum(degrees > 0) - 1
    spo = graph._spo.copy()
    spo[:, [0, 2]] = new_index[spo[:, [0, 2]]]
    edges = tuple(map(Triplet._make, spo.tolist()))
    return KnowledgeGraph(entities, graph.relations, edges, graph.stats)
