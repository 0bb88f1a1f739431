"""Bidirectional mapping between triplet sets and delimiter-structured strings.

Two variants are supported: fully expanded (one ``[s] .. [r] .. [o] .. [e]``
block per triplet) and subject-collapsed (the subject of a group of
same-subject triplets is emitted once). Entity surface forms replace spaces
with underscores; relation surface forms keep their label verbatim.

All functions here are pure and operate on label-level triples
``(subject, relation, object)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .pipeline import ValidationError

LabelTriplet = tuple[str, str, str]


class Variant(str, Enum):
    FE = "fe"
    SC = "sc"


class CodecError(ValidationError):
    """Raised when a triplet set cannot be linearized under a schema."""


@dataclass(frozen=True)
class LinearizationSchema:
    variant: Variant = Variant.FE
    start_subject: str = "[s]"
    start_relation: str = "[r]"
    start_object: str = "[o]"
    end: str = "[e]"

    def __post_init__(self):
        delims = self.delimiters()
        if len(set(delims)) != 4 or any(not d for d in delims):
            raise CodecError("delimiters must be non-empty and pairwise distinct")

    def delimiters(self) -> tuple[str, str, str, str]:
        return (self.start_subject, self.start_relation, self.start_object, self.end)


def entity_surface(label: str) -> str:
    return label.replace(" ", "_")


def entity_from_surface(surface: str) -> str:
    return surface.replace("_", " ")


def _word_spans(text: str) -> list[tuple[int, str]]:
    return [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]


def _entity_position(label: str, text: str, spans: list[tuple[int, str]]) -> int:
    """Character position anchoring an entity in the source text.

    Exact label match wins; otherwise the start of the longest run of
    consecutive source words contained in the label; otherwise position 0.
    """
    pos = text.find(label)
    if pos >= 0:
        return pos
    best_pos, best_len = 0, 0
    for i in range(len(spans)):
        for j in range(len(spans), i, -1):
            if j - i <= best_len:
                break
            candidate = text[spans[i][0] : spans[j - 1][0] + len(spans[j - 1][1])]
            if candidate in label:
                best_pos, best_len = spans[i][0], j - i
                break
    return best_pos


def order_triplets(triplets: Iterable[LabelTriplet], source_text: str = "") -> list[LabelTriplet]:
    """Deterministic total order: subject position in the text first, then
    object position, then lexicographic labels as the final tie-break.

    With empty text all positions collapse to 0 and the order is purely
    lexicographic on (subject, relation, object).
    """
    triplets = list(triplets)
    spans = _word_spans(source_text)
    pos_cache: dict[str, int] = {}

    def pos(label: str) -> int:
        if label not in pos_cache:
            pos_cache[label] = _entity_position(label, source_text, spans) if source_text else 0
        return pos_cache[label]

    return sorted(triplets, key=lambda t: (pos(t[0]), pos(t[2]), t[0], t[1], t[2]))


def _check_labels(triplets: Sequence[LabelTriplet], schema: LinearizationSchema) -> None:
    for t in triplets:
        for part in t:
            for d in schema.delimiters():
                if d in part:
                    raise CodecError(f"delimiter {d!r} occurs inside label {part!r}")


def linearize(
    triplets: Iterable[LabelTriplet],
    schema: LinearizationSchema,
    source_text: str = "",
) -> str:
    """Render a triplet set as a single delimiter-structured string.

    FE emits one full block per triplet. SC groups triplets by subject (first
    occurrence order after the position heuristic) and emits each group's
    subject once. Single ASCII spaces everywhere, no leading/trailing space.
    """
    ordered = order_triplets(triplets, source_text)
    if not ordered:
        raise CodecError("cannot linearize an empty triplet set")
    _check_labels(ordered, schema)
    s_, r_, o_, e_ = schema.delimiters()
    parts: list[str] = []
    if schema.variant is Variant.FE:
        for s, r, o in ordered:
            parts.extend([s_, entity_surface(s), r_, r, o_, entity_surface(o), e_])
    else:
        groups: dict[str, list[LabelTriplet]] = {}
        for t in ordered:
            groups.setdefault(t[0], []).append(t)
        for subject, group in groups.items():
            parts.extend([s_, entity_surface(subject)])
            for _, r, o in group:
                parts.extend([r_, r, o_, entity_surface(o), e_])
    return " ".join(parts)


@dataclass
class ParseResult:
    """Outcome of a lenient parse; model output is untrusted so nothing raises."""

    triplets: list[LabelTriplet] = field(default_factory=list)
    dropped_fragments: int = 0
    dropped_unresolvable: int = 0
    duplicates_removed: int = 0
    notes: list[str] = field(default_factory=list)

    def as_set(self) -> set[LabelTriplet]:
        return set(self.triplets)


def _catalog_members(catalog: Mapping[str, int] | Sequence[str] | set[str]) -> set[str]:
    return set(catalog.keys()) if isinstance(catalog, Mapping) else set(catalog)


def parse(
    text: str,
    schema: LinearizationSchema,
    entity_catalog=None,
    relation_catalog=None,
) -> ParseResult:
    """Greedy left-to-right parse of a (possibly malformed) linearized string.

    FE expects strict subject/relation/object/end cycles; SC carries the last
    subject across relation-object units until the next subject marker.
    Incomplete trailing fragments are dropped and counted; duplicates are
    removed. With catalogs, every surface form must resolve to a member or
    the whole triplet is dropped (tallied, never a hard error).
    """
    result = ParseResult()
    if not text.strip():
        result.notes.append("empty input")
        return result

    delims = sorted(schema.delimiters(), key=len, reverse=True)
    pieces = re.split("(" + "|".join(re.escape(d) for d in delims) + ")", text)
    if pieces[0].strip():
        result.notes.append("leading text before first delimiter ignored")
    kind_of = {
        schema.start_subject: "s",
        schema.start_relation: "r",
        schema.start_object: "o",
        schema.end: "e",
    }

    subject: str | None = None  # raw surface; persists across SC units
    relation: str | None = None
    obj: str | None = None
    dirty = False  # unit in progress since the last emit/reset

    def abandon():
        nonlocal relation, obj, dirty
        if dirty:
            result.dropped_fragments += 1
        relation = obj = None
        dirty = False

    raw: list[tuple[str, str, str]] = []
    for i in range(1, len(pieces), 2):
        kind = kind_of[pieces[i]]
        content = pieces[i + 1].strip() if i + 1 < len(pieces) else ""
        if kind == "s":
            abandon()
            subject = content or None
            dirty = True
        elif kind == "r":
            if relation is not None or obj is not None:
                abandon()
            relation = content or None
            dirty = True
        elif kind == "o":
            obj = content or None
            dirty = True
        else:  # end marker
            if subject and relation and obj:
                raw.append((subject, relation, obj))
                if schema.variant is Variant.FE:
                    subject = None
                relation = obj = None
                dirty = False
            else:
                abandon()
    abandon()

    ents = _catalog_members(entity_catalog) if entity_catalog is not None else None
    rels = _catalog_members(relation_catalog) if relation_catalog is not None else None

    def resolve_entity(surface: str) -> str | None:
        if ents is None:
            return entity_from_surface(surface)
        for cand in (entity_from_surface(surface), surface):
            if cand in ents:
                return cand
        return None

    seen: set[LabelTriplet] = set()
    for s_surf, rel, o_surf in raw:
        s = resolve_entity(s_surf)
        o = resolve_entity(o_surf)
        r = rel if rels is None else (rel if rel in rels else None)
        if s is None or r is None or o is None:
            result.dropped_unresolvable += 1
            continue
        t = (s, r, o)
        if t in seen:
            result.duplicates_removed += 1
            continue
        seen.add(t)
        result.triplets.append(t)
    if not raw:
        result.notes.append("no parseable triplets")
    return result
