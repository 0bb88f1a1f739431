"""Bidirectional mapping between triplet sets and delimiter-structured strings.

Two variants are supported: fully expanded (one ``[s] .. [r] .. [o] .. [e]``
block per triplet) and subject-collapsed (the subject of a group of
same-subject triplets is emitted once). Both use the same four fixed markers.
Entity surface forms replace spaces with underscores; relation surface forms
keep their label verbatim.

All functions here are pure and operate on label-level triples
``(subject, relation, object)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .pipeline import ValidationError

LabelTriplet = tuple[str, str, str]

START_SUBJECT, START_RELATION, START_OBJECT, END = "[s]", "[r]", "[o]", "[e]"
_KIND = {START_SUBJECT: "s", START_RELATION: "r", START_OBJECT: "o", END: "e"}
_DELIMITER = re.compile("(" + "|".join(map(re.escape, _KIND)) + ")")


class Variant(str, Enum):
    FE = "fe"
    SC = "sc"


class CodecError(ValidationError):
    """Raised when a triplet set cannot be linearized."""


def entity_surface(label: str) -> str:
    return label.replace(" ", "_")


def entity_from_surface(surface: str) -> str:
    return surface.replace("_", " ")


def _entity_position(label: str, text: str) -> int:
    """Character position anchoring an entity in the source text.

    Exact label match wins; otherwise the start of the longest run of
    consecutive source words contained in the label, the earliest on a tie;
    otherwise position 0. A run inside the label stays inside when it loses
    a word at either end, so one window slid over the words finds it.
    """
    pos = text.find(label)
    if pos >= 0:
        return pos
    words = [m.span() for m in re.finditer(r"\S+", text)]
    best_pos, best_len, i = 0, 0, 0
    for j, (_, end) in enumerate(words):
        while i <= j and text[words[i][0] : end] not in label:
            i += 1
        if j + 1 - i > best_len:
            best_pos, best_len = words[i][0], j + 1 - i
    return best_pos


def order_triplets(triplets: Iterable[LabelTriplet], source_text: str = "") -> list[LabelTriplet]:
    """Deterministic total order: subject position in the text first, then
    object position, then lexicographic labels as the final tie-break.

    With empty text all positions collapse to 0 and the order is purely
    lexicographic on (subject, relation, object).
    """
    pos_cache: dict[str, int] = {}

    def pos(label: str) -> int:
        if label not in pos_cache:
            pos_cache[label] = _entity_position(label, source_text) if source_text else 0
        return pos_cache[label]

    return sorted(triplets, key=lambda t: (pos(t[0]), pos(t[2]), t[0], t[1], t[2]))


def linearizable(label: str, entity: bool) -> bool:
    """Whether ``parse`` reads ``label`` back out of a linearization: its
    surface form is non-empty, holds no delimiter and no leading or trailing
    whitespace, and an entity's surface maps back to the label: it does not
    when the label holds both a space and an underscore."""
    surface = entity_surface(label) if entity else label
    return (bool(surface) and surface == surface.strip() and not (entity and " " in label and "_" in label)
            and not _DELIMITER.search(surface))


def linearize(
    triplets: Iterable[LabelTriplet],
    variant: Variant,
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
    labels = dict.fromkeys(pair for s, r, o in ordered for pair in ((s, True), (r, False), (o, True)))
    for label, entity in labels:  # each distinct label once, in triplet order
        if not linearizable(label, entity):
            raise CodecError(f"label {label!r} cannot be read back from a linearization")
    parts: list[str] = []
    if variant is Variant.FE:
        for s, r, o in ordered:
            parts.extend([START_SUBJECT, entity_surface(s), START_RELATION, r, START_OBJECT, entity_surface(o), END])
    else:
        groups: dict[str, list[LabelTriplet]] = {}
        for t in ordered:
            groups.setdefault(t[0], []).append(t)
        for subject, group in groups.items():
            parts.extend([START_SUBJECT, entity_surface(subject)])
            for _, r, o in group:
                parts.extend([START_RELATION, r, START_OBJECT, entity_surface(o), END])
    return " ".join(parts)


@dataclass
class ParseResult:
    """Outcome of a lenient parse; model output is untrusted so nothing raises."""

    triplets: list[LabelTriplet] = field(default_factory=list)
    dropped_fragments: int = 0
    dropped_unresolvable: int = 0
    duplicates_removed: int = 0


def parse(
    text: str,
    variant: Variant,
    entity_catalog=None,
    relation_catalog=None,
) -> ParseResult:
    """Greedy left-to-right parse of a (possibly malformed) linearized string.

    FE expects strict subject/relation/object/end cycles; SC carries the last
    subject across relation-object units until the next subject marker.
    Incomplete trailing fragments are dropped and counted; duplicates are
    removed. With catalogs, every surface form must resolve to a member or
    the whole triplet is dropped (tallied, never a hard error). A catalog is
    used as given and only needs ``in``, so one built once serves every call.
    """
    result = ParseResult()
    pieces = _DELIMITER.split(text)  # text before the first delimiter is ignored

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
        kind = _KIND[pieces[i]]
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
                if variant is Variant.FE:
                    subject = None
                relation = obj = None
                dirty = False
            else:
                abandon()
    abandon()

    def resolve_entity(surface: str) -> str | None:
        if entity_catalog is None:
            return entity_from_surface(surface)
        for cand in (entity_from_surface(surface), surface):
            if cand in entity_catalog:
                return cand
        return None

    seen: set[LabelTriplet] = set()
    for s_surf, rel, o_surf in raw:
        s = resolve_entity(s_surf)
        o = resolve_entity(o_surf)
        r = rel if relation_catalog is None or rel in relation_catalog else None
        if s is None or r is None or o is None:
            result.dropped_unresolvable += 1
            continue
        t = (s, r, o)
        if t in seen:
            result.duplicates_removed += 1
            continue
        seen.add(t)
        result.triplets.append(t)
    return result
