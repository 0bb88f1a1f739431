"""The graph file's layout and its label catalogs, without numpy.

A graph file is one JSON header line, ``{"edges": E, "entities": {...},
"format": 2, "relations": {...}}``, then exactly ``12 * E`` bytes of edges,
little-endian int32 (subject, relation, object) rows. ``write_header``
writes the header, and ``read_graph_file`` checks it and the file's length:
``decode`` reads only the header, and ``kgstore.load_graph`` the rows after it.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

from .pipeline import ValidationError

FORMAT = 2  # the graph file layout ``write_header`` and ``read_graph_file`` know
_HEADER_LABELS = 1 << 10  # catalog strings JSON-encoded per write


class KgError(ValidationError):
    """Raised on malformed or inconsistent graph input."""


@dataclass(frozen=True)
class Catalog:
    """Immutable label catalog with dense indices in first-appearance order."""

    labels: tuple[str, ...]
    external_ids: tuple[str, ...]

    def __post_init__(self):
        if not all(self.labels):
            raise KgError("empty label in catalog")
        if len(set(self.labels)) != len(self.labels):
            raise KgError("duplicate label in catalog")
        if len(set(self.external_ids)) != len(self.external_ids):
            raise KgError("duplicate external id in catalog")

    def __len__(self) -> int:
        return len(self.labels)


def _catalog_from(raw) -> Catalog:
    external_ids, labels = raw["external_ids"], raw["labels"]  # a TypeError if raw is not an object
    if not (isinstance(external_ids, list) and isinstance(labels, list) and len(external_ids) == len(labels)):
        raise KgError("catalog external_ids and labels must be lists of equal length")
    if not set(map(type, external_ids + labels)) <= {str}:
        raise KgError("catalog external_ids and labels must be strings")
    return Catalog(tuple(labels), tuple(external_ids))


def _write_json_list(fh, values: Sequence[str]) -> None:
    """``values`` as the JSON list ``json.dumps`` writes, encoded by the C
    encoder a batch at a time."""
    fh.write(b"[")
    for start in range(0, len(values), _HEADER_LABELS):
        if start:
            fh.write(b", ")
        batch = json.dumps(values[start : start + _HEADER_LABELS], ensure_ascii=False).encode()
        fh.write(memoryview(batch)[1:-1])  # without the batch's brackets
    fh.write(b"]")


def write_header(fh, entities: Catalog, relations: Catalog, n_edges: int) -> None:
    """Write to the binary file ``fh`` the header line ``json.dumps`` with
    sorted keys would write, each catalog as parallel ``external_ids`` and
    ``labels`` lists, encoded a batch of strings at a time."""
    fh.write(b'{"edges": %d' % n_edges)
    for head, catalog in ((b', "entities": ', entities), (b', "format": %d, "relations": ' % FORMAT, relations)):
        fh.write(head + b'{"external_ids": ')
        _write_json_list(fh, catalog.external_ids)
        fh.write(b', "labels": ')
        _write_json_list(fh, catalog.labels)
        fh.write(b"}")
    fh.write(b"}\n")


def unreadable(path, exc: Exception) -> KgError:
    """The error for a file that is not a graph file ``save_graph`` wrote."""
    return KgError(f"{path}: not a readable graph file ({exc}); re-run ingest to rewrite it")


def read_graph_file(path) -> tuple[Catalog, Catalog, int, int]:
    """The catalogs of the graph file at ``path``, its edge count and the
    offset of its edge rows, which are left unread. A truncated or corrupt
    file, or another layout, is a ``KgError`` naming ``path``."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            size = os.fstat(fh.fileno()).st_size
        payload = json.loads(header.decode("utf-8"))
        if not (header.endswith(b"\n") and isinstance(payload, dict) and payload.get("format") == FORMAT):
            raise KgError(f"no format {FORMAT} header line")
        n_edges = payload["edges"]
        if type(n_edges) is not int or n_edges < 0:
            raise KgError(f"edge count {n_edges!r} is not a non-negative integer")
        if size != len(header) + 12 * n_edges:
            raise KgError(f"{size - len(header)} bytes of edge rows where {n_edges} rows take {12 * n_edges}")
        entities = _catalog_from(payload["entities"])
        relations = _catalog_from(payload["relations"])
    except (ValueError, KeyError, TypeError) as exc:  # KgError, JSON and UTF-8 errors are ValueErrors
        raise unreadable(path, exc) from exc
    return entities, relations, n_edges, len(header)
