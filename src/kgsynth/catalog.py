"""The graph file's layout and its label catalogs, without numpy.

``read_graph_file`` checks the layout ``kgstore.save_graph`` writes and
returns both catalogs with the edge section still base64 text: ``decode``
reads only the catalogs, and ``kgstore.load_graph`` decodes and checks the
edges from the same reader.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .pipeline import ValidationError


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
        by_external = dict(zip(self.external_ids, range(len(self.external_ids))))
        if len(by_external) != len(self.external_ids):
            raise KgError("duplicate external id in catalog")
        object.__setattr__(self, "_by_external", by_external)

    def __len__(self) -> int:
        return len(self.labels)

    def label(self, index: int) -> str:
        return self.labels[index]


def _catalog_from(raw) -> Catalog:
    if not isinstance(raw, dict):
        raise KgError("a catalog must be an object of parallel external_ids and labels lists")
    external_ids, labels = raw["external_ids"], raw["labels"]
    if not (isinstance(external_ids, list) and isinstance(labels, list) and len(external_ids) == len(labels)):
        raise KgError("catalog external_ids and labels must be lists of equal length")
    if not set(map(type, external_ids + labels)) <= {str}:
        raise KgError("catalog external_ids and labels must be strings")
    return Catalog(tuple(labels), tuple(external_ids))


def unreadable(path, exc: Exception) -> KgError:
    """The error for a file that is not a graph file ``save_graph`` wrote."""
    return KgError(f"{path}: not a readable graph file ({exc}); re-run ingest to rewrite it")


def read_graph_file(path) -> tuple[Catalog, Catalog, str]:
    """The entity and relation catalogs of the graph file at ``path``, and
    its edge section as the base64 text it holds, unchecked. A truncated or
    corrupt file, or another layout, is a ``KgError`` naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        entities = _catalog_from(payload["entities"])
        relations = _catalog_from(payload["relations"])
        edges = payload["edges"]
        if not isinstance(edges, str):
            raise KgError("edges must be a base64 string")
    except (ValueError, KeyError, TypeError) as exc:  # KgError, JSON and UTF-8 errors are ValueErrors
        raise unreadable(path, exc) from exc
    return entities, relations, edges
