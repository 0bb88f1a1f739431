"""Seeded synthetic knowledge-graph exports for the pipeline benchmark.

Writes the three TSV files ``kgsynth ingest`` reads (entities, relations,
edges) plus ``expected.json``: the counts ``ingest.manifest.json`` must
report for them. The graph has Zipf-like entity degrees and skewed relation
mass: relation r draws both endpoints Zipf-distributed around a home segment
that slides toward rarer entities as r grows, and gets at least
``min_edges_per_relation`` distinct edges. This is the model of the test
fixture in ``tests/conftest.py``, drawn with array operations instead of a
per-edge loop, so a million edges take seconds.

On top of the graph the export carries the two defects real dumps have: a
seeded share of repeated edge lines, and one relation flagged ``literal``
whose edges ingest must drop.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class KgShape:
    n_entities: int
    n_relations: int
    entity_exponent: float
    min_edges_per_relation: int
    relation_scale: float
    relation_exponent: float
    segment_spread: float = 0.95
    duplicate_share: float = 0.02  # extra lines repeating a kept edge
    literal_edges: int = 200  # lines of the one literal-flagged relation


SCALES = {
    # the parameters of the tests' Zipf fixture: ~6.5k entities and ~30k
    # edges survive ingest
    "small": KgShape(10_000, 200, 1.6, 20, 8000.0, 1.3),
    # ~23k entities, ~121k edges, 1000 relations
    "large": KgShape(24_000, 1000, 1.1, 30, 26_000.0, 1.3, literal_edges=2000),
}


def zipf_edges(shape: KgShape, rng: np.random.Generator) -> np.ndarray:
    """Distinct (subject, relation, object) rows, relation-major, subjects
    and objects distinct within a row."""
    n = shape.n_entities
    local = 1.0 / np.arange(1, n + 1, dtype=float) ** shape.entity_exponent
    cum = np.cumsum(local / local.sum())
    rels = np.arange(shape.n_relations)
    quota = shape.min_edges_per_relation + (shape.relation_scale / (rels + 1) ** shape.relation_exponent).astype(np.int64)
    offset = (rels / shape.n_relations * n * shape.segment_spread).astype(np.int64)

    kept = np.empty((0, 3), dtype=np.int64)
    missing = quota.copy()
    while missing.any():
        r = np.repeat(rels, 2 * missing + 16 * (missing > 0))
        draws = np.searchsorted(cum, rng.random((2, len(r))), side="right")
        s = (offset[r] + draws[0]) % n
        o = (offset[r] + draws[1]) % n
        cand = np.stack([s, r, o], axis=1)[s != o]
        rows = np.concatenate([kept, cand])
        # first occurrence wins, so earlier rounds keep their edges
        _, first = np.unique(rows, axis=0, return_index=True)
        rows = rows[np.sort(first)]
        # keep each relation's first `quota` edges in draw order
        order = np.argsort(rows[:, 1], kind="stable")
        rows = rows[order]
        starts = np.searchsorted(rows[:, 1], rels)
        rank = np.arange(len(rows)) - starts[rows[:, 1]]
        kept = rows[rank < quota[rows[:, 1]]]
        missing = quota - np.bincount(kept[:, 1], minlength=shape.n_relations)
    return kept


def generate(shape: KgShape, seed: int, out_dir) -> dict:
    """Write entities.tsv, relations.tsv, edges.tsv and expected.json into
    ``out_dir``; returns the expected ingest counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    edges = zipf_edges(shape, rng)
    n_dup = int(round(shape.duplicate_share * len(edges)))
    dup = edges[rng.integers(0, len(edges), size=n_dup)]
    literal_rel = shape.n_relations
    lit = np.stack(
        [
            rng.integers(0, shape.n_entities, size=shape.literal_edges),
            np.full(shape.literal_edges, literal_rel),
            rng.integers(0, shape.n_entities, size=shape.literal_edges),
        ],
        axis=1,
    )
    lines = np.concatenate([edges, dup, lit])
    lines = lines[rng.permutation(len(lines))]

    with open(out_dir / "entities.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(f"Q{i}\tEntity {i}\n" for i in range(shape.n_entities)))
    with open(out_dir / "relations.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(f"P{j}\trelation {j}\n" for j in range(shape.n_relations)))
        fh.write(f"P{literal_rel}\tliteral value\tliteral\n")
    with open(out_dir / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(f"Q{s}\tP{r}\tQ{o}\n" for s, r, o in lines.tolist()))

    # literal lines are dropped before duplicate detection and do not make
    # their endpoints survive the zero-degree filter
    expected = {
        "entities": int(len(np.unique(edges[:, [0, 2]]))),
        "relations": shape.n_relations,
        "edges": int(len(edges)),
        "duplicate_edges_dropped": n_dup,
        "literal_relations_dropped": 1,
        "literal_edges_dropped": shape.literal_edges,
    }
    (out_dir / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return expected
