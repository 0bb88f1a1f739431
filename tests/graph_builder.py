"""Graphs built straight from dense-index triples, which only tests make:
the program builds its graphs by ``kgstore.ingest`` or ``load_graph``."""
import numpy as np

from kgsynth.kgstore import Catalog, KnowledgeGraph


def from_triples(entity_labels, relation_labels, triples) -> KnowledgeGraph:
    """The graph of ``triples`` over the labels, with external ids ``E<i>``
    and ``R<i>``; a repeated triple keeps its first appearance."""
    entities = Catalog(tuple(entity_labels), tuple(f"E{i}" for i in range(len(entity_labels))))
    relations = Catalog(tuple(relation_labels), tuple(f"R{i}" for i in range(len(relation_labels))))
    edges = list(dict.fromkeys(map(tuple, triples)))
    return KnowledgeGraph(entities, relations, np.array(edges, dtype=np.int64).reshape(-1, 3))
