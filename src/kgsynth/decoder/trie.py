"""Prefix trie over tokenized catalog entries.

Root-to-terminal paths biject with the (deduplicated) tokenized catalog, so
trie membership defines token-level validity for entity and relation names.
"""
from __future__ import annotations

from typing import Iterable

from ..pipeline import ValidationError
from .tokenizers import Tokenizer


class TrieNode:
    __slots__ = ("children", "terminal", "entry")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.terminal = False
        self.entry: str | None = None  # catalog entry completed at this node


class CatalogTrie:
    def __init__(self):
        self.root = TrieNode()
        self.n_entries = 0
        self.dropped = {"duplicate": 0, "not_tokenizable": 0}  # labels build_trie left out

    def insert(self, token_ids: Iterable[int], entry: str) -> bool:
        node = self.root
        for tok in token_ids:
            node = node.children.setdefault(tok, TrieNode())
        if node.terminal:
            return False
        node.terminal = True
        node.entry = entry
        self.n_entries += 1
        return True

    def walk(self, token_ids: Iterable[int]) -> TrieNode | None:
        node = self.root
        for tok in token_ids:
            node = node.children.get(tok)
            if node is None:
                return None
        return node

    def entries(self) -> list[str]:
        out: list[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.terminal:
                out.append(node.entry)
            stack.extend(node.children.values())
        return sorted(out)


def build_trie(catalog: Iterable[str], tokenizer: Tokenizer) -> CatalogTrie:
    """Deterministic trie construction, tokenizing each label once. A label
    that does not tokenize, or tokenizes to nothing, is left out as
    ``not_tokenizable``; a label whose tokens repeat an earlier entry's is
    left out as ``duplicate``, keeping the first. A trie with no entries is
    a validation error: a constraint level with no options is unusable."""
    trie = CatalogTrie()
    for label in catalog:
        ids = tokenizer.try_encode(label)
        if not ids:
            trie.dropped["not_tokenizable"] += 1
        elif not trie.insert(ids, label):
            trie.dropped["duplicate"] += 1
    if trie.n_entries == 0:
        raise ValidationError("cannot build a trie over an empty catalog")
    return trie
