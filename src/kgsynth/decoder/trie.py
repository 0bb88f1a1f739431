"""Prefix trie over tokenized catalog entries.

A trie is the sorted, deduplicated list of its entries' token sequences.
A node is the run of entries that share its prefix; its children are found
by bisecting that run on the next token, the first time they are read, and
kept. So building a trie is tokenize, sort and dedupe, and a search creates
only the nodes it visits. Root-to-terminal paths biject with the entries,
so trie membership defines token-level validity for entity and relation
names.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from ..pipeline import ValidationError
from .tokenizers import Tokenizer


class TrieNode:
    """The run ``entries[lo:hi]`` of the entries that share this node's
    prefix of ``depth`` tokens. Sorting puts an entry before its extensions,
    so the node is terminal exactly when the run's first entry ends here."""

    __slots__ = ("_entries", "_lo", "_hi", "_depth", "_children", "terminal")

    def __init__(self, entries: list[tuple[int, ...]], lo: int, hi: int, depth: int):
        self._entries, self._lo, self._hi, self._depth = entries, lo, hi, depth
        self._children: dict[int, TrieNode] | None = None
        self.terminal = len(entries[lo]) == depth

    @property
    def children(self) -> dict[int, TrieNode]:
        """The child of each next token, built on the first read and kept,
        so that one path always leads to the same node objects."""
        if self._children is None:
            entries, depth, hi = self._entries, self._depth, self._hi
            token_at = itemgetter(depth)
            lo = self._lo + self.terminal  # the entry ending here has no next token
            children = {}
            while lo < hi:
                token = entries[lo][depth]
                end = bisect_right(entries, token, lo, hi, key=token_at)
                children[token] = TrieNode(entries, lo, end, depth + 1)
                lo = end
            self._children = children
        return self._children


class CatalogTrie:
    """The trie over non-empty token sequences; a repeated one is counted
    under ``dropped["duplicate"]``. A trie with no entries is a validation
    error: a constraint level with no options is unusable."""

    def __init__(self, entries: list[tuple[int, ...]]):
        self.entries = [entry for entry, _ in groupby(sorted(entries))]
        self.n_entries = len(self.entries)
        if not self.n_entries:
            raise ValidationError("cannot build a trie over an empty catalog")
        self.dropped = {"duplicate": len(entries) - self.n_entries, "not_tokenizable": 0}  # labels left out
        self.root = TrieNode(self.entries, 0, self.n_entries, 0)


def build_trie(catalog: Iterable[str], tokenizer: Tokenizer) -> CatalogTrie:
    """The trie over the catalog's labels, each tokenized once. A label that
    does not tokenize, or tokenizes to nothing, is left out as
    ``not_tokenizable``; a label whose tokens repeat another's is counted
    once, and the repeats as ``duplicate``."""
    entries, not_tokenizable = [], 0
    for label in catalog:
        ids = tokenizer.try_encode(label)
        if ids:
            entries.append(tuple(ids))
        else:
            not_tokenizable += 1
    trie = CatalogTrie(entries)
    trie.dropped["not_tokenizable"] = not_tokenizable
    return trie
