"""Structural constraint automaton for linearized triplet sequences.

The linearization grammar is a cycle of eight phases, each a prefix trie:
the delimiters ``s_first`` ("[s] "), ``s_next`` (" [s] "), ``r`` (" [r] "),
``o`` (" [o] ") and ``e`` (" [e]") are one-entry tries over their tokens
(a delimiter may span several tokens), and ``subject``, ``relation`` and
``object`` are the catalog tries. A complete entry of a phase opens the next
phase in grammar order; a complete ``e`` opens ``s_next``, and also ``r``
under SC, where a subject's next relation-object unit follows directly.

A config is one interpretation of the prefix, ``(phase, trie node)``, and
one rule advances it: step to a child of the node, and at a terminal node
also take the first step of each phase it opens. Because a catalog label can
continue with the same token that starts the next delimiter, the state is a
small *set* of configs advanced in lockstep; a token is allowed if any config
admits it, which keeps every reachable state free of dead ends.

End-of-sequence is permitted exactly at a terminal node of ``e``, i.e.
after at least one full triplet.

Each state's table is built once, on its first visit: the allowed tokens,
the end-of-sequence flag, and the successor state of every allowed token.
Reachable state spaces are small, and every later query is one lookup.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView

from ..codec import END, START_OBJECT, START_RELATION, START_SUBJECT, Variant
from ..pipeline import ValidationError
from .tokenizers import Tokenizer
from .trie import CatalogTrie, TrieNode

Config = tuple[str, TrieNode]  # (phase, node of the phase's trie)


class ConstraintError(RuntimeError):
    """A token outside the allowed set was fed to the automaton."""


@dataclass(frozen=True)
class ConstraintState:
    configs: frozenset


# a state's table: ((allowed tokens, EOS flag), successor state per token)
Table = tuple[tuple[KeysView[int], bool], dict[int, ConstraintState]]


class ConstraintEngine:
    """Allowed-token oracle for one variant, tokenizer, and catalog trie pair."""

    def __init__(
        self,
        variant: Variant,
        tokenizer: Tokenizer,
        entity_trie: CatalogTrie,
        relation_trie: CatalogTrie,
    ):
        self.variant = variant
        self.tokenizer = tokenizer
        self.eos_id = tokenizer.eos_id

        def delimiter(text: str) -> CatalogTrie:
            ids = tokenizer.try_encode(text)
            if not ids:
                raise ValidationError(f"delimiter segment {text!r} is not tokenizable")
            return CatalogTrie([tuple(ids)])

        after_e = ("s_next", "r") if variant is Variant.SC else ("s_next",)
        # phase -> (its trie, the phases a complete entry opens)
        self._phases: dict[str, tuple[CatalogTrie, tuple[str, ...]]] = {
            "s_first": (delimiter(START_SUBJECT + " "), ("subject",)),
            "s_next": (delimiter(" " + START_SUBJECT + " "), ("subject",)),
            "subject": (entity_trie, ("r",)),
            "r": (delimiter(" " + START_RELATION + " "), ("relation",)),
            "relation": (relation_trie, ("o",)),
            "o": (delimiter(" " + START_OBJECT + " "), ("object",)),
            "object": (entity_trie, ("e",)),
            "e": (delimiter(" " + END), after_e),
        }
        self._tables: dict[frozenset, Table] = {}  # configs -> that state's table

    def initial_state(self) -> ConstraintState:
        return ConstraintState(frozenset({("s_first", self._phases["s_first"][0].root)}))

    def _table(self, configs: frozenset) -> Table:
        """Build and keep the table of the state ``configs``: every config
        steps to a child of its node, and at a terminal node also takes the
        first step of each phase it opens."""
        moves: dict[int, set[Config]] = {}
        for phase, node in configs:
            walks = [(phase, node)]
            if node.terminal:
                walks.extend((opened, self._phases[opened][0].root) for opened in self._phases[phase][1])
            for walk_phase, walk_node in walks:
                for token, child in walk_node.children.items():
                    moves.setdefault(token, set()).add((walk_phase, child))
        successors = {token: ConstraintState(frozenset(cfgs)) for token, cfgs in moves.items()}
        eos = any(phase == "e" and node.terminal for phase, node in configs)
        table = self._tables[configs] = ((successors.keys(), eos), successors)
        return table

    def allowed_next(self, state: ConstraintState) -> tuple[KeysView[int], bool]:
        """Tokens admissible from ``state`` plus whether end-of-sequence is."""
        return (self._tables.get(state.configs) or self._table(state.configs))[0]

    def advance(self, state: ConstraintState, token: int) -> ConstraintState:
        successor = (self._tables.get(state.configs) or self._table(state.configs))[1].get(token)
        if successor is None:
            phases = "|".join(sorted({phase for phase, _ in state.configs}))
            raise ConstraintError(f"token {token} not allowed in phase {phases}")
        return successor
