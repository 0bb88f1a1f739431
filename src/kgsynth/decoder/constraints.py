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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..codec import END, START_OBJECT, START_RELATION, START_SUBJECT, LinearizationSchema, Variant
from .tokenizers import Tokenizer
from .trie import CatalogTrie, TrieNode

Config = tuple[str, TrieNode]  # (phase, node of the phase's trie)


class ConstraintError(RuntimeError):
    """A token outside the allowed set was fed to the automaton."""


@dataclass(frozen=True)
class ConstraintState:
    configs: frozenset

    @property
    def structural_phase(self) -> str:
        """Human-readable summary of the live interpretations."""
        return "|".join(sorted({phase for phase, _ in self.configs}))


class ConstraintEngine:
    """Allowed-token oracle for one schema, tokenizer, and catalog trie pair."""

    def __init__(
        self,
        schema: LinearizationSchema,
        tokenizer: Tokenizer,
        entity_trie: CatalogTrie,
        relation_trie: CatalogTrie,
    ):
        self.schema = schema
        self.tokenizer = tokenizer
        self.eos_id = tokenizer.eos_id

        def delimiter(text: str) -> CatalogTrie:
            ids = tokenizer.try_encode(text)
            if not ids:
                raise ConstraintError(f"delimiter segment {text!r} is not tokenizable")
            trie = CatalogTrie()
            trie.insert(ids, text)
            return trie

        after_e = ("s_next", "r") if schema.variant is Variant.SC else ("s_next",)
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
        # reachable state spaces are small; cache transition tables per state
        self._allowed_cache: dict[frozenset, tuple[set[int], bool]] = {}
        self._advance_cache: dict[tuple[frozenset, int], ConstraintState] = {}

    def initial_state(self) -> ConstraintState:
        return ConstraintState(frozenset({("s_first", self._phases["s_first"][0].root)}))

    def _config_moves(self, cfg: Config) -> dict[int, list[Config]]:
        phase, node = cfg
        walks = [cfg]
        if node.terminal:
            walks.extend((opened, self._phases[opened][0].root) for opened in self._phases[phase][1])
        moves: dict[int, list[Config]] = {}
        for walk_phase, walk_node in walks:
            for token, child in walk_node.children.items():
                moves.setdefault(token, []).append((walk_phase, child))
        return moves

    def allowed_next(self, state: ConstraintState) -> tuple[set[int], bool]:
        """Tokens admissible from ``state`` plus whether end-of-sequence is."""
        cached = self._allowed_cache.get(state.configs)
        if cached is not None:
            return cached
        allowed: set[int] = set()
        for cfg in state.configs:
            allowed.update(self._config_moves(cfg).keys())
        result = self._allowed_cache[state.configs] = (allowed, self.is_accepting(state))
        return result

    def advance(self, state: ConstraintState, token: int) -> ConstraintState:
        key = (state.configs, token)
        cached = self._advance_cache.get(key)
        if cached is not None:
            return cached
        successors: set[Config] = set()
        for cfg in state.configs:
            successors.update(self._config_moves(cfg).get(token, ()))
        if not successors:
            raise ConstraintError(f"token {token} not allowed in phase {state.structural_phase}")
        new_state = ConstraintState(frozenset(successors))
        self._advance_cache[key] = new_state
        return new_state

    def is_accepting(self, state: ConstraintState) -> bool:
        return any(phase == "e" and node.terminal for phase, node in state.configs)

    def replay(self, tokens: Iterable[int]) -> ConstraintState:
        """Advance through a full token sequence (testing helper)."""
        state = self.initial_state()
        for token in tokens:
            state = self.advance(state, token)
        return state

    def accepts(self, tokens: Sequence[int]) -> bool:
        try:
            return self.is_accepting(self.replay(tokens))
        except ConstraintError:
            return False
