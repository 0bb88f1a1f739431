"""Structural constraint automaton for linearized triplet sequences.

The automaton tracks where a token prefix sits inside the linearization
grammar: delimiter chains (delimiters are tokenized like ordinary text, so a
delimiter may span several tokens) alternate with catalog-trie walks for the
subject, relation, and object. Because a trie continuation token can coincide
with the first token of the next delimiter, the state is a small *set* of
interpretations advanced in lockstep; a token is allowed if any interpretation
admits it, which keeps every reachable state free of dead ends.

End-of-sequence is permitted exactly after a completed end delimiter, i.e.
after at least one full triplet.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..codec import END, START_OBJECT, START_RELATION, START_SUBJECT, LinearizationSchema, Variant
from .tokenizers import Tokenizer
from .trie import CatalogTrie

Config = tuple  # ("delim", chain_name, pos) | ("trie", phase, node) | ("after_e",)


class ConstraintError(RuntimeError):
    """A token outside the allowed set was fed to the automaton."""


@dataclass(frozen=True)
class ConstraintState:
    configs: frozenset

    @property
    def structural_phase(self) -> str:
        """Human-readable summary of the live interpretations."""
        names = []
        for cfg in sorted(self.configs, key=repr):
            if cfg[0] == "trie":
                names.append(f"in-{cfg[1]}")
            elif cfg[0] == "delim":
                names.append(f"expect-{cfg[1]}[{cfg[2]}]")
            else:
                names.append("after-end")
        return "|".join(names)


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
        self.entity_trie = entity_trie
        self.relation_trie = relation_trie
        self.eos_id = tokenizer.eos_id

        def chain(text: str) -> tuple[int, ...]:
            ids = tokenizer.try_encode(text)
            if not ids:
                raise ConstraintError(f"delimiter segment {text!r} is not tokenizable")
            return tuple(ids)

        self._chains: dict[str, tuple[int, ...]] = {
            "s_first": chain(START_SUBJECT + " "),
            "s_next": chain(" " + START_SUBJECT + " "),
            "r": chain(" " + START_RELATION + " "),
            "o": chain(" " + START_OBJECT + " "),
            "e": chain(" " + END),
        }
        self._chain_target = {
            "s_first": "subject",
            "s_next": "subject",
            "r": "relation",
            "o": "object",
            "e": "after_e",
        }
        self._next_chain = {"subject": "r", "relation": "o", "object": "e"}
        self._tries = {
            "subject": entity_trie,
            "relation": relation_trie,
            "object": entity_trie,
        }
        # reachable state spaces are small; cache transition tables per state
        self._allowed_cache: dict[frozenset, tuple[set[int], bool]] = {}
        self._advance_cache: dict[tuple[frozenset, int], ConstraintState] = {}

    def initial_state(self) -> ConstraintState:
        return ConstraintState(frozenset({("delim", "s_first", 0)}))

    def _chain_entry(self, name: str, pos: int) -> Config:
        """Config after consuming chain[pos]; the chain end opens its target."""
        if pos + 1 < len(self._chains[name]):
            return ("delim", name, pos + 1)
        target = self._chain_target[name]
        if target == "after_e":
            return ("after_e",)
        return ("trie", target, self._tries[target].root)

    def _after_e_chains(self) -> list[str]:
        chains = ["s_next"]
        if self.schema.variant is Variant.SC:
            chains.append("r")
        return chains

    def _config_moves(self, cfg: Config) -> dict[int, list[Config]]:
        moves: dict[int, list[Config]] = {}

        def add(token: int, successor: Config) -> None:
            moves.setdefault(token, []).append(successor)

        kind = cfg[0]
        if kind == "delim":
            _, name, pos = cfg
            add(self._chains[name][pos], self._chain_entry(name, pos))
        elif kind == "trie":
            _, phase, node = cfg
            for token, child in node.children.items():
                add(token, ("trie", phase, child))
            if node.terminal:
                name = self._next_chain[phase]
                add(self._chains[name][0], self._chain_entry(name, 0))
        else:  # after_e
            for name in self._after_e_chains():
                add(self._chains[name][0], self._chain_entry(name, 0))
        return moves

    def allowed_next(self, state: ConstraintState) -> tuple[set[int], bool]:
        """Tokens admissible from ``state`` plus whether end-of-sequence is."""
        cached = self._allowed_cache.get(state.configs)
        if cached is not None:
            return cached
        allowed: set[int] = set()
        eos = False
        for cfg in state.configs:
            if cfg[0] == "after_e":
                eos = True
            allowed.update(self._config_moves(cfg).keys())
        self._allowed_cache[state.configs] = (allowed, eos)
        return allowed, eos

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
        return any(cfg[0] == "after_e" for cfg in state.configs)

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
