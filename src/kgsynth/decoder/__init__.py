"""Bi-level constrained generation: a structural automaton over a
linearization schema crossed with catalog prefix-tries, searched by
constrained beam search over a pluggable scorer.

The names below are re-exported lazily (PEP 562): ``from kgsynth.decoder
import X`` imports only the submodule that defines X and what it needs, so a
caller that only tokenizes does not load the scorers and numpy."""
import importlib

_EXPORTS = {
    "tokenizers": ("ByteTokenizer", "Tokenizer", "UnencodableText", "WordPieceTokenizer"),
    "trie": ("CatalogTrie", "TrieNode", "build_trie"),
    "constraints": ("ConstraintEngine", "ConstraintError", "ConstraintState"),
    "beam": ("DEFAULT_LENGTH_PENALTY", "DecodedSequence", "DecodeParams", "constrained_beam_search"),
    "scorers": ("AdversarialScorer", "OracleScorer", "Scorer", "ScorerError", "SubprocessScorer", "UniformScorer"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value
