"""Bi-level constrained generation: a structural automaton over a
linearization schema crossed with catalog prefix-tries, searched by
constrained beam search over a pluggable scorer."""
from .tokenizers import ByteTokenizer, Tokenizer, UnencodableText, WordPieceTokenizer, filter_tokenizable
from .trie import CatalogTrie, TrieNode, build_trie
from .constraints import ConstraintEngine, ConstraintError, ConstraintState
from .beam import DEFAULT_LENGTH_PENALTY, DecodedSequence, DecodeParams, constrained_beam_search
from .scorers import AdversarialScorer, OracleScorer, Scorer, ScorerError, SubprocessScorer, UniformScorer

__all__ = [
    "AdversarialScorer",
    "ByteTokenizer",
    "CatalogTrie",
    "ConstraintEngine",
    "ConstraintError",
    "ConstraintState",
    "DecodedSequence",
    "DecodeParams",
    "DEFAULT_LENGTH_PENALTY",
    "OracleScorer",
    "Scorer",
    "ScorerError",
    "SubprocessScorer",
    "Tokenizer",
    "TrieNode",
    "UnencodableText",
    "UniformScorer",
    "WordPieceTokenizer",
    "build_trie",
    "constrained_beam_search",
    "filter_tokenizable",
]
