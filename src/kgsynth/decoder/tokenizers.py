"""Tokenizer boundary for the constrained decoder.

Two reference implementations ship with the package: a byte-level tokenizer
under which everything is encodable, and a restricted word-piece tokenizer
(greedy longest match over an explicit piece list) whose failures exercise
catalog filtering. Both reserve one extra id for end-of-sequence; encode
never produces it.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence


class UnencodableText(ValueError):
    """The string requires tokens outside the vocabulary."""


class Tokenizer(ABC):
    """Finite vocabulary with integer ids; decode(encode(s)) == s whenever
    encode succeeds."""

    vocab_size: int
    eos_id: int

    @abstractmethod
    def try_encode(self, text: str) -> list[int] | None:
        """Token ids for ``text``, or None when it cannot be tokenized."""

    @abstractmethod
    def decode(self, ids: Sequence[int]) -> str:
        ...

    def encode(self, text: str) -> list[int]:
        ids = self.try_encode(text)
        if ids is None:
            raise UnencodableText(f"cannot tokenize {text!r}")
        return ids


class ByteTokenizer(Tokenizer):
    """One token per UTF-8 byte; ids 0..255 plus a reserved end-of-sequence id."""

    def __init__(self):
        self.eos_id = 256
        self.vocab_size = 257

    def try_encode(self, text: str) -> list[int] | None:
        return list(text.encode("utf-8"))

    def decode(self, ids: Sequence[int]) -> str:
        if any(i == self.eos_id for i in ids):
            ids = [i for i in ids if i != self.eos_id]
        return bytes(ids).decode("utf-8", errors="replace")


class WordPieceTokenizer(Tokenizer):
    """Greedy longest-match tokenizer over an explicit piece list.

    Encoding fails when no piece matches at some position, which makes this
    the tokenizer of choice for exercising catalog filtering.
    """

    def __init__(self, pieces: Sequence[str]):
        if not pieces:
            raise ValueError("piece list must be non-empty")
        if len(set(pieces)) != len(pieces):
            raise ValueError("duplicate pieces in vocabulary")
        if any(not p for p in pieces):
            raise ValueError("empty piece in vocabulary")
        self.pieces = list(pieces)
        self.piece_ids = {p: i for i, p in enumerate(self.pieces)}
        self.eos_id = len(self.pieces)
        self.vocab_size = len(self.pieces) + 1
        self._max_len = max(len(p) for p in self.pieces)

    def try_encode(self, text: str) -> list[int] | None:
        ids: list[int] = []
        pos = 0
        while pos < len(text):
            for width in range(min(self._max_len, len(text) - pos), 0, -1):
                piece_id = self.piece_ids.get(text[pos : pos + width])
                if piece_id is not None:
                    ids.append(piece_id)
                    pos += width
                    break
            else:
                return None
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        return "".join(self.pieces[i] for i in ids if i != self.eos_id)

