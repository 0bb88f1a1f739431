"""Scorers that only tests run: one that pushes the search off the catalog,
and one that knows the answer. Rows are lists of floats, as every scorer's."""
import math
from typing import Sequence

from kgsynth.decoder import Scorer


class AdversarialScorer(Scorer):
    """Puts almost all mass on one (typically out-of-catalog) token; the
    constraint layer must dominate it."""

    def __init__(self, vocab_size: int, favored_token: int, low: float = -30.0):
        self.vocab_size = vocab_size
        self._row = [low] * vocab_size
        self._row[favored_token] = math.log1p(-1e-9)

    def _score_batch(self, context, prefixes):
        return [self._row] * len(prefixes)


class OracleScorer(Scorer):
    """Scores one target sequence highly: the next target token gets log-prob
    ~0 while the prefix matches the target, everything else a flat penalty."""

    def __init__(self, vocab_size: int, target: Sequence[int], eos_id: int, off_score: float = -20.0):
        self.vocab_size = vocab_size
        self.target = tuple(target)
        self.eos_id = eos_id
        self.off_score = off_score

    def _score_batch(self, context, prefixes):
        rows = []
        for prefix in map(tuple, prefixes):
            row = [self.off_score] * self.vocab_size
            if prefix == self.target:
                row[self.eos_id] = 0.0
            elif len(prefix) < len(self.target) and prefix == self.target[: len(prefix)]:
                row[self.target[len(prefix)]] = 0.0
            rows.append(row)
        return rows
