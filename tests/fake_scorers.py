"""Scorers that only tests run: one that pushes the search off the catalog,
one that knows the answer, one whose scores tie often, and one that counts
what another is asked. Rows are lists of floats at most 0, as every scorer's."""
import math
import random
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


class TiedScorer(Scorer):
    """Each token's log-prob drawn from a few ``values`` (all at most 0), so
    that scores often tie. A prefix's row depends on the seed and the prefix
    alone, so every search sees the same rows whatever else it asks for."""

    def __init__(self, vocab_size: int, seed: int, values: Sequence[float]):
        self.vocab_size = vocab_size
        self.seed = seed
        self.values = list(values)
        self._rows: dict[tuple, list[float]] = {}

    def _score_batch(self, context, prefixes):
        rows = []
        for prefix in map(tuple, prefixes):
            if prefix not in self._rows:
                rng = random.Random(repr((self.seed, prefix)))
                self._rows[prefix] = rng.choices(self.values, k=self.vocab_size)
            rows.append(self._rows[prefix])
        return rows


class CountingScorer(Scorer):
    """Another scorer's rows, counting the ``score_many`` calls made to it
    and the prefixes they hold."""

    def __init__(self, inner: Scorer):
        self.vocab_size = inner.vocab_size
        self.inner = inner
        self.calls = self.prefixes = 0

    def _score_batch(self, context, prefixes):
        self.calls += 1
        self.prefixes += len(prefixes)
        return self.inner.score_many(context, prefixes)
