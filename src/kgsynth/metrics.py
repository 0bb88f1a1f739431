"""Evaluation suite: micro/macro precision/recall/F1 over predicted vs gold
triplet sets, percentile-bootstrap confidence intervals, relation-frequency
buckets, and relation-occurrence distribution statistics. ``evaluate`` and
``relation_stats`` return the documents their stages write: the report of
``eval_report.json``, and the statistics of ``relation_stats.json`` with the
rows of ``relation_cdf.tsv``.

Zero-denominator convention (documented in every report): a score whose
denominator is 0 is 0 when the opposing side is non-empty, and 1 when both
sides are empty. Macro averages exclude relations absent from both gold and
predictions; macro-F1 defaults to the mean of per-relation F1 values.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .pipeline import ValidationError

Fact = Hashable  # usually a (subject, relation, object) label tuple

UNSEEN_BUCKET = -1

ZERO_DENOMINATOR_CONVENTION = (
    "precision (resp. recall) is 0 when its denominator is 0 while the other "
    "set is non-empty; 1 when both predicted and gold are empty"
)


@dataclass(frozen=True)
class EvalPair:
    """Predictions and gold facts for one document."""

    doc_id: str
    predicted: frozenset
    gold: frozenset

    @classmethod
    def make(cls, doc_id, predicted: Iterable[Fact], gold: Iterable[Fact]) -> "EvalPair":
        return cls(str(doc_id), frozenset(predicted), frozenset(gold))


def f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    """Precision/recall/F1 from fact counts, under the zero-denominator
    convention."""
    precision = correct / predicted if predicted else (0.0 if gold else 1.0)
    recall = correct / gold if gold else (0.0 if predicted else 1.0)
    return precision, recall, f1(precision, recall)


def _relation_of(fact) -> Hashable:
    return fact[1]


class CountIndex:
    """Every predicted and gold fact of a list of pairs, counted once.

    Two flat int arrays hold one entry per fact and column: the document
    index, and the key ``3 * relation position + column``, where the column
    is 0 for correct, 1 for predicted and 2 for gold. Relations are in sorted
    order, so that sums over a table do not follow the string hash seed. The
    index is O(facts) in memory; no document x relation matrix is built."""

    def __init__(self, pairs: Sequence[EvalPair]):
        facts = [
            (d, _relation_of(t), column)
            for d, p in enumerate(pairs)
            for column, side in enumerate((p.predicted & p.gold, p.predicted, p.gold))
            for t in side
        ]
        self.n_docs = len(pairs)
        self.relations = sorted({r for _, r, _ in facts})
        position = {r: i for i, r in enumerate(self.relations)}
        self.docs = np.array([d for d, _, _ in facts], dtype=np.intp)
        self.keys = np.array([3 * position[r] + column for _, r, column in facts], dtype=np.intp)

    def table(self, docs: Iterable[int]) -> dict[Hashable, tuple[int, int, int]]:
        """``relation -> (correct, predicted, gold)`` over the multiset of
        document indices ``docs``, in O(facts + relations). Relations with no
        predicted and no gold fact in those documents do not appear."""
        weights = np.bincount(docs, minlength=self.n_docs)[self.docs]
        counts = np.bincount(self.keys, weights, minlength=3 * len(self.relations))
        rows = counts.astype(np.int64).reshape(-1, 3).tolist()
        return {r: tuple(row) for r, row in zip(self.relations, rows) if row[1] or row[2]}


def _sums(rows: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Column sums of (correct, predicted, gold) rows."""
    return tuple(map(sum, zip((0, 0, 0), *rows)))


def _macro(table: Mapping[Hashable, tuple[int, int, int]], f1_mode: str) -> tuple[float, float, float]:
    """Relation-averaged precision/recall/F1 under ``f1_mode``, which
    ``evaluate`` checks."""
    if not table:
        return 1.0, 1.0, 1.0  # no facts anywhere: vacuously perfect, as in micro
    scores = [_prf(*row) for row in table.values()]
    macro_p = sum(v[0] for v in scores) / len(scores)
    macro_r = sum(v[1] for v in scores) / len(scores)
    if f1_mode == "mean_of_f1":
        macro_f = sum(v[2] for v in scores) / len(scores)
    else:
        macro_f = f1(macro_p, macro_r)
    return macro_p, macro_r, macro_f


def bootstrap_ci(
    pairs: Sequence,
    metric_fn: Callable[[Sequence], float | Sequence[float]],
    n: int = 50,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float, float] | list[tuple[float, float, float]]:
    """Point estimate plus a percentile interval from ``n`` resamples of
    ``pairs``, which may be any sequence of items: the metric gets the whole
    sequence, then a list of ``len(pairs)`` items drawn with replacement for
    each resample. Bounds use outward order statistics, so both are values
    the metric actually took on some resample.

    A metric that returns a tuple or list gets one ``(point, lower, upper)``
    per component, all from the same resamples."""
    if not pairs:
        raise ValueError("bootstrap requires at least one pair")
    point = metric_fn(pairs)
    rng = np.random.default_rng(seed)
    draws = (rng.integers(0, len(pairs), size=len(pairs)).tolist() for _ in range(n))
    values = np.array([metric_fn([pairs[j] for j in drawn]) for drawn in draws], dtype=float)
    alpha = (1.0 - level) / 2.0
    lower = np.quantile(values, alpha, axis=0, method="lower")
    upper = np.quantile(values, 1.0 - alpha, axis=0, method="higher")
    if isinstance(point, (tuple, list)):
        return [(p, float(lo), float(hi)) for p, lo, hi in zip(point, lower, upper)]
    return point, float(lower), float(upper)


def bucketize(relation_count: int) -> int:
    """Bucket index i such that 2**i <= count < 2**(i+1); 0 maps to the
    dedicated unseen bucket."""
    if relation_count < 0:
        raise ValueError("count must be non-negative")
    if relation_count == 0:
        return UNSEEN_BUCKET
    return relation_count.bit_length() - 1


def per_bucket_f1(table: Mapping[Hashable, tuple[int, int, int]], members: Sequence[Sequence[Hashable]]) -> tuple[float, ...]:
    """Micro-F1 of each bucket over the count ``table`` of one resample, a
    bucket being the list of its relations in ``members``."""
    return tuple(_prf(*_sums(table[r] for r in relations if r in table))[2] for relations in members)


def relation_stats(triplet_sets: Iterable[Iterable[Fact]]) -> tuple[dict, list[tuple[int, float]]]:
    """Occurrence counts per relation with a five-number summary, and the
    CDF points ``(count, share of relations with at most that count)``.

    Counts cover every triplet of every set; only observed relations enter
    the count vector.
    """
    counts: Counter = Counter()
    for triplets in triplet_sets:
        for t in triplets:
            counts[_relation_of(t)] += 1
    if not counts:
        raise ValidationError("dataset contains no triplets")
    vec = np.sort(np.array(list(counts.values()), dtype=float))
    q = np.quantile(vec, [0.0, 0.25, 0.5, 0.75, 1.0])
    total = len(vec)
    cdf = [(int(c), float(np.searchsorted(vec, c, side="right")) / total) for c in sorted(set(int(v) for v in vec))]
    summary = dict(zip(("min", "q1", "median", "q3", "max"), map(float, q)))
    stats = {"summary": summary, "n_relations": len(counts), "counts": {str(r): n for r, n in sorted(counts.items())}}
    return stats, cdf


def evaluate(
    pairs: Sequence[EvalPair],
    n_bootstrap: int = 50,
    level: float = 0.95,
    seed: int = 0,
    macro_f1_mode: str = "mean_of_f1",
    train_counts: Mapping[Hashable, int] | None = None,
) -> dict:
    """The full report over evaluation pairs: micro and macro precision,
    recall and F1, each a ``{"point", "lower", "upper"}`` interval; each
    relation's (precision, recall, F1); with ``train_counts``, one F1 row
    per relation-frequency bucket; and the settings and conventions used."""
    if n_bootstrap < 1:
        raise ValidationError("n_bootstrap must be >= 1")
    if not 0 < level < 1:
        raise ValidationError("level must lie in (0, 1)")
    if macro_f1_mode not in ("mean_of_f1", "harmonic_of_means"):
        raise ValidationError(f"macro_f1_mode must be 'mean_of_f1' or 'harmonic_of_means', got {macro_f1_mode!r}")

    index = CountIndex(pairs)
    table = index.table(range(len(pairs)))
    # relations by relation-frequency bucket; those missing from train_counts are unseen
    buckets: dict[int, list] = {}
    for r in table if train_counts is not None else ():
        buckets.setdefault(bucketize(train_counts.get(r, 0)), []).append(r)
    members = [buckets[b] for b in sorted(buckets)]

    def scores(docs):
        table = index.table(docs)
        return (*_prf(*_sums(table.values())), *_macro(table, macro_f1_mode), *per_bucket_f1(table, members))

    # one pass: every interval of the report comes from the same resamples
    cis = bootstrap_ci(range(len(pairs)), scores, n=n_bootstrap, level=level, seed=seed)
    names = ("precision", "recall", "f1")
    row_keys = ("bucket", "n_gold", "n_predicted", "f1_point", "f1_lower", "f1_upper")
    return {
        "micro": {name: dict(zip(("point", "lower", "upper"), ci)) for name, ci in zip(names, cis[:3])},
        "macro": {name: dict(zip(("point", "lower", "upper"), ci)) for name, ci in zip(names, cis[3:6])},
        "per_relation": {str(r): list(_prf(*row)) for r, row in table.items()},
        "per_bucket": [dict(zip(row_keys, (b, gold, predicted, *ci))) for b, (_, predicted, gold), ci
                       in zip(sorted(buckets), (_sums(table[r] for r in rs) for rs in members), cis[6:])],
        "n_bootstrap": n_bootstrap,
        "level": level,
        "seed": seed,
        "macro_f1_mode": macro_f1_mode,
        "conventions": ZERO_DENOMINATOR_CONVENTION,
    }
