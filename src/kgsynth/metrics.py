"""Evaluation suite: micro/macro precision/recall/F1 over predicted vs gold
triplet sets, percentile-bootstrap confidence intervals, relation-frequency
buckets, and relation-occurrence distribution statistics.

Zero-denominator convention (documented in every report): a score whose
denominator is 0 is 0 when the opposing side is non-empty, and 1 when both
sides are empty. Macro averages exclude relations absent from both gold and
predictions; macro-F1 defaults to the mean of per-relation F1 values.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

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


def _ratio(numerator: int, denominator: int, other_total: int) -> float:
    if denominator == 0:
        return 1.0 if other_total == 0 else 0.0
    return numerator / denominator


def micro_scores(pairs: Sequence[EvalPair]) -> tuple[float, float, float]:
    """Corpus-level precision/recall/F1 weighting every fact equally."""
    correct = sum(len(p.predicted & p.gold) for p in pairs)
    n_pred = sum(len(p.predicted) for p in pairs)
    n_gold = sum(len(p.gold) for p in pairs)
    precision = _ratio(correct, n_pred, n_gold)
    recall = _ratio(correct, n_gold, n_pred)
    return precision, recall, f1(precision, recall)


def _relation_of(fact) -> Hashable:
    return fact[1]


def per_relation_scores(pairs: Sequence[EvalPair]) -> dict[Hashable, tuple[float, float, float]]:
    """P/R/F1 per relation over the restricted per-relation fact sets.

    Relations with zero gold and zero predicted occurrences never appear;
    the others are keyed in sorted order.
    """
    correct: Counter = Counter()
    n_pred: Counter = Counter()
    n_gold: Counter = Counter()
    for p in pairs:
        for t in p.predicted:
            n_pred[_relation_of(t)] += 1
        for t in p.gold:
            n_gold[_relation_of(t)] += 1
        for t in p.predicted & p.gold:
            correct[_relation_of(t)] += 1
    out = {}
    # sorted, so that the macro sums do not follow the string hash seed
    for r in sorted(n_pred.keys() | n_gold.keys()):
        prec = _ratio(correct[r], n_pred[r], n_gold[r])
        rec = _ratio(correct[r], n_gold[r], n_pred[r])
        out[r] = (prec, rec, f1(prec, rec))
    return out


def macro_scores(
    pairs: Sequence[EvalPair],
    relation_catalog: Iterable[Hashable] | None = None,
    f1_mode: str = "mean_of_f1",
) -> tuple[float, float, float]:
    """Relation-averaged precision/recall/F1.

    Only relations occurring in gold or predictions enter the average (the
    catalog argument is accepted for interface symmetry; catalog members that
    never occur are excluded). ``f1_mode`` selects the mean of per-relation
    F1 values (default) or the harmonic mean of macro-P and macro-R.
    """
    if f1_mode not in ("mean_of_f1", "harmonic_of_means"):
        raise ValueError(f"unknown f1_mode {f1_mode!r}")
    table = per_relation_scores(pairs)
    if relation_catalog is not None:
        catalog = set(relation_catalog)
        unknown = set(table) - catalog
        if unknown:
            raise ValueError(f"relations outside the catalog: {sorted(map(str, unknown))[:5]}")
    if not table:
        return 1.0, 1.0, 1.0  # no facts anywhere: vacuously perfect, as in micro
    macro_p = sum(v[0] for v in table.values()) / len(table)
    macro_r = sum(v[1] for v in table.values()) / len(table)
    if f1_mode == "mean_of_f1":
        macro_f = sum(v[2] for v in table.values()) / len(table)
    else:
        macro_f = f1(macro_p, macro_r)
    return macro_p, macro_r, macro_f


def bootstrap_ci(
    pairs: Sequence[EvalPair],
    metric_fn: Callable[[Sequence[EvalPair]], float],
    n: int = 50,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Point estimate plus a percentile interval from ``n`` document-level
    resamples. Bounds use outward order statistics, so both are values the
    metric actually took on some resample."""
    if not pairs:
        raise ValueError("bootstrap requires at least one pair")
    point = metric_fn(pairs)
    rng = np.random.default_rng(seed)
    values = np.empty(n)
    for b in range(n):
        idx = rng.integers(0, len(pairs), size=len(pairs))
        values[b] = metric_fn([pairs[j] for j in idx])
    alpha = (1.0 - level) / 2.0
    lower = float(np.quantile(values, alpha, method="lower"))
    upper = float(np.quantile(values, 1.0 - alpha, method="higher"))
    return point, lower, upper


def bucketize(relation_count: int) -> int:
    """Bucket index i such that 2**i <= count < 2**(i+1); 0 maps to the
    dedicated unseen bucket."""
    if relation_count < 0:
        raise ValueError("count must be non-negative")
    if relation_count == 0:
        return UNSEEN_BUCKET
    return relation_count.bit_length() - 1


def _restrict(pair: EvalPair, keep: Callable[[Fact], bool]) -> EvalPair:
    return EvalPair(pair.doc_id, frozenset(t for t in pair.predicted if keep(t)), frozenset(t for t in pair.gold if keep(t)))


@dataclass
class BucketRow:
    bucket: int
    n_gold: int
    n_predicted: int
    f1_point: float
    f1_lower: float
    f1_upper: float


def per_bucket_f1(
    pairs: Sequence[EvalPair],
    train_counts: Mapping[Hashable, int],
    n_bootstrap: int = 50,
    level: float = 0.95,
    seed: int = 0,
) -> list[BucketRow]:
    """Micro-F1 within relation-frequency buckets derived from training-set
    occurrence counts; relations missing from ``train_counts`` fall into the
    unseen bucket."""
    if not pairs:
        return []
    bucket_of = lambda fact: bucketize(train_counts.get(_relation_of(fact), 0))
    buckets = sorted({bucket_of(t) for p in pairs for t in (p.predicted | p.gold)})
    rows = []
    for b in buckets:
        restricted = [_restrict(p, lambda t, b=b: bucket_of(t) == b) for p in pairs]
        point, lower, upper = bootstrap_ci(restricted, lambda ps: micro_scores(ps)[2], n=n_bootstrap, level=level, seed=seed)
        rows.append(
            BucketRow(
                bucket=b,
                n_gold=sum(len(p.gold) for p in restricted),
                n_predicted=sum(len(p.predicted) for p in restricted),
                f1_point=point,
                f1_lower=lower,
                f1_upper=upper,
            )
        )
    return rows


@dataclass
class RelationStats:
    counts: dict
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    cdf: list[tuple[int, float]]

    def summary(self) -> tuple[float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum)


def relation_stats(
    triplet_sets: Iterable[Iterable[Fact]],
    relation_catalog: Iterable[Hashable] | None = None,
) -> RelationStats:
    """Occurrence counts per relation with a five-number summary and CDF points.

    Counts cover every triplet of every set. With a catalog, relations that
    never occur are included with count 0; otherwise only observed relations
    enter the count vector.
    """
    counts: Counter = Counter()
    for triplets in triplet_sets:
        for t in triplets:
            counts[_relation_of(t)] += 1
    if relation_catalog is not None:
        for r in relation_catalog:
            counts.setdefault(r, 0)
    if not counts:
        raise ValueError("dataset contains no triplets")
    vec = np.sort(np.array(list(counts.values()), dtype=float))
    q = np.quantile(vec, [0.0, 0.25, 0.5, 0.75, 1.0])
    total = len(vec)
    cdf = [(int(c), float(np.searchsorted(vec, c, side="right")) / total) for c in sorted(set(int(v) for v in vec))]
    return RelationStats(dict(counts), float(q[0]), float(q[1]), float(q[2]), float(q[3]), float(q[4]), cdf)


@dataclass
class MetricsReport:
    """Full evaluation report: micro/macro point estimates with CIs, the
    per-relation table, optional per-bucket rows, and the conventions used."""

    micro: dict = field(default_factory=dict)
    macro: dict = field(default_factory=dict)
    per_relation: dict = field(default_factory=dict)
    per_bucket: list = field(default_factory=list)
    n_bootstrap: int = 50
    level: float = 0.95
    seed: int = 0
    macro_f1_mode: str = "mean_of_f1"
    conventions: str = ZERO_DENOMINATOR_CONVENTION

    def to_json_dict(self) -> dict:
        return {
            "micro": self.micro,
            "macro": self.macro,
            "per_relation": {str(k): list(v) for k, v in self.per_relation.items()},
            "per_bucket": [vars(row) for row in self.per_bucket],
            "n_bootstrap": self.n_bootstrap,
            "level": self.level,
            "seed": self.seed,
            "macro_f1_mode": self.macro_f1_mode,
            "conventions": self.conventions,
        }


def evaluate(
    pairs: Sequence[EvalPair],
    n_bootstrap: int = 50,
    level: float = 0.95,
    seed: int = 0,
    macro_f1_mode: str = "mean_of_f1",
    train_counts: Mapping[Hashable, int] | None = None,
) -> MetricsReport:
    """Compute the full report over evaluation pairs."""
    report = MetricsReport(n_bootstrap=n_bootstrap, level=level, seed=seed, macro_f1_mode=macro_f1_mode)
    for i, name in enumerate(("precision", "recall", "f1")):
        point, lower, upper = bootstrap_ci(pairs, lambda ps, i=i: micro_scores(ps)[i], n=n_bootstrap, level=level, seed=seed)
        report.micro[name] = {"point": point, "lower": lower, "upper": upper}
        point, lower, upper = bootstrap_ci(
            pairs, lambda ps, i=i: macro_scores(ps, f1_mode=macro_f1_mode)[i], n=n_bootstrap, level=level, seed=seed
        )
        report.macro[name] = {"point": point, "lower": lower, "upper": upper}
    report.per_relation = per_relation_scores(pairs)
    if train_counts is not None:
        report.per_bucket = per_bucket_f1(pairs, train_counts, n_bootstrap=n_bootstrap, level=level, seed=seed)
    return report
