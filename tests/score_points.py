"""Micro and macro scores of a list of pairs, which only tests compute on
their own: each reads the count table ``metrics.evaluate`` reads its point
estimates from, ``CountIndex(pairs).table`` over every document."""
from kgsynth import metrics


def relation_counts(pairs):
    """``relation -> (correct, predicted, gold)`` fact counts over all pairs."""
    return metrics.CountIndex(pairs).table(range(len(pairs)))


def micro_scores(pairs):
    """Corpus-level precision/recall/F1 weighting every fact equally."""
    return metrics._prf(*metrics._sums(relation_counts(pairs).values()))


def macro_scores(pairs, f1_mode="mean_of_f1"):
    """Relation-averaged precision/recall/F1 over the relations that occur."""
    return metrics._macro(relation_counts(pairs), f1_mode)
