"""Constrained beam search.

Candidate expansion is restricted to the automaton's allowed-token sets, so
every emitted sequence is structurally valid and catalog-resolvable no matter
what the scorer prefers. Final ranking divides each hypothesis' summed token
log-probabilities (end-of-sequence included) by length**length_penalty.

Every score a scorer returns is at most 0, so a beam's summed score only
falls as it grows; once a hypothesis has finished, a beam whose best
reachable normalized score is below that hypothesis' is dropped unscored.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ..codec import Variant
from ..pipeline import ValidationError
from .constraints import ConstraintEngine, ConstraintState
from .scorers import Scorer

DEFAULT_LENGTH_PENALTY = {Variant.FE: 0.8, Variant.SC: 0.6}


@dataclass(frozen=True)
class DecodeParams:
    num_beams: int = 10
    length_penalty: float | None = None  # None: 0.8 for FE, 0.6 for SC
    max_length: int = 256  # emitted tokens, end-of-sequence not counted

    def __post_init__(self):
        if self.num_beams < 1:
            raise ValidationError("num_beams must be >= 1")
        if self.max_length < 1:
            raise ValidationError("max_length must be >= 1")
        # every length L <= max_length + 1 the search divides by then has a
        # finite L**length_penalty above 0
        length_penalty = max(DEFAULT_LENGTH_PENALTY.values()) if self.length_penalty is None else self.length_penalty
        try:
            finite = math.isfinite(float(self.max_length + 1) ** abs(length_penalty))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"length_penalty {length_penalty!r} is out of range for max_length {self.max_length}: "
                                  "(max_length + 1) ** |length_penalty| must be a finite float")

    def resolve_length_penalty(self, variant: Variant) -> float:
        if self.length_penalty is not None:
            return self.length_penalty
        return DEFAULT_LENGTH_PENALTY[variant]


@dataclass(frozen=True)
class DecodedSequence:
    tokens: tuple[int, ...]
    text: str
    score: float  # raw log-prob sum, end-of-sequence included when finished
    normalized_score: float
    finished: bool  # False: truncated at max_length tokens before reaching a terminal


@dataclass(frozen=True)
class _Beam:
    tokens: tuple[int, ...]
    score: float
    state: ConstraintState


def constrained_beam_search(
    scorer: Scorer,
    input_context: str,
    engine: ConstraintEngine,
    params: DecodeParams = DecodeParams(),
) -> DecodedSequence:
    """The best constrained hypothesis for one input context: the highest
    normalized score, then the smallest token sequence.

    Ties are broken in favor of the end-of-sequence candidate (a complete,
    automaton-accepted hypothesis beats an equal-scored continuation), then by
    token id ascending, then beam index, making the search fully deterministic
    for a deterministic scorer. The search runs until the beams are exhausted,
    hold max_length tokens (end-of-sequence not counted), or can no longer
    beat the best finished hypothesis, which needs the scorer's values to be
    at most 0. If no beam finishes within max_length tokens, the best partial
    hypothesis is returned with ``finished=False``.
    """
    length_penalty = params.resolve_length_penalty(engine.variant)
    eos_id = engine.eos_id
    beams = [_Beam((), 0.0, engine.initial_state())]
    best: tuple[float, tuple[int, ...], float] | None = None  # (-normalized score, tokens, score) of a finished one

    def ranked(tokens: tuple[int, ...], score: float, with_eos: bool) -> tuple[float, tuple[int, ...], float]:
        length = len(tokens) + (1 if with_eos else 0)
        return (-(score / (length**length_penalty) if length else score), tokens, score)

    # max_length bounds the emitted tokens; the step that may add the
    # end-of-sequence token after the last of them is one more
    for step in range(params.max_length + 1):
        if best is not None:
            # each beam holds `step` tokens and ends at a length L from step + 1
            # to max_length + 1 with a score of at most its own (<= 0), so its
            # normalized score is at most score / max(L**length_penalty), which
            # either end of that range gives. Only beams strictly below the best
            # go, so ties still resolve by tokens.
            normalizer = max((step + 1) ** length_penalty, (params.max_length + 1) ** length_penalty)
            beams = [b for b in beams if b.score / normalizer >= -best[0]]
        if not beams:
            break
        at_limit = step == params.max_length
        rows = scorer.score_many(input_context, [b.tokens for b in beams])
        candidates: list[tuple[float, int, int, int]] = []  # (-score, 0 for eos, token, beam): its sort key
        for bi, beam in enumerate(beams):
            allowed, eos_ok = engine.allowed_next(beam.state)
            row = rows[bi]
            if eos_ok:
                candidates.append((-(beam.score + float(row[eos_id])), 0, eos_id, bi))
            if not at_limit:
                for token in allowed:
                    candidates.append((-(beam.score + float(row[token])), 1, token, bi))
        next_beams: list[_Beam] = []
        for negated, eos_rank, token, bi in heapq.nsmallest(params.num_beams, candidates):
            parent = beams[bi]
            if eos_rank == 0:
                hypothesis = ranked(parent.tokens, -negated, True)
                best = hypothesis if best is None else min(best, hypothesis)
            else:
                next_beams.append(_Beam(parent.tokens + (token,), -negated, engine.advance(parent.state, token)))
        if not at_limit:
            beams = next_beams  # at the limit, unfinished beams stay as the truncated fallback

    if best is None:
        negated, tokens, score = min(ranked(b.tokens, b.score, False) for b in beams)
    else:
        negated, tokens, score = best
    return DecodedSequence(tokens, engine.tokenizer.decode(tokens), score, -negated, best is not None)
