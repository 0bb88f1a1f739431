"""Constrained beam search.

Candidate expansion is restricted to the automaton's allowed-token sets, so
every emitted sequence is structurally valid and catalog-resolvable no matter
what the scorer prefers. Final ranking divides each hypothesis' summed token
log-probabilities (end-of-sequence included) by length**length_penalty.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..codec import Variant
from .constraints import ConstraintEngine, ConstraintState
from .scorers import Scorer

DEFAULT_LENGTH_PENALTY = {Variant.FE: 0.8, Variant.SC: 0.6}
DEFAULT_NUM_BEAMS = 10


@dataclass(frozen=True)
class DecodeParams:
    num_beams: int = DEFAULT_NUM_BEAMS
    length_penalty: float | None = None  # None: 0.8 for FE, 0.6 for SC
    max_length: int = 256  # emitted tokens, end-of-sequence not counted
    top_k_returned: int = 1

    def __post_init__(self):
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if not (1 <= self.top_k_returned <= self.num_beams):
            raise ValueError("top_k_returned must lie in [1, num_beams]")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")

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
) -> list[DecodedSequence]:
    """Top-k constrained hypotheses for one input context.

    Ties are broken in favor of the end-of-sequence candidate (a complete,
    automaton-accepted hypothesis beats an equal-scored continuation), then by
    token id ascending, then beam index, making the search fully deterministic
    for a deterministic scorer. The search runs until the beams are exhausted
    or hold max_length tokens (end-of-sequence not counted); finished
    hypotheses are pooled and pruned by normalized score. If no beam finishes
    within max_length tokens, the best partial hypotheses are returned with
    ``finished=False``.
    """
    length_penalty = params.resolve_length_penalty(engine.schema.variant)
    eos_id = engine.eos_id
    beams = [_Beam((), 0.0, engine.initial_state())]
    finished: list[tuple[tuple[int, ...], float]] = []

    def normalized(tokens: tuple[int, ...], score: float, with_eos: bool) -> float:
        length = len(tokens) + (1 if with_eos else 0)
        return score / (length**length_penalty) if length else score

    # max_length bounds the emitted tokens; the step that may add the
    # end-of-sequence token after the last of them is one more
    for step in range(params.max_length + 1):
        if not beams:
            break
        at_limit = step == params.max_length
        rows = scorer.score_many(input_context, [b.tokens for b in beams])
        candidates: list[tuple[float, int, int, int]] = []  # (score, 0 for eos, token, beam)
        for bi, beam in enumerate(beams):
            allowed, eos_ok = engine.allowed_next(beam.state)
            row = rows[bi]
            if eos_ok:
                candidates.append((beam.score + float(row[eos_id]), 0, eos_id, bi))
            if not at_limit:
                for token in allowed:
                    candidates.append((beam.score + float(row[token]), 1, token, bi))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
        next_beams: list[_Beam] = []
        for score, eos_rank, token, bi in candidates[: params.num_beams]:
            parent = beams[bi]
            if eos_rank == 0:
                finished.append((parent.tokens, score))
            else:
                next_beams.append(_Beam(parent.tokens + (token,), score, engine.advance(parent.state, token)))
        if not at_limit:
            beams = next_beams  # at the limit, unfinished beams stay as the truncated fallback
        if len(finished) > params.num_beams:
            finished.sort(key=lambda f: (-normalized(f[0], f[1], True), f[0]))
            finished = finished[: params.num_beams]

    if finished:
        pool = [
            DecodedSequence(toks, engine.tokenizer.decode(toks), score, normalized(toks, score, True), True)
            for toks, score in finished
        ]
    else:
        pool = [
            DecodedSequence(b.tokens, engine.tokenizer.decode(b.tokens), b.score, normalized(b.tokens, b.score, False), False)
            for b in beams
        ]
    pool.sort(key=lambda d: (-d.normalized_score, d.tokens))
    return pool[: params.top_k_returned]
