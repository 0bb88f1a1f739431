"""Constrained beam search without pruning, which only tests run: every live
beam is scored at every step until the beams run out or hold max_length
tokens. ``constrained_beam_search`` must return what this returns."""
import heapq

from kgsynth.decoder import DecodedSequence, DecodeParams


def reference_beam_search(scorer, input_context, engine, params=DecodeParams()) -> DecodedSequence:
    length_penalty = params.resolve_length_penalty(engine.variant)
    eos_id = engine.eos_id
    beams = [((), 0.0, engine.initial_state())]  # (tokens, score, state)
    best = None  # (-normalized score, tokens, score) of a finished one

    def ranked(tokens, score, with_eos):
        length = len(tokens) + (1 if with_eos else 0)
        return (-(score / (length**length_penalty) if length else score), tokens, score)

    for step in range(params.max_length + 1):
        if not beams:
            break
        at_limit = step == params.max_length
        rows = scorer.score_many(input_context, [tokens for tokens, _, _ in beams])
        candidates = []  # (-score, 0 for eos, token, beam)
        for bi, (_, score, state) in enumerate(beams):
            allowed, eos_ok = engine.allowed_next(state)
            row = rows[bi]
            if eos_ok:
                candidates.append((-(score + float(row[eos_id])), 0, eos_id, bi))
            if not at_limit:
                for token in allowed:
                    candidates.append((-(score + float(row[token])), 1, token, bi))
        next_beams = []
        for negated, eos_rank, token, bi in heapq.nsmallest(params.num_beams, candidates):
            tokens, _, state = beams[bi]
            if eos_rank == 0:
                hypothesis = ranked(tokens, -negated, True)
                best = hypothesis if best is None else min(best, hypothesis)
            else:
                next_beams.append((tokens + (token,), -negated, engine.advance(state, token)))
        if not at_limit:
            beams = next_beams

    if best is None:
        negated, tokens, score = min(ranked(tokens, score, False) for tokens, score, _ in beams)
    else:
        negated, tokens, score = best
    return DecodedSequence(tokens, engine.tokenizer.decode(tokens), score, -negated, best is not None)
