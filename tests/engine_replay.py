"""Whole-sequence walks through a ``ConstraintEngine``, which only tests
make: the search advances one token at a time."""
from kgsynth.decoder import ConstraintError


def is_accepting(engine, state) -> bool:
    return engine.allowed_next(state)[1]


def replay(engine, tokens):
    """The state ``engine`` reaches from its initial state through ``tokens``."""
    state = engine.initial_state()
    for token in tokens:
        state = engine.advance(state, token)
    return state


def accepts(engine, tokens) -> bool:
    try:
        return is_accepting(engine, replay(engine, tokens))
    except ConstraintError:
        return False
