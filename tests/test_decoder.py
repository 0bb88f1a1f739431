import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsynth
from kgsynth import cli, codec
from kgsynth.codec import END, START_OBJECT, START_RELATION, START_SUBJECT, Variant
from kgsynth.decoder import (
    ByteTokenizer,
    CatalogTrie,
    ConstraintEngine,
    ConstraintError,
    ConstraintState,
    DecodeParams,
    DEFAULT_LENGTH_PENALTY,
    ScorerError,
    SubprocessScorer,
    Tokenizer,
    UniformScorer,
    WordPieceTokenizer,
    build_trie,
    constrained_beam_search,
)
from kgsynth.decoder import scorers
from kgsynth.pipeline import ValidationError

from beam_reference import reference_beam_search
from engine_replay import accepts, is_accepting, replay
from fake_scorers import AdversarialScorer, CountingScorer, OracleScorer, TiedScorer

FE = Variant.FE
SC = Variant.SC

DELIM_PIECES = ["[s] ", " [s] ", " [r] ", " [o] ", " [e]"]


def toy_world(entities, relations):
    """Single-token word-piece tokenizer + engine over a toy catalog."""
    tokenizer = WordPieceTokenizer(DELIM_PIECES + entities + relations)
    entity_trie = build_trie(entities, tokenizer)
    relation_trie = build_trie(relations, tokenizer)
    return tokenizer, entity_trie, relation_trie


ENTITIES = ["Ada", "Bob", "Computer", "Lab", "Zuse"]
RELATIONS = ["knows", "works at", "built"]


@pytest.fixture
def fe_engine():
    tokenizer, et, rt = toy_world(ENTITIES, RELATIONS)
    return ConstraintEngine(FE, tokenizer, et, rt)


@pytest.fixture
def sc_engine():
    tokenizer, et, rt = toy_world(ENTITIES, RELATIONS)
    return ConstraintEngine(SC, tokenizer, et, rt)


# --- tokenizers ---

def test_byte_tokenizer_round_trip():
    tok = ByteTokenizer()
    for text in ("plain ascii", "Zürich [r] text", "日本語"):
        assert tok.decode(tok.try_encode(text)) == text
    assert tok.vocab_size == 257
    assert tok.eos_id == 256


def test_wordpiece_greedy_longest_match():
    tok = WordPieceTokenizer(["New", " York", "ark", "New York City"])
    assert tok.decode(tok.try_encode("New York")) == "New York"
    assert tok.try_encode("New York City") == [tok.piece_ids["New York City"]]
    assert tok.try_encode("Newark") == [tok.piece_ids["New"], tok.piece_ids["ark"]]


def test_wordpiece_encode_failure():
    tok = WordPieceTokenizer(["a", "b"])
    assert tok.try_encode("abc") is None


def test_wordpiece_rejects_bad_vocab():
    with pytest.raises(ValueError):
        WordPieceTokenizer([])
    with pytest.raises(ValueError):
        WordPieceTokenizer(["a", "a"])


def trie_labels(trie, tokenizer):
    """Every root-to-terminal path of ``trie``, decoded by ``tokenizer``, sorted."""
    labels, stack = [], [(trie.root, ())]
    while stack:
        node, path = stack.pop()
        if node.terminal:
            labels.append(tokenizer.decode(path))
        stack.extend((child, path + (token,)) for token, child in node.children.items())
    return sorted(labels)


# build_trie leaves out, and counts, the labels the tokenizer cannot encode

def test_filter_tokenizable_drops_unencodable():
    ascii_pieces = [chr(c) for c in range(32, 127)]
    tok = WordPieceTokenizer(ascii_pieces)
    trie = build_trie(["Zurich", "Zürich", ""], tok)  # the empty label tokenizes to nothing
    assert trie_labels(trie, tok) == ["Zurich"]
    assert trie.dropped == {"duplicate": 0, "not_tokenizable": 2}


def test_filter_tokenizable_identity_when_all_encodable():
    tok = ByteTokenizer()
    labels = ["anything", "Zürich", "日本語"]
    trie = build_trie(labels, tok)
    assert trie_labels(trie, tok) == sorted(labels)
    assert trie.dropped == {"duplicate": 0, "not_tokenizable": 0}


def test_filter_tokenizable_counts():
    ascii_pieces = [chr(c) for c in range(32, 127)]
    tok = WordPieceTokenizer(ascii_pieces)
    labels = [f"label {i}" for i in range(93)] + [f"label {i} é" for i in range(7)]
    trie = build_trie(labels, tok)
    assert trie.n_entries == 93 and trie.dropped["not_tokenizable"] == 7


# --- tries ---

def test_trie_shares_prefix_nodes():
    tok = WordPieceTokenizer(["New", " York", "ark"])
    trie = build_trie(["New York", "Newark"], tok)
    new_id = tok.piece_ids["New"]
    assert set(trie.root.children) == {new_id}
    node = trie.root.children[new_id]
    assert set(node.children) == {tok.piece_ids[" York"], tok.piece_ids["ark"]}
    assert all(child.terminal for child in node.children.values())
    assert trie.n_entries == 2
    assert trie_labels(trie, tok) == ["New York", "Newark"]


def test_trie_empty_catalog_is_error():
    with pytest.raises(ValueError):
        build_trie([], ByteTokenizer())


def test_trie_singleton_path():
    tok = ByteTokenizer()
    trie = build_trie(["solo"], tok)
    assert trie_labels(trie, tok) == ["solo"]


def test_trie_duplicate_keeps_first_and_counts():
    tok = WordPieceTokenizer(["a", "b", "ab"])
    trie = build_trie(["ab", "b", "ab"], tok)
    assert trie.n_entries == 2
    assert trie.dropped == {"duplicate": 1, "not_tokenizable": 0}
    assert trie_labels(trie, tok) == ["ab", "b"]


def test_trie_nodes_are_expanded_once():
    tok = ByteTokenizer()
    trie = build_trie(["ab", "abc", "b"], tok)
    assert trie.root.children is trie.root.children

    def walk(text):
        node, nodes = trie.root, []
        for token in tok.try_encode(text):
            node = node.children[token]
            nodes.append(node)
        return nodes

    first = walk("abc")
    assert [node.terminal for node in first] == [False, True, True]
    assert all(again is node for again, node in zip(walk("abc"), first, strict=True))


# --- the dict trie, as the reference ---

# the trie as it was before it became a sorted entry list: one node, with a
# dict, per token position of every entry, all built up front

class ReferenceTrieNode:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[int, ReferenceTrieNode] = {}
        self.terminal = False


class ReferenceTrie:
    def __init__(self):
        self.root = ReferenceTrieNode()
        self.n_entries = 0
        self.dropped = {"duplicate": 0, "not_tokenizable": 0}  # labels build_trie left out

    def insert(self, token_ids: Iterable[int]) -> bool:
        node = self.root
        for tok in token_ids:
            node = node.children.setdefault(tok, ReferenceTrieNode())
        if node.terminal:
            return False
        node.terminal = True
        self.n_entries += 1
        return True


def build_reference_trie(catalog: Iterable[str], tokenizer: Tokenizer) -> ReferenceTrie:
    trie = ReferenceTrie()
    for label in catalog:
        ids = tokenizer.try_encode(label)
        if not ids:
            trie.dropped["not_tokenizable"] += 1
        elif not trie.insert(ids):
            trie.dropped["duplicate"] += 1
    if trie.n_entries == 0:
        raise ValidationError("cannot build a trie over an empty catalog")
    return trie


# labels from pieces the word-piece vocabulary below lacks ("é", a tab) or
# holds, then each of the first labels' prefixes (the empty one included)
# and a repeat of the first two
TRIE_LABELS = st.lists(st.lists(st.sampled_from(["a", "b", "ab", " ", "é", "\t"]), max_size=4).map("".join), max_size=12)
TRIE_CATALOGS = TRIE_LABELS.map(
    lambda labels: labels + [label[:k] for label in labels[:3] for k in range(len(label))] + labels[:2])


@given(catalog=TRIE_CATALOGS, tokenizer=st.sampled_from([ByteTokenizer(), WordPieceTokenizer(["a", "b", "ab", " ", "ba"])]))
@settings(max_examples=300, deadline=None)
def test_trie_matches_reference_node_by_node(catalog, tokenizer):
    try:
        expected = build_reference_trie(catalog, tokenizer)
    except ValidationError:
        with pytest.raises(ValidationError):
            build_trie(catalog, tokenizer)
        return
    trie = build_trie(catalog, tokenizer)
    assert (trie.n_entries, trie.dropped) == (expected.n_entries, expected.dropped)
    stack = [(trie.root, expected.root)]
    while stack:
        node, reference = stack.pop()
        assert node.terminal == reference.terminal
        assert set(node.children) == set(reference.children)
        stack.extend((node.children[token], child) for token, child in reference.children.items())


# --- constraint automaton ---

def test_allowed_next_in_entity(fe_engine):
    tok = fe_engine.tokenizer
    state = fe_engine.initial_state()
    allowed, eos = fe_engine.allowed_next(state)
    assert allowed == {tok.piece_ids["[s] "]} and not eos
    state = fe_engine.advance(state, tok.piece_ids["[s] "])
    allowed, eos = fe_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[e] for e in ENTITIES} and not eos


def test_allowed_next_expect_relation(fe_engine):
    tok = fe_engine.tokenizer
    state = replay(fe_engine, [tok.piece_ids["[s] "], tok.piece_ids["Ada"]])
    allowed, eos = fe_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[" [r] "]} and not eos


def test_allowed_next_after_end_fe(fe_engine):
    tok = fe_engine.tokenizer
    prefix = [tok.piece_ids[p] for p in ("[s] ", "Ada", " [r] ", "knows", " [o] ", "Bob", " [e]")]
    state = replay(fe_engine, prefix)
    allowed, eos = fe_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[" [s] "]}
    assert eos
    assert is_accepting(fe_engine, state)


def test_allowed_next_after_end_sc(sc_engine):
    tok = sc_engine.tokenizer
    prefix = [tok.piece_ids[p] for p in ("[s] ", "Ada", " [r] ", "knows", " [o] ", "Bob", " [e]")]
    state = replay(sc_engine, prefix)
    allowed, eos = sc_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[" [s] "], tok.piece_ids[" [r] "]}
    assert eos
    # carrying the subject: continue with a relation-object unit
    state = sc_engine.advance(state, tok.piece_ids[" [r] "])
    allowed, _ = sc_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[r] for r in RELATIONS}


def test_each_state_table_is_built_once(fe_engine):
    tok = fe_engine.tokenizer
    state = replay(fe_engine, [tok.piece_ids["[s] "]])
    equal = ConstraintState(frozenset(set(state.configs)))
    assert equal == state and equal.configs is not state.configs
    assert fe_engine.allowed_next(equal) is fe_engine.allowed_next(state)
    ada = tok.piece_ids["Ada"]
    assert fe_engine.advance(state, ada) is fe_engine.advance(equal, ada)


def test_advance_rejects_disallowed_token(fe_engine):
    tok = fe_engine.tokenizer
    state = fe_engine.initial_state()
    with pytest.raises(ConstraintError):
        fe_engine.advance(state, tok.piece_ids["Ada"])


def test_paper_example_walks_to_acceptance():
    tok = ByteTokenizer()
    entities = ["Mount_Lanning", "Sentinel_Range", "Newcomer_Glacier", "Mountain"]
    relations = ["instance of", "mountain range"]
    engine = ConstraintEngine(FE, tok, build_trie(entities, tok), build_trie(relations, tok))
    text = (
        "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
        " [s] Mount_Lanning [r] mountain range [o] Sentinel_Range [e]"
        " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
    )
    assert accepts(engine, tok.try_encode(text))
    engine_sc = ConstraintEngine(SC, tok, build_trie(entities, tok), build_trie(relations, tok))
    text_sc = (
        "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
        " [r] mountain range [o] Sentinel_Range [e]"
        " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
    )
    assert accepts(engine_sc, tok.try_encode(text_sc))


def test_byte_level_relation_space_ambiguity():
    # "instance" is a prefix of "instance of" and the object delimiter starts
    # with the same space byte: the automaton must keep both readings alive
    tok = ByteTokenizer()
    engine = ConstraintEngine(FE, tok, build_trie(["A", "B"], tok), build_trie(["instance", "instance of"], tok))
    for rel in ("instance", "instance of"):
        assert accepts(engine, tok.try_encode(f"[s] A [r] {rel} [o] B [e]"))


def test_every_reachable_state_has_options(fe_engine):
    # random walks through the automaton can always continue or stop
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = fe_engine.initial_state()
        for _step in range(30):
            allowed, eos = fe_engine.allowed_next(state)
            assert allowed or eos
            state = fe_engine.advance(state, int(rng.choice(sorted(allowed))))


# --- completeness ---

def enumerate_toy_sets(entities, relations, max_triplets=2):
    singles = list(itertools.product(entities, relations, entities))
    for t in singles:
        yield [t]
    for a, b in itertools.combinations(singles, 2):
        yield [a, b]


def test_completeness_exhaustive_toy_world():
    entities, relations = ENTITIES, RELATIONS
    tokenizer, et, rt = toy_world(entities, relations)
    engines = {
        Variant.FE: ConstraintEngine(FE, tokenizer, et, rt),
        Variant.SC: ConstraintEngine(SC, tokenizer, et, rt),
    }
    checked = 0
    for triplets in enumerate_toy_sets(entities, relations):
        for variant, engine in engines.items():
            text = codec.linearize(triplets, variant)
            ids = tokenizer.try_encode(text)
            assert ids is not None
            assert accepts(engine, ids), text
        checked += 1
    assert checked > 2800


# --- beam search ---

def test_uniform_scorer_returns_a_valid_sequence(fe_engine):
    scorer = UniformScorer(fe_engine.tokenizer.vocab_size)
    best = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=4, max_length=40))
    assert best.finished
    assert accepts(fe_engine, best.tokens)
    parsed = codec.parse(best.text, FE, entity_catalog=ENTITIES, relation_catalog=RELATIONS)
    assert parsed.triplets and parsed.dropped_fragments == 0 and parsed.dropped_unresolvable == 0


def test_adversarial_scorer_cannot_escape_catalog(fe_engine):
    # all probability mass on a token that is never a legal continuation here
    favored = fe_engine.tokenizer.piece_ids[" [e]"]
    scorer = AdversarialScorer(fe_engine.tokenizer.vocab_size, favored)
    best = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=2, max_length=40))
    assert best.finished
    parsed = codec.parse(best.text, FE, entity_catalog=ENTITIES, relation_catalog=RELATIONS)
    assert parsed.triplets and parsed.dropped_unresolvable == 0


def test_oracle_scorer_target_ranked_first():
    entities, relations = ["Ada", "Bob", "Lab"], ["knows", "runs"]
    tokenizer, et, rt = toy_world(entities, relations)
    engine = ConstraintEngine(FE, tokenizer, et, rt)
    target_text = codec.linearize([("Bob", "runs", "Lab")], FE)
    target = tuple(tokenizer.try_encode(target_text))
    scorer = OracleScorer(tokenizer.vocab_size, target, tokenizer.eos_id)
    best = constrained_beam_search(scorer, "", engine, DecodeParams(num_beams=4, max_length=30))
    assert best.tokens == target
    assert best.text == target_text
    # exhaustive cross-check: no single-triplet linearization scores higher
    best_alternative = max(
        (
            sum(scorer.score_many("", [tuple(tokenizer.try_encode(codec.linearize([t], FE)))[:i]])[0][tok]
                for i, tok in enumerate(tokenizer.try_encode(codec.linearize([t], FE))))
            for t in itertools.product(entities, relations, entities)
            if codec.linearize([t], FE) != target_text
        ),
    )
    assert best_alternative < best.score


def test_single_beam_equals_greedy(fe_engine):
    scorer = OracleScorer(
        fe_engine.tokenizer.vocab_size,
        tuple(fe_engine.tokenizer.try_encode(codec.linearize([("Ada", "knows", "Bob")], FE))),
        fe_engine.tokenizer.eos_id,
    )

    def reference_greedy(max_length):
        state = fe_engine.initial_state()
        tokens = ()
        for _ in range(max_length):
            allowed, eos_ok = fe_engine.allowed_next(state)
            row = scorer.score_many("", [tokens])[0]
            candidates = []
            if eos_ok:
                candidates.append((row[fe_engine.eos_id], 0, fe_engine.eos_id))
            for t in sorted(allowed):
                candidates.append((row[t], 1, t))
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            _, eos_rank, token = candidates[0]
            if eos_rank == 0:
                return tokens, True
            state = fe_engine.advance(state, token)
            tokens += (token,)
        return tokens, False

    expected_tokens, expected_finished = reference_greedy(40)
    result = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=1, max_length=40))
    assert result.tokens == expected_tokens
    assert result.finished == expected_finished


def test_zero_length_penalty_is_raw_sum_ranking(fe_engine):
    scorer = UniformScorer(fe_engine.tokenizer.vocab_size)
    best = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=4, max_length=40, length_penalty=0.0))
    assert best.normalized_score == best.score


def test_target_of_exactly_max_length_tokens_finishes():
    # max_length bounds the emitted tokens; the end-of-sequence step is extra
    tokenizer, et, rt = toy_world(ENTITIES, RELATIONS)
    engine = ConstraintEngine(FE, tokenizer, et, rt)
    target = tuple(tokenizer.try_encode(codec.linearize([("Zuse", "built", "Computer")], FE)))
    scorer = OracleScorer(tokenizer.vocab_size, target, tokenizer.eos_id)
    best = constrained_beam_search(scorer, "", engine, DecodeParams(num_beams=2, max_length=len(target)))
    assert best.tokens == target
    assert best.finished
    shorter = constrained_beam_search(scorer, "", engine, DecodeParams(num_beams=2, max_length=len(target) - 1))
    assert len(shorter.tokens) == len(target) - 1 and not shorter.finished


def test_truncation_flag_when_max_length_too_small(fe_engine):
    scorer = UniformScorer(fe_engine.tokenizer.vocab_size)
    assert not constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=2, max_length=3)).finished


def test_decode_params_defaults_and_validation():
    params = DecodeParams()
    assert params.num_beams == 10
    assert params.resolve_length_penalty(Variant.FE) == 0.8
    assert params.resolve_length_penalty(Variant.SC) == 0.6
    assert DEFAULT_LENGTH_PENALTY == {Variant.FE: 0.8, Variant.SC: 0.6}
    with pytest.raises(ValueError):
        DecodeParams(num_beams=0)


def test_soundness_finished_outputs_fully_parse(sc_engine):
    rng = np.random.default_rng(123)
    scorer = UniformScorer(sc_engine.tokenizer.vocab_size)
    for seed in range(20):
        best = constrained_beam_search(scorer, f"ctx{seed}", sc_engine, DecodeParams(num_beams=3, max_length=50))
        if best.finished:
            parsed = codec.parse(best.text, SC, entity_catalog=ENTITIES, relation_catalog=RELATIONS)
            assert parsed.dropped_fragments == 0
            assert parsed.dropped_unresolvable == 0
            assert parsed.triplets


# --- pruning: the search stops scoring beams that cannot beat a finished one ---

def byte_engine(variant):
    tokenizer = ByteTokenizer()
    return ConstraintEngine(variant, tokenizer, build_trie(["Ada", "Bo"], tokenizer), build_trie(["knows"], tokenizer))


SEARCH_ENGINES = [ConstraintEngine(v, *toy_world(ENTITIES, RELATIONS)) for v in (FE, SC)] + [byte_engine(v) for v in (FE, SC)]


@given(
    engine=st.sampled_from(SEARCH_ENGINES),
    seed=st.integers(0, 2**32),
    # a few values, so that scores tie, or any at most 0
    values=st.lists(st.sampled_from([0.0, -0.5, -1.0, -2.0, -4.0]) | st.floats(-8.0, 0.0), min_size=2, max_size=5),
    num_beams=st.integers(1, 10),
    length_penalty=st.none() | st.just(0.0) | st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    max_length=st.integers(1, 80),  # short ones truncate
)
# every score ties: a beam whose bound equals the best finished score may
# still finish ahead of it on tokens, so it is kept
@example(engine=SEARCH_ENGINES[2], seed=0, values=[0.0, 0.0], num_beams=4, length_penalty=None, max_length=28)
# a negative length penalty: the bound is taken at step + 1 tokens
@example(engine=SEARCH_ENGINES[2], seed=0, values=[0.0, -0.5], num_beams=3, length_penalty=-3.0, max_length=31)
@settings(max_examples=300, deadline=None)
def test_pruned_search_returns_what_the_unpruned_one_does(engine, seed, values, num_beams, length_penalty, max_length):
    params = DecodeParams(num_beams=num_beams, length_penalty=length_penalty, max_length=max_length)
    rows = TiedScorer(engine.tokenizer.vocab_size, seed, values)
    pruned, unpruned = CountingScorer(rows), CountingScorer(rows)
    assert constrained_beam_search(pruned, "", engine, params) == reference_beam_search(unpruned, "", engine, params)
    assert pruned.prefixes <= unpruned.prefixes


def test_search_stops_one_step_after_the_oracle_target_ends():
    tokenizer, et, rt = toy_world(ENTITIES, RELATIONS)
    engine = ConstraintEngine(FE, tokenizer, et, rt)
    target = tuple(tokenizer.try_encode(codec.linearize([("Ada", "knows", "Bob"), ("Bob", "works at", "Lab")], FE)))
    scorer = CountingScorer(OracleScorer(tokenizer.vocab_size, target, tokenizer.eos_id))
    unpruned = CountingScorer(scorer.inner)
    params = DecodeParams(num_beams=4, max_length=40)
    best = constrained_beam_search(scorer, "", engine, params)
    assert best == reference_beam_search(unpruned, "", engine, params) and best.tokens == target
    # steps 0..len(target); the one after the target's end-of-sequence finds
    # every beam below its score 0 and scores nothing
    assert len(target) == 14 and scorer.calls == 15 and scorer.prefixes == 50
    assert unpruned.calls == 22 and unpruned.prefixes == 76


def largest_length_penalty(max_length):
    """The largest float ``p`` for which ``float(max_length + 1) ** p`` is finite."""
    def finite(p):
        try:
            return math.isfinite(float(max_length + 1) ** p)
        except OverflowError:
            return False

    p = math.log(sys.float_info.max) / math.log(max_length + 1)
    while not finite(p):
        p = math.nextafter(p, 0)
    while finite(math.nextafter(p, math.inf)):
        p = math.nextafter(p, math.inf)
    return p


@pytest.mark.parametrize("length_penalty", [150.0, -150.0])
def test_length_penalty_whose_bound_overflows_is_refused(length_penalty):
    with pytest.raises(OverflowError):
        258.0 ** abs(length_penalty)
    with pytest.raises(ValidationError, match=rf"length_penalty {length_penalty} .*max_length 257"):
        DecodeParams(length_penalty=length_penalty, max_length=257)
    sign, largest = math.copysign(1, length_penalty), largest_length_penalty(257)
    assert DecodeParams(length_penalty=sign * largest, max_length=257).length_penalty == sign * largest
    with pytest.raises(ValidationError):
        DecodeParams(length_penalty=sign * math.nextafter(largest, math.inf), max_length=257)


@pytest.mark.parametrize("sign", [1, -1])
def test_truncating_search_at_the_largest_accepted_length_penalty(sign):
    # no hypothesis finishes within 200 bytes, so every beam is ranked at length 200
    tokenizer = ByteTokenizer()
    engine = ConstraintEngine(FE, tokenizer, build_trie(["a" * 300, "b" * 300], tokenizer), build_trie(["knows"], tokenizer))
    params = DecodeParams(num_beams=3, length_penalty=sign * largest_length_penalty(200), max_length=200)
    scorer = TiedScorer(tokenizer.vocab_size, seed=5, values=[-1.0, -2.5])
    best = constrained_beam_search(scorer, "", engine, params)
    assert not best.finished and len(best.tokens) == 200
    assert best == reference_beam_search(scorer, "", engine, params)


# one plain label, so that decode has something to admit, and labels built
# from pieces that can break a linearization: delimiters, parts of them,
# underscores, and spaces and tabs anywhere in the label
LABEL_PIECES = ["a", "b", "o", "_", " ", "\t", "[", "]", "[o]", "[e]", "[s]", "[r]"]
CATALOGS = st.builds(
    lambda plain, labels: list(dict.fromkeys([plain, *labels])),
    st.text("ab", min_size=1, max_size=3),
    st.lists(st.lists(st.sampled_from(LABEL_PIECES), max_size=4).map("".join), max_size=6),
)
# the word-piece vocabulary has no tab, so a label holding one does not tokenize
TOKENIZERS = [ByteTokenizer(), WordPieceTokenizer(DELIM_PIECES + ["a", "b", "o", "_", " ", "[", "]"])]


@given(
    entities=CATALOGS,
    relations=CATALOGS,
    schema=st.sampled_from([FE, SC]),
    tokenizer=st.sampled_from(TOKENIZERS),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_every_walk_to_eos_parses_into_catalog_triplets(entities, relations, schema, tokenizer, rng):
    entity_trie, _ = cli.catalog_trie(entities, tokenizer, entity=True)
    relation_trie, _ = cli.catalog_trie(relations, tokenizer, entity=False)
    engine = ConstraintEngine(schema, tokenizer, entity_trie, relation_trie)
    state, tokens = engine.initial_state(), []
    while True:
        allowed, eos_ok = engine.allowed_next(state)
        if eos_ok and rng.random() < 0.5:
            break
        token = rng.choice(sorted(allowed))
        tokens.append(token)
        state = engine.advance(state, token)
    text = tokenizer.decode(tokens)
    parsed = codec.parse(text, schema, entity_catalog=entities, relation_catalog=relations)
    assert parsed.triplets, text
    assert parsed.dropped_unresolvable == 0 and parsed.dropped_fragments == 0, text
    for s, r, o in parsed.triplets:
        for surface in (codec.entity_surface(s), r, codec.entity_surface(o)):
            assert surface in text


# --- the automaton of delimiter chains and catalog tries, as the reference ---

# the engine as it was before every phase became a trie: three kinds of
# config, each with its own transition code
Config = tuple  # ("delim", chain_name, pos) | ("trie", phase, node) | ("after_e",)




@dataclass(frozen=True)
class ReferenceState:
    configs: frozenset

    @property
    def structural_phase(self) -> str:
        """Human-readable summary of the live interpretations."""
        names = []
        for cfg in sorted(self.configs, key=repr):
            if cfg[0] == "trie":
                names.append(f"in-{cfg[1]}")
            elif cfg[0] == "delim":
                names.append(f"expect-{cfg[1]}[{cfg[2]}]")
            else:
                names.append("after-end")
        return "|".join(names)


class ReferenceEngine:
    """Allowed-token oracle for one variant, tokenizer, and catalog trie pair."""

    def __init__(
        self,
        variant: Variant,
        tokenizer: Tokenizer,
        entity_trie: CatalogTrie,
        relation_trie: CatalogTrie,
    ):
        self.variant = variant
        self.tokenizer = tokenizer
        self.entity_trie = entity_trie
        self.relation_trie = relation_trie
        self.eos_id = tokenizer.eos_id

        def chain(text: str) -> tuple[int, ...]:
            ids = tokenizer.try_encode(text)
            if not ids:
                raise ConstraintError(f"delimiter segment {text!r} is not tokenizable")
            return tuple(ids)

        self._chains: dict[str, tuple[int, ...]] = {
            "s_first": chain(START_SUBJECT + " "),
            "s_next": chain(" " + START_SUBJECT + " "),
            "r": chain(" " + START_RELATION + " "),
            "o": chain(" " + START_OBJECT + " "),
            "e": chain(" " + END),
        }
        self._chain_target = {
            "s_first": "subject",
            "s_next": "subject",
            "r": "relation",
            "o": "object",
            "e": "after_e",
        }
        self._next_chain = {"subject": "r", "relation": "o", "object": "e"}
        self._tries = {
            "subject": entity_trie,
            "relation": relation_trie,
            "object": entity_trie,
        }
        # reachable state spaces are small; cache transition tables per state
        self._allowed_cache: dict[frozenset, tuple[set[int], bool]] = {}
        self._advance_cache: dict[tuple[frozenset, int], ReferenceState] = {}

    def initial_state(self) -> ReferenceState:
        return ReferenceState(frozenset({("delim", "s_first", 0)}))

    def _chain_entry(self, name: str, pos: int) -> Config:
        """Config after consuming chain[pos]; the chain end opens its target."""
        if pos + 1 < len(self._chains[name]):
            return ("delim", name, pos + 1)
        target = self._chain_target[name]
        if target == "after_e":
            return ("after_e",)
        return ("trie", target, self._tries[target].root)

    def _after_e_chains(self) -> list[str]:
        chains = ["s_next"]
        if self.variant is Variant.SC:
            chains.append("r")
        return chains

    def _config_moves(self, cfg: Config) -> dict[int, list[Config]]:
        moves: dict[int, list[Config]] = {}

        def add(token: int, successor: Config) -> None:
            moves.setdefault(token, []).append(successor)

        kind = cfg[0]
        if kind == "delim":
            _, name, pos = cfg
            add(self._chains[name][pos], self._chain_entry(name, pos))
        elif kind == "trie":
            _, phase, node = cfg
            for token, child in node.children.items():
                add(token, ("trie", phase, child))
            if node.terminal:
                name = self._next_chain[phase]
                add(self._chains[name][0], self._chain_entry(name, 0))
        else:  # after_e
            for name in self._after_e_chains():
                add(self._chains[name][0], self._chain_entry(name, 0))
        return moves

    def allowed_next(self, state: ReferenceState) -> tuple[set[int], bool]:
        """Tokens admissible from ``state`` plus whether end-of-sequence is."""
        cached = self._allowed_cache.get(state.configs)
        if cached is not None:
            return cached
        allowed: set[int] = set()
        eos = False
        for cfg in state.configs:
            if cfg[0] == "after_e":
                eos = True
            allowed.update(self._config_moves(cfg).keys())
        self._allowed_cache[state.configs] = (allowed, eos)
        return allowed, eos

    def advance(self, state: ReferenceState, token: int) -> ReferenceState:
        key = (state.configs, token)
        cached = self._advance_cache.get(key)
        if cached is not None:
            return cached
        successors: set[Config] = set()
        for cfg in state.configs:
            successors.update(self._config_moves(cfg).get(token, ()))
        if not successors:
            raise ConstraintError(f"token {token} not allowed in phase {state.structural_phase}")
        new_state = ReferenceState(frozenset(successors))
        self._advance_cache[key] = new_state
        return new_state

    def is_accepting(self, state: ReferenceState) -> bool:
        return any(cfg[0] == "after_e" for cfg in state.configs)

    def replay(self, tokens: Iterable[int]) -> ReferenceState:
        """Advance through a full token sequence (testing helper)."""
        state = self.initial_state()
        for token in tokens:
            state = self.advance(state, token)
        return state

    def accepts(self, tokens: Sequence[int]) -> bool:
        try:
            return self.is_accepting(self.replay(tokens))
        except ConstraintError:
            return False


def prefix_closed(word_lists):
    """Each label's word-prefixes as labels too, so a catalog holds pairs
    such as "born" and "born in": after "born" the token " " both continues
    a label and starts " [o] ", and a state holds more than one config."""
    return list(dict.fromkeys(" ".join(words[:k]) for words in word_lists for k in range(1, len(words) + 1)))


ORACLE_WORDS = ["born", "in", "a", "o", "_", "[o]", "[e]", "[s]", "[r]", "["]
ORACLE_CATALOGS = st.lists(st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=3), max_size=4).map(
    lambda word_lists: prefix_closed([["born", "in"], *word_lists]))
ORACLE_TOKENIZERS = [
    ByteTokenizer(),
    WordPieceTokenizer(DELIM_PIECES + ["born", "in", " in", "a", "o", "_", " ", "[", "]", "s", "r", "e"]),
]


@given(
    entities=ORACLE_CATALOGS,
    relations=ORACLE_CATALOGS,
    schema=st.sampled_from([FE, SC]),
    tokenizer=st.sampled_from(ORACLE_TOKENIZERS),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference_on_random_walks(entities, relations, schema, tokenizer, rng):
    entity_trie, relation_trie = build_trie(entities, tokenizer), build_trie(relations, tokenizer)
    engine = ConstraintEngine(schema, tokenizer, entity_trie, relation_trie)
    reference = ReferenceEngine(schema, tokenizer, entity_trie, relation_trie)
    state, expected = engine.initial_state(), reference.initial_state()
    for _ in range(60):
        allowed, eos_ok = engine.allowed_next(state)
        assert (allowed, eos_ok) == reference.allowed_next(expected)
        assert is_accepting(engine, state) == reference.is_accepting(expected)
        refused = sorted(set(range(tokenizer.vocab_size)) - allowed)  # holds the end-of-sequence id
        token = rng.choice(refused)
        with pytest.raises(ConstraintError):
            engine.advance(state, token)
        with pytest.raises(ConstraintError):
            reference.advance(expected, token)
        if eos_ok and rng.random() < 0.1:
            break
        token = rng.choice(sorted(allowed))
        state, expected = engine.advance(state, token), reference.advance(expected, token)


# --- scorer subprocess protocol ---

SCORER_SCRIPT = """\
import json, sys
vocab = int(sys.argv[1])
for line in sys.stdin:
    request = json.loads(line)
    prefix = request["prefix_tokens"]
    row = [-1.0 - 0.001 * (i % 7) for i in range(vocab)]
    row[len(prefix) % vocab] = -0.5
    if len(prefix) >= 7:
        row[vocab - 1] = -0.1  # favor end-of-sequence once a block is done
    print(json.dumps({"logprobs": row}))
    sys.stdout.flush()
"""


def test_subprocess_scorer_protocol(tmp_path, fe_engine):
    script = tmp_path / "scorer.py"
    script.write_text(SCORER_SCRIPT, encoding="utf-8")
    vocab = fe_engine.tokenizer.vocab_size
    with SubprocessScorer(shlex.join([sys.executable, str(script), str(vocab)]), vocab) as scorer:
        rows = scorer.score_many("ctx", [[1, 2, 3]])
        assert len(rows) == 1 and len(rows[0]) == vocab
        row = rows[0]
        assert row[3] == -0.5
        best = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=2, max_length=40))
        assert best.finished
        assert accepts(fe_engine, best.tokens)


def test_subprocess_scorer_rejects_bad_row(tmp_path):
    script = tmp_path / "bad_scorer.py"
    script.write_text(
        "import json,sys\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'logprobs': [0.0, 0.0]}))\n"
        "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    with SubprocessScorer(shlex.join([sys.executable, str(script)]), vocab_size=5) as scorer:
        with pytest.raises(RuntimeError, match="expected 5"):
            scorer.score_many("", [[]])[0]


def test_subprocess_scorer_accepts_sound_rows_that_fail_the_cheap_screen(tmp_path):
    # finite values whose sum is not, and "true" and "false" outside the values
    script = tmp_path / "scorer.py"
    script.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print('{\"logprobs\": [-1e308, -1e308, 0], \"note\": \"true or false\"}', flush=True)\n",
        encoding="utf-8",
    )
    with SubprocessScorer(shlex.join([sys.executable, str(script)]), vocab_size=3) as scorer:
        assert scorer.score_many("", [[], [1]]) == [[-1e308, -1e308, 0]] * 2


@pytest.mark.parametrize("command, context_bytes", [
    ("exec sleep 30", 10),
    ("exec sleep 30", 1 << 17),  # sleep reads no request: this one fills its input pipe
    ("trap '' TERM; exec sleep 30", 10),  # killed once terminating it fails
], ids=["replies", "input-pipe-room", "ignores-sigterm"])
def test_silent_scorer_times_out_and_is_reaped(command, context_bytes, monkeypatch):
    monkeypatch.setattr(scorers, "READ_TIMEOUT_S", 1.0)
    with SubprocessScorer(command, vocab_size=5) as scorer:
        with pytest.raises(ScorerError, match="scorer process sent nothing for 1 s"):
            scorer.score_many("x" * context_bytes, [[]])
    assert scorer._proc.returncode is not None


def test_close_ends_every_process_a_shell_scorer_started():
    # the shell forks sleep before it echoes; SIGTERM to the shell alone
    # would leave sleep running
    scorer = SubprocessScorer("sleep 37 & echo started; wait", vocab_size=5)
    assert os.read(scorer._out, 8) == b"started\n"
    group = os.getpgid(scorer._proc.pid)
    scorer.close()
    # a killed child of the shell goes to init, which reaps it in its own time
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    pytest.fail(f"process group {group} still has members 10 s after close")


# --- pipelined scorer steps ---

# a scorer whose every value depends on the whole request: a reply that went
# to the wrong prefix, or a request rendered wrongly, changes the row
HASHING_SCORER = """\
import json, sys, zlib

def row(context, prefix, vocab):
    h = zlib.crc32(json.dumps([context, prefix]).encode("utf-8"))
    return [-((h >> (j % 16)) % 997) / 100.0 - 0.001 * j for j in range(vocab)]

if __name__ == "__main__":
    vocab = int(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps({"logprobs": row(request["context"], request["prefix_tokens"], vocab)}) + "\\n")
        sys.stdout.flush()
"""


def test_pipelined_scores_equal_row_by_row(tmp_path):
    script = tmp_path / "hashing_scorer.py"
    script.write_text(HASHING_SCORER, encoding="utf-8")
    namespace = {}
    exec(HASHING_SCORER, namespace)
    vocab = 11
    rng = np.random.default_rng(5)
    contexts = ["", "plain", 'Zürich – 東京 "quoted" back\\slash\nnew line   🎉']
    with SubprocessScorer(shlex.join([sys.executable, str(script), str(vocab)]), vocab) as scorer:
        previous = [()]
        for step in range(60):
            context = contexts[step % len(contexts)]
            # mostly children of the last step's prefixes, as in a beam search
            batch = [previous[rng.integers(len(previous))] + (int(rng.integers(vocab)),) for _ in range(rng.integers(1, 9))]
            batch += [tuple(int(t) for t in rng.integers(vocab, size=rng.integers(0, 4)))]
            if step % 5 == 0:
                batch = [()] + batch + [batch[0]]  # the empty prefix and a repeated one
            if step % 7 == 0:
                batch = batch[:1]
            rows = scorer.score_many(context, batch)
            assert len(rows) == len(batch) and all(len(row) == vocab for row in rows)
            for prefix, got in zip(batch, rows):
                assert got == namespace["row"](context, list(prefix), vocab)
                assert scorer.score_many(context, [prefix])[0] == got
            previous = batch


DEADLOCK_PROBE = """\
import shlex
import sys
import time
from kgsynth.decoder import SubprocessScorer

script, vocab, beams, context_bytes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
context = "x" * context_bytes
prefixes = [tuple(range(b + 1)) for b in range(beams)]
with SubprocessScorer(shlex.join([sys.executable, script, str(vocab)]), vocab) as scorer:
    for _ in range(2):
        rows = scorer.score_many(context, prefixes)
        assert len(rows) == beams and all(len(row) == vocab for row in rows)
        for prefix, row in zip(prefixes, rows):
            assert row[len(prefix)] == -0.5 and row[0] == -1.25
print("ok")
"""


def test_step_larger_than_both_pipe_buffers_finishes(tmp_path):
    script = tmp_path / "scorer.py"
    script.write_text(SCORER_SCRIPT.replace("-1.0 - 0.001 * (i % 7)", "-1.25"), encoding="utf-8")
    probe = tmp_path / "probe.py"
    probe.write_text(DEADLOCK_PROBE, encoding="utf-8")
    vocab, beams, context_bytes = 30_000, 8, 16_384
    # one step's requests and replies each exceed a 64 KiB pipe buffer
    assert beams * context_bytes > 1 << 16 and beams * vocab * len("-1.25, ") > 1 << 16
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(kgsynth.__file__)),
                                                       os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(probe), str(script), str(vocab), str(beams), str(context_bytes)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
