import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsynth
from kgsynth import cli, codec
from kgsynth.codec import LinearizationSchema, Variant
from kgsynth.decoder import (
    AdversarialScorer,
    ByteTokenizer,
    ConstraintEngine,
    ConstraintError,
    DecodeParams,
    DEFAULT_LENGTH_PENALTY,
    OracleScorer,
    SubprocessScorer,
    UniformScorer,
    WordPieceTokenizer,
    build_trie,
    constrained_beam_search,
)

FE = LinearizationSchema(variant=Variant.FE)
SC = LinearizationSchema(variant=Variant.SC)

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
        assert tok.decode(tok.encode(text)) == text
    assert tok.vocab_size == 257
    assert tok.eos_id == 256


def test_wordpiece_greedy_longest_match():
    tok = WordPieceTokenizer(["New", " York", "ark", "New York City"])
    assert tok.decode(tok.encode("New York")) == "New York"
    assert tok.encode("New York City") == [tok.piece_ids["New York City"]]
    assert tok.encode("Newark") == [tok.piece_ids["New"], tok.piece_ids["ark"]]


def test_wordpiece_encode_failure():
    tok = WordPieceTokenizer(["a", "b"])
    assert tok.try_encode("abc") is None
    with pytest.raises(Exception):
        tok.encode("abc")


def test_wordpiece_rejects_bad_vocab():
    with pytest.raises(ValueError):
        WordPieceTokenizer([])
    with pytest.raises(ValueError):
        WordPieceTokenizer(["a", "a"])


# build_trie leaves out, and counts, the labels the tokenizer cannot encode

def test_filter_tokenizable_drops_unencodable():
    ascii_pieces = [chr(c) for c in range(32, 127)]
    tok = WordPieceTokenizer(ascii_pieces)
    trie = build_trie(["Zurich", "Zürich", ""], tok)  # the empty label tokenizes to nothing
    assert trie.entries() == ["Zurich"]
    assert trie.dropped == {"duplicate": 0, "not_tokenizable": 2}


def test_filter_tokenizable_identity_when_all_encodable():
    tok = ByteTokenizer()
    labels = ["anything", "Zürich", "日本語"]
    trie = build_trie(labels, tok)
    assert trie.entries() == sorted(labels)
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
    assert sorted(trie.entries()) == ["New York", "Newark"]


def test_trie_empty_catalog_is_error():
    with pytest.raises(ValueError):
        build_trie([], ByteTokenizer())


def test_trie_singleton_path():
    tok = ByteTokenizer()
    trie = build_trie(["solo"], tok)
    node = trie.walk(tok.encode("solo"))
    assert node is not None and node.terminal
    assert trie.walk(tok.encode("sol")).terminal is False


def test_trie_duplicate_keeps_first_and_counts():
    tok = WordPieceTokenizer(["a", "b", "ab"])
    trie = build_trie(["ab", "b", "ab"], tok)
    assert trie.n_entries == 2
    assert trie.dropped == {"duplicate": 1, "not_tokenizable": 0}
    assert trie.entries() == ["ab", "b"]


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
    state = fe_engine.replay([tok.piece_ids["[s] "], tok.piece_ids["Ada"]])
    allowed, eos = fe_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[" [r] "]} and not eos


def test_allowed_next_after_end_fe(fe_engine):
    tok = fe_engine.tokenizer
    prefix = [tok.piece_ids[p] for p in ("[s] ", "Ada", " [r] ", "knows", " [o] ", "Bob", " [e]")]
    state = fe_engine.replay(prefix)
    allowed, eos = fe_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[" [s] "]}
    assert eos
    assert fe_engine.is_accepting(state)


def test_allowed_next_after_end_sc(sc_engine):
    tok = sc_engine.tokenizer
    prefix = [tok.piece_ids[p] for p in ("[s] ", "Ada", " [r] ", "knows", " [o] ", "Bob", " [e]")]
    state = sc_engine.replay(prefix)
    allowed, eos = sc_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[" [s] "], tok.piece_ids[" [r] "]}
    assert eos
    # carrying the subject: continue with a relation-object unit
    state = sc_engine.advance(state, tok.piece_ids[" [r] "])
    allowed, _ = sc_engine.allowed_next(state)
    assert allowed == {tok.piece_ids[r] for r in RELATIONS}


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
    assert engine.accepts(tok.encode(text))
    engine_sc = ConstraintEngine(SC, tok, build_trie(entities, tok), build_trie(relations, tok))
    text_sc = (
        "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
        " [r] mountain range [o] Sentinel_Range [e]"
        " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
    )
    assert engine_sc.accepts(tok.encode(text_sc))


def test_byte_level_relation_space_ambiguity():
    # "instance" is a prefix of "instance of" and the object delimiter starts
    # with the same space byte: the automaton must keep both readings alive
    tok = ByteTokenizer()
    engine = ConstraintEngine(FE, tok, build_trie(["A", "B"], tok), build_trie(["instance", "instance of"], tok))
    for rel in ("instance", "instance of"):
        assert engine.accepts(tok.encode(f"[s] A [r] {rel} [o] B [e]"))


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
            schema = LinearizationSchema(variant=variant)
            text = codec.linearize(triplets, schema)
            ids = tokenizer.try_encode(text)
            assert ids is not None
            assert engine.accepts(ids), text
        checked += 1
    assert checked > 2800


# --- beam search ---

def test_uniform_scorer_returns_distinct_valid_sequences(fe_engine):
    scorer = UniformScorer(fe_engine.tokenizer.vocab_size)
    results = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=4, max_length=40, top_k_returned=4))
    assert len(results) == 4
    assert len({r.tokens for r in results}) == 4
    for r in results:
        assert r.finished
        assert fe_engine.accepts(r.tokens)
        parsed = codec.parse(r.text, FE, entity_catalog=ENTITIES, relation_catalog=RELATIONS)
        assert parsed.triplets and parsed.dropped_fragments == 0 and parsed.dropped_unresolvable == 0


def test_adversarial_scorer_cannot_escape_catalog(fe_engine):
    # all probability mass on a token that is never a legal continuation here
    favored = fe_engine.tokenizer.piece_ids[" [e]"]
    scorer = AdversarialScorer(fe_engine.tokenizer.vocab_size, favored)
    results = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=2, max_length=40, top_k_returned=1))
    best = results[0]
    assert best.finished
    parsed = codec.parse(best.text, FE, entity_catalog=ENTITIES, relation_catalog=RELATIONS)
    assert parsed.triplets and parsed.dropped_unresolvable == 0


def test_oracle_scorer_target_ranked_first():
    entities, relations = ["Ada", "Bob", "Lab"], ["knows", "runs"]
    tokenizer, et, rt = toy_world(entities, relations)
    engine = ConstraintEngine(FE, tokenizer, et, rt)
    target_text = codec.linearize([("Bob", "runs", "Lab")], FE)
    target = tuple(tokenizer.encode(target_text))
    scorer = OracleScorer(tokenizer.vocab_size, target, tokenizer.eos_id)
    results = constrained_beam_search(scorer, "", engine, DecodeParams(num_beams=4, max_length=30, top_k_returned=4))
    assert results[0].tokens == target
    assert results[0].text == target_text
    # exhaustive cross-check: no single-triplet linearization scores higher
    best_alternative = max(
        (
            sum(scorer.score_many("", [tuple(tokenizer.encode(codec.linearize([t], FE)))[:i]])[0][tok]
                for i, tok in enumerate(tokenizer.encode(codec.linearize([t], FE))))
            for t in itertools.product(entities, relations, entities)
            if codec.linearize([t], FE) != target_text
        ),
    )
    assert best_alternative < results[0].score


def test_single_beam_equals_greedy(fe_engine):
    scorer = OracleScorer(
        fe_engine.tokenizer.vocab_size,
        tuple(fe_engine.tokenizer.encode(codec.linearize([("Ada", "knows", "Bob")], FE))),
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
    assert result[0].tokens == expected_tokens
    assert result[0].finished == expected_finished


def test_zero_length_penalty_is_raw_sum_ranking(fe_engine):
    scorer = UniformScorer(fe_engine.tokenizer.vocab_size)
    results = constrained_beam_search(
        scorer, "", fe_engine, DecodeParams(num_beams=4, max_length=40, top_k_returned=4, length_penalty=0.0)
    )
    for r in results:
        assert r.normalized_score == r.score
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)


def test_target_of_exactly_max_length_tokens_finishes():
    # max_length bounds the emitted tokens; the end-of-sequence step is extra
    tokenizer, et, rt = toy_world(ENTITIES, RELATIONS)
    engine = ConstraintEngine(FE, tokenizer, et, rt)
    target = tuple(tokenizer.encode(codec.linearize([("Zuse", "built", "Computer")], FE)))
    scorer = OracleScorer(tokenizer.vocab_size, target, tokenizer.eos_id)
    best = constrained_beam_search(scorer, "", engine, DecodeParams(num_beams=2, max_length=len(target)))[0]
    assert best.tokens == target
    assert best.finished
    shorter = constrained_beam_search(scorer, "", engine, DecodeParams(num_beams=2, max_length=len(target) - 1))[0]
    assert len(shorter.tokens) == len(target) - 1 and not shorter.finished


def test_truncation_flag_when_max_length_too_small(fe_engine):
    scorer = UniformScorer(fe_engine.tokenizer.vocab_size)
    results = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=2, max_length=3))
    assert results and not results[0].finished


def test_decode_params_defaults_and_validation():
    params = DecodeParams()
    assert params.num_beams == 10
    assert params.resolve_length_penalty(Variant.FE) == 0.8
    assert params.resolve_length_penalty(Variant.SC) == 0.6
    assert DEFAULT_LENGTH_PENALTY == {Variant.FE: 0.8, Variant.SC: 0.6}
    with pytest.raises(ValueError):
        DecodeParams(num_beams=2, top_k_returned=3)
    with pytest.raises(ValueError):
        DecodeParams(num_beams=0)


def test_soundness_finished_outputs_fully_parse(sc_engine):
    rng = np.random.default_rng(123)
    scorer = UniformScorer(sc_engine.tokenizer.vocab_size)
    for seed in range(20):
        results = constrained_beam_search(
            scorer, f"ctx{seed}", sc_engine, DecodeParams(num_beams=3, max_length=50, top_k_returned=3)
        )
        for r in results:
            if r.finished:
                parsed = codec.parse(r.text, SC, entity_catalog=ENTITIES, relation_catalog=RELATIONS)
                assert parsed.dropped_fragments == 0
                assert parsed.dropped_unresolvable == 0
                assert parsed.triplets


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
    entity_trie, _ = cli.catalog_trie(entities, schema, tokenizer, entity=True)
    relation_trie, _ = cli.catalog_trie(relations, schema, tokenizer, entity=False)
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
    with SubprocessScorer([sys.executable, str(script), str(vocab)], vocab) as scorer:
        row = scorer.score_many("ctx", [[1, 2, 3]])[0]
        assert row.shape == (vocab,)
        assert row[3] == -0.5
        results = constrained_beam_search(scorer, "", fe_engine, DecodeParams(num_beams=2, max_length=40))
        assert results[0].finished
        assert fe_engine.accepts(results[0].tokens)


def test_subprocess_scorer_rejects_bad_row(tmp_path):
    script = tmp_path / "bad_scorer.py"
    script.write_text(
        "import json,sys\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'logprobs': [0.0, 0.0]}))\n"
        "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    with SubprocessScorer([sys.executable, str(script)], vocab_size=5) as scorer:
        with pytest.raises(RuntimeError, match="expected 5"):
            scorer.score_many("", [[]])[0]


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
    with SubprocessScorer([sys.executable, str(script), str(vocab)], vocab) as scorer:
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
            assert rows.shape == (len(batch), vocab)
            for prefix, got in zip(batch, rows):
                assert got.tolist() == namespace["row"](context, list(prefix), vocab)
                assert np.array_equal(scorer.score_many(context, [prefix])[0], got)
            previous = batch


DEADLOCK_PROBE = """\
import sys
import numpy as np
from kgsynth.decoder import SubprocessScorer

script, vocab, beams, context_bytes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
context = "x" * context_bytes
prefixes = [tuple(range(b + 1)) for b in range(beams)]
with SubprocessScorer([sys.executable, script, str(vocab)], vocab) as scorer:
    for _ in range(2):
        rows = scorer.score_many(context, prefixes)
        assert rows.shape == (beams, vocab)
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
