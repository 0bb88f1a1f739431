import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsynth import codec
from kgsynth.codec import Variant

FE = Variant.FE
SC = Variant.SC

MOUNT_SET = [
    ("Mount Lanning", "instance of", "Mountain"),
    ("Mount Lanning", "mountain range", "Sentinel Range"),
    ("Newcomer Glacier", "mountain range", "Sentinel Range"),
]
MOUNT_FE = (
    "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
    " [s] Mount_Lanning [r] mountain range [o] Sentinel_Range [e]"
    " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
)
MOUNT_SC = (
    "[s] Mount_Lanning [r] instance of [o] Mountain [e]"
    " [r] mountain range [o] Sentinel_Range [e]"
    " [s] Newcomer_Glacier [r] mountain range [o] Sentinel_Range [e]"
)


def test_fully_expanded_golden():
    assert codec.linearize(MOUNT_SET, FE) == MOUNT_FE


def test_subject_collapsed_golden():
    assert codec.linearize(MOUNT_SET, SC) == MOUNT_SC


def test_golden_round_trips():
    assert set(codec.parse(MOUNT_FE, FE).triplets) == set(MOUNT_SET)
    assert set(codec.parse(MOUNT_SC, SC).triplets) == set(MOUNT_SET)


def test_single_triplet_fe_equals_sc():
    triplets = [("Pix Brook", "mouth of the watercourse", "River Hiz")]
    assert codec.linearize(triplets, FE) == codec.linearize(triplets, SC)


def test_order_by_subject_position():
    text = "B comes first, then A follows."
    triplets = [("A", "r1", "X"), ("B", "r2", "Y")]
    assert codec.order_triplets(triplets, text) == [("B", "r2", "Y"), ("A", "r1", "X")]


def test_order_tie_broken_by_object_position():
    text = "S here, obj4 then obj10."
    triplets = [("S", "r", "obj10"), ("S", "r", "obj4")]
    assert codec.order_triplets(triplets, text) == [("S", "r", "obj4"), ("S", "r", "obj10")]


def test_order_empty_text_is_lexicographic():
    triplets = [("B", "r", "C"), ("A", "z", "D"), ("A", "a", "B")]
    assert codec.order_triplets(triplets, "") == [("A", "a", "B"), ("A", "z", "D"), ("B", "r", "C")]


def test_order_word_overlap_fallback():
    # no exact label match; "Sentinel Range mountains" words anchor the entity
    text = "The peak sits in the Sentinel Range mountains near X."
    triplets = [("X", "r", "Y"), ("Sentinel Range summit", "r", "Y")]
    ordered = codec.order_triplets(triplets, text)
    # "Sentinel Range" (longest overlapping word run, position 21) < "X" (position 51)
    assert ordered[0][0] == "Sentinel Range summit"


def quadratic_entity_position(label: str, text: str) -> int:
    """The position rule as a scan of every word run from every start: the
    oracle for ``codec._entity_position``'s one sliding window."""
    pos = text.find(label)
    if pos >= 0:
        return pos
    spans = [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]
    best_pos, best_len = 0, 0
    for i in range(len(spans)):
        for j in range(len(spans), i, -1):
            if j - i <= best_len:
                break
            candidate = text[spans[i][0] : spans[j - 1][0] + len(spans[j - 1][1])]
            if candidate in label:
                best_pos, best_len = spans[i][0], j - i
                break
    return best_pos


@pytest.mark.parametrize("label, text, position", [
    ("Sentinel Range summit", "The Sentinel Range mountains", 4),  # longest run
    ("bar qux", "foo bar baz bar", 4),  # a tie goes to the earliest run
    ("a b c", "x a  b c", 5),  # a run keeps the text's whitespace: "a  b" is not inside
    ("Entity 12", "that 12 and Entity 1 too", 12),  # "Entity 1" is inside "Entity 12"
    ("Zeta", "Alpha and Beta", 0),  # no word inside the label
    ("Zeta", "  \t ", 0),
])
def test_entity_position_cases(label, text, position):
    assert codec._entity_position(label, text) == position == quadratic_entity_position(label, text)


WORDS = st.sampled_from(["a", "ab", "b", "ba", "Entity", "12", "1", "that", "Range"])
SPACE = st.sampled_from([" ", "  ", "\t", " \n "])


@st.composite
def text_and_label(draw):
    text = draw(st.sampled_from(["", " "])) + "".join(draw(WORDS) + draw(SPACE) for _ in range(draw(st.integers(0, 12))))
    start, stop = sorted(draw(st.integers(0, len(text))) for _ in range(2))
    label = draw(st.one_of(
        st.lists(WORDS, min_size=1, max_size=5).map(" ".join),  # words that may or may not be in the text
        st.just(text[start:stop]),  # a piece of the text, often cut inside a word
        st.tuples(st.just(text[start:stop]), WORDS).map(" ".join),
    ))
    return label, text


@given(text_and_label())
@settings(max_examples=500, deadline=None)
def test_entity_position_equals_the_quadratic_scan(label_text):
    label, text = label_text
    assert codec._entity_position(label, text) == quadratic_entity_position(label, text)


def test_linearize_rejects_empty_set():
    with pytest.raises(codec.CodecError):
        codec.linearize([], FE)


def test_linearize_rejects_delimiter_in_label():
    with pytest.raises(codec.CodecError):
        codec.linearize([("bad [r] label", "r", "B")], FE)


@pytest.mark.parametrize("label, entity, readable", [
    ("Mount Lanning", True, True),
    ("New_York", True, True),
    (" Alpha", True, True),  # its surface _Alpha reads back as " Alpha"
    ("a_b c", True, False),  # its surface a_b_c reads back as "a b c"
    ("a_b c", False, True),  # a relation keeps its label verbatim
    ("linked to ", False, False),
    ("\tAlpha", True, False),
    ("", False, False),
    ("Beta [o] Gamma", True, False),
])
def test_linearizable_holds_exactly_when_parse_reads_the_label_back(label, entity, readable):
    assert codec.linearizable(label, entity) is readable
    triplet = (label, "r", "Alpha") if entity else ("Alpha", label, "Alpha")
    if readable:
        parsed = codec.parse(codec.linearize([triplet], FE), FE, {label, "Alpha"}, {triplet[1]})
        assert parsed.triplets == [triplet]
    else:
        with pytest.raises(codec.CodecError):
            codec.linearize([triplet], FE)


def test_parse_truncated_sc_drops_fragment():
    result = codec.parse("[s] A [r] rel [o] B [e] [r] rel2 [o]", SC)
    assert result.triplets == [("A", "rel", "B")]
    assert result.dropped_fragments == 1


def test_parse_empty_string():
    result = codec.parse("", SC)
    assert result == codec.ParseResult()


def test_parse_deduplicates():
    text = "[s] A [r] rel [o] B [e] [s] A [r] rel [o] B [e]"
    result = codec.parse(text, FE)
    assert result.triplets == [("A", "rel", "B")]
    assert result.duplicates_removed == 1


def test_parse_with_catalogs_drops_unresolvable():
    text = "[s] A [r] rel [o] Z [e] [s] A [r] rel [o] B [e]"
    result = codec.parse(text, FE, entity_catalog={"A", "B"}, relation_catalog={"rel"})
    assert result.triplets == [("A", "rel", "B")]
    assert result.dropped_unresolvable == 1


class MembershipOnly:
    def __init__(self, labels):
        self.labels = frozenset(labels)

    def __contains__(self, label):
        return label in self.labels

    def __iter__(self):
        raise AssertionError("parse iterated a catalog")


def test_parse_uses_catalogs_through_membership_only():
    text = "[s] A [r] rel [o] Z [e] [s] A [r] rel [o] B_C [e]"
    result = codec.parse(text, FE, entity_catalog=MembershipOnly({"A", "B C"}), relation_catalog=MembershipOnly({"rel"}))
    assert result.triplets == [("A", "rel", "B C")]
    assert result.dropped_unresolvable == 1


def test_parse_garbage_is_never_fatal():
    for garbage in ("[e] [e] [o]", "[r] x [r] y", "no delimiters at all", "[s] [r] [o] [e]"):
        result = codec.parse(garbage, SC)
        assert result.triplets == []


def _random_catalog(rng, n_entities=200, n_relations=30):
    entities = [f"Entity {i} {'Place' if i % 3 else 'Person'}" for i in range(n_entities)]
    relations = [f"relation {j} of" for j in range(n_relations)]
    return entities, relations


def _random_set(rng, entities, relations):
    n = rng.randint(1, 6)
    seen = set()
    out = []
    while len(out) < n:
        t = (rng.choice(entities), rng.choice(relations), rng.choice(entities))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def test_round_trip_randomized_both_schemas():
    rng = random.Random(99)
    entities, relations = _random_catalog(rng)
    for _ in range(500):
        triplets = _random_set(rng, entities, relations)
        for schema in (FE, SC):
            text = codec.linearize(triplets, schema)
            result = codec.parse(text, schema, entity_catalog=entities, relation_catalog=relations)
            assert set(result.triplets) == set(triplets)
            assert result.dropped_fragments == 0
            assert result.dropped_unresolvable == 0
        assert len(codec.linearize(triplets, SC)) <= len(codec.linearize(triplets, FE))


def test_cross_schema_agreement():
    rng = random.Random(7)
    entities, relations = _random_catalog(rng)
    for _ in range(200):
        triplets = _random_set(rng, entities, relations)
        fe_set = set(codec.parse(codec.linearize(triplets, FE), FE).triplets)
        sc_set = set(codec.parse(codec.linearize(triplets, SC), SC).triplets)
        assert fe_set == sc_set


@given(st.lists(
    st.tuples(
        st.sampled_from(["Ada Lovelace", "Turing Machine", "Zuse Z3", "Colossus"]),
        st.sampled_from(["created by", "part of", "instance of"]),
        st.sampled_from(["Ada Lovelace", "Turing Machine", "Zuse Z3", "Colossus"]),
    ),
    min_size=1,
    max_size=6,
    unique=True,
))
@settings(max_examples=200, deadline=None)
def test_order_is_total_and_stable(triplets):
    ordered = codec.order_triplets(triplets, "Colossus and the Turing Machine")
    assert sorted(ordered) == sorted(triplets)
    shuffled = list(reversed(triplets))
    assert codec.order_triplets(shuffled, "Colossus and the Turing Machine") == ordered
