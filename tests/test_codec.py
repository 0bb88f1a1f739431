import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsynth import codec
from kgsynth.codec import LinearizationSchema, Variant

FE = LinearizationSchema(variant=Variant.FE)
SC = LinearizationSchema(variant=Variant.SC)

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
    assert codec.parse(MOUNT_FE, FE).as_set() == set(MOUNT_SET)
    assert codec.parse(MOUNT_SC, SC).as_set() == set(MOUNT_SET)


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
    assert codec.linearizable(label, FE, entity) is readable
    triplet = (label, "r", "Alpha") if entity else ("Alpha", label, "Alpha")
    if readable:
        parsed = codec.parse(codec.linearize([triplet], FE), FE, {label, "Alpha"}, {triplet[1]})
        assert parsed.triplets == [triplet]
    else:
        with pytest.raises(codec.CodecError):
            codec.linearize([triplet], FE)


def test_schema_rejects_duplicate_delimiters():
    with pytest.raises(codec.CodecError):
        LinearizationSchema(variant=Variant.FE, start_subject="[x]", start_relation="[x]")


def test_parse_truncated_sc_drops_fragment():
    result = codec.parse("[s] A [r] rel [o] B [e] [r] rel2 [o]", SC)
    assert result.triplets == [("A", "rel", "B")]
    assert result.dropped_fragments == 1


def test_parse_empty_string():
    result = codec.parse("", SC)
    assert result.triplets == []
    assert result.notes


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
            assert result.as_set() == set(triplets)
            assert result.dropped_fragments == 0
            assert result.dropped_unresolvable == 0
        assert len(codec.linearize(triplets, SC)) <= len(codec.linearize(triplets, FE))


def test_cross_schema_agreement():
    rng = random.Random(7)
    entities, relations = _random_catalog(rng)
    for _ in range(200):
        triplets = _random_set(rng, entities, relations)
        fe_set = codec.parse(codec.linearize(triplets, FE), FE).as_set()
        sc_set = codec.parse(codec.linearize(triplets, SC), SC).as_set()
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
