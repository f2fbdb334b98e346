"""Metric tests against hand fixtures and brute-force recounts."""

import dataclasses
import importlib.resources
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqfuse.metrics import (
    CaptionRecord,
    PopeRecord,
    SynonymTable,
    _tokenize,
    chair,
    extract_objects,
    pope_f1,
)
from oracles import naive_extract_objects, naive_tokenize, recount_chair, recount_pope
from util import UNPRINTABLE, exactly, unprintable

FIXTURE_TABLE = SynonymTable(
    {
        "dog": "dog",
        "hot dog": "hot_dog",
        "sports car": "car",
        "car": "car",
        "cat": "cat",
        "person": "person",
        "man": "person",
    }
)


# SynonymTable / extract_objects


def test_extracts_multiword_and_plain():
    found = extract_objects("A dog and a sports car.", FIXTURE_TABLE)
    assert found == {"dog", "car"}


def test_empty_caption():
    assert extract_objects("", FIXTURE_TABLE) == set()


def test_longest_match_wins():
    assert extract_objects("I ate a hot dog.", FIXTURE_TABLE) == {"hot_dog"}
    assert extract_objects("a hot dog and a dog", FIXTURE_TABLE) == {"hot_dog", "dog"}


def test_case_and_punctuation_insensitive():
    assert extract_objects("SPORTS-CAR!!! Dog?", FIXTURE_TABLE) == {"car", "dog"}


def test_synonyms_map_to_canonical():
    assert extract_objects("a man walks", FIXTURE_TABLE) == {"person"}
    assert FIXTURE_TABLE.canonicalize("man") == "person"
    assert FIXTURE_TABLE.canonicalize("giraffe") is None


def test_canonical_closure_added_automatically():
    table = SynonymTable({"sports car": "car"})
    assert table.canonicalize("car") == "car"
    assert table.canonical_classes == frozenset({"car"})


@pytest.mark.parametrize(
    "mapping", [["dog"], {"dog": 5}, {5: "dog"}, {"dog": None}], ids=repr
)
def test_a_table_that_does_not_map_strings_to_strings_is_refused(mapping):
    # {"dog": 5} raised a bare AttributeError from the tokenizer
    with pytest.raises(ValueError, match=exactly("a synonym table must map strings to strings")):
        SynonymTable(mapping)


def test_rejects_canonical_mapped_away():
    with pytest.raises(ValueError):
        SynonymTable({"car": "vehicle", "vehicle": "car"})


def test_rejects_conflicting_surfaces():
    with pytest.raises(ValueError):
        SynonymTable({"hot dog": "hot_dog", "hot  dog": "dog"})


def test_bundled_table_loads():
    path = importlib.resources.files("freqfuse") / "data" / "synonyms.json"
    table = SynonymTable.from_json(str(path))
    assert extract_objects("a unicorn and a dragon", table) == {"unicorn", "dragon"}


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=80))
def test_extraction_is_subset_of_canonical(caption):
    found = extract_objects(caption, FIXTURE_TABLE)
    assert found <= FIXTURE_TABLE.canonical_classes


# Words that chain into overlapping forms ("hot", "hot dog", "hot dog
# stand", "dog"), and classes of which some tokenize onto such a form.
_FORM_WORDS = ("hot", "dog", "stand", "sports", "car", "kite", "k")
_NOISE_WORDS = ("a", "the", "near", "hotdog", "dogs", "kites", "of")
_CLASSES = ("dog", "hot_dog", "car", "stand", "thing")
_SEPARATORS = (" ", "  ", ", ", "-", "_", ". ", "!? ", "\n")


def _styled(draw, text):
    """text with each letter lowercase, uppercase, or "k" as KELVIN SIGN."""
    out = []
    for ch in text:
        style = draw(st.sampled_from(("lower", "upper", "kelvin")))
        if style == "kelvin" and ch == "k":
            ch = "\u212a"  # lowercases to ASCII "k"
        elif style == "upper":
            ch = ch.upper()
        out.append(ch)
    return "".join(out)


@st.composite
def tables_and_captions(draw):
    """(mapping, caption): a random table of overlapping forms, a caption of them."""
    forms = draw(
        st.lists(
            st.lists(st.sampled_from(_FORM_WORDS), min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=8,
        )
    )
    by_key = {form: draw(st.sampled_from(_CLASSES)) for form in forms}
    for target in set(by_key.values()):
        # a class that tokenizes onto a form must be that form's class
        if _tokenize(target) in by_key:
            by_key[_tokenize(target)] = target
    mapping = {
        _styled(draw, draw(st.sampled_from(_SEPARATORS[:5])).join(key)): target
        for key, target in by_key.items()
    }
    pieces = draw(
        st.lists(
            st.one_of(
                st.sampled_from(forms).map(" ".join),
                st.sampled_from(_FORM_WORDS),
                st.sampled_from(_NOISE_WORDS),
            ),
            max_size=12,
        )
    )
    text = "".join(piece + draw(st.sampled_from(_SEPARATORS)) for piece in pieces)
    longest = max(forms, key=len)
    if draw(st.booleans()):
        text += " ".join(longest)  # a form that ends the caption, no punctuation
    caption = draw(st.one_of(st.just(_styled(draw, text)), st.text(max_size=40)))
    return mapping, caption


@settings(max_examples=300, deadline=None)
@given(tables_and_captions())
def test_extraction_matches_naive_oracle(table_and_caption):
    mapping, caption = table_and_caption
    found = extract_objects(caption, SynonymTable(mapping))
    assert found == naive_extract_objects(caption, mapping)


def test_tokenize_matches_the_regex_on_every_code_point():
    # each code point between two ASCII letters: it joins them only if it
    # lowercases to a-z or 0-9, as U+212A KELVIN SIGN does to "k"
    text = " ".join(f"a{chr(c)}b" for c in range(0x110000))
    assert _tokenize(text) == naive_tokenize(text)


# st.text() draws no surrogates unless its alphabet allows them
_ANY_CHAR = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    st.sampled_from("aZk9 -_\u212a\u0130\u00df"),
)


@settings(max_examples=300, deadline=None)
@given(st.text(_ANY_CHAR, max_size=60))
def test_tokenize_matches_the_regex_with_surrogates(text):
    assert _tokenize(text) == naive_tokenize(text)


_BUNDLED_MAPPING = json.loads(
    (importlib.resources.files("freqfuse") / "data" / "synonyms.json").read_text()
)
_BUNDLED_TABLE = SynonymTable(_BUNDLED_MAPPING)
_BUNDLED_NAMES = sorted({*_BUNDLED_MAPPING, *_BUNDLED_MAPPING.values()})


def test_canonicalize_knows_every_bundled_name():
    for name in _BUNDLED_NAMES:
        target = _BUNDLED_TABLE.canonicalize(name)
        assert target is not None
        assert target == _BUNDLED_TABLE._by_tokens.get(_tokenize(name))


@st.composite
def name_variants(draw):
    name = draw(st.sampled_from(_BUNDLED_NAMES))
    words = name.replace("_", " ").split()
    joined = draw(st.sampled_from(_SEPARATORS)).join(words)
    before, after = draw(st.sampled_from(("", " ", "-", "!"))), draw(
        st.sampled_from(("", " ", ".", "?!", "s"))
    )
    return before + _styled(draw, joined) + after


@settings(max_examples=300, deadline=None)
@given(st.one_of(name_variants(), st.text(max_size=30)))
def test_canonicalize_matches_the_token_lookup(name):
    # the exact-name index answers first; it must agree with tokenizing
    assert _BUNDLED_TABLE.canonicalize(name) == _BUNDLED_TABLE._by_tokens.get(
        _tokenize(name)
    )


# chair


def test_chair_single_record_fixture():
    rec = CaptionRecord("a", {"dog", "cat", "car"}, {"dog", "car"})
    report = chair([rec])
    assert report.chair_i == pytest.approx(1 / 3)
    assert report.chair_s == 1.0
    assert report.total_mentions == 3
    assert report.hallucinated_mentions == 1


def test_chair_two_records():
    bad = CaptionRecord("a", {"dog", "cat", "car"}, {"dog", "car"})
    good = CaptionRecord("b", {"dog"}, {"dog"})
    report = chair([good, bad])
    assert report.chair_s == 0.5


def test_chair_six_record_fixture_matches_recount():
    records = [
        CaptionRecord("1", {"dog", "cat"}, {"dog"}),
        CaptionRecord("2", {"car"}, {"car", "person"}),
        CaptionRecord("3", set(), {"dog"}),
        CaptionRecord("4", {"person", "cat", "car"}, {"cat"}),
        CaptionRecord("5", {"dog"}, {"dog"}),
        CaptionRecord("6", {"hot_dog"}, set()),
    ]
    report = chair(records)
    chair_s, chair_i, precision, recall, f1 = recount_chair(
        [(r.mentioned, r.ground_truth) for r in records]
    )
    assert report.chair_s == pytest.approx(chair_s)
    assert report.chair_i == pytest.approx(chair_i)
    assert report.precision == pytest.approx(precision)
    assert report.recall == pytest.approx(recall)
    assert report.f1 == pytest.approx(f1)


def test_chair_empty_extraction_is_clean():
    # a caption with no recognized objects carries no hallucination
    report = chair([CaptionRecord("a", set(), {"dog"})])
    assert report.chair_s == 0.0
    assert report.chair_i == 0.0


def test_chair_subset_record_never_raises_rates():
    base = [CaptionRecord("a", {"dog", "cat"}, {"dog"})]
    extended = base + [CaptionRecord("b", {"car"}, {"car", "dog"})]
    r_base, r_ext = chair(base), chair(extended)
    assert r_ext.hallucinated_captions == r_base.hallucinated_captions
    assert r_ext.hallucinated_mentions == r_base.hallucinated_mentions
    assert r_ext.chair_s <= r_base.chair_s
    assert r_ext.chair_i <= r_base.chair_i


def test_chair_reorder_invariance():
    records = [
        CaptionRecord("1", {"dog"}, {"cat"}),
        CaptionRecord("2", {"cat", "car"}, {"cat"}),
        CaptionRecord("3", set(), set()),
    ]
    assert chair(records) == chair(list(reversed(records)))


def test_chair_randomized_recounts():
    classes = ["dog", "cat", "car", "person", "chair", "boat"]
    rng = random.Random(170)
    for _ in range(10):
        records = []
        for i in range(50):
            mentioned = frozenset(rng.sample(classes, rng.randint(0, 4)))
            gt = frozenset(rng.sample(classes, rng.randint(0, 4)))
            records.append(CaptionRecord(str(i), mentioned, gt))
        report = chair(records)
        chair_s, chair_i, precision, recall, f1 = recount_chair(
            [(r.mentioned, r.ground_truth) for r in records]
        )
        assert report.chair_s == pytest.approx(chair_s)
        assert report.chair_i == pytest.approx(chair_i)
        assert report.precision == pytest.approx(precision)
        assert report.recall == pytest.approx(recall)
        assert report.f1 == pytest.approx(f1)


def test_chair_rejects_empty():
    with pytest.raises(ValueError):
        chair([])


# CaptionRecord


def test_caption_record_keeps_a_frozenset_and_has_no_dict():
    dog = frozenset({"dog"})
    rec = CaptionRecord("a", dog, ["dog", "cat", "dog"])
    assert rec.mentioned is dog
    assert type(rec.ground_truth) is frozenset and rec.ground_truth == {"dog", "cat"}
    assert not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.id = "b"
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and hash(back) == hash(rec)
    assert rec == CaptionRecord("a", {"dog"}, {"cat", "dog"})


@pytest.mark.parametrize("field", ["mentioned", "ground_truth"])
@pytest.mark.parametrize("value", ["dog", b"dog"])
def test_caption_record_refuses_a_string_for_a_set(field, value):
    # a string would be taken as the set of its characters: {"d", "o", "g"}
    sets = {"mentioned": {"dog"}, "ground_truth": {"dog"}, field: value}
    kind = type(value).__name__
    with pytest.raises(TypeError, match=rf"^{field} must be a set of class names, not {kind}$"):
        CaptionRecord("a", **sets)


# pope_f1


def test_pope_fixture_two_thirds():
    records = [
        PopeRecord("1", "yes", "yes"),
        PopeRecord("2", "yes", "yes"),
        PopeRecord("3", "yes", "no"),
        PopeRecord("4", "no", "yes"),
        PopeRecord("5", "no", "no"),
        PopeRecord("6", "no", "no"),
    ]
    precision, recall, f1, accuracy = pope_f1(records)
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)
    assert accuracy == pytest.approx(4 / 6)


def test_pope_perfect_predictions():
    records = [PopeRecord(str(i), g, g) for i, g in enumerate(["yes", "no", "yes"])]
    assert pope_f1(records)[2] == 1.0


def test_pope_randomized_recounts():
    rng = random.Random(17)
    for _ in range(10):
        pairs = [
            (rng.choice(["yes", "no"]), rng.choice(["yes", "no"])) for _ in range(50)
        ]
        records = [PopeRecord(str(i), p, g) for i, (p, g) in enumerate(pairs)]
        assert pope_f1(records) == pytest.approx(recount_pope(pairs))


def test_pope_reorder_invariance():
    records = [
        PopeRecord("1", "yes", "no"),
        PopeRecord("2", "no", "no"),
        PopeRecord("3", "yes", "yes"),
    ]
    assert pope_f1(records) == pope_f1(list(reversed(records)))


def test_pope_rejects_bad_answers_and_empty():
    with pytest.raises(ValueError):
        PopeRecord("1", "maybe", "yes")
    with pytest.raises(ValueError):
        pope_f1([])


# each raised Python's own "Exceeds the limit (4300 digits)" ValueError,
# which names no field, in place of its own refusal
@pytest.mark.parametrize("field", ["predicted", "gold"])
@pytest.mark.parametrize("value", [UNPRINTABLE, [UNPRINTABLE]], ids=["int", "list"])
def test_a_refused_answer_too_long_to_print_is_named_by_its_type(field, value):
    with pytest.raises(ValueError, match=unprintable(field)):
        PopeRecord(**{"id": "1", "predicted": "yes", "gold": "no", field: value})
