"""Metric tests against hand fixtures and brute-force recounts."""

import importlib.resources
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqfuse.metrics import (
    CaptionRecord,
    PopeRecord,
    SynonymTable,
    chair,
    extract_objects,
    pope_f1,
)
from oracles import recount_chair, recount_pope

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
