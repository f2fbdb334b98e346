"""JSONL record-file loader tests."""

import json
import re
import time
import tracemalloc

import pytest

from freqfuse.harness.formats import (
    MAX_LINE,
    DataFormatError,
    bundled_synonyms_path,
    load_caption_records,
    load_ground_truth,
    load_pope_records,
    parse_json,
    read_json,
)
from freqfuse.metrics import CaptionRecord, SynonymTable
from util import write_jsonl

TABLE = SynonymTable({"dog": "dog", "cat": "cat", "puppy": "dog", "car": "car"})


def test_load_caption_records(tmp_path):
    path = write_jsonl(
        tmp_path / "caps.jsonl",
        [
            {"id": "a", "caption": "A dog and a cat.", "ground_truth": ["dog"]},
            {"id": "b", "caption": "nothing here", "ground_truth": []},
        ],
    )
    records = load_caption_records(path, TABLE)
    assert records[0].mentioned == {"dog", "cat"}
    assert records[0].ground_truth == {"dog"}
    assert records[1].mentioned == set()


def test_records_share_one_frozenset_per_distinct_class_set(tmp_path):
    path = write_jsonl(
        tmp_path / "caps.jsonl",
        [
            {"id": "a", "caption": "a dog", "ground_truth": ["dog"]},
            {"id": "b", "caption": "a puppy and a cat", "ground_truth": ["cat", "puppy"]},
            {"id": "c", "caption": "a cat, then a dog", "ground_truth": ["puppy"]},
            {"id": "d", "caption": "nothing here", "ground_truth": []},
            {"id": "e", "caption": "a puppy", "ground_truth": ["dog", "cat", "dog"]},
        ],
    )
    records = load_caption_records(path, TABLE)
    assert records == [
        CaptionRecord("a", {"dog"}, {"dog"}),
        CaptionRecord("b", {"dog", "cat"}, {"cat", "dog"}),
        CaptionRecord("c", {"cat", "dog"}, {"dog"}),
        CaptionRecord("d", set(), set()),
        CaptionRecord("e", {"dog"}, {"dog", "cat"}),
    ]
    sets = [s for r in records for s in (r.mentioned, r.ground_truth)]
    assert len({id(s) for s in sets}) == len(set(sets)) == 3


def test_caption_records_hold_under_200_bytes_each(tmp_path):
    # four caption rows, cycled: every set repeats, every id is new
    rows = [
        {"caption": "a dog and a cat", "ground_truth": ["dog"]},
        {"caption": "a car", "ground_truth": ["car", "puppy"]},
        {"caption": "a puppy near a car", "ground_truth": ["car", "dog"]},
        {"caption": "nothing here", "ground_truth": ["cat"]},
    ]
    n = 4000
    lines = [{"id": f"cap{i:06d}", **rows[i % len(rows)]} for i in range(n)]
    path = write_jsonl(tmp_path / "caps.jsonl", lines)
    load_caption_records(path, TABLE)  # state built on first use is not counted
    tracemalloc.start()
    try:
        records = load_caption_records(path, TABLE)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == n
    assert held <= 200 * n


def test_ground_truth_goes_through_synonyms(tmp_path):
    path = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "a puppy", "ground_truth": ["puppy"]}],
    )
    records = load_caption_records(path, TABLE)
    assert records[0].ground_truth == {"dog"}
    assert records[0].mentioned == {"dog"}


def test_unknown_ground_truth_class_is_an_error(tmp_path):
    path = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "x", "ground_truth": ["zebra"]}],
    )
    message = rf"^{re.escape(path)}:1: unknown object class 'zebra' \(not in"
    with pytest.raises(DataFormatError, match=message):
        load_caption_records(path, TABLE)


def test_invalid_json_names_the_line(tmp_path):
    path = tmp_path / "caps.jsonl"
    path.write_text('{"id": "a", "caption": "x", "ground_truth": []}\n{oops\n')
    with pytest.raises(DataFormatError, match=":2:"):
        load_caption_records(path, TABLE)


def test_missing_field_is_an_error(tmp_path):
    path = write_jsonl(tmp_path / "caps.jsonl", [{"id": "a", "caption": "x"}])
    with pytest.raises(DataFormatError, match="ground_truth"):
        load_caption_records(path, TABLE)


def test_empty_caption_file_is_an_error(tmp_path):
    path = tmp_path / "caps.jsonl"
    path.write_text("\n\n")
    with pytest.raises(DataFormatError, match="no caption records"):
        load_caption_records(path, TABLE)


def test_load_pope_records(tmp_path):
    path = write_jsonl(
        tmp_path / "pope.jsonl",
        [
            {"id": "1", "predicted": "yes", "gold": "no"},
            {"id": "2", "predicted": "no", "gold": "no"},
        ],
    )
    records = load_pope_records(path)
    assert len(records) == 2
    assert records[0].predicted == "yes"


def test_pope_rejects_bad_answer(tmp_path):
    path = write_jsonl(
        tmp_path / "pope.jsonl", [{"id": "1", "predicted": "maybe", "gold": "no"}]
    )
    with pytest.raises(DataFormatError, match="maybe"):
        load_pope_records(path)


def test_load_ground_truth(tmp_path):
    path = write_jsonl(
        tmp_path / "gt.jsonl",
        [
            {"id": "a", "ground_truth": ["dog", "cat"]},
            {"id": "b", "ground_truth": []},
        ],
    )
    table = load_ground_truth(path)
    assert table == {"a": ["dog", "cat"], "b": []}


def test_ground_truth_rejects_duplicate_ids(tmp_path):
    path = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": []}, {"id": "a", "ground_truth": ["dog"]}],
    )
    with pytest.raises(DataFormatError, match="duplicate id"):
        load_ground_truth(path)


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"dog": "\xff"}', "not valid UTF-8"),
        (b"", "invalid JSON (Expecting value)"),
        (b'["dog"]', "a synonym table must map strings to strings"),
        (b'{"car": "vehicle", "vehicle": "car"}',
         "canonical class 'vehicle' is mapped away to 'car'"),
    ],
)
def test_synonym_file_faults_are_data_format_errors_naming_it(tmp_path, content, message):
    # the config and the record files raise the same class, a ValueError
    path = tmp_path / "syn.json"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        SynonymTable.from_json(path)


def test_bundled_synonyms_path_is_loadable():
    table = SynonymTable.from_json(bundled_synonyms_path())
    assert "dog" in table.canonical_classes


def test_crlf_line_endings_load(tmp_path):
    path = tmp_path / "caps.jsonl"
    path.write_bytes(
        b'{"id": "a", "caption": "a dog", "ground_truth": ["dog"]}\r\n'
        b"\r\n"
        b'{"id": "b", "caption": "a cat", "ground_truth": []}\r\n'
    )
    records = load_caption_records(path, TABLE)
    assert [r.id for r in records] == ["a", "b"]
    assert records[1].mentioned == {"cat"}


@pytest.mark.parametrize(
    "load, record",
    [
        (lambda p: load_caption_records(p, TABLE),
         {"id": "a", "caption": "x", "ground_truth": []}),
        (load_pope_records, {"id": "a", "predicted": "yes", "gold": "no"}),
        (load_ground_truth, {"id": "a", "ground_truth": []}),
    ],
    ids=["captions", "probes", "ground-truth"],
)
def test_undecodable_line_names_file_and_line(tmp_path, load, record):
    path = tmp_path / "records.jsonl"
    path.write_bytes(json.dumps(record).encode() + b'\n{"id": "\xff"}\n')
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:2: not valid UTF-8$"):
        load(path)


def _line_of(size):
    """A valid captions JSON line of exactly `size` bytes, newline excluded."""
    head = '{"id": "a", "ground_truth": [], "caption": "'
    return head + "x" * (size - len(head) - 2) + '"}'


def test_line_at_the_cap_loads(tmp_path):
    path = tmp_path / "caps.jsonl"
    path.write_text(_line_of(MAX_LINE) + "\n")
    assert len(load_caption_records(path, TABLE)) == 1


@pytest.mark.parametrize("size", [MAX_LINE + 1, 16 << 20], ids=["cap+1", "16MiB"])
def test_line_over_the_cap_is_refused_quickly(tmp_path, size):
    # refused after reading the cap plus one byte, never held whole
    path = tmp_path / "caps.jsonl"
    path.write_text(_line_of(size) + "\n")
    start = time.monotonic()
    with pytest.raises(DataFormatError, match=":1: line longer than 1048576 bytes"):
        load_caption_records(path, TABLE)
    assert time.monotonic() - start < 1.0


def _outcome(parse, text):
    """("value", repr of the value) or ("error", json's reason)."""
    try:
        return "value", repr(parse(text))
    except json.JSONDecodeError as exc:
        return "error", exc.msg
    except DataFormatError as exc:
        return "error", re.fullmatch(r"x: invalid JSON \((.*)\)", str(exc))[1]


@pytest.mark.parametrize(
    "text",
    ['\ufeff{"a": 1}', "{} {}", '{"a": 1} x', "NaN", "[Infinity, -Infinity]", "",
     '""', '"\\ud800"', '{"a": 1, "a": 2}', " {}", "{}\n", "[1,]", "{oops", "-"],
    ids=["bom", "two-values", "trailing-data", "nan", "infinity", "empty-text",
         "empty-string", "lone-surrogate-escape", "duplicate-keys",
         "leading-space", "trailing-newline", "trailing-comma", "bad-key", "bare-minus"],
)
def test_parse_json_gives_json_loads_value_or_message(text):
    assert _outcome(lambda t: parse_json(t, "x"), text) == _outcome(json.loads, text)


def test_read_json_of_a_file_with_a_trailing_newline(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"b": [1, 2.5, null], "a": "\\u00e9"}\n')
    value = read_json(path)
    assert value == json.loads(path.read_text())
    assert list(value) == ["b", "a"]


def test_a_valid_captions_file_is_parsed_without_json_loads(tmp_path, monkeypatch):
    # each line is parsed once, by the decoder, not again by json.loads
    calls = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    path = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": str(i), "caption": "a dog", "ground_truth": ["cat"]} for i in range(50)],
    )
    assert len(load_caption_records(path, TABLE)) == 50
    assert calls == []
    assert parse_json("{} ", "x") == {}  # the counter sees the fall-through
    assert len(calls) == 1
