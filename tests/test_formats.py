"""JSONL record-file loader tests."""

import contextlib
import functools
import json
import os
import re
import signal
import threading
import time
import tracemalloc

import pytest

from freqfuse.harness import formats, forks
from freqfuse.harness.cli import main
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
from util import exactly, write_jsonl

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


# the caption reader split into chunks, read by several processes

DEADLINE_S = 5  # seconds for one split-read test; each takes well under one
CHUNK = 256  # bytes in a chunk of a split-read test: about three GOOD lines


@pytest.fixture
def deadline():
    """Fail the test, rather than hang, if it runs over DEADLINE_S: a split
    read waits on its readers' pipes."""

    def expired(signum, frame):
        pytest.fail(f"the test ran over its {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(DEADLINE_S)  # a forked child does not inherit the alarm
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def chunked(monkeypatch, tmp_path, deadline):
    """chunked(processes, chunk_bytes=CHUNK, readers_stop=None) has
    load_caption_records read a regular file of any size in chunks of
    chunk_bytes, by that many processes whatever the machine's CPU count.

    With readers_stop, a function of a chunk index, a reader exits when it
    reaches a chunk k for which readers_stop(k) is true, sending nothing
    for it, and this process goes on only once every reader has exited. So
    the readers read their shares up to those chunks, and this process
    every chunk they did not send: see _owner. Returns a function that
    gives the (chunk index, "parent" or "reader") of each chunk read since
    its last call, in the order read."""
    log = tmp_path / "chunks.log"
    log.touch()
    parent = os.getpid()
    chunk, forked = formats._chunk, forks.forked

    @contextlib.contextmanager
    def readers_first(messages, shares):
        with forked(messages, shares) as (children, pipes):
            for child in children:
                child.join()
            yield children, pipes

    def split(processes, chunk_bytes=CHUNK, readers_stop=None):
        def logged(fh, where, table, k):
            reader = os.getpid() != parent
            if reader and readers_stop is not None and readers_stop(k):
                os._exit(0)
            with open(log, "a") as out:  # one short append: whole across processes
                out.write(f"{k} {'reader' if reader else 'parent'}\n")
            return chunk(fh, where, table, k)

        monkeypatch.setattr(formats, "SPLIT_BYTES", 2)  # a reader per byte up
        monkeypatch.setattr(formats, "usable_cpus", lambda: processes)
        monkeypatch.setattr(formats, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(formats, "_chunk", logged)
        monkeypatch.setattr(forks, "forked", forked if readers_stop is None else readers_first)
        return read_chunks

    def read_chunks():
        entries = [line.split() for line in log.read_text().splitlines()]
        log.write_text("")
        return [(int(k), who) for k, who in entries]

    return split


def _owner(k, processes, readers_stop):
    """Who reads chunk k under chunked's readers_stop: its reader, unless
    that reader stops at k or at a chunk of its share before k."""
    share = range(k % (processes - 1), k + 1, processes - 1)
    return "parent" if any(map(readers_stop, share)) else "reader"


def _read(path):
    """A read's records, with the first index at which each record's sets
    were seen as objects, or its error's type and message."""
    try:
        records = load_caption_records(path, TABLE)
    except Exception as exc:
        return type(exc), str(exc)
    first_seen = {}
    sharing = [
        first_seen.setdefault(id(s), len(first_seen))
        for r in records
        for s in (r.mentioned, r.ground_truth)
    ]
    return records, sharing


# the caption-file tests above, each a function of tmp_path, by name
CAPTION_FILE_TESTS = {
    test.__name__: test
    for test in [
        test_load_caption_records,
        test_records_share_one_frozenset_per_distinct_class_set,
        test_caption_records_hold_under_200_bytes_each,
        test_ground_truth_goes_through_synonyms,
        test_unknown_ground_truth_class_is_an_error,
        test_invalid_json_names_the_line,
        test_missing_field_is_an_error,
        test_empty_caption_file_is_an_error,
        test_crlf_line_endings_load,
        test_line_at_the_cap_loads,
    ]
}
CAPTION_FILE_TESTS["test_undecodable_line_names_file_and_line[captions]"] = functools.partial(
    test_undecodable_line_names_file_and_line,
    load=lambda p: load_caption_records(p, TABLE),
    record={"id": "a", "caption": "x", "ground_truth": []},
)
CAPTION_FILE_TESTS["test_line_over_the_cap_is_refused_quickly[cap+1]"] = functools.partial(
    test_line_over_the_cap_is_refused_quickly, size=MAX_LINE + 1
)


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("name", CAPTION_FILE_TESTS)
def test_the_caption_file_tests_hold_for_a_chunked_read(tmp_path, chunked, name, processes):
    chunked(processes, chunk_bytes=48)  # several chunks even in a two-line file
    CAPTION_FILE_TESTS[name](tmp_path)


GOOD = {"id": "g", "caption": "a dog near a car", "ground_truth": ["dog", "puppy"]}
# one bad line of each kind the reader refuses, with the message it gives
BAD_LINES = {
    "invalid-json": (b"{oops", "invalid JSON (Expecting property name enclosed in double quotes)"),
    "not-an-object": (b"[1, 2]", "expected a JSON object"),
    "missing-field": (b'{"id": "b", "caption": "x"}', "field 'ground_truth' must be list"),
    "non-string-class": (b'{"id": "b", "caption": "x", "ground_truth": [5]}',
                         "ground-truth entries must be strings"),
    "unknown-class": (b'{"id": "b", "caption": "x", "ground_truth": ["zebra"]}',
                      "unknown object class 'zebra' (not in the synonym table)"),
    "undecodable": (b'{"id": "\xff"}', "not valid UTF-8"),
    "over-the-cap": (b"x" * (MAX_LINE + 1), f"line longer than {MAX_LINE} bytes"),
}
# readers_stop for chunked: every chunk is read by its reader, or by the parent
READ_BY = {"reader": lambda k: False, "parent": lambda k: True}


def _captions_file(path, lines):
    """A captions file of lines (bytes, or records), each ended by "\n"."""
    path.write_bytes(b"".join(
        (line if isinstance(line, bytes) else json.dumps(line).encode()) + b"\n"
        for line in lines
    ))
    return str(path)


def _line_starts(path):
    """The offset of each line of a file, and its size last."""
    starts = [0]
    with open(path, "rb") as fh:
        for line in fh:
            starts.append(starts[-1] + len(line))
    return starts


def test_chunk_0_is_read_from_the_file_start_after_other_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "CHUNK_BYTES", CHUNK)
    path = _captions_file(tmp_path / "caps.jsonl", [dict(GOOD, id=str(i)) for i in range(20)])
    with open(path, "rb") as fh:
        fresh = list(formats._chunk(fh, path, TABLE, 0))
    with open(path, "rb") as fh:
        assert list(formats._chunk(fh, path, TABLE, 1))
        assert list(formats._chunk(fh, path, TABLE, 0)) == fresh
    assert [rid for rid, _, _ in fresh] == ["0", "1", "2", "3"]


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("owner", READ_BY)
@pytest.mark.parametrize("kind", BAD_LINES)
def test_a_bad_line_in_a_chunk_is_refused_as_in_one_process(
    tmp_path, chunked, kind, owner, processes
):
    line, message = BAD_LINES[kind]
    # a blank line first, as line numbers count every line; then enough
    # good lines that the bad one starts after the second chunk
    path = tmp_path / "caps.jsonl"
    good = 8
    _captions_file(path, [b"", *[GOOD] * good, line, GOOD])
    k = _line_starts(path)[good + 1] // CHUNK
    assert k > 1
    refusal = (DataFormatError, f"{path}:{good + 2}: {message}")
    assert _read(str(path)) == refusal
    read_chunks = chunked(processes, readers_stop=READ_BY[owner])
    assert _read(str(path)) == refusal
    assert (k, owner) in read_chunks()


@pytest.mark.parametrize("processes, stops, first, second", [
    # the chunks' owners: both readers
    (2, (), 2, 5),
    # both the parent
    (2, range(10), 2, 5),
    # a reader, then the parent
    (2, range(5, 10), 2, 6),
    (3, (), 2, 5),
    (3, range(10), 2, 5),
    (3, range(5, 10), 2, 6),
    # the parent, then a reader
    (3, range(0, 10, 2), 2, 3),
])
def test_of_bad_lines_in_two_chunks_the_first_is_refused(
    tmp_path, chunked, processes, stops, first, second
):
    # lines of one length, three to a chunk, ten chunks
    lines = [dict(GOOD, id=f"{i:03d}") for i in range(1, 31)]
    size = len(json.dumps(lines[0])) + 1
    read_chunks = chunked(processes, chunk_bytes=3 * size, readers_stop=stops.__contains__)
    # the middle line of each chunk
    bad = [3 * k + 2 for k in (first, second)]
    for n in bad:
        lines[n - 1] = dict(lines[n - 1], ground_truth=[f"zebra{n}"])
    path = _captions_file(tmp_path / "caps.jsonl", lines)
    n = bad[0]
    with pytest.raises(DataFormatError, match=exactly(
        f"{path}:{n}: unknown object class 'zebra{n}' (not in the synonym table)"
    )):
        load_caption_records(path, TABLE)
    read = read_chunks()
    assert {who for k, who in read if k == first} == {_owner(first, processes, stops.__contains__)}
    # the second is read by its owner, or left unread once the first is refused
    assert {who for k, who in read if k == second} <= {_owner(second, processes, stops.__contains__)}


@pytest.mark.parametrize("processes", [2, 3])
def test_the_parent_reads_no_chunk_past_a_refusal_it_has_received(tmp_path, chunked, processes):
    # a refusal in chunk 2, then over 4,000 chunks, most in a line over the
    # cap, that this process would otherwise read down from the end
    lines = [dict(GOOD, id=f"{i:03d}") for i in range(1, 31)]
    size = len(json.dumps(lines[0])) + 1
    lines[7] = dict(lines[7], ground_truth=["zebra"])  # line 8, in chunk 2
    lines[20] = b"{oops"
    lines.insert(25, _line_of(MAX_LINE + 1).encode())
    path = _captions_file(tmp_path / "caps.jsonl", lines)
    read_chunks = chunked(processes, chunk_bytes=3 * size, readers_stop=READ_BY["reader"])
    assert os.path.getsize(path) // (3 * size) > 4000
    with pytest.raises(DataFormatError, match=exactly(
        f"{path}:8: unknown object class 'zebra' (not in the synonym table)"
    )):
        load_caption_records(path, TABLE)
    read = read_chunks()
    assert [k for k, who in read if who == "parent"] == []
    # the refusing reader stops at its refusal; another reads on
    assert [k for k, _ in read if k % (processes - 1) == 0] == list(range(0, 3, processes - 1))


@pytest.mark.parametrize("size", [MAX_LINE + 100, 3 * MAX_LINE], ids=["cap+100", "3x-cap"])
def test_a_line_over_the_cap_across_chunk_boundaries_is_refused(tmp_path, chunked, size):
    # the long line spans chunks that no line starts in; at cap+100, the next
    # line starts in a chunk of its own
    path = _captions_file(tmp_path / "caps.jsonl", [GOOD, _line_of(size).encode(), GOOD])
    chunked(2, chunk_bytes=64 << 10)
    start = time.monotonic()
    with pytest.raises(DataFormatError, match=exactly(
        f"{path}:2: line longer than {MAX_LINE} bytes"
    )):
        load_caption_records(path, TABLE)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("processes", [2, 3, 5])
def test_blank_lines_and_long_lines_at_chunk_boundaries_keep_records_and_line_numbers(
    tmp_path, chunked, processes
):
    # runs of blank lines, "\r\n" ones too, and lines longer than a chunk,
    # where the chunks meet
    lines = []
    for i in range(12):
        caption = f"a cat and {i} dogs" + " and a car" * (30 * (i % 5 == 3))
        lines += [dict(GOOD, id=str(i), caption=caption)] + [b"", b"\r"] * (i % 4)
    path = _captions_file(tmp_path / "caps.jsonl", [*lines, b"", b"{oops"])
    good = _captions_file(tmp_path / "good.jsonl", lines)
    serial = _read(path), _read(good)
    assert serial[0][1].startswith(f"{path}:{len(lines) + 2}: invalid JSON")
    for chunk_bytes in range(40, 140, 7):
        read_chunks = chunked(processes, chunk_bytes)
        assert (_read(path), _read(good)) == serial
        assert len({k for k, _ in read_chunks()}) > processes


def test_a_chunked_read_gives_the_records_and_sharing_of_one_process(tmp_path, chunked):
    classes = ["dog", "cat", "car", "puppy"]
    lines = [
        {"id": f"c{i}",
         "caption": " and ".join(f"a {classes[(i * k) % 4]}" for k in range(i % 5)),
         "ground_truth": [classes[(i + k) % 4] for k in range(i % 3)]}
        for i in range(300)
    ]
    path = _captions_file(tmp_path / "caps.jsonl", lines)
    serial = _read(path)
    assert len(serial[0]) == 300
    read_by = dict(READ_BY, both=lambda k: k >= 30)
    for processes in (2, 3, 4):
        read_chunks = chunked(processes)
        assert _read(path) == serial
        assert read_chunks()
        for owner, stop in read_by.items():
            read_chunks = chunked(processes, readers_stop=stop)
            assert _read(path) == serial
            assert {who for _, who in read_chunks()} == (
                {"parent", "reader"} if owner == "both" else {owner}
            )


@pytest.mark.parametrize("processes", [2, 3])
def test_every_chunk_is_read_and_the_parent_reads_the_end_of_each_share(
    tmp_path, chunked, processes
):
    # readers may read on past where they meet this process, until killed
    path = _captions_file(tmp_path / "caps.jsonl", [GOOD] * 200)
    chunks = -(-os.path.getsize(path) // CHUNK)
    read_chunks = chunked(processes)
    for _ in range(3):
        assert len(load_caption_records(path, TABLE)) == 200
        read = read_chunks()
        assert {k for k, _ in read} == set(range(chunks))
        parents = [k for k, who in read if who == "parent"]
        assert parents == sorted(set(parents), reverse=True)
        for j in range(processes - 1):
            share = range(j, chunks, processes - 1)
            ends = [k for k in share if k in parents]
            assert ends == list(share[len(share) - len(ends):])
            assert {k for k, who in read if who == "reader"} >= set(share[:len(share) - len(ends)])


@pytest.mark.parametrize("processes", [2, 3])
def test_the_parent_waits_for_the_chunk_a_reader_is_reading(
    tmp_path, monkeypatch, chunked, processes
):
    # each reader holds its first chunk from `meet` on until this process has
    # read every chunk after those, and this process reads nothing until each
    # reader holds its chunk: this process then waits for them, and reads
    # none of them itself
    path = _captions_file(tmp_path / "caps.jsonl", [GOOD] * 200)
    chunks = -(-os.path.getsize(path) // CHUNK)
    readers, meet = processes - 1, 30
    held = range(meet, meet + readers)
    log = tmp_path / "chunks.log"
    read_chunks = chunked(processes)
    logged = formats._chunk

    def logs(entries):
        return set(entries) <= {tuple(line.split()) for line in log.read_text().splitlines()}

    def wait(until):
        while not until():
            time.sleep(0.005)

    def meeting(fh, where, table, k):
        if k in held:  # in its reader
            records = logged(fh, where, table, k)
            wait(lambda: logs((str(i), "parent") for i in range(held.stop, chunks)))
            return records
        if k == chunks - 1:  # in this process, its first chunk
            wait(lambda: logs((str(i), "reader") for i in held))
        return logged(fh, where, table, k)

    monkeypatch.setattr(formats, "_chunk", meeting)
    assert len(load_caption_records(path, TABLE)) == 200
    read = read_chunks()
    assert sorted(k for k, who in read if who == "parent") == list(range(held.stop, chunks))
    assert {k for k, who in read if who == "reader"} >= set(range(held.stop))


def test_a_small_file_is_read_without_a_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "usable_cpus", lambda: 2)
    lines = [GOOD] * (formats.SPLIT_BYTES // (len(json.dumps(GOOD)) + 1))
    path = _captions_file(tmp_path / "caps.jsonl", lines)
    assert os.path.getsize(path) < formats.SPLIT_BYTES
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert len(load_caption_records(path, TABLE)) == len(lines)
    assert forks == []
    path = _captions_file(tmp_path / "caps.jsonl", [*lines, GOOD])
    assert os.path.getsize(path) >= formats.SPLIT_BYTES
    assert len(load_caption_records(path, TABLE)) == len(lines) + 1
    assert forks == [1]


@pytest.mark.parametrize("halves", [2, 3, 7])
def test_no_reader_is_forked_for_under_half_the_split_size(
    tmp_path, monkeypatch, deadline, halves
):
    # on 8 CPUs, a file of `halves` halves of SPLIT_BYTES is read by that
    # many processes, and a file a line shorter by one fewer, not by 8
    # processes that each cost a fork
    monkeypatch.setattr(formats, "usable_cpus", lambda: 8)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    line = len(json.dumps(GOOD)) + 1
    lines = [GOOD] * -(-halves * (formats.SPLIT_BYTES // 2) // line)
    for n in (len(lines) - 1, len(lines)):
        forks.clear()
        path = _captions_file(tmp_path / "caps.jsonl", lines[:n])
        assert len(load_caption_records(path, TABLE)) == n
        assert len(forks) == os.path.getsize(path) // (formats.SPLIT_BYTES // 2) - 1
    assert len(forks) == halves - 1


def test_a_fifo_is_read_in_one_process(tmp_path, monkeypatch, chunked):
    # a FIFO reports size 0: it is read as it comes, never split
    fifo = tmp_path / "caps.fifo"
    os.mkfifo(fifo)
    text = "".join(json.dumps(dict(GOOD, id=str(i))) + "\n" for i in range(100))
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    read_chunks = chunked(2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    try:
        records = load_caption_records(fifo, TABLE)
    finally:
        writer.join(10.0)
    assert not writer.is_alive()
    assert [r.id for r in records] == [str(i) for i in range(100)]
    assert read_chunks() == []
    assert forks == []


@pytest.mark.parametrize("processes", [2, 3])
def test_a_reader_that_dies_leaves_the_records_and_output_of_one_process(
    tmp_path, monkeypatch, chunked, capsys, processes
):
    path = _captions_file(tmp_path / "caps.jsonl", [dict(GOOD, id=str(i)) for i in range(30)])
    serial = _read(path)
    assert main(["eval", "chair", "--captions", path]) == 0
    output = capsys.readouterr()
    # each reader reads its first chunk, and dies on its second
    read_chunks = chunked(processes, readers_stop=READ_BY["reader"])
    logged, parent = formats._chunk, os.getpid()

    def dies_in_a_reader(fh, where, table, k):
        if k >= processes - 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return logged(fh, where, table, k)

    monkeypatch.setattr(formats, "_chunk", dies_in_a_reader)
    assert _read(path) == serial
    read = read_chunks()
    assert sorted(k for k, who in read if who == "reader") == list(range(processes - 1))
    assert main(["eval", "chair", "--captions", path]) == 0
    assert capsys.readouterr() == output
    # and no child is left running: the no_child_left fixture checks it
