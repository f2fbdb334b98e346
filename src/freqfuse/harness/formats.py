"""Every JSON input the program reads, decoded, parsed and checked here.

Whole files (the sweep config, the synonym table), JSONL record files
(captions, probes, ground truth), a captioner's reply lines and the mock
captioner's request lines are all strict UTF-8 JSON; a line, read from a
file or a pipe, is capped at MAX_LINE bytes. A fault raises the caller's
error class, DataFormatError unless it passes another (the oracle's
OracleError), with a message that starts with where it is:
"<path>", "<path>:<line>", "oracle line <n>" or "stdin:<line>".
DataFormatError, a ValueError, is also the one error of bad input data
elsewhere (an image imageio cannot read or write, a sweep config, a
decoder or caption reader process that dies): every failure the CLI exits
2 for. A large captions file is read in parts, one per usable CPU, by
forked reader processes (see load_caption_records).
"""

import functools
import importlib.resources
import json
import os
import stat
import struct

from ..metrics import CaptionRecord, PopeRecord, extract_objects
from ..spectral import usable_cpus

MAX_LINE = 1 << 20  # bytes in one line of JSON, newline excluded
# a regular captions file of at least this many bytes is read in parts, one
# per usable CPU and none under half of it. Measured on 2 CPUs: a split
# read costs about 5 ms more than one process on a tiny file, and the
# crossover fell anywhere from 130 KB to 390 KB between runs; every run
# read the split faster from 389 KB (3,300 captions) up
SPLIT_BYTES = 384 << 10

_raw_decode = json.JSONDecoder().raw_decode


class DataFormatError(ValueError):
    """Input data that cannot be read as valid records or images."""


def bundled_synonyms_path() -> str:
    """Path of the synonym table shipped with the package."""
    return str(importlib.resources.files("freqfuse") / "data" / "synonyms.json")


def decode_utf8(data, where, error=DataFormatError):
    """Bytes as text, or error "<where>: not valid UTF-8"."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise error(f"{where}: not valid UTF-8") from None


def parse_json(text, where, error=DataFormatError):
    """The JSON value of text, as json.loads gives it, or error
    "<where>: invalid JSON (<why>)" with json.loads's reason.

    Text that is one JSON value and nothing else is parsed once, by the
    decoder json.loads wraps; anything else goes to json.loads itself.
    """
    try:
        try:
            value, end = _raw_decode(text)
        except json.JSONDecodeError:
            pass
        else:
            if end == len(text):
                return value
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{where}: invalid JSON (nested too deeply)") from None
    except ValueError:  # the only other ValueError is int()'s digit limit
        raise error(f"{where}: invalid JSON (number too long)") from None


def read_json(path):
    """The JSON value of a whole UTF-8 file."""
    with open(path, "rb") as fh:
        return parse_json(decode_utf8(fh.read(), path), path)


def json_lines(stream, where, error=DataFormatError, first=1, size=None):
    """("<where>:<line number>", JSON value) for each non-blank line of a
    binary stream, numbering its first line `first`; with size, only the
    lines that start in the next size bytes.

    A line is read up to MAX_LINE + 1 bytes, so an over-long line is refused
    before it is held whole; lines end at "\n" ("\r\n" is fine) and are
    stripped before they are parsed.
    """
    read_line = functools.partial(stream.readline, MAX_LINE + 1)
    lines = iter(read_line, b"") if size is None else _lines_within(read_line, size)
    for line_no, raw in enumerate(lines, start=first):
        at = f"{where}:{line_no}"
        if len(raw) > MAX_LINE and not raw.endswith(b"\n"):
            raise error(f"{at}: line longer than {MAX_LINE} bytes")
        line = decode_utf8(raw, at, error).strip()
        if line:
            yield at, parse_json(line, at, error)


def _lines_within(read_line, size):
    """The lines read_line gives that start in the next size bytes."""
    while size > 0:
        raw = read_line()
        if not raw:
            return
        size -= len(raw)
        yield raw


def json_field(record, key, kind, where, error=DataFormatError):
    """record[key] if record is a JSON object and the value a `kind`, else
    error naming where."""
    if not isinstance(record, dict):
        raise error(f"{where}: expected a JSON object")
    value = record.get(key)
    if not isinstance(value, kind):
        raise error(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _jsonl(path):
    with open(path, "rb") as fh:
        # a str formats faster than a Path, once per line
        yield from json_lines(fh, str(path))


def _ground_truth_names(record, where):
    names = json_field(record, "ground_truth", list, where)
    if not all(isinstance(n, str) for n in names):
        raise DataFormatError(f"{where}: ground-truth entries must be strings")
    return names


def canonical_set(names, table, where):
    """Canonical classes of ground-truth names, as a frozenset; an unknown
    name is an error whose message starts with where."""
    out = frozenset(map(table.canonicalize, names))
    if None in out:
        name = next(n for n in names if table.canonicalize(n) is None)
        raise DataFormatError(
            f"{where}: unknown object class {name!r} (not in the synonym table)"
        )
    return out


def load_caption_records(path, table):
    """Captions JSONL {"id","caption","ground_truth":[...]} -> CaptionRecords.

    Captions go through synonym extraction; each ground-truth name must be a
    surface form in the table and is stored as its canonical class. Records
    share one frozenset per distinct class set, mentioned or ground truth:
    a file holds far fewer distinct sets than captions.

    A regular file of SPLIT_BYTES or more is split at line starts into one
    part per usable CPU, none under SPLIT_BYTES / 2 bytes: this process
    reads the first part while a forked process reads each other part,
    through the same reader and numbering lines as the whole file does, and
    sends back its part's records or its first error. The records, their order and sharing, and the error raised
    (the first bad line in the file) are those of a read in one process.
    A process that dies is a DataFormatError naming the path.
    """
    # imported here: the captioner child imports this module, and reads no captions
    from .forks import forked

    path = str(path)  # a str formats faster than a Path, once per line
    shared = {}  # class set -> the first frozenset seen with it
    with open(path, "rb") as fh:
        starts = _part_starts(fh)
        sizes = [b - a for a, b in zip(starts, starts[1:])] + [None]  # None: to the end
        jobs = [(_send_part, (path, table, *part)) for part in zip(starts[1:], sizes[1:])]
        with forked(jobs) as (readers, pipes):
            records = [
                CaptionRecord(rid, shared.setdefault(m, m), shared.setdefault(g, g))
                for rid, m, g in _captions(fh, path, table, 1, sizes[0])
            ]
            for reader, pipe in zip(readers, pipes):
                ids, keys, sets = _received_part(path, reader, pipe)
                keys = memoryview(keys).cast("I")
                sets = [shared.setdefault(s, s) for s in sets]
                records += map(
                    CaptionRecord,
                    ids,
                    map(sets.__getitem__, keys[::2]),
                    map(sets.__getitem__, keys[1::2]),
                )
    if not records:
        raise DataFormatError(f"{path}: no caption records")
    return records


def _part_starts(fh):
    """The offset where each part of the open file fh starts, at a line
    start: [0] for a file that is not regular or under SPLIT_BYTES, else
    up to n parts, n the usable CPUs but at most one per SPLIT_BYTES / 2
    bytes, the k-th starting at the first line start at or after its k / n
    of the bytes, and none empty. fh is left at its start."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):  # a FIFO, whose size is 0
        return [0]
    # a file under SPLIT_BYTES gives n <= 1: one part
    n = min(usable_cpus(), info.st_size // (SPLIT_BYTES // 2))
    starts = [0]
    for k in range(1, n):
        share = info.st_size * k // n
        if share <= starts[-1]:
            continue  # inside the line the last part starts with
        fh.seek(share - 1)
        rest = fh.readline(MAX_LINE + 1)  # of the line that holds byte share - 1
        # no newline: the last line, or one over the cap that the part
        # holding its start refuses; nothing after it is read
        if not rest.endswith(b"\n") or share - 1 + len(rest) == info.st_size:
            break
        starts.append(share - 1 + len(rest))
    fh.seek(0)
    return starts


def _captions(fh, where, table, first, size):
    """(id, mentioned classes, ground-truth classes), the classes as
    frozensets, of each caption in the lines that start in the next size
    bytes of fh (to its end if size is None), numbered from line `first`."""
    for at, record in json_lines(fh, where, first=first, size=size):
        rid = json_field(record, "id", str, at)
        caption = json_field(record, "caption", str, at)
        gt_names = _ground_truth_names(record, at)
        mentioned = frozenset(extract_objects(caption, table))
        yield rid, mentioned, canonical_set(gt_names, table, at)


def _send_part(path, table, start, size, results):
    """A caption reader process: its part's captions, or the first error
    in them, in one message. The captions are sent as (ids, keys, sets):
    each one's id; two keys each, the indices in sets of its mentioned and
    its ground-truth classes; and the part's distinct class sets."""
    try:
        with open(path, "rb") as fh:
            # the lines before the part, counted by newlines, as json_lines reads them
            before = 0
            for offset in range(0, start, MAX_LINE):
                before += fh.read(min(MAX_LINE, start - offset)).count(b"\n")
            ids, keys, index = [], [], {}
            for rid, mentioned, ground_truth in _captions(fh, path, table, before + 1, size):
                ids.append(rid)
                keys.append(index.setdefault(mentioned, len(index)))
                keys.append(index.setdefault(ground_truth, len(index)))
            # the keys as unsigned ints of 4 bytes, not one object each
            part = ids, struct.pack(f"{len(keys)}I", *keys), list(index)
    except Exception as exc:  # the parent raises it, in the part's turn
        part = exc
    results.send(part)


def _received_part(path, reader, pipe):
    """A reader process's part, as received in its one message, or its
    error, raised."""
    try:
        part = pipe.recv()
    except EOFError:
        reader.join(1.0)
        raise DataFormatError(
            f"{path}: a caption reader process died (exit code {reader.exitcode})"
        ) from None
    if isinstance(part, BaseException):
        raise part
    return part


def load_pope_records(path):
    """Probe JSONL {"id","predicted":"yes|no","gold":"yes|no"} -> PopeRecords."""
    records = []
    for at, record in _jsonl(path):
        rid = json_field(record, "id", str, at)
        try:  # PopeRecord's own check refuses a missing or non-string answer
            records.append(PopeRecord(rid, record.get("predicted"), record.get("gold")))
        except ValueError as exc:
            raise DataFormatError(f"{at}: {exc}") from None
    if not records:
        raise DataFormatError(f"{path}: no probe records")
    return records


def load_ground_truth(path):
    """Ground-truth JSONL {"id","ground_truth":[...]} -> {id: [names]}."""
    table = {}
    for at, record in _jsonl(path):
        rid = json_field(record, "id", str, at)
        names = _ground_truth_names(record, at)
        if rid in table:
            raise DataFormatError(f"{at}: duplicate id {rid!r}")
        table[rid] = list(names)
    return table
