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
decoder process that dies): every failure the CLI exits 2 for.
"""

import functools
import importlib.resources
import json

from ..metrics import CaptionRecord, PopeRecord, extract_objects

MAX_LINE = 1 << 20  # bytes in one line of JSON, newline excluded

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


def json_lines(stream, where, error=DataFormatError):
    """("<where>:<line number>", JSON value) for each non-blank line of a
    binary stream.

    A line is read up to MAX_LINE + 1 bytes, so an over-long line is refused
    before it is held whole; lines end at "\n" ("\r\n" is fine) and are
    stripped before they are parsed.
    """
    read_line = functools.partial(stream.readline, MAX_LINE + 1)
    for line_no, raw in enumerate(iter(read_line, b""), start=1):
        at = f"{where}:{line_no}"
        if len(raw) > MAX_LINE and not raw.endswith(b"\n"):
            raise error(f"{at}: line longer than {MAX_LINE} bytes")
        line = decode_utf8(raw, at, error).strip()
        if line:
            yield at, parse_json(line, at, error)


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
    """
    records = []
    shared = {}  # class set -> the first frozenset seen with it
    for at, record in _jsonl(path):
        rid = json_field(record, "id", str, at)
        caption = json_field(record, "caption", str, at)
        gt_names = _ground_truth_names(record, at)
        mentioned = frozenset(extract_objects(caption, table))
        ground_truth = canonical_set(gt_names, table, at)
        records.append(
            CaptionRecord(
                id=rid,
                mentioned=shared.setdefault(mentioned, mentioned),
                ground_truth=shared.setdefault(ground_truth, ground_truth),
            )
        )
    if not records:
        raise DataFormatError(f"{path}: no caption records")
    return records


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
